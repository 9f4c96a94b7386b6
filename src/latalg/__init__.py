"""latalg: a symbolic-numeric toolkit for lattice-algebra expressions.

Expressions are built from variables, 0, real scaling, addition, join and a
product.  The package provides a parser/printer and evaluator for these
terms (:mod:`latalg.expr`), symbolic rewrites including the product-kill
transform, a split-variable normal form and polynomial majorants
(:mod:`latalg.rewrite`), finite f-algebra models with axiom checkers
(:mod:`latalg.models`), the chunked vanishing checks on the dual ball, the
reals and the models (:mod:`latalg.ball`), the cylinder function model
(:mod:`latalg.cylinder`), a level-set discretizer that
turns sampled functions into finite diagonal f-algebras
(:mod:`latalg.discretize`), and a two-sided estimator of the free norm
(:mod:`latalg.freenorm`).
"""

__version__ = "0.1.0"

from .ball import (
    BallGrid,
    lattice_projection,
    limit_profile,
    transport_residual,
    vanishes_on_ball,
    vanishes_on_reals,
)
from .cylinder import (
    CylinderGrid,
    StarFunction,
    check_star_axioms,
    constant_one,
    cylinder_extension,
    generator,
    star_product,
    strong_unit_candidate,
    transport_to_cube,
    unit_norm,
)
from .discretize import (
    AtomDecomposition,
    PartitionSpec,
    atomize,
    build_partition,
    discrete_weight,
    discretize_function,
    discretize_generators,
    error_budget,
    lift_to_grid,
    verify_bounds,
)
from .expr import (
    Abs,
    Add,
    Assignment,
    Expr,
    Join,
    Meet,
    Mul,
    Neg,
    NegPart,
    ParseError,
    Pos,
    Scale,
    Var,
    Zero,
    complexity,
    cosh_sinh_witness,
    eval_pointwise,
    eval_real,
    parse,
    print_expr,
    random_expr,
    substitute,
    variables,
)
from .freenorm import (
    NormSandwich,
    OperatorIntoAlgebra,
    SearchConfig,
    evaluate_operator,
    majorant_upper_bound,
    norm_sandwich,
    operator_lower_bound,
    product_free_lower_bound,
)
from .models import (
    DiagonalAlgebra,
    ModelElement,
    WeightedGridModel,
    ZeroProductModel,
    check_f_algebra_condition,
    check_fstar,
    check_semiprime,
    check_submultiplicative,
    model_from_json,
    model_suite,
    model_to_json,
)
from .rewrite import (
    NormalForm,
    NormalFormBudgetError,
    Polynomial,
    normal_form,
    normal_form_to_expr,
    polynomial_majorant,
    product_kill,
    zero_simplify,
)

__all__ = [
    "__version__",
    # expressions
    "Expr", "Zero", "Var", "Scale", "Add", "Join", "Mul",
    "Meet", "Pos", "NegPart", "Abs", "Neg",
    "Assignment", "ParseError",
    "parse", "print_expr", "complexity", "substitute",
    "eval_real", "eval_pointwise", "variables", "random_expr",
    "cosh_sinh_witness",
    # rewrites
    "Polynomial", "NormalForm", "NormalFormBudgetError",
    "product_kill", "normal_form", "normal_form_to_expr",
    "polynomial_majorant", "zero_simplify",
    # models
    "ModelElement", "WeightedGridModel", "DiagonalAlgebra", "ZeroProductModel",
    "check_f_algebra_condition", "check_semiprime",
    "check_fstar", "check_submultiplicative",
    "model_to_json", "model_from_json", "model_suite",
    # dual ball
    "BallGrid", "vanishes_on_ball",
    "vanishes_on_reals", "transport_residual", "lattice_projection", "limit_profile",
    # cylinder
    "CylinderGrid", "StarFunction", "star_product", "generator",
    "constant_one", "cylinder_extension", "strong_unit_candidate",
    "unit_norm", "check_star_axioms", "transport_to_cube",
    # discretizer
    "PartitionSpec", "AtomDecomposition", "build_partition", "atomize",
    "discretize_function", "discrete_weight", "discretize_generators",
    "lift_to_grid", "verify_bounds", "error_budget",
    # norm estimation
    "OperatorIntoAlgebra", "NormSandwich", "SearchConfig",
    "operator_lower_bound", "majorant_upper_bound", "norm_sandwich",
    "product_free_lower_bound", "evaluate_operator",
]
