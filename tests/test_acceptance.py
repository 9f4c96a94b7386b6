"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines).  Every tolerance is pinned here; nothing is deferred
to calibration.
"""

import random

import numpy as np

from latalg.ball import limit_profile, vanishes_on_reals
from latalg.cylinder import (
    CylinderGrid, check_star_axioms, constant_one, cylinder_extension, generator,
    star_product, strong_unit_candidate,
)
from latalg.discretize import (
    atomize, build_partition, discrete_weight, discretize_function, verify_bounds,
)
from latalg.expr import (
    Mul, Var, cosh_sinh_witness, eval_pointwise, eval_real, parse, random_expr,
    variables,
)
from latalg.freenorm import (
    OperatorIntoAlgebra, SearchConfig, evaluate_operator, majorant_upper_bound,
    norm_sandwich, operator_lower_bound, product_free_lower_bound,
)
from latalg.models import ZeroProductModel, model_suite
from latalg.rewrite import (
    NormalFormBudgetError, normal_form, normal_form_to_expr, polynomial_majorant,
    product_kill,
)

IDENTITIES = [
    "pos(x)*neg(x)",
    "(x \\/ y) + (x /\\ y) - x - y",
    "abs(x*y) - abs(x)*abs(y)",
    "((x \\/ y)*pos(z)) - ((x*pos(z)) \\/ (y*pos(z)))",
]


def _report(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


def test_c01_kernel_witness():
    # ((x+)^2 - x+)+ is exactly zero on 10001 uniform points of [-1, 1] and
    # takes the value 2 at x = 2.
    witness = parse("pos(pos(x)*pos(x) - pos(x))")
    xs = np.linspace(-1.0, 1.0, 10_001)
    values = eval_pointwise(witness, {"x": xs})
    assert np.max(np.abs(values)) == 0.0
    assert eval_real(witness, {"x": 2.0}) == 2.0
    _report("1 kernel witness")


def test_c02_identity_transport():
    rng = np.random.default_rng(202)
    models = model_suite(seed=202)
    for text in IDENTITIES:
        e = parse(text)
        names = variables(e)
        report = vanishes_on_reals(e, scale=3.0, grid_per_axis=201,
                                   samples=10_000, seed=7, tol=1e-9)
        assert report.vanishes, (text, report.max_scaled_residual)
        majorant = polynomial_majorant(e)
        for model in models:
            for _ in range(3):
                assignment = {v: model.random_element(rng) for v in names}
                value = model.evaluate(e, assignment).sup_norm()
                bound = float(majorant.evaluate(
                    {v: a.sup_norm() for v, a in assignment.items()}))
                assert value <= 1e-9 * (1.0 + bound), (text, type(model).__name__, value)
    _report("2 identity transport")


def test_c03_scaling_limit_law():
    eps_list = [2.0 ** -k for k in range(5, 21)]
    for i in range(50):
        e = random_expr(random.Random(2000 + i), ("x", "y", "z"), 10)
        killed = product_kill(e)
        for j in range(20):
            prng = random.Random(12000 + 100 * i + j)
            lam = {v: prng.uniform(-1.0, 1.0) for v in ("x", "y", "z")}
            profile = limit_profile(e, lam, eps_list)
            base = abs(eval_real(killed, lam))
            assert profile[-1][1] <= 1e-4 * (1.0 + base)
            residuals = [r for _, r in profile]
            for a, b in zip(residuals, residuals[1:]):
                assert b <= 1.1 * a, (i, j, residuals)
    _report("3 scaling limit law")


def test_c04_zero_product_collapse():
    model = ZeroProductModel(6)
    rng = np.random.default_rng(404)
    prng = random.Random(404)
    for _ in range(200):
        e = random_expr(prng, ("x", "y"), 8)
        assignment = {v: model.random_element(rng) for v in variables(e)}
        direct = model.evaluate(e, assignment).values
        collapsed = model.evaluate(product_kill(e), assignment).values
        assert np.array_equal(direct, collapsed)
    _report("4 zero-product collapse")


def test_c05_normal_form():
    from latalg.models import random_weighted_grid

    prng = random.Random(505)
    nprng = np.random.default_rng(505)
    grids = [random_weighted_grid(nprng, int(nprng.integers(2, 9))) for _ in range(5)]
    checked = 0
    attempts = 0
    while checked < 50:
        attempts += 1
        assert attempts < 500
        e = random_expr(random.Random(9000 + attempts), ("x", "y"), 8)
        try:
            nf = normal_form(e)
        except NormalFormBudgetError:
            continue
        checked += 1
        names = variables(e)
        for t in range(100):
            a = {v: prng.uniform(-3.0, 3.0) for v in names}
            lhs = eval_real(e, a)
            rhs = float(nf.evaluate(a))
            assert abs(lhs - rhs) <= 1e-6 * (1.0 + abs(lhs))
        back = normal_form_to_expr(nf)
        for model in grids:
            assignment = {v: model.random_element(nprng)
                          for v in set(names) | set(variables(back))}
            lhs = model.evaluate(e, assignment).values
            rhs = model.evaluate(back, assignment).values
            assert np.max(np.abs(lhs - rhs), initial=0.0) <= 1e-6 * (1.0 + np.max(np.abs(lhs), initial=0.0))

    for i in range(20):
        e = random_expr(random.Random(700 + i), ("x",), 6)
        nf = normal_form(e)
        for lam in (0.5, 1.25, 2.75):
            plus = float(nf.evaluate_split({"x+": lam, "x-": 0.0}))
            assert abs(plus - eval_real(e, {"x": lam})) <= 1e-6 * (1.0 + abs(plus))
            minus = float(nf.evaluate_split({"x+": 0.0, "x-": lam}))
            assert abs(minus - eval_real(e, {"x": -lam})) <= 1e-6 * (1.0 + abs(minus))
    _report("5 normal form")


def test_c06_star_model():
    grid = CylinderGrid.regular(2, r_levels=33, face_points=8)
    one = constant_one(grid)
    weight = star_product(one, one)
    assert np.array_equal(weight.values, np.broadcast_to(grid.r_levels[:, None], grid.shape))

    axioms = check_star_axioms(grid, trials=100, seed=606)
    assert axioms.ok, axioms.violations

    gens = {"v": [1.0, 0.0], "w": [0.0, 1.0]}
    prng = random.Random(606)
    for _ in range(20):
        f = random_expr(prng, ("v", "w"), 6)
        g = random_expr(prng, ("v", "w"), 6)
        lhs = cylinder_extension(Mul(f, g), gens, grid)
        rhs = star_product(cylinder_extension(f, gens, grid),
                           cylinder_extension(g, gens, grid))
        assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-9
    _report("6 star model")


def test_c07_strong_unit():
    for n in (1, 2, 3):
        grid = CylinderGrid.regular(n, r_levels=9, face_points=8)
        unit = strong_unit_candidate(list(np.eye(n)), grid)
        assert unit.grid_min == 1.0 and np.all(unit.function.values == 1.0)
        assert unit.accepted
    grid2 = CylinderGrid.regular(2, r_levels=9, face_points=8)
    rejected = strong_unit_candidate([[1.0, 0.0]], grid2)
    assert rejected.grid_min < 0.5 and not rejected.accepted
    _report("7 strong unit")


def test_c08_discretizer():
    grid = CylinderGrid.regular(2, r_levels=65, face_points=40)
    assert grid.size >= 10_000
    w = np.broadcast_to(grid.r_levels[:, None], grid.shape)
    values = [generator(v, grid).values for v in ([1.0, 0.0], [0.0, 1.0])]
    splits = []
    for val in values:
        splits.extend([np.maximum(val, 0.0), np.maximum(-val, 0.0)])

    previous_errors = None
    for delta in (2.0 ** -5, 2.0 ** -6, 2.0 ** -7):
        partition = build_partition(delta)
        atoms = atomize(splits, w, partition)
        weights = discrete_weight(w, atoms, partition)
        discretes = [discretize_function(s, atoms, partition) for s in splits]
        report = verify_bounds(splits, discretes, w, weights, atoms, delta)
        assert report.max_split_error < delta
        assert report.product_bound_atoms == 0
        if previous_errors is not None:
            assert all(b <= a + 1e-15 for a, b in zip(previous_errors,
                                                      report.split_sup_errors))
        previous_errors = report.split_sup_errors
    _report("8 discretizer")


def test_c09_norm_sandwich():
    config = SearchConfig(search_iters=10_000, seed=909)
    s1 = norm_sandwich(Var("v"), {"v": [1.0]}, config)
    assert abs(s1.lower - 1.0) <= 0.02 and abs(s1.upper - 1.0) <= 0.02

    s2 = norm_sandwich(Mul(Var("v"), Var("v")), {"v": [1.0]}, config)
    assert s2.upper == 1.0 and s2.lower >= 0.95

    for i in range(20):
        e = random_expr(random.Random(910 + i), ("v", "w"), 7)
        s = norm_sandwich(e, {"v": [1, 0], "w": [0, 1]},
                          SearchConfig(search_iters=200, seed=i))
        assert s.lower <= s.upper + 1e-12 * (1.0 + s.upper)

    fast = SearchConfig(search_iters=300, seed=911)
    for text in ("v", "v*v", "pos(v) + v*v"):
        e = parse(text)
        value1, op1 = operator_lower_bound(e, {"v": [1.0]}, fast)
        embedded = OperatorIntoAlgebra(
            op1.algebra, np.vstack([op1.columns, np.zeros_like(op1.columns)]))
        replayed = evaluate_operator(e, {"v": [1.0, 0.0]}, embedded)
        value2, _ = operator_lower_bound(e, {"v": [1.0, 0.0]}, fast)
        assert max(value2, replayed) >= value1 - 1e-12
    _report("9 norm sandwich")


def test_c10_lattice_part_anchor():
    e = parse("abs(v) \\/ abs(w)")
    gens = {"v": [1, 0], "w": [0, 1]}
    lower = product_free_lower_bound(e, gens, tuple_size=2, iters=500, seed=10)
    upper = majorant_upper_bound(e, {"v": 1.0, "w": 1.0})
    assert lower >= 2.0 - 1e-9
    assert upper == 2.0
    assert lower <= upper + 1e-9
    _report("10 lattice-part anchor")


def test_c11_series_counterexample():
    witness = cosh_sinh_witness(10)
    xs = np.linspace(-1.0, 1.0, 2001)
    values = eval_pointwise(witness, {"x": xs, "one": np.ones_like(xs)})
    assert np.max(np.abs(values - xs)) <= 1e-6

    model = ZeroProductModel(5)
    rng = np.random.default_rng(1111)
    for _ in range(10):
        assignment = {"x": model.random_element(rng), "one": model.random_element(rng)}
        assert model.evaluate(witness, assignment).sup_norm() == 0.0
    assert eval_real(Var("x"), {"x": 1.0}) == 1.0
    _report("11 series counterexample")
