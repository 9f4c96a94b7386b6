"""latalg: a symbolic-numeric toolkit for lattice-algebra expressions.

Expressions are built from variables, 0, real scaling, addition, join and a
product.  The package provides a parser/printer and evaluator for these
terms (:mod:`latalg.expr`), symbolic rewrites including the product-kill
transform, a split-variable normal form and polynomial majorants
(:mod:`latalg.rewrite`), finite f-algebra models with axiom checkers
(:mod:`latalg.models`), the vanishing checks on the dual ball, the
reals and the models (:mod:`latalg.ball`), the cylinder function model
(:mod:`latalg.cylinder`), a level-set discretizer that
turns sampled functions into finite diagonal f-algebras
(:mod:`latalg.discretize`), and a two-sided estimator of the free norm
(:mod:`latalg.freenorm`).
"""

__version__ = "0.1.0"

from . import ball, cylinder, discretize, expr, freenorm, models, rewrite, seeding
from .expr import *
from .rewrite import *
from .models import *
from .ball import *
from .cylinder import *
from .discretize import *
from .freenorm import *
from .seeding import *

#: Each module's ``__all__``, in that order; no name is in two of them.
__all__ = ["__version__", *(
    name for module in (expr, rewrite, models, ball, cylinder, discretize, freenorm, seeding)
    for name in module.__all__)]
