"""Finite f-algebra models with a shared evaluation contract.

Every model here is a finite point set carrying the coordinatewise lattice
operations and the sup norm; what varies is the product:

* :class:`WeightedGridModel` -- ``(x*y)(t) = w(t) x(t) y(t)`` with weights
  in [0, 1] (so the sup norm is automatically submultiplicative);
* :class:`DiagonalAlgebra` -- the same product with strictly positive
  weights, which makes it semiprime;
* :class:`ZeroProductModel` -- the same product with every weight 0, so
  the product is identically zero.

Models are immutable after construction and evaluation is pure.  Elements
of different model instances must not be mixed.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .expr import Expr, MissingVariableError, eval_pointwise
from .seeding import seeded_rng

__all__ = [
    "ModelError", "ModelElement", "FiniteModel",
    "WeightedGridModel", "DiagonalAlgebra", "ZeroProductModel",
    "check_f_algebra_condition", "check_semiprime",
    "check_fstar", "check_submultiplicative", "square_zero_witness",
    "ConditionReport", "model_to_json",
    "random_weighted_grid", "random_diagonal", "model_suite",
]


class ModelError(ValueError):
    pass


class ModelElement:
    """A vector of coordinates tied to its owning model."""

    __slots__ = ("model", "values")

    def __init__(self, model: "FiniteModel", values: np.ndarray):
        self.model = model
        self.values = values

    def sup_norm(self) -> float:
        return float(np.maximum.reduce(np.abs(self.values), initial=0.0))

    def __repr__(self) -> str:
        return f"ModelElement({self.model.kind}, {self.values!r})"


class FiniteModel:
    """Base class: finite coordinate lattice with a model-specific product."""

    kind = "abstract"

    def __init__(self, size: int):
        if size < 1:
            raise ModelError("model needs at least one point")
        self.size = int(size)

    def product_values(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def element(self, values) -> ModelElement:
        arr = np.asarray(values, dtype=float)
        if arr.shape != (self.size,):
            raise ModelError(f"expected {self.size} coordinates, got shape {arr.shape}")
        return ModelElement(self, arr)

    def basis(self, j: int) -> ModelElement:
        values = np.zeros(self.size)
        values[j] = 1.0
        return ModelElement(self, values)

    def random_element(self, rng: np.random.Generator) -> ModelElement:
        """An element with coordinates uniform in [-1, 1]."""
        return ModelElement(self, rng.uniform(-1.0, 1.0, self.size))

    def evaluate(self, e: Expr, assignment) -> ModelElement:
        """Evaluate ``e`` with the model's operations (join = coordinatewise max).

        Every element of ``assignment`` must belong to this model.
        """
        values = {}
        for name, el in assignment.items():
            if not isinstance(el, ModelElement) or el.model is not self:
                raise ModelError(f"variable {name!r} is bound to an element of another model")
            values[name] = el.values
        try:
            out = eval_pointwise(e, values, self.product_values)
        except MissingVariableError as exc:
            raise ModelError(str(exc)) from None
        if not isinstance(out, np.ndarray):  # a term without variables
            out = np.full(self.size, out)
        return ModelElement(self, out)


class WeightedGridModel(FiniteModel):
    """Pointwise product damped by per-point weights in [0, 1]."""

    kind = "weighted_grid"

    def __init__(self, weights):
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1:
            raise ModelError("weights must be a vector")
        if not np.all((weights >= 0.0) & (weights <= 1.0)):  # NaN fails both
            raise ModelError("weights must lie in [0, 1]")
        super().__init__(weights.shape[0])
        self.weights = weights

    def product_values(self, a, b):
        return self.weights * a * b


class DiagonalAlgebra(WeightedGridModel):
    """Semiprime diagonal f-algebra: atoms with strictly positive weights.

    Distinct atoms multiply to zero; an atom squared is itself scaled by its
    weight.  Extended by linearity this is the coordinatewise weighted
    product.
    """

    kind = "diagonal"

    def __init__(self, weights):
        weights = np.asarray(weights, dtype=float)
        if weights.ndim == 1 and not np.all(weights > 0.0):
            raise ModelError("diagonal weights must be strictly positive")
        super().__init__(weights)


class ZeroProductModel(WeightedGridModel):
    """Coordinate lattice with the identically zero product: every weight is 0."""

    kind = "zero_product"

    def __init__(self, points: int):
        super().__init__(np.zeros(max(int(points), 0)))


# ---------------------------------------------------------------------------
# Axiom checks

class ConditionReport:
    """Outcome of a randomized axiom check, with witnesses for violations."""

    def __init__(self, name: str, trials: int):
        self.name = name
        self.trials = trials
        self.violations: list[dict] = []

    @property
    def ok(self) -> bool:
        return not self.violations

    def record(self, **witness):
        self.violations.append(witness)

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violations"
        return f"ConditionReport({self.name}: {self.trials} trials, {status})"


def _disjoint_pair(rng: np.random.Generator, shape):
    """Nonnegative arrays of ``shape`` with disjoint supports: a fair coin per
    entry picks which of the two may be nonzero there."""
    mask = rng.integers(0, 2, shape).astype(float)
    x = np.abs(rng.uniform(-1, 1, shape)) * mask
    y = np.abs(rng.uniform(-1, 1, shape)) * (1.0 - mask)
    return x, y


def check_f_algebra_condition(model: FiniteModel, trials: int = 100,
                              seed: int = 0) -> ConditionReport:
    """Check that multiplying by a positive element preserves disjointness.

    For random z >= 0 and support-disjoint x, y >= 0 this asserts
    ``(z*x) /\\ y == 0`` and ``(x*z) /\\ y == 0`` coordinatewise.
    """
    report = ConditionReport("f_algebra_condition", trials)
    rng = seeded_rng(seed, 1)
    for trial in range(trials):
        x, y = _disjoint_pair(rng, model.size)
        z = np.abs(rng.uniform(-1, 1, model.size))
        left = np.minimum(model.product_values(z, x), y)
        right = np.minimum(model.product_values(x, z), y)
        worst = max(np.max(np.abs(left), initial=0.0), np.max(np.abs(right), initial=0.0))
        if worst != 0.0:
            report.record(trial=trial, residual=worst)
    return report


def square_zero_witness(model: FiniteModel) -> ModelElement | None:
    """A nonzero element squaring to zero, or None if the model is semiprime."""
    if isinstance(model, WeightedGridModel):
        zero_points = np.flatnonzero(model.weights == 0.0)
        if zero_points.size == 0:
            return None
        return model.basis(int(zero_points[0]))
    for j in range(model.size):
        e = model.basis(j)
        if np.all(model.product_values(e.values, e.values) == 0.0):
            return e
    return None


def check_semiprime(model: FiniteModel, trials: int = 100, seed: int = 0) -> bool:
    """True iff no nonzero element squares to zero.

    Decidable outright for the weighted models (all weights positive); for
    unknown models this probes basis vectors and random elements.
    """
    if isinstance(model, WeightedGridModel):
        return bool(np.all(model.weights > 0.0))
    if square_zero_witness(model) is not None:
        return False
    rng = seeded_rng(seed, 2)
    for _ in range(trials):
        x = rng.uniform(-1, 1, model.size)
        if np.any(x != 0.0) and np.all(model.product_values(x, x) == 0.0):
            return False
    return True


def check_fstar(model: FiniteModel, trials: int = 100, seed: int = 0) -> bool:
    """Check ``ab == 0`` iff ``|a| /\\ |b| == 0`` on probes and random pairs.

    Agrees with :func:`check_semiprime` on f-algebras.
    """
    if square_zero_witness(model) is not None:
        return False  # a*a = 0 while |a| /\ |a| = |a| != 0
    rng = seeded_rng(seed, 3)
    for _ in range(trials):
        x, y = _disjoint_pair(rng, model.size)
        if np.any(model.product_values(x, y) != 0.0):
            return False  # disjoint pair with nonzero product
        a = rng.uniform(-1, 1, model.size)
        b = rng.uniform(-1, 1, model.size)
        prod_zero = np.all(model.product_values(a, b) == 0.0)
        meet_zero = np.all(np.minimum(np.abs(a), np.abs(b)) == 0.0)
        if prod_zero != meet_zero:
            return False
    return True


def check_submultiplicative(model: FiniteModel, trials: int = 100, seed: int = 0) -> bool:
    """Check ``sup|x*y| <= sup|x| * sup|y|`` on basis pairs and random pairs."""
    slack = 1.0 + 1e-12
    probe = min(model.size, 32)
    for i in range(probe):
        for j in range(probe):
            a, b = model.basis(i).values, model.basis(j).values
            if np.max(np.abs(model.product_values(a, b)), initial=0.0) > slack:
                return False
    rng = seeded_rng(seed, 4)
    for _ in range(trials):
        a = rng.uniform(-1, 1, model.size)
        b = rng.uniform(-1, 1, model.size)
        bound = np.max(np.abs(a)) * np.max(np.abs(b))
        if np.max(np.abs(model.product_values(a, b)), initial=0.0) > bound * slack:
            return False
    return True


# ---------------------------------------------------------------------------
# Serialization and random model factories

def model_to_json(model: FiniteModel) -> dict:
    if isinstance(model, ZeroProductModel):
        return {"kind": "zero_product", "points": model.size}
    if isinstance(model, DiagonalAlgebra):
        return {"kind": "diagonal", "weights": model.weights.tolist()}
    if isinstance(model, WeightedGridModel):
        return {"kind": "weighted_grid", "weights": model.weights.tolist()}
    raise ModelError(f"cannot serialize model kind {model.kind!r}")


def random_weighted_grid(rng: np.random.Generator, size: int) -> WeightedGridModel:
    return WeightedGridModel(rng.uniform(0.0, 1.0, size))


def random_diagonal(rng: np.random.Generator, size: int) -> DiagonalAlgebra:
    # 1 - U[0,1) lies in (0, 1].
    return DiagonalAlgebra(1.0 - rng.random(size))


def model_suite(seed: int = 0) -> list[FiniteModel]:
    """Deterministic collection of models used for identity transport: 20
    weighted grids, then 20 diagonal algebras, each of 1 to 12 points, then a
    7-point zero-product model.  Built once per seed (models are immutable);
    each call returns a new list."""
    return list(_suite(seed))


@lru_cache(maxsize=16)
def _suite(seed: int) -> tuple[FiniteModel, ...]:
    rng = seeded_rng(seed, 5)
    suite: list[FiniteModel] = [random_weighted_grid(rng, int(rng.integers(1, 13)))
                                for _ in range(20)]
    suite += [random_diagonal(rng, int(rng.integers(1, 13))) for _ in range(20)]
    suite.append(ZeroProductModel(7))
    return tuple(suite)
