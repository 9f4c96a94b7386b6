"""Level-set discretization of sampled functions into diagonal f-algebras.

Starting from grid samples of functions with values in [0, 1] (typically
the positive and negative parts of cylinder generators) and of a weight
function, the pipeline is:

1. :func:`build_partition` -- uniform cuts ``0 = c_0 < ... < c_{N+1} = 1 + delta``
   with mesh at most ``delta`` (cells are left-closed, right-open; the top
   cut exceeds 1 so the value 1 falls inside a cell).
2. :func:`atomize` -- fingerprint every grid point by the cell of each
   function; distinct fingerprints are the atoms.
3. :func:`discretize_function` -- replace a function by the lower cell
   endpoint on each atom, giving ``0 <= f_d <= f`` and ``f - f_d < delta``.
4. :func:`discrete_weight` -- same for the weight, floored at ``c_1`` so
   all discrete weights stay strictly positive.
5. :func:`build_diagonal_algebra` -- atoms with those weights form a
   semiprime diagonal f-algebra whose product tracks the sampled one up to
   ``delta``:  ``|x . y| <= |x * y| + delta`` for unit-sup x, y.

For sampled generators steps 1-4 are one call,
``discretize_generators(values, w, delta)``: it splits each generator into
its positive and negative parts, atomizes once, and reads the discretes, the
weights and each generator's row ``pos_d - neg_d`` from the fingerprints.
The ``discretize`` command and :mod:`latalg.freenorm` both use it.

On a finite grid every sampled function is simple, which is exactly why the
construction is exact here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .expr import Add, Expr, Join, Mul, Scale, Var, Zero, fold
from .models import DiagonalAlgebra, WeightedGridModel
from .seeding import seeded_rng

__all__ = [
    "PartitionSpec", "AtomDecomposition", "build_partition", "atomize",
    "discretize_function", "discrete_weight", "DiscreteGenerators", "discretize_generators",
    "build_diagonal_algebra", "lift_to_grid", "verify_bounds", "BoundsReport", "error_budget",
]


@dataclass(frozen=True, eq=False)
class PartitionSpec:
    """Cuts ``0 = c_0 < ... < c_{N+1} = 1 + delta`` with mesh <= delta."""

    cuts: np.ndarray
    delta: float

    @property
    def mesh(self) -> float:
        return float(np.max(np.diff(self.cuts)))

    def cell_index(self, values) -> np.ndarray:
        """Index i with ``c_i <= v < c_{i+1}`` per value; raises outside range."""
        v = np.asarray(values, dtype=float)
        if not np.all((v >= 0.0) & (v < self.cuts[-1])):  # NaN fails both
            raise ValueError(f"values must lie in [0, {self.cuts[-1]})")
        return np.searchsorted(self.cuts, v, side="right") - 1

    def lower(self, idx) -> np.ndarray:
        return self.cuts[np.asarray(idx)]


def build_partition(delta: float) -> PartitionSpec:
    """Uniform cuts of mesh <= delta covering [0, 1 + delta]."""
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    cells = max(2, math.ceil((1.0 + delta) / delta - 1e-9))
    cuts = np.linspace(0.0, 1.0 + delta, cells + 1)
    return PartitionSpec(cuts, float(delta))


def _values(f) -> np.ndarray:
    """Accept raw arrays or grid/star functions carrying ``.values``."""
    raw = getattr(f, "values", f)
    return np.asarray(raw, dtype=float).reshape(-1)


@dataclass(eq=False)
class AtomDecomposition:
    """Partition of the grid into atoms of the fingerprint algebra.

    ``fingerprints[a]`` holds the cell index of every fingerprinted function
    (inputs first, the weight last) on atom ``a``; atoms are numbered in
    sorted fingerprint order, so the decomposition is deterministic.
    """

    atom_of_point: np.ndarray
    fingerprints: np.ndarray

    @property
    def atom_count(self) -> int:
        return self.fingerprints.shape[0]

    @property
    def grid_size(self) -> int:
        return self.atom_of_point.shape[0]


def atomize(split_fns: Sequence, w, partition: PartitionSpec) -> AtomDecomposition:
    """Fingerprint grid points by the partition cells of every function.

    All function values must lie in ``[0, 1 + delta)``; two points share an
    atom exactly when all their cell indices agree.
    """
    columns = [partition.cell_index(_values(f)) for f in split_fns]
    columns.append(partition.cell_index(_values(w)))
    # Points in lexicographic order of their cell indices, first function
    # most significant (the order of np.unique(axis=0)); an atom starts
    # wherever a point's indices differ from those of the point before it.
    # Working one column at a time keeps no (points, functions) array alive.
    order = np.lexsort(columns[::-1])
    starts = np.zeros(order.shape[0], dtype=bool)
    starts[:1] = True
    for column in columns:
        ordered = column[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    atom_of_point = np.empty(order.shape[0], dtype=np.intp)
    atom_of_point[order] = np.cumsum(starts) - 1
    first = order[starts]
    return AtomDecomposition(atom_of_point, np.stack([column[first] for column in columns], axis=1))


def lift_to_grid(coeffs: np.ndarray, atoms: AtomDecomposition) -> np.ndarray:
    """Expand per-atom coefficients back to per-grid-point values."""
    return np.asarray(coeffs, dtype=float)[atoms.atom_of_point]


def _constant_cell_per_atom(cells: np.ndarray, atoms: AtomDecomposition) -> np.ndarray:
    atom_cell = np.full(atoms.atom_count, -1, dtype=cells.dtype)
    atom_cell[atoms.atom_of_point] = cells  # last write wins; verified below
    if np.any(atom_cell[atoms.atom_of_point] != cells):
        raise ValueError("function is not constant-cell on the atoms")
    return atom_cell


def discretize_function(f, atoms: AtomDecomposition, partition: PartitionSpec) -> np.ndarray:
    """Per-atom coefficient: the lower endpoint of the function's cell.

    Requires the function to occupy a single cell on each atom (guaranteed
    when it was one of the fingerprinted inputs).  The discrete version
    satisfies ``0 <= f_d <= f`` and ``f - f_d < delta`` pointwise.
    """
    cells = partition.cell_index(_values(f))
    atom_cell = _constant_cell_per_atom(cells, atoms)
    return partition.lower(atom_cell)


def discrete_weight(w, atoms: AtomDecomposition, partition: PartitionSpec) -> np.ndarray:
    """Lower-endpoint weights floored at ``c_1`` so they stay positive.

    On each atom ``|c_t - w| <= delta`` still holds after flooring.
    """
    cells = partition.cell_index(_values(w))
    atom_cell = _constant_cell_per_atom(cells, atoms)
    coeffs = partition.lower(atom_cell)
    return np.where(atom_cell == 0, partition.cuts[1], coeffs)


@dataclass(eq=False)
class DiscreteGenerators:
    """Sampled generators discretized for one mesh parameter: ``splits`` are
    the positive and negative part of each generator in turn, ``discretes``
    their per-atom lower cell endpoints, ``coefficients[i]`` is ``pos_d - neg_d``
    of the i-th generator."""

    atoms: AtomDecomposition
    splits: list[np.ndarray]
    discretes: list[np.ndarray]
    weights: np.ndarray
    coefficients: np.ndarray  # shape (generators, atoms)


def discretize_generators(values: Sequence[np.ndarray], w, delta: float) -> DiscreteGenerators:
    """Split, atomize and discretize sampled generators against the weight ``w``.

    The result equals :func:`atomize` of the splits followed by
    :func:`discrete_weight` and :func:`discretize_function`, but everything
    after the atomization is read from the fingerprints.  Raises
    :class:`ValueError` when a split or the weight leaves ``[0, 1 + delta)``.
    """
    partition = build_partition(delta)
    splits = [part for v in values for part in (np.maximum(v, 0.0), np.maximum(-v, 0.0))]
    atoms = atomize(splits, w, partition)
    lower = partition.lower(atoms.fingerprints)  # one column per function, weight last
    weights = np.where(atoms.fingerprints[:, -1] == 0, partition.cuts[1], lower[:, -1])
    coefficients = np.ascontiguousarray((lower[:, 0:-1:2] - lower[:, 1:-1:2]).T)
    return DiscreteGenerators(atoms, splits, list(lower[:, :-1].T), weights, coefficients)


def build_diagonal_algebra(atoms: AtomDecomposition, weights: np.ndarray) -> DiagonalAlgebra:
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (atoms.atom_count,):
        raise ValueError("need one weight per atom")
    return DiagonalAlgebra(weights)


# ---------------------------------------------------------------------------
# A-posteriori verification

def error_budget(e: Expr, delta: float, var_magnitudes: Mapping[str, float] | None = None) -> float:
    """Sound bound on ``sup |e(originals, *) - e(discretes, .)|``.

    Derived from the majorant recursion: per-variable error ``delta``,
    additive through sums and joins, and through a product
    ``m1*b2 + m2*b1 + delta*m1*m2`` where the ``m`` are magnitude bounds
    (both products carry weights at most 1 and the weights differ by at
    most ``delta``).
    """
    mags = dict(var_magnitudes or {})

    def scale(node: Scale, child: tuple[float, float]) -> tuple[float, float]:
        m, b = child
        return abs(node.coeff) * m, abs(node.coeff) * b

    def total(node: Expr, left: tuple[float, float], right: tuple[float, float]):
        (m1, b1), (m2, b2) = left, right
        return m1 + m2, b1 + b2

    def product(node: Mul, left: tuple[float, float], right: tuple[float, float]):
        (m1, b1), (m2, b2) = left, right
        return m1 * m2, m1 * b2 + m2 * b1 + delta * m1 * m2

    ops = {Zero: lambda node: (0.0, 0.0), Var: lambda node: (mags.get(node.name, 1.0), delta),
           Scale: scale, Add: total, Join: total, Mul: product}
    return fold(e, ops)[1]


@dataclass
class BoundsReport:
    atoms: int
    delta: float
    split_sup_errors: list[float]
    product_trials: int
    product_bound_violations: int
    composite_observed: float | None
    composite_budget: float | None

    @property
    def max_split_error(self) -> float:
        return max(self.split_sup_errors, default=0.0)

    @property
    def ok(self) -> bool:
        within_budget = (self.composite_observed is None
                         or self.composite_observed <= self.composite_budget)
        return (self.max_split_error < self.delta
                and self.product_bound_violations == 0
                and within_budget)

    def to_json(self) -> dict:
        return {
            "atoms": self.atoms,
            "delta": self.delta,
            "supError": self.max_split_error,
            "splitSupErrors": self.split_sup_errors,
            "productTrials": self.product_trials,
            "productBoundViolations": self.product_bound_violations,
            "compositeObserved": self.composite_observed,
            "compositeBudget": self.composite_budget,
            "ok": self.ok,
        }


def verify_bounds(originals: Sequence, discretes: Sequence[np.ndarray], w, weights: np.ndarray,
                  atoms: AtomDecomposition, delta: float, pair_trials: int = 200,
                  seed: int = 0, composite: Expr | None = None,
                  composite_gens: Mapping[str, tuple] | None = None) -> BoundsReport:
    """Check the discretization guarantees on the sampled data.

    * each discrete function satisfies ``0 <= f_d <= f`` and
      ``sup(f - f_d) < delta``;
    * for ``pair_trials`` random pairs in the atom span with sup norm <= 1,
      ``|x . y| <= |x * y| + delta`` pointwise (``.`` the diagonal product,
      ``*`` the sampled weighted product);
    * optionally, a composite term evaluated on the grid versus in the
      algebra stays within :func:`error_budget`.  ``composite_gens`` maps
      each variable to ``(original grid values, per-atom coefficients)``.
    """
    w_vals = _values(w)
    split_sup_errors = []
    for f, f_d in zip(originals, discretes):
        f_vals = _values(f)
        lifted = lift_to_grid(f_d, atoms)
        gap = f_vals - lifted
        if np.any(lifted < 0.0) or np.any(gap < 0.0):
            raise ValueError("discrete function fails 0 <= f_d <= f")
        split_sup_errors.append(float(np.max(gap, initial=0.0)))

    rng = seeded_rng(seed, 31)
    violations = 0
    for _ in range(pair_trials):
        x = rng.uniform(-1, 1, atoms.atom_count)
        y = rng.uniform(-1, 1, atoms.atom_count)
        circ = lift_to_grid(weights * x * y, atoms)
        x_lift, y_lift = lift_to_grid(x, atoms), lift_to_grid(y, atoms)
        star = w_vals * x_lift * y_lift
        if np.any(np.abs(circ) > np.abs(star) + delta + 1e-12):
            violations += 1

    observed = budget = None
    if composite is not None:
        composite_gens = composite_gens or {}
        grid_model = WeightedGridModel(w_vals)
        algebra = build_diagonal_algebra(atoms, weights)
        grid_assignment = {v: grid_model.element(_values(orig))
                           for v, (orig, _) in composite_gens.items()}
        alg_assignment = {v: algebra.element(np.asarray(coeffs, dtype=float))
                          for v, (_, coeffs) in composite_gens.items()}
        on_grid = grid_model.evaluate(composite, grid_assignment).values
        in_algebra = lift_to_grid(algebra.evaluate(composite, alg_assignment).values, atoms)
        observed = float(np.max(np.abs(on_grid - in_algebra), initial=0.0))
        mags = {v: float(np.max(np.abs(_values(orig)), initial=0.0))
                for v, (orig, _) in composite_gens.items()}
        budget = error_budget(composite, delta, mags)

    return BoundsReport(atoms.atom_count, float(delta), split_sup_errors,
                        pair_trials, violations, observed, budget)
