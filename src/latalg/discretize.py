"""Level-set discretization of sampled functions into diagonal f-algebras.

Starting from grid samples of functions with values in [0, 1] (typically
the positive and negative parts of cylinder generators) and of a weight
function, the pipeline is:

1. :func:`build_partition` -- uniform cuts ``0 = c_0 < ... < c_{N+1} = 1 + delta``
   with mesh at most ``delta * (1 + 1e-12)`` (cells are left-closed,
   right-open; the top cut exceeds 1 so the value 1 falls inside a cell).
2. :func:`atomize` -- the atoms are the distinct cell fingerprints of the
   grid points; on the cylinder, classes of sphere points times radial cells.
   One sort of one int64 key per point numbers them: the key holds the
   point's cell indices as digits in radix ``N + 1``, so keys order as the
   fingerprints do, and a dense re-rank before a digit would overflow keeps
   that order.
3. :func:`discretize_function` -- replace a function by the lower cell
   endpoint on each atom, giving ``0 <= f_d <= f`` and ``f - f_d < delta``.
4. :func:`discrete_weight` -- same for the weight, floored at ``c_1`` so
   all discrete weights stay strictly positive.
5. the atoms with those weights are a semiprime
   :class:`~latalg.models.DiagonalAlgebra` whose product tracks the sampled
   one up to ``delta``:  ``|x . y| <= |x * y| + delta`` for unit-sup x, y.
   :func:`verify_bounds` decides this exactly, atom by atom: the pair
   ``x = y = 1`` is the worst, so an atom fails for some pair iff its
   ``|weight|`` exceeds the least sampled ``|w|`` on it by more than
   ``delta + 1e-12``.

For cylinder generators, sampled once per sphere point, steps 1-4 are one call
used by the ``discretize`` command and :mod:`latalg.freenorm`:
``discretize_generators(values, grid, delta)``.  Generators do not depend on
``r`` and the weight is ``r``, so two grid points share an atom exactly when
their sphere points share every split's cell and their levels the cell of ``r``:
its atoms come from two :func:`atomize` calls, over the sphere points and the levels.

On a finite grid every sampled function is simple, which is exactly why the
construction is exact here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .ball import REAL_GRID_CAP
from .cylinder import CylinderGrid
from .expr import Add, Expr, Join, Mul, Scale, Var, Zero, fold
from .models import DiagonalAlgebra, WeightedGridModel

__all__ = [
    "PartitionSpec", "AtomDecomposition", "build_partition", "atomize",
    "discretize_function", "discrete_weight", "DiscreteGenerators", "discretize_generators",
    "lift_to_grid", "verify_bounds", "BoundsReport", "error_budget",
]


@dataclass(frozen=True, eq=False)
class PartitionSpec:
    """Cuts ``0 = c_0 < ... < c_{N+1} = 1 + delta`` with mesh <= delta * (1 + 1e-12)."""

    cuts: np.ndarray
    delta: float

    @property
    def mesh(self) -> float:
        return float(np.max(np.diff(self.cuts)))

    def cell_index(self, values) -> np.ndarray:
        """Index i with ``c_i <= v < c_{i+1}`` per value; raises outside range.
        A scalar or 0-d value gives a numpy integer, an array an array.

        Relies on the uniform cuts of :func:`build_partition`: ``c_i`` is
        ``i * top / K`` to a few ulps for its ``K`` cells.  The guess
        ``floor(v * K / top)``, clipped to ``K - 1``, rounds by a few ulps
        too, and with ``K <= 11^6`` that is far below one cell, so for the
        true cell ``i`` the guess is ``i - 1``, ``i`` or ``i + 1``.  One
        comparison with the real cuts each way (down when ``c_guess > v``,
        then up when ``c_{guess+1} <= v``) gives exactly the cell a binary
        search of the cuts would.
        """
        v = np.asarray(values, dtype=float)
        top = self.cuts[-1]
        if not np.all((v >= 0.0) & (v < top)):  # NaN fails both
            raise ValueError(f"values must lie in [0, {top})")
        cells = self.cuts.shape[0] - 1
        idx = np.empty(v.shape, dtype=np.intp)
        np.multiply(v, cells / top, out=idx, casting="unsafe")  # v >= 0: truncation floors
        np.minimum(idx, cells - 1, out=idx)
        idx -= self.cuts[idx] > v
        idx += self.cuts[1:][idx] <= v
        return idx if idx.ndim else idx[()]

    def lower(self, idx) -> np.ndarray:
        return self.cuts[np.asarray(idx)]


def build_partition(delta: float) -> PartitionSpec:
    """Uniform cuts of mesh <= delta * (1 + 1e-12) covering [0, 1 + delta]; more
    than :data:`~latalg.ball.REAL_GRID_CAP` cells are refused before allocating."""
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    # The 1e-12 keeps delta = 0.1 at 11 cells; a float, so a subnormal delta gives inf.
    cells = (1.0 + delta - 1e-12) / delta
    if cells > REAL_GRID_CAP:
        raise ValueError(f"delta = {delta} needs more than the budget of {REAL_GRID_CAP} cells")
    cuts = np.linspace(0.0, 1.0 + delta, max(2, math.ceil(cells)) + 1)
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
    :func:`atomize` stores ``fingerprints`` function-major (the transpose of
    a C-order ``(functions, atoms)`` array), so no caller may assume C order.
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

    All function values must lie in ``[0, 1 + delta)``, one per grid point;
    two points share an atom exactly when all their cell indices agree.

    Each point's cell indices are packed into one int64 key, as digits in
    radix ``K`` (the cell count) with the first function most significant.
    Digits lie in ``[0, K)``, so keys compare as the index tuples do
    lexicographically (the order of ``np.unique(axis=0)``), and one sort of
    the keys numbers the atoms in sorted fingerprint order.  Before a digit
    could overflow the key (``span * K >= 2**62``, on Python ints), the key
    is replaced by its dense rank among the points, which keeps that order.
    """
    columns = [partition.cell_index(_values(f)) for f in [*split_fns, w]]
    if len({column.shape for column in columns}) > 1:
        raise ValueError("need one value per grid point for every function")
    radix = partition.cuts.shape[0] - 1
    key, span = columns[0].astype(np.int64), radix  # keys lie in [0, span)
    for column in columns[1:]:
        if span * radix >= 2 ** 62:
            distinct, key = np.unique(key, return_inverse=True)
            span = distinct.shape[0]
        key *= radix
        key += column
        span *= radix
    # An atom starts wherever a sorted key differs from the one before it.
    order = np.argsort(key)
    key = key[order]
    starts = np.empty(order.shape[0], dtype=bool)
    starts[:1] = True
    np.not_equal(key[1:], key[:-1], out=starts[1:])
    atom_of_point = np.empty(order.shape[0], dtype=np.intp)
    atom_of_point[order] = np.cumsum(starts) - 1
    first = order[starts]
    # Function-major: each column is gathered straight into one contiguous row
    # (``first`` is in range, and "clip" spares the copy "raise" makes of ``out``).
    fingerprints = np.empty((len(columns), first.shape[0]), dtype=np.intp)
    for column, row in zip(columns, fingerprints):
        np.take(column, first, out=row, mode="clip")
    return AtomDecomposition(atom_of_point, fingerprints.T)


def lift_to_grid(coeffs: np.ndarray, atoms: AtomDecomposition) -> np.ndarray:
    """Expand per-atom coefficients back to per-grid-point values."""
    return np.asarray(coeffs, dtype=float)[atoms.atom_of_point]


def discretize_function(f, atoms: AtomDecomposition, partition: PartitionSpec) -> np.ndarray:
    """Per-atom coefficient: the lower endpoint of the function's cell.

    Requires the function to occupy a single cell on each atom (guaranteed
    when it was one of the fingerprinted inputs).  The discrete version
    satisfies ``0 <= f_d <= f`` and ``f - f_d < delta`` pointwise.
    """
    cells = partition.cell_index(_values(f))
    atom_cell = np.full(atoms.atom_count, -1, dtype=cells.dtype)
    atom_cell[atoms.atom_of_point] = cells  # last write wins; verified below
    if np.any(atom_cell[atoms.atom_of_point] != cells):
        raise ValueError("function is not constant-cell on the atoms")
    return partition.lower(atom_cell)


def discrete_weight(w, atoms: AtomDecomposition, partition: PartitionSpec) -> np.ndarray:
    """Lower-endpoint weights floored at ``c_1`` so they stay positive: the cuts
    increase, so the floor lifts cell 0 alone.

    On each atom ``|c_t - w| <= delta`` still holds after flooring.
    """
    return np.maximum(discretize_function(w, atoms, partition), partition.cuts[1])


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
    radial_cells: int  # k_r: atom s * k_r + t is sphere class s in radial cell t


def discretize_generators(values: Sequence[np.ndarray], grid: CylinderGrid,
                          delta: float) -> DiscreteGenerators:
    """Split, atomize and discretize generators sampled once per sphere point
    of ``grid`` against the weight ``r``: atom ``s * k_r + t`` is sphere class
    ``s`` (one :func:`atomize` of the splits) in radial cell ``t`` (one of ``r``
    alone, weighted by :func:`discrete_weight`).  Equals :func:`atomize` over
    the whole grid, then :func:`discrete_weight` and :func:`discretize_function`,
    bit for bit.  Raises :class:`ValueError` when a generator is not one value
    per sphere point, or a split or ``r`` leaves ``[0, 1 + delta)``."""
    partition = build_partition(delta)
    parts = [part for v in values for part in (np.maximum(v, 0.0), np.maximum(-v, 0.0))]
    if any(part.shape != grid.sphere_points.shape[:1] for part in parts):
        raise ValueError("need one value per sphere point for each generator")
    # The zero weight puts every sphere point in cell 0, so it splits no class.
    sphere = atomize(parts, np.zeros(grid.sphere_points.shape[:1]), partition)
    sphere_cells = sphere.fingerprints[:, :-1]
    radial = atomize([], grid.r_levels, partition)  # one atom per radial cell
    k_r = radial.atom_count
    atom_of_point = sphere.atom_of_point * k_r + radial.atom_of_point[:, None]
    cells = np.column_stack([np.repeat(sphere_cells, k_r, axis=0),
                             np.tile(radial.fingerprints, (sphere.atom_count, 1))])
    atoms = AtomDecomposition(atom_of_point.reshape(-1), cells)
    lower = np.repeat(partition.lower(sphere_cells), k_r, axis=0)  # one column per split
    weights = discrete_weight(grid.r_levels, radial, partition)
    return DiscreteGenerators(atoms, [np.broadcast_to(part, grid.shape) for part in parts],
                              list(lower.T), np.tile(weights, sphere.atom_count),
                              np.ascontiguousarray((lower[:, 0::2] - lower[:, 1::2]).T), k_r)


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
    product_bound_atoms: int
    open_atoms: int
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
                and self.product_bound_atoms == 0
                and within_budget)

    def to_json(self) -> dict:
        return {
            "atoms": self.atoms,
            "delta": self.delta,
            "supError": self.max_split_error,
            "splitSupErrors": self.split_sup_errors,
            "productBoundAtoms": self.product_bound_atoms,
            "openAtoms": self.open_atoms,
            "compositeObserved": self.composite_observed,
            "compositeBudget": self.composite_budget,
            "ok": self.ok,
        }


def verify_bounds(originals: Sequence, discretes: Sequence[np.ndarray], w, weights: np.ndarray,
                  atoms: AtomDecomposition, delta: float, *, pair_trials: int | None = None,
                  seed: int | None = None, composite: Expr | None = None,
                  composite_gens: Mapping[str, tuple] | None = None) -> BoundsReport:
    """Check the discretization guarantees on the sampled data.

    * each discrete function satisfies ``0 <= f_d <= f`` and
      ``sup(f - f_d) < delta``;
    * ``|x . y| <= |x * y| + delta`` pointwise for every pair x, y in the atom
      span with sup norm <= 1 (``.`` the diagonal product, ``*`` the sampled
      weighted product), decided exactly, with no pair drawn;
    * optionally, a composite term evaluated on the grid versus in the
      algebra stays within :func:`error_budget`.  ``composite_gens`` maps
      each variable to ``(original grid values, per-atom coefficients)``.

    Atoms do not interact, so the pair bound is decided atom by atom.  On an
    atom of weight ``W`` whose least sampled ``|w|`` is ``L`` (``np.fmin``
    skips a NaN sample, which fails no comparison), ``|W x y| - |L x y|`` is
    ``(|W| - L) |x y|``, largest at ``x = y = 1``.  ``product_bound_atoms``
    counts the atoms with ``|W| > L + delta + 1e-12``, and ``ok`` requires
    none.  In floats each counted atom fails at its indicator pair (``x = y =
    1`` on the atom): those entries are exact, so the pointwise check there
    compares ``|W| > |w| + delta + 1e-12`` at each point of the atom, rounding
    to nearest is monotone, and at the point of least ``|w|`` that is the
    count's own test.  An atom not counted fails at no pair in exact arithmetic.
    ``open_atoms`` counts the atoms that neither ``|W| <= L`` nor
    ``|W| <= delta + 1e-12`` settles (``|x . y| <= |W|``); every counted atom
    is open.  No atom of :func:`discretize_generators` is open: its weight is
    ``c_t <= r`` at every point of its cell ``t >= 1`` of ``r``, and in cell 0
    the first cut ``c_1``, below ``delta + 1e-12``.  ``pair_trials`` and
    ``seed`` are accepted and ignored, for callers that still pass them
    (``bench/workloads.py``).
    Raises :class:`ValueError` unless there is one discrete per original, one
    weight per atom, one ``w`` value per grid point and ``delta > 0``.
    """
    w_vals = _values(w)
    weights = np.asarray(weights, dtype=float)
    if len(originals) != len(discretes):
        raise ValueError(f"{len(originals)} originals but {len(discretes)} discretes")
    if weights.shape != (atoms.atom_count,):
        raise ValueError(f"need one weight per atom ({atoms.atom_count}), got shape {weights.shape}")
    if w_vals.shape != (atoms.grid_size,):
        raise ValueError(f"need one w value per grid point ({atoms.grid_size}), got {w_vals.size}")
    if not delta > 0.0:  # a negative tolerance would let closed atoms fail
        raise ValueError(f"delta must be positive, got {delta}")
    split_sup_errors = []
    for f, f_d in zip(originals, discretes):
        f_vals = _values(f)
        lifted = lift_to_grid(f_d, atoms)
        gap = f_vals - lifted
        if np.any(lifted < 0.0) or np.any(gap < 0.0):
            raise ValueError("discrete function fails 0 <= f_d <= f")
        split_sup_errors.append(float(np.max(gap, initial=0.0)))

    w_least = np.full(atoms.atom_count, np.inf)
    np.fmin.at(w_least, atoms.atom_of_point, np.abs(w_vals))
    bound_atoms = int(np.count_nonzero(np.abs(weights) > w_least + delta + 1e-12))
    open_atoms = int(np.count_nonzero(np.abs(weights) > np.maximum(w_least, delta + 1e-12)))

    observed = budget = None
    if composite is not None:
        composite_gens = composite_gens or {}
        grid_model = WeightedGridModel(w_vals)
        algebra = DiagonalAlgebra(weights)
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
                        bound_atoms, open_atoms, observed, budget)
