"""Two-sided estimation of the free norm over absolute-sum generators.

Lower bounds come from certified contractive operators into semiprime
diagonal f-algebras: every such operator extends to a contractive
lattice-algebra homomorphism, so the sup norm of the evaluated image never
exceeds the free norm.

One atom suffices.  The atoms of a diagonal algebra never interact (join is
coordinatewise and atom i multiplies as ``w_i a_i b_i``), and the
contraction certificate bounds every column entry on its own, so a k-atom
operator is worth exactly its best atom.  A candidate is therefore one row
``(w, c)`` with ``w`` in (0, 1] and ``c`` in [-1, 1]^n, worth ``|e_w(c)|``:
the term on the reals with product ``w a b``, each generator ``v`` read as
``c . v``.  Candidates form one stream of rows, in this order:

* the sign atoms (weight 1, entries +-1), the corners of the box, which
  attain the analytic optimum on simple terms;
* the atoms of the discretized cylinder generators, one operator per mesh
  parameter: the basis generators at the sphere points, scaled by
  ``1/(1 + delta)``, go through :func:`~latalg.discretize.discretize_generators`,
  one atom per class of sphere points and radial cell.  This source is
  skipped when its cylinder grid would hold more than
  :data:`~latalg.ball.REAL_GRID_CAP` points (from 7 variables on);
* ``search_iters`` atoms of a seeded ascent, in rounds: 2(n + 1) coordinate
  moves of the best atom so far by +-step (weight clipped to [2^-52, 1],
  entries to [-1, 1]), then 3(n + 1) atoms drawn from the stream
  ``(seed, 42, round)``; while no atom so far has a finite value, a round
  holds the draws alone.  The step starts at 1/4 and halves after a round
  that did not raise the best value.  A round of 5(n + 1) atoms of n + 1
  entries must fit the grid budget, so the search refuses n above 594.

The budget cuts this stream and every atom depends only on those before
it, so a larger budget never lowers the bound; the first atom attaining
the best value wins.  The sign rows (weight 1) and each discretized
operator's sphere-class rows (its ``k_r`` radial weights, padded to the
most by repeating the last) form one table, evaluated in one fold of the
term's tape: only products broadcast against the weights, so the values
come out in atom order and a padded copy never displaces its original.
The ascent is evaluated in windows of rounds, one fold a window: a window
assumes that none of its rounds raises the best value, so round j of it
moves by step/2^j (exact: the steps are powers of two), and it is exact up
to its first round that does.  That round's first best atom is kept with
its step, and the next window starts after it.  The rounds are cut into
blocks of as many rounds of 5(n + 1) atoms as fit in
:data:`~latalg.ball._CHUNK` entries (at least one), and a window never
crosses the end of its block: it starts at the whole block, doubles
(within it) after a window in which no round improved, and restarts at
one round after one in which a round did.
Only the winner is built as an :class:`OperatorIntoAlgebra`, and the
reported bound is its value replayed by :func:`evaluate_operator`.

Every row but the ascent's moves depends on ``n`` and the config alone, not
on the term or the generators, so each process builds it once: the fixed
table as one entry ``("fixed", n, seed, delta_list)`` (a weight row and a
row count per source, and the column rows), and the draws of each block
``b`` of rounds as ``("draws", seed, n, b)``, of which a window is a view.
The fixed rows read the seed only when ``2**n`` exceeds
:data:`SIGN_PATTERN_CAP`; below that their key holds ``None`` in its place,
so every seed shares them.  The tables are read-only; entries are kept
least recently used first within :data:`~latalg.ball.REAL_GRID_CAP` float
entries in all, each charged its tables' entries plus 64 for its Python
objects; at the default config the fixed table of every dimension that
runs the discretized source fits (766,536 entries at 6 variables).  A
config is cached whole or not at all: a larger entry is built, used and
dropped per call, evicting nothing.
Every row evaluated is still checked for contraction.

Upper bounds evaluate the polynomial majorant at the generator norms.  For
product-free terms a second lower bound is available from tuples of
functionals with column-wise feasibility (the lattice-part norm).

Estimates are reported as sandwiches; neither side is claimed to be the
norm except where both meet.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .ball import (
    _CHUNK, REAL_GRID_CAP, _basis_index, generator_norms, generator_vectors,
    majorant_upper_bound,
)
from .cylinder import CylinderGrid
from .discretize import build_partition, discretize_generators
from .expr import Expr, contains_product, eval_pointwise
from .models import DiagonalAlgebra
from .seeding import seeded_rng

__all__ = [
    "OperatorIntoAlgebra", "NormSandwich", "SearchConfig",
    "operator_lower_bound", "norm_sandwich",
    "product_free_lower_bound", "evaluate_operator", "ContractionError",
]


class ContractionError(RuntimeError):
    """Internal guard: a search candidate lost its contraction certificate."""


#: Radial levels and points per face axis of the discretized source's grid, and the most
#: sign atoms: when ``2**n`` exceeds it, that many rows are drawn from the seed instead.
R_LEVELS, FACE_POINTS, SIGN_PATTERN_CAP = 17, 6, 1024


def _check_contraction(columns: np.ndarray) -> None:
    norm = float(np.max(np.abs(columns), initial=0.0))
    if not norm <= 1.0 + 1e-9:  # NaN fails too
        raise ContractionError(f"operator norm {norm} is not at most 1")


@dataclass(eq=False)
class OperatorIntoAlgebra:
    """Images of the coordinate basis in a diagonal algebra.

    ``columns[i]`` is the image of the i-th basis vector.  For an
    absolute-sum domain the operator norm is the max column sup norm; the
    certificate requires it to be at most 1.
    """

    algebra: DiagonalAlgebra
    columns: np.ndarray  # shape (n, atoms)

    def __post_init__(self):
        self.columns = np.asarray(self.columns, dtype=float)
        if self.columns.ndim != 2 or self.columns.shape[1] != self.algebra.size:
            raise ValueError("columns must be (n, atoms) for the target algebra")

    @property
    def domain_dimension(self) -> int:
        return self.columns.shape[0]

    def certify(self) -> None:
        _check_contraction(self.columns)

    def apply(self, x: Sequence[float]):
        vec = np.asarray(x, dtype=float)
        if vec.shape != (self.domain_dimension,):
            raise ValueError(f"expected a vector of dimension {self.domain_dimension}")
        return self.algebra.element(vec @ self.columns)

    def to_json(self) -> dict:
        return {"weights": self.algebra.weights.tolist(),
                "columns": self.columns.tolist()}


def evaluate_operator(e: Expr, gens: Mapping[str, Sequence[float]],
                      op: OperatorIntoAlgebra) -> float:
    """Sup norm of the term evaluated through the (certified) operator."""
    op.certify()
    assignment = {name: op.apply(vec)
                  for name, vec in generator_vectors(e, gens, op.domain_dimension)[0].items()}
    return op.algebra.evaluate(e, assignment).sup_norm()


@dataclass
class SearchConfig:
    """Sources and budget of :func:`operator_lower_bound`.

    * ``search_iters``: atoms of the seeded ascent, after the fixed sources.
    * ``delta_list``: mesh parameters of the discretized source, one
      operator each; empty skips the source.
    * ``seed``: keys the ascent's random draws and the sign rows sampled
      when ``2**n`` exceeds :data:`SIGN_PATTERN_CAP`.
    """

    search_iters: int = 10_000
    delta_list: tuple[float, ...] = (2.0 ** -5, 2.0 ** -6, 2.0 ** -7)
    seed: int = 0


def _atom_values(e: Expr, vectors: Mapping[str, np.ndarray], weights: np.ndarray,
                 columns: np.ndarray) -> np.ndarray:
    """Sup norm of ``e`` through the one-atom operator ``(weights[s, t],
    columns[s])`` of each atom of a table, after checking the contraction.

    ``weights`` holds one row per row of ``columns`` (width 1 for the ascent,
    the radial cells for the fixed table); the values have its shape.  This is
    :meth:`FiniteModel.evaluate` on a diagonal algebra (product ``weights * a *
    b``) once per row of ``columns``: only products broadcast against the weights.

    A generator that is exactly the basis vector ``e_j`` reads column ``j``
    of the table: its product with a row adds only exact zeros to that entry
    (the columns are finite once checked), and no sup norm depends on the
    sign of a zero.  Any other generator keeps one product per row.
    """
    _check_contraction(columns)
    # The product evaluate_operator computes for one atom, (n,) @ (n, 1), stacked.
    images = {name: np.matmul(vec, columns[:, :, None]) if (j := _basis_index(vec)) is None
              else columns[:, j, None] for name, vec in vectors.items()}
    values = eval_pointwise(e, images, lambda a, b: weights * a * b)
    return np.abs(np.broadcast_to(values, weights.shape))


def _sign_rows(n: int, seed: int, key: int) -> np.ndarray:
    """The ``2**n`` rows of +-1 entries in binary order, or :data:`SIGN_PATTERN_CAP`
    seeded random ones (stream ``key``) when there are more."""
    if 2 ** n <= SIGN_PATTERN_CAP:
        return 2.0 * ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1) - 1.0
    return seeded_rng(seed, key).choice([-1.0, 1.0], size=(SIGN_PATTERN_CAP, n))


def _mesh_atoms(grid: CylinderGrid, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """The atoms of the basis generators at the sphere points of ``grid``,
    scaled by ``1/(1 + delta)`` and discretized at mesh ``delta``, as the
    ``k_r`` radial weights and one column row per sphere class."""
    # Keep the grid-sized expansion: building these tables without it (bit-identical)
    # slowed the warm norm_search tail by about 40 % and raised its minor faults per
    # op from 0.3 to 53.  Its multi-MB frees raise glibc's dynamic mmap threshold, so
    # the warm fold's (3136 x 17) temporaries at n = 4 come from the heap, not fresh
    # mmaps (ROADMAP item 11).
    scale = 1.0 / (1.0 + delta)
    discrete = discretize_generators(list(scale * grid.sphere_points.T), grid, delta)
    k_r = discrete.radial_cells  # copies, so that each expanded table is freed before the next
    return discrete.weights[:k_r].copy(), discrete.coefficients[:, ::k_r].T.copy()


def _fixed_atoms(n: int, seed: int, delta_list: Sequence[float]) -> tuple[np.ndarray, ...]:
    """The sign atoms (weight 1), then each mesh parameter's unless the grid
    exceeds :data:`REAL_GRID_CAP` points, as one table: per source its weights
    (padded with the last one to the most cells) and row count, then all rows.
    Every mesh parameter is checked, also where the grid is skipped."""
    for delta in delta_list:
        build_partition(delta)
    tables = [(np.ones(1), _sign_rows(n, seed, 41))]
    if delta_list and CylinderGrid.regular_size(n, R_LEVELS, FACE_POINTS) <= REAL_GRID_CAP:
        grid = CylinderGrid.regular(n, r_levels=R_LEVELS, face_points=FACE_POINTS)
        tables += [_mesh_atoms(grid, delta) for delta in delta_list]
    k = max(len(weights) for weights, _ in tables)
    return (np.array([np.pad(weights, (0, k - len(weights)), "edge") for weights, _ in tables]),
            np.array([len(columns) for _, columns in tables]), np.concatenate([c for _, c in tables]))


def _drawn_atoms(seed: int, n: int, rounds: range) -> np.ndarray:
    """The 3(n + 1) atoms that each ascent round in ``rounds`` draws, as a
    ``(len(rounds), 3(n + 1), n + 1)`` table: weights in (0, 1]."""
    draws = np.empty((len(rounds), 3 * (n + 1), n + 1))
    for table, round_ in zip(draws, rounds):
        rng = seeded_rng(seed, 42, round_)
        table[:, 0] = 1.0 - rng.random(3 * (n + 1))
        table[:, 1:] = rng.uniform(-1.0, 1.0, (3 * (n + 1), n))
    return draws


def _first_best(values: np.ndarray) -> int:
    """Flat index of the first atom, in C order, of the largest of ``values``.
    NaN never wins: it is replaced by -1 in place, so ``values`` must be the
    caller's own array."""
    np.fmax(values, -1.0, out=values)
    return int(np.argmax(values))


class _RowCache:
    """Tuples of read-only row tables by key, least recently used first.  Each
    tuple is charged its tables' entries plus ``OVERHEAD``, within ``budget``;
    a tuple charged more is returned without being kept or evicting anything."""

    OVERHEAD = 64  # 512 bytes, above a small table's array header, key and dict slot

    def __init__(self, budget: int):
        self.budget, self.entries = budget, 0
        self._tables: OrderedDict[tuple, tuple[np.ndarray, ...]] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: tuple, build: Callable[[], tuple[np.ndarray, ...]]) -> tuple[np.ndarray, ...]:
        with self._lock:
            tables = self._tables.get(key)
            if tables is not None:
                self._tables.move_to_end(key)
                return tables
        tables = build()
        for table in tables:
            table.flags.writeable = False
        charge = sum(table.size for table in tables) + self.OVERHEAD
        with self._lock:
            if charge <= self.budget and key not in self._tables:
                while self.entries + charge > self.budget:
                    _, evicted = self._tables.popitem(last=False)
                    self.entries -= sum(table.size for table in evicted) + self.OVERHEAD
                self._tables[key] = tables
                self.entries += charge
        return tables

    def clear(self) -> None:
        with self._lock:
            self._tables.clear()
            self.entries = 0


_ROWS = _RowCache(REAL_GRID_CAP)


def operator_lower_bound(e: Expr, gens: Mapping[str, Sequence[float]],
                         config: SearchConfig | None = None,
                         dimension: int | None = None) -> tuple[float, OperatorIntoAlgebra]:
    """Best certified lower bound for the free norm of ``e`` along ``gens``.

    Deterministic under the seed.  Atoms are considered in the fixed order
    of the module docstring (sign atoms, discretized atoms, then the ascent
    cut at ``search_iters`` atoms), so enlarging the budget never decreases
    the result, and the first atom attaining the best value wins.  The
    ascent's rounds are evaluated in windows, each as if none of its rounds
    improved and kept up to the first that does, so the result is that of
    evaluating them one by one.  The returned bound is the winning one-atom
    operator certified and replayed by :func:`evaluate_operator`.  Operators
    act on the generators' dimension, or ``dimension`` (for terms without
    variables).  Raises ValueError, before allocating, when a round would
    exceed :data:`REAL_GRID_CAP` entries.
    """
    config = config or SearchConfig()
    vectors, n = generator_vectors(e, gens, dimension)
    if 5 * (n + 1) ** 2 > REAL_GRID_CAP:
        raise ValueError(f"a search round in dimension {n} would hold {5 * (n + 1)} x {n + 1} "
                         f"entries, more than the grid budget of {REAL_GRID_CAP}")
    seed, delta_list = config.seed, tuple(config.delta_list)
    sign_seed = seed if 2 ** n > SIGN_PATTERN_CAP else None  # below the cap no fixed row reads it
    weights, counts, columns = _ROWS.get(("fixed", n, sign_seed, delta_list),
                                         lambda: _fixed_atoms(n, seed, delta_list))
    weights = np.repeat(weights, counts, axis=0)  # one weight row per column row
    values = _atom_values(e, vectors, weights, columns)
    s, t = divmod(_first_best(values), values.shape[1])
    best_value = float(values[s, t])  # -1 when every fixed atom is NaN
    best = np.r_[weights[s, t], columns[s]] if best_value > -1.0 else None

    step, left, round_, rounds = 0.25, config.search_iters, 0, np.inf
    if left > 0:
        moves = np.kron(np.eye(n + 1), [[1.0], [-1.0]])  # +-1 on each coordinate in turn
        low = np.r_[2.0 ** -52, -np.ones(n)]
    block = max(1, _CHUNK // (5 * (n + 1) ** 2))  # rounds of one cached table of draws
    while left > 0:
        # A window of rounds that assumes none of them improves: round j
        # moves by step / 2**j.  Rounds up to the first that does are exact.
        size = (3 if best is None else 5) * (n + 1)
        first = round_ - round_ % block
        count = int(min(rounds, -(-left // size), first + block - round_))
        table, = _ROWS.get(("draws", seed, n, first // block),
                           lambda: (_drawn_atoms(seed, n, range(first, first + block)),))
        atoms = draws = table[round_ - first:round_ - first + count]
        if best is not None:
            steps = np.ldexp(step, -np.arange(count))[:, None, None]
            atoms = np.concatenate([np.clip(best + steps * moves, low, 1.0), draws], axis=1)
        atoms = atoms.reshape(-1, n + 1)[:left]
        values = _atom_values(e, vectors, atoms[:, :1], atoms[:, 1:]).reshape(-1)
        starts = np.arange(0, len(atoms), size)
        hits = np.flatnonzero(np.fmax.reduceat(values, starts) > best_value)
        misses = int(hits[0]) if len(hits) else count
        step = float(np.ldexp(step, -misses))  # halved by each round that did not improve
        if misses < count:  # round `misses` improves: keep its first best atom and its step
            start = starts[misses]
            i = start + _first_best(values[start:start + size])
            best_value, best = float(values[i]), atoms[i].copy()
        rounds = 1 if misses < count else 2 * count  # restart small after a hit, grow after a miss
        done = min(misses + 1, count)
        left -= done * size
        round_ += done

    if best is None:
        raise ValueError("the search produced no candidate operator")
    op = OperatorIntoAlgebra(DiagonalAlgebra(best[:1]), best[1:, None])
    return evaluate_operator(e, gens, op), op


@dataclass
class NormSandwich:
    lower: float
    upper: float
    witness: OperatorIntoAlgebra

    def to_json(self) -> dict:
        return {"lower": self.lower, "upper": self.upper, "witness": self.witness.to_json()}


def norm_sandwich(e: Expr, gens: Mapping[str, Sequence[float]], config: SearchConfig | None = None,
                  dimension: int | None = None) -> NormSandwich:
    """Certified lower and majorant upper bound for the free norm, in ``dimension``."""
    lower, witness = operator_lower_bound(e, gens, config, dimension)
    upper = majorant_upper_bound(e, generator_norms(gens))
    if lower > upper + 1e-12 * (1.0 + upper):
        raise ContractionError(
            f"soundness violation: lower bound {lower} exceeds upper bound {upper}")
    return NormSandwich(lower, upper, witness)


# ---------------------------------------------------------------------------
# Lattice-part lower bound (product-free terms)

def _project_feasible(tuples: np.ndarray) -> np.ndarray:
    """Scale columns so that ``sum_i |X[i, j]| <= 1`` for every j."""
    sums = np.sum(np.abs(tuples), axis=0)
    return tuples / np.maximum(sums, 1.0)


def product_free_lower_bound(e: Expr, gens: Mapping[str, Sequence[float]],
                             tuple_size: int = 2, iters: int = 2000,
                             seed: int = 0) -> float:
    """Lower bound for the norm of a product-free term.

    Maximizes ``sum_i |e(x*_i ...)|`` over tuples of functionals subject to
    the column-wise feasibility ``max_j sum_i |x*_i(b_j)| <= 1`` (projected
    random search seeded with basis-functional tuples and cube corners).
    """
    if contains_product(e):
        raise ValueError("the lattice-part bound applies to product-free terms only")
    vectors, n = generator_vectors(e, gens)
    k = tuple_size
    if k < 1:
        raise ValueError("tuple_size must be >= 1")

    best = 0.0

    def consider(tuples: np.ndarray) -> float:
        nonlocal best
        env = {name: tuples @ vec for name, vec in vectors.items()}
        vals = np.broadcast_to(np.asarray(eval_pointwise(e, env), dtype=float),
                               (tuples.shape[0],))
        value = float(np.sum(np.abs(vals)))
        if value > best:
            best = value
        return value

    identity = np.eye(k, n)
    consider(identity)
    for corner in _sign_rows(n, seed, 51):
        tuples = np.zeros((k, n))
        tuples[0] = corner
        consider(tuples)

    best_tuples = identity
    for iteration in range(iters):
        rng = seeded_rng(seed, 52, iteration)
        if iteration % 3 == 0:
            candidate = _project_feasible(rng.uniform(-1.0, 1.0, (k, n)))
        else:
            candidate = best_tuples.copy()
            candidate[rng.integers(0, k), rng.integers(0, n)] = rng.uniform(-1.0, 1.0)
            candidate = _project_feasible(candidate)
        if consider(candidate) == best:
            best_tuples = candidate
    return best
