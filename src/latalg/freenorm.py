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
  ``(seed, 42, round)``.  The step starts at 1/4 and halves after a round
  that did not raise the best value.  A round of 5(n + 1) atoms of n + 1
  entries must fit the grid budget, so the search refuses n above 594.

The budget cuts this stream and every atom depends only on those before
it, so a larger budget never lowers the bound; the first atom attaining
the best value wins.  The sign atoms, each discretized operator and each
round are evaluated in one fold of the term's tape over arrays with one
entry per atom.  Only the winner is
built as an :class:`OperatorIntoAlgebra`, and the reported bound is its
value replayed by :func:`evaluate_operator`.

Every row but the ascent's moves depends on ``n`` and the config alone, not
on the term or the generators, so each process builds it once: the sign
rows and one table per mesh parameter as one entry ``("fixed", n, seed,
delta_list)``, the draws of round ``r`` as ``("draws", seed, n, r)``.  The
tables are read-only; entries are kept least recently used first within
:data:`~latalg.ball.REAL_GRID_CAP` float entries in all, each charged its
tables' entries plus 64 for its Python objects.  A config is cached whole
or not at all: a larger entry (the fixed tables from 5 variables on) is
built, used and dropped per call, evicting nothing.  Every row evaluated is
still checked for contraction.

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

from .ball import REAL_GRID_CAP, generator_norms, generator_vectors
from .cylinder import CylinderGrid
from .discretize import discretize_generators
from .expr import Expr, contains_product, eval_pointwise
from .models import DiagonalAlgebra
from .rewrite import Polynomial, polynomial_majorant
from .seeding import seeded_rng

__all__ = [
    "OperatorIntoAlgebra", "NormSandwich", "SearchConfig",
    "operator_lower_bound", "majorant_upper_bound", "norm_sandwich",
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
                  for name, vec in generator_vectors(e, gens, op.domain_dimension).items()}
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


def _gen_dimension(gens: Mapping[str, Sequence[float]], dimension: int | None = None) -> int:
    """The one dimension of the generator vectors and ``dimension``, or 1 when neither names one."""
    dims = {np.asarray(v, dtype=float).shape[0] for v in gens.values()} | {dimension} - {None}
    if len(dims) > 1:
        raise ValueError("all generator vectors must share one dimension")
    return dims.pop() if dims else 1  # no free variables; any domain works


def _atom_values(e: Expr, vectors: Mapping[str, np.ndarray], atoms: np.ndarray) -> np.ndarray:
    """Sup norm of ``e`` through the one-atom operator of each row
    ``(weight, column...)`` of ``atoms``, after checking the contraction.

    This is :meth:`FiniteModel.evaluate` on a diagonal algebra (product
    ``weights * a * b``) over arrays with one entry per atom.
    """
    weights, columns = atoms[:, 0], atoms[:, 1:]
    _check_contraction(columns)
    # The product evaluate_operator computes for one atom, (n,) @ (n, 1), stacked.
    images = {name: np.matmul(vec, columns[:, :, None])[:, 0] for name, vec in vectors.items()}
    values = eval_pointwise(e, images, lambda a, b: weights * a * b)
    return np.abs(np.broadcast_to(values, (len(atoms),)))


def _sign_rows(n: int, cap: int, seed: int, key: int) -> np.ndarray:
    """The ``2**n`` rows of +-1 entries in binary order, or ``cap`` seeded
    random ones (stream ``key``) when there are more."""
    if 2 ** n <= cap:
        return 2.0 * ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1) - 1.0
    return seeded_rng(seed, key).choice([-1.0, 1.0], size=(cap, n))


def _mesh_atoms(grid: CylinderGrid, delta: float) -> np.ndarray:
    """The atoms of the basis generators at the sphere points of ``grid``,
    scaled by ``1/(1 + delta)`` and discretized at mesh ``delta``."""
    scale = 1.0 / (1.0 + delta)
    discrete = discretize_generators(list(scale * grid.sphere_points.T), grid, delta)
    return np.column_stack([discrete.weights, discrete.coefficients.T])


def _fixed_atoms(n: int, seed: int, delta_list: Sequence[float]) -> tuple[np.ndarray, ...]:
    """The sign atoms, then the atoms of each mesh parameter in ``delta_list``
    unless the cylinder grid would exceed :data:`REAL_GRID_CAP` points."""
    signs = _sign_rows(n, SIGN_PATTERN_CAP, seed, 41)
    tables = [np.column_stack([np.ones(len(signs)), signs])]
    if delta_list and CylinderGrid.regular_size(n, R_LEVELS, FACE_POINTS) <= REAL_GRID_CAP:
        grid = CylinderGrid.regular(n, r_levels=R_LEVELS, face_points=FACE_POINTS)
        tables += [_mesh_atoms(grid, delta) for delta in delta_list]
    return tuple(tables)


def _drawn_atoms(seed: int, n: int, round_: int) -> np.ndarray:
    """The 3(n + 1) atoms that ascent round ``round_`` draws: weights in (0, 1]."""
    rng = seeded_rng(seed, 42, round_)
    return np.column_stack([1.0 - rng.random(3 * (n + 1)),
                            rng.uniform(-1.0, 1.0, (3 * (n + 1), n))])


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
    returned bound is that one-atom operator certified and replayed by
    :func:`evaluate_operator`.  Operators act on the generators' dimension,
    or ``dimension`` (for terms without variables).  Raises ValueError,
    before allocating, when a round would exceed :data:`REAL_GRID_CAP` entries.
    """
    config = config or SearchConfig()
    n = _gen_dimension(gens, dimension)
    if 5 * (n + 1) ** 2 > REAL_GRID_CAP:
        raise ValueError(f"a search round in dimension {n} would hold {5 * (n + 1)} x {n + 1} "
                         f"entries, more than the grid budget of {REAL_GRID_CAP}")
    vectors = generator_vectors(e, gens, n)
    best_value, best = -1.0, None

    def consider(atoms: np.ndarray) -> bool:
        """Keep the first atom beating the best value; True when one did."""
        nonlocal best_value, best
        values = _atom_values(e, vectors, atoms)
        i = int(np.argmax(np.where(np.isnan(values), -1.0, values)))  # NaN never wins
        if values[i] > best_value:
            best_value, best = float(values[i]), atoms[i].copy()
            return True
        return False

    seed, delta_list = config.seed, tuple(config.delta_list)
    for table in _ROWS.get(("fixed", n, seed, delta_list),
                           lambda: _fixed_atoms(n, seed, delta_list)):
        consider(table)

    step, left, round_ = 0.25, config.search_iters, 0
    if left > 0:
        moves = np.kron(np.eye(n + 1), [[1.0], [-1.0]])  # +-1 on each coordinate in turn
        low = np.r_[2.0 ** -52, -np.ones(n)]
    while left > 0:
        draws, = _ROWS.get(("draws", seed, n, round_), lambda: (_drawn_atoms(seed, n, round_),))
        atoms = draws if best is None else np.vstack([np.clip(best + step * moves, low, 1.0), draws])
        if not consider(atoms[:left]):
            step /= 2
        left -= len(atoms)
        round_ += 1

    if best is None:
        raise ValueError("the search produced no candidate operator")
    op = OperatorIntoAlgebra(DiagonalAlgebra(best[:1]), best[1:, None])
    return evaluate_operator(e, gens, op), op


def majorant_upper_bound(e: Expr, gen_norms: Mapping[str, float]) -> float:
    """Majorant polynomial evaluated at the generator norms."""
    return float(polynomial_majorant(e).evaluate({k: float(v) for k, v in gen_norms.items()}))


@dataclass
class NormSandwich:
    lower: float
    upper: float
    witness: OperatorIntoAlgebra
    majorant: Polynomial

    def to_json(self) -> dict:
        return {"lower": self.lower, "upper": self.upper,
                "witness": self.witness.to_json(),
                "majorant": [{"monomial": list(m), "coeff": c}
                             for m, c in self.majorant.sorted_terms()]}


def norm_sandwich(e: Expr, gens: Mapping[str, Sequence[float]], config: SearchConfig | None = None,
                  dimension: int | None = None) -> NormSandwich:
    """Certified lower and majorant upper bound for the free norm, in ``dimension``."""
    lower, witness = operator_lower_bound(e, gens, config, dimension)
    majorant = polynomial_majorant(e)
    upper = float(majorant.evaluate(generator_norms(gens)))
    if lower > upper + 1e-12 * (1.0 + upper):
        raise ContractionError(
            f"soundness violation: lower bound {lower} exceeds upper bound {upper}")
    return NormSandwich(lower, upper, witness, majorant)


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
    n = _gen_dimension(gens)
    vectors = generator_vectors(e, gens, n)
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

    identity = np.zeros((k, n))
    for i in range(min(k, n)):
        identity[i, i] = 1.0
    consider(identity)
    for corner in _sign_rows(n, SIGN_PATTERN_CAP, seed, 51):
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
