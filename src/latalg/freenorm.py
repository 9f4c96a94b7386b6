"""Two-sided estimation of the free norm over absolute-sum generators.

Lower bounds come from certified contractive operators into semiprime
diagonal f-algebras: every such operator extends to a contractive
lattice-algebra homomorphism, so the sup norm of the evaluated image never
exceeds the free norm.  Candidates are drawn from three sources:

* single-atom sign operators (weight 1, columns +-1), which attain the
  analytic optimum on simple terms;
* discretized cylinder generators, one operator per mesh parameter: the
  basis generators scaled by ``1/(1 + delta)`` go through
  :func:`~latalg.discretize.discretize_generators`, whose weights and
  coefficient rows are the candidate;
* a seeded best-so-far random search with coordinate-wise resampling.

Each search prepares its term once, with its variables bound to their
generator vectors; an evaluation folds the term's post-order tape with
array ops over the generator images.  Candidates are then plain
``(weights, columns)`` arrays.  The sign operators, and the random draws
of every fifth iteration (which do not depend on the search state), are
evaluated together in one masked ``(batch, atoms)`` pass: shorter
candidates are padded with zero atoms, which evaluate to 0 and so leave
every sup norm unchanged.  Mutations of
the best-so-far operator are evaluated one at a time.  Every candidate
passes the contraction check on its columns, and only the winner is built
as an :class:`OperatorIntoAlgebra`; the reported bound is its value replayed
by :func:`evaluate_operator`.  The arithmetic is that of
:func:`evaluate_operator` operation for operation (generator images come
from the same matrix-vector products, stacked per atom count), so values
and witnesses do not depend on how the candidates were grouped.

Upper bounds evaluate the polynomial majorant at the generator norms.  For
product-free terms a second lower bound is available from tuples of
functionals with column-wise feasibility (the lattice-part norm).

Estimates are reported as sandwiches; neither side is claimed to be the
norm except where both meet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .ball import generator_norms, generator_vectors
from .cylinder import CylinderGrid, generator
from .discretize import discretize_generators
from .expr import ARRAY_OPS, Expr, Mul, Var, Zero, contains_product, eval_pointwise, fold
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


def _check_contraction(columns: np.ndarray, tol: float = 1e-9) -> None:
    norm = float(np.max(np.abs(columns), initial=0.0))
    if norm > 1.0 + tol:
        raise ContractionError(f"operator norm {norm} exceeds 1")


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

    def certify(self, tol: float = 1e-9) -> None:
        _check_contraction(self.columns, tol)

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
    search_iters: int = 10_000
    delta_list: tuple[float, ...] = (2.0 ** -5, 2.0 ** -6, 2.0 ** -7)
    seed: int = 0
    max_atoms: int = 8
    r_levels: int = 17
    face_points: int = 6
    sign_pattern_cap: int = 1024


def _gen_dimension(gens: Mapping[str, Sequence[float]]) -> int:
    dims = {np.asarray(v, dtype=float).shape[0] for v in gens.values()}
    if not dims:
        return 1  # no free variables; any domain works
    if len(dims) != 1:
        raise ValueError("all generator vectors must share one dimension")
    return dims.pop()


# Search iterations whose random draws are evaluated in one batch; bounds the
# memory of a long search.  A multiple of 5, so every block starts on a draw.
_BLOCK_ITERS = 1000


class _CompiledTerm:
    """A term prepared once for evaluation through many candidate operators.

    The ops are those of :meth:`FiniteModel.evaluate` on a diagonal algebra
    (join = maximum, product ``weights * a * b``), applied to arrays whose
    last axis runs over atoms.
    """

    def __init__(self, e: Expr, gens: Mapping[str, Sequence[float]]):
        self.term = e
        self.dimension = _gen_dimension(gens)
        self.vectors = generator_vectors(e, gens, self.dimension)

    def _sup_norms(self, weights: np.ndarray, images: Mapping[str, np.ndarray]) -> np.ndarray:
        ops = {**ARRAY_OPS, Zero: lambda node: np.zeros(weights.shape),
               Var: lambda node: images[node.name],
               Mul: lambda node, a, b: weights * a * b}
        return np.max(np.abs(fold(self.term, ops)), axis=-1, initial=0.0)

    def value(self, candidate) -> float:
        """Sup norm of the term's image through one ``(weights, columns)`` candidate."""
        weights, columns = candidate
        _check_contraction(columns)
        images = {name: vec @ columns for name, vec in self.vectors.items()}
        return float(self._sup_norms(weights, images))

    def values(self, candidates) -> list[float]:
        """:meth:`value` of many candidates, in one ``(batch, atoms)`` pass.

        Candidates with the same atom count share one stacked product per
        generator, which computes for each of them the product that
        :meth:`value` computes.
        """
        sizes = np.array([weights.shape[0] for weights, _ in candidates], dtype=int)
        weights = np.zeros((len(candidates), sizes.max(initial=1)))
        images = np.zeros((len(self.vectors),) + weights.shape)
        for size in np.unique(sizes):
            rows = np.flatnonzero(sizes == size)
            columns = np.stack([candidates[r][1] for r in rows])
            _check_contraction(columns)
            weights[rows, :size] = [candidates[r][0] for r in rows]
            for image, vec in zip(images, self.vectors.values()):
                image[rows, :size] = np.matmul(vec, columns)
        return self._sup_norms(weights, dict(zip(self.vectors, images))).tolist()


def _sign_rows(n: int, cap: int, seed: int, key: int) -> np.ndarray:
    """The ``2**n`` rows of +-1 entries in binary order, or ``cap`` seeded
    random ones (stream ``key``) when there are more."""
    if 2 ** n <= cap:
        return 2.0 * ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1) - 1.0
    return seeded_rng(seed, key).choice([-1.0, 1.0], size=(cap, n))


def _sign_operators(n: int, cap: int, seed: int) -> list[tuple]:
    """Single-atom candidates with weight 1 and +-1 columns."""
    ones = np.ones(1)
    return [(ones, row.reshape(n, 1)) for row in _sign_rows(n, cap, seed, 41)]


def _random_operator(rng: np.random.Generator, n: int, max_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    atoms = int(rng.integers(1, max_atoms + 1))
    weights = 1.0 - rng.random(atoms)  # (0, 1]
    return weights, rng.uniform(-1.0, 1.0, (n, atoms))


def _mutate_operator(rng: np.random.Generator, weights: np.ndarray,
                     columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    weights, columns = weights.copy(), columns.copy()
    n, atoms = columns.shape
    slot = int(rng.integers(0, atoms + n * atoms))
    if slot < atoms:
        weights[slot] = 1.0 - rng.random()
    else:
        slot -= atoms
        columns[slot // atoms, slot % atoms] = rng.uniform(-1.0, 1.0)
    return weights, columns


def operator_lower_bound(e: Expr, gens: Mapping[str, Sequence[float]],
                         config: SearchConfig | None = None) -> tuple[float, OperatorIntoAlgebra]:
    """Best certified lower bound for the free norm of ``e`` along ``gens``.

    Deterministic under the seed; the per-iteration randomness is derived
    from (seed, iteration), so enlarging the budget or the mesh list never
    decreases the result.  Candidates are considered in a fixed order (sign
    operators, discretized operators, then one per iteration) and the first
    one attaining the best value wins.  The returned bound is the winner
    certified and replayed by :func:`evaluate_operator`, so it is the value
    of the returned operator under the model evaluator whatever the batched
    evaluation computed.
    """
    config = config or SearchConfig()
    term = _CompiledTerm(e, gens)
    n = term.dimension

    best_value = -1.0
    best = None

    def consider(value: float, candidate) -> None:
        nonlocal best_value, best
        if value > best_value:
            best_value, best = value, candidate

    signs = _sign_operators(n, config.sign_pattern_cap, config.seed)
    for value, candidate in zip(term.values(signs), signs):
        consider(value, candidate)
    if config.delta_list:
        grid = CylinderGrid.regular(n, r_levels=config.r_levels, face_points=config.face_points)
        values = [generator(basis, grid).values for basis in np.eye(n)]
        w = np.broadcast_to(grid.r_levels[:, None], grid.shape)
        for delta in config.delta_list:
            scale = 1.0 / (1.0 + delta)
            discrete = discretize_generators([scale * v for v in values], w, delta)
            candidate = (discrete.weights, discrete.coefficients)
            del discrete  # frees the atoms and splits before the next mesh parameter
            consider(term.value(candidate), candidate)
    for start in range(0, config.search_iters, _BLOCK_ITERS):
        stop = min(start + _BLOCK_ITERS, config.search_iters)
        draws = [_random_operator(seeded_rng(config.seed, 42, iteration), n, config.max_atoms)
                 for iteration in range(start, stop, 5)]
        draw_values = term.values(draws)
        for iteration in range(start, stop):
            if iteration % 5 == 0:
                index = (iteration - start) // 5
                consider(draw_values[index], draws[index])
                continue
            rng = seeded_rng(config.seed, 42, iteration)
            candidate = (_random_operator(rng, n, config.max_atoms) if best is None
                         else _mutate_operator(rng, *best))
            consider(term.value(candidate), candidate)

    if best is None:
        raise ValueError("the search produced no candidate operator")
    op = OperatorIntoAlgebra(DiagonalAlgebra(best[0]), best[1])
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


def norm_sandwich(e: Expr, gens: Mapping[str, Sequence[float]],
                  config: SearchConfig | None = None) -> NormSandwich:
    """Certified lower bound and majorant upper bound for the free norm."""
    lower, witness = operator_lower_bound(e, gens, config)
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
    for corner in _sign_rows(n, 1024, seed, 51):
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
