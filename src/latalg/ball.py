"""Dual-ball grids, the three vanishing checks, and radial limit profiles.

For generators living in the n-dimensional absolute-sum-normed space, the
dual unit ball is the cube.  :func:`vanishes_on_ball` samples the function
``x* -> e(x*(x_1), ..., x*(x_k))`` on a uniform cube grid, which is the
concrete face of the restriction representation; grid vanishing is a
surrogate for kernel membership, not a proof.  A generator that is exactly
the basis vector ``e_j`` acts as coordinate ``j``, which the scan reads in
place of the product; every other generator takes one product per point.

The verdicts rest on three vanishing checks, :func:`vanishes_on_ball`,
:func:`vanishes_on_reals` and :func:`transport_residual` (to the finite
models), and all three score points by one rule: the first point of the
strictly largest ``|value| / (1 + bound)`` is the witness, and a point whose
value or bound is not finite scores ``inf``.  The transport is one
evaluation of all model points, and its hit a real point.  No grid is ever
built whole: both grid scans draw their points as views of one reused block
of whole trailing planes (one 101 x 101 plane of a 101^3 grid), each valid
until the next is drawn.  A block holds one contiguous row per coordinate.

:func:`limit_profile` measures how fast ``e(eps*a)/eps`` approaches the
term's positively homogeneous projection, :func:`~latalg.rewrite.product_kill`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .expr import Expr, eval_pointwise, eval_real, variables
from .models import model_suite
from .rewrite import polynomial_majorant, product_kill
from .seeding import seeded_rng

__all__ = [
    "BallGrid", "generator_vectors", "generator_norms", "majorant_upper_bound",
    "vanishes_on_ball", "vanishes_on_reals",
    "transport_residual", "limit_profile", "BallReport", "RealLineReport",
    "REAL_GRID_CAP",
]


#: The grid budget: most points of the default real-line product grid (11 per
#: axis up to 6 variables), of a :class:`BallGrid` and of a regular cylinder grid.
REAL_GRID_CAP = 11 ** 6

#: For a base ``b >= 2``, ``b ** min(k, _CAP_EXPONENT)`` exceeds the budget
#: exactly when ``b ** k`` does (both do from ``k = _CAP_EXPONENT`` on), so a
#: budget check never computes a power with a huge exponent.
_CAP_EXPONENT = REAL_GRID_CAP.bit_length()


@dataclass(frozen=True, eq=False)
class BallGrid:
    """Uniform product grid on the cube [-1,1]^n.

    ``points_per_axis`` must be odd and at least 3 so that 0 and the
    endpoints are grid points, and the grid may hold at most
    :data:`REAL_GRID_CAP` points.
    """

    dimension: int
    points_per_axis: int

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.points_per_axis < 3 or self.points_per_axis % 2 == 0:
            raise ValueError("points_per_axis must be odd and >= 3")
        if self.points_per_axis ** min(self.dimension, _CAP_EXPONENT) > REAL_GRID_CAP:
            raise ValueError(f"the ball grid would hold {self.points_per_axis}^{self.dimension} "
                             f"points, more than the budget of {REAL_GRID_CAP}")

    @cached_property
    def points(self) -> np.ndarray:
        axis = np.linspace(-1.0, 1.0, self.points_per_axis)
        mesh = np.meshgrid(*([axis] * self.dimension), indexing="ij", copy=False)
        return np.stack(mesh, axis=-1).reshape(-1, self.dimension)

    @property
    def size(self) -> int:
        return self.points_per_axis ** self.dimension


def generator_vectors(e: Expr, gens: Mapping[str, Sequence[float]],
                      dimension: int | None = None) -> tuple[dict[str, np.ndarray], int]:
    """The generator vector of every free variable of ``e``, in name order,
    and their dimension: ``dimension`` when given, else the length of the
    vectors in ``gens``, else 1 (no vectors; any domain works).

    Raises ValueError when a vector in ``gens`` does not have that shape
    ``(dimension,)`` or a variable of ``e`` has no vector.
    """
    arrays = {name: np.asarray(vec, dtype=float) for name, vec in gens.items()}
    if dimension is None:
        dimension = next((vec.size for vec in arrays.values()), 1)
    for name, vec in arrays.items():
        if vec.shape != (dimension,):
            raise ValueError(
                f"generator for {name!r} has shape {vec.shape}, expected ({dimension},)")
    names = variables(e)
    for name in names:
        if name not in arrays:
            raise ValueError(f"no generator vector for variable {name!r}")
    return {name: arrays[name] for name in names}, dimension


def _basis_index(vec: np.ndarray) -> int | None:
    """``j`` when ``vec`` is exactly the unit vector ``e_j``: one nonzero
    entry, and that entry 1.0.  Otherwise None.

    A finite point ``p`` whose coordinate ``j`` is not -0.0 then has
    ``p[j] == p @ vec`` bit for bit, since every other term of the sum is an
    exact zero: the scans read the coordinate instead of the product."""
    nonzero = np.flatnonzero(vec)
    if nonzero.size == 1 and vec[nonzero[0]] == 1.0:
        return int(nonzero[0])
    return None


def generator_norms(gens: Mapping[str, Sequence[float]]) -> dict[str, float]:
    """The absolute-sum norm of every generator vector in ``gens``."""
    return {name: float(np.sum(np.abs(np.asarray(vec, dtype=float)))) for name, vec in gens.items()}


def majorant_upper_bound(e: Expr, gen_norms: Mapping[str, float]) -> float:
    """Majorant polynomial evaluated at the generator norms."""
    return float(polynomial_majorant(e).evaluate({k: float(v) for k, v in gen_norms.items()}))


@dataclass
class BallReport:
    vanishes: bool
    max_residual: float
    threshold: float
    witness: tuple | None


def vanishes_on_ball(e: Expr, gens: Mapping[str, Sequence[float]], grid: BallGrid,
                     tol: float = 1e-9) -> BallReport:
    """Grid surrogate for vanishing on the dual ball.

    The residual is compared against ``tol * (1 + B)`` where ``B`` is the
    majorant bound at the absolute-sum norms of the generators.  A
    non-finite residual or threshold does not vanish; the witness is then
    the first grid point (C order) of the largest residual, ``inf`` for a
    non-finite value.
    """
    vectors, _ = generator_vectors(e, gens, grid.dimension)
    coordinates = {name: _basis_index(vec) for name, vec in vectors.items()}
    bound = majorant_upper_bound(e, generator_norms(gens))
    threshold = tol * (1.0 + bound)

    products = [name for name, j in coordinates.items() if j is None]

    def chunks():
        buffer = None  # the (size, k) points of a block in C order, for the products
        for block in _grid_chunks(np.linspace(-1.0, 1.0, grid.points_per_axis), grid.dimension):
            env = {name: block[j] for name, j in coordinates.items() if j is not None}
            if products:
                if buffer is None:  # the first block is the largest
                    buffer = np.empty(block.shape[::-1])
                points = buffer[:block.shape[1]]
                for j, row in enumerate(block):
                    points[:, j] = row
                env.update((name, points @ vectors[name]) for name in products)
            yield eval_pointwise(e, env), 0.0, lambda i: tuple(block[:, i])

    # Below every score: the first point is the witness even when all are 0.
    residual, witness = _worst_point(chunks(), worst=-1.0)
    vanishes = math.isfinite(threshold) and residual <= threshold
    return BallReport(vanishes, residual, threshold, None if vanishes else witness)


@dataclass
class RealLineReport:
    vanishes: bool
    max_scaled_residual: float
    tol: float
    witness: dict | None
    grid_per_axis: int
    grid_capped: bool  # REAL_GRID_CAP lowered the default grid_per_axis


_DEFAULT_AXIS_POINTS = {0: 1, 1: 1001, 2: 101, 3: 41}

#: Most random points the real line draws at once, and most entries of a
#: norm-search window (:mod:`latalg.freenorm`); the draws, and so the random
#: stream, do not depend on the grid's blocks.
_CHUNK = 6_000

#: Most grid points in one block.  It takes a whole 101 x 101 plane (10,201
#: points), so a 101^3 scan is 101 blocks, and each coordinate row, like each
#: array an evaluation makes on a block, takes at most 96 KB: below glibc's
#: default 128 KiB mmap threshold, so none is a fresh mapping.
_GRID_BLOCK = 12_000


def _grid_chunks(axis: np.ndarray, k: int):
    """The grid ``axis^k`` in C order, as ``(k, size)`` blocks of ``rows`` points of the
    leading k - m axes, each with the whole block of the trailing m axes: row
    ``j`` of a block is coordinate ``j`` of its points, one contiguous array.

    Every block is a C-order view of one buffer allocated per call: the
    trailing coordinates are written into it once (again for a short last
    block), and each block writes only its leading ones.  A block is valid
    until the next one is drawn."""
    g = axis.size
    m = max(j for j in range(k) if g ** j <= _GRID_BLOCK)
    leads, block = g ** (k - m), g ** m
    rows = min(_GRID_BLOCK // block, leads)
    buffer = np.empty(k * rows * block)
    filled = 0
    for start in range(0, leads, rows):
        count = min(rows, leads - start)
        points = buffer[:k * count * block].reshape(k, count * block)
        if count != filled:  # trailing axis j is constant over g^(m-1-j) points, in cycles
            for j in range(m):
                points[k - m + j].reshape(-1, g, g ** (m - 1 - j))[...] = axis[:, None]
            filled = count
        lead = np.unravel_index(np.arange(start, start + count), (g,) * (k - m))
        for j, index in enumerate(lead):  # runs of block points
            points[j].reshape(count, block)[...] = axis[index][:, None]
        yield points


def _worst_point(chunks, worst: float = 0.0) -> tuple[float, object]:
    """The one worst-point rule: ``chunks`` yields ``(values, bound,
    witness_at)``, each point scoring ``|value| / (1 + bound)`` (``inf`` if
    either is not finite) and ``witness_at`` mapping a point's index in its
    chunk to its witness.  Returns the largest score above ``worst`` and the
    witness of its first point, or ``(worst, None)``.

    ``argmax`` comes first: a chunk whose largest score and bound are finite
    holds no NaN (``argmax`` would have returned it) and no ``inf``, so only
    other chunks pay for the non-finite masking."""
    witness = None
    with np.errstate(all="ignore"):
        for values, bound, witness_at in chunks:
            scores = np.abs(values)
            if not (isinstance(bound, float) and bound == 0.0):  # |v| / 1.0 is |v|
                scores = scores / (1.0 + bound)
            scores = scores.ravel()
            idx = int(scores.argmax())
            if not (math.isfinite(scores[idx]) and np.isfinite(bound).all()):
                scores = np.where(np.isfinite(values) & np.isfinite(bound), scores, np.inf)
                idx = int(scores.argmax())
            if scores[idx] > worst:
                worst, witness = float(scores[idx]), witness_at(idx)
    return worst, witness


def vanishes_on_reals(e: Expr, scale: float = 3.0, grid_per_axis: int | None = None,
                      samples: int = 10_000, seed: int = 0,
                      tol: float = 1e-9) -> RealLineReport:
    """Check whether ``e`` vanishes identically on the reals (surrogate).

    Evaluates on a dense product grid of ``[-scale, scale]^k`` plus
    ``samples`` random points (none when it is 0); residuals are scaled by
    ``1 + p(|a|)`` with ``p`` the majorant, so the verdict is uniform across
    magnitudes.  A point where the value or the majorant is not finite
    scores ``inf``.  The grid runs in C order (first variable slowest), in
    blocks of whole trailing planes of at most 12,000 points, and the random
    points are drawn from one stream in chunks of at most 6,000; the
    witness is the first point, in that order and then the random points,
    of the largest scaled residual.
    By default the grid has at most :data:`REAL_GRID_CAP` points: from 7
    variables on, the per-axis count is the largest odd one within the cap
    (``grid_capped``); an explicit ``grid_per_axis`` below 1 is a ValueError.
    """
    if grid_per_axis is not None and grid_per_axis < 1:
        raise ValueError(f"grid_per_axis must be >= 1, got {grid_per_axis}")
    names = variables(e)
    k = len(names)
    majorant = polynomial_majorant(e)
    g, capped = grid_per_axis, False
    if g is None:
        g = _DEFAULT_AXIS_POINTS.get(k, 11)
        capped = g ** k > REAL_GRID_CAP
        while g > 1 and g ** k > REAL_GRID_CAP:
            g -= 2

    def chunks(point_chunks):
        for points in point_chunks:
            env = dict(zip(names, points))
            values = eval_pointwise(e, env)
            bound = majorant.evaluate({n: np.abs(c) for n, c in env.items()})
            yield values, bound, lambda i: {n: float(c[i]) for n, c in env.items()}

    if k == 0:
        point_chunks = [np.empty((0, 1))]
    else:
        rng = seeded_rng(seed, 11)
        draws = (rng.uniform(-scale, scale, (min(_CHUNK, samples - start), k)).T
                 for start in range(0, samples, _CHUNK))
        point_chunks = itertools.chain(_grid_chunks(np.linspace(-scale, scale, g), k), draws)
    worst, witness = _worst_point(chunks(point_chunks))
    return RealLineReport(worst <= tol, worst, tol, None if worst <= tol else witness, g, capped)


def transport_residual(e: Expr, seed: int = 0) -> tuple[float, dict | None]:
    """The identity transport: ``e`` in each model of ``model_suite(seed)`` over
    five assignments (coordinates uniform in [-1, 1], one stream, drawn model
    by model), in one evaluation: each model is the reals with the product
    ``w*a*b``.  A (model, assignment) residual is the sup norm of the value
    scaled by ``1 + p(sup|a|)``; returns the largest and a real witness for it
    (below any tolerance too), or ``(0.0, None)`` when every residual is 0.

    The witness rescales the model point ``a`` of largest ``|value|``: to
    ``w*a`` for a weight w > 0, as ``x -> w*x`` maps (R, w*ab) onto (R, ab).
    At w = 0 the value is ``product_kill(e)(a) = lim e(t*a)/t``, and the
    witness is ``t*a`` at the first ``t = 2^-k`` whose :func:`limit_profile`
    residual is at most half the value, else at the ``t`` of largest
    ``|e(t*a)|/t``."""
    names = variables(e)
    majorant = polynomial_majorant(e)
    rng = seeded_rng(seed, 61)
    suite = model_suite(seed)
    weights = np.concatenate([model.weights for model in suite])
    starts = np.cumsum([0] + [model.size for model in suite[:-1]])
    draws = np.concatenate([rng.uniform(-1.0, 1.0, (5, len(names), model.size)) for model in suite],
                           axis=-1)  # assignment, name, point
    env = dict(zip(names, draws.swapaxes(0, 1)))

    def sups(a):  # each (model, assignment) sup norm, model-major: a tie goes to the first model
        return np.maximum.reduceat(np.abs(a), starts, axis=-1).T.ravel()

    with np.errstate(all="ignore"):
        values = np.broadcast_to(eval_pointwise(e, env, lambda a, b: weights * a * b),
                                 (5, weights.size))
        bound = majorant.evaluate({n: sups(a) for n, a in env.items()})
        worst, hit = _worst_point([(sups(values), bound, lambda i: divmod(i, 5))])
        if hit is None:
            return worst, None
        m, j = hit
        i = starts[m] + int(np.argmax(np.abs(values[j, starts[m]:starts[m] + suite[m].size])))
        point = {n: float(a[j, i]) for n, a in env.items()}
        w = weights[i]
        if w == 0.0:
            t = 2.0 ** -np.arange(64)
            close = [r <= abs(values[j, i]) / 2.0 for _, r in limit_profile(e, point, t)]
            if any(close):
                w = t[close.index(True)]
            else:
                w = t[np.argmax(np.abs(eval_pointwise(e, {n: t * a for n, a in point.items()})) / t)]
        return worst, {n: float(w * a) for n, a in point.items()}


def limit_profile(e: Expr, point: Mapping[str, float],
                  eps_list: Sequence[float]) -> list[tuple[float, float]]:
    """Residuals ``|e(eps*a)/eps - e_0(a)|`` for each ``eps``, ``e`` evaluated
    at every ``eps`` in one call (join as ``np.maximum``, so a NaN propagates
    and a zero keeps its sign).

    ``e_0`` is the product-killed term; the residual decays linearly in
    ``eps`` (exactly zero for product-free terms when ``eps`` is a power of
    two).
    """
    base = eval_real(product_kill(e), point)
    eps = np.asarray(eps_list, dtype=float)
    values = eval_pointwise(e, {name: eps * value for name, value in point.items()})
    return [(float(t), float(r)) for t, r in zip(eps, np.abs(values / eps - base))]
