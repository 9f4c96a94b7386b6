"""Dual-ball grids: restriction of terms to the cube [-1,1]^n, and the
positively homogeneous projection.

For generators living in the n-dimensional absolute-sum-normed space, the
dual unit ball is the cube.  :func:`eval_on_ball` samples the function
``x* -> e(x*(x_1), ..., x*(x_k))`` on a uniform cube grid, which is the
concrete face of the restriction representation; grid vanishing is a
surrogate for kernel membership, not a proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .expr import Expr, eval_pointwise, eval_real, variables
from .rewrite import polynomial_majorant, product_kill, zero_simplify
from .seeding import seeded_rng

__all__ = [
    "BallGrid", "GridFunction", "generator_vectors", "generator_norms", "eval_on_ball",
    "vanishes_on_ball", "vanishes_on_reals", "lattice_projection", "limit_profile",
    "BallReport", "RealLineReport",
]


@dataclass(frozen=True, eq=False)
class BallGrid:
    """Uniform product grid on the cube [-1,1]^n.

    ``points_per_axis`` must be odd and at least 3 so that 0 and the
    endpoints are grid points.
    """

    dimension: int
    points_per_axis: int

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.points_per_axis < 3 or self.points_per_axis % 2 == 0:
            raise ValueError("points_per_axis must be odd and >= 3")

    @cached_property
    def points(self) -> np.ndarray:
        axis = np.linspace(-1.0, 1.0, self.points_per_axis)
        mesh = np.meshgrid(*([axis] * self.dimension), indexing="ij")
        return np.stack(mesh, axis=-1).reshape(-1, self.dimension)

    @property
    def size(self) -> int:
        return self.points_per_axis ** self.dimension


@dataclass(eq=False)
class GridFunction:
    """Real values sampled over a :class:`BallGrid`."""

    grid: BallGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.size,):
            raise ValueError("value count must match the grid size")

    def sup(self) -> float:
        return float(np.max(np.abs(self.values), initial=0.0))

    def to_csv(self, path) -> None:
        n = self.grid.dimension
        header = ",".join(f"x{i + 1}" for i in range(n)) + ",value"
        table = np.column_stack([self.grid.points, self.values])
        np.savetxt(path, table, delimiter=",", header=header, comments="")


def generator_vectors(e: Expr, gens: Mapping[str, Sequence[float]],
                      dimension: int) -> dict[str, np.ndarray]:
    """The generator vector of every free variable of ``e``, in name order.

    Raises ValueError when a variable has no vector in ``gens`` or its
    vector does not have ``dimension`` coordinates.
    """
    vectors = {}
    for name in variables(e):
        if name not in gens:
            raise ValueError(f"no generator vector for variable {name!r}")
        vec = np.asarray(gens[name], dtype=float)
        if vec.shape != (dimension,):
            raise ValueError(
                f"generator for {name!r} has shape {vec.shape}, expected ({dimension},)")
        vectors[name] = vec
    return vectors


def generator_norms(gens: Mapping[str, Sequence[float]]) -> dict[str, float]:
    """The absolute-sum norm of every generator vector in ``gens``."""
    return {name: float(np.sum(np.abs(np.asarray(vec, dtype=float)))) for name, vec in gens.items()}


def eval_on_ball(e: Expr, gens: Mapping[str, Sequence[float]], grid: BallGrid) -> GridFunction:
    """Sample ``x* -> e(...)`` with each variable read through its generator.

    At grid point ``x*`` the variable ``v`` takes the value ``x* . gens[v]``.
    """
    env = {name: grid.points @ vec
           for name, vec in generator_vectors(e, gens, grid.dimension).items()}
    values = eval_pointwise(e, env)
    return GridFunction(grid, np.broadcast_to(np.asarray(values, dtype=float), (grid.size,)).copy())


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
    majorant bound at the absolute-sum norms of the generators.
    """
    f = eval_on_ball(e, gens, grid)
    bound = float(polynomial_majorant(e).evaluate(generator_norms(gens)))
    threshold = tol * (1.0 + bound)
    idx = int(np.argmax(np.abs(f.values)))
    residual = float(abs(f.values[idx]))
    witness = None if residual <= threshold else tuple(grid.points[idx])
    return BallReport(residual <= threshold, residual, threshold, witness)


@dataclass
class RealLineReport:
    vanishes: bool
    max_scaled_residual: float
    tol: float
    witness: dict | None


_DEFAULT_AXIS_POINTS = {0: 1, 1: 1001, 2: 101, 3: 41}


def vanishes_on_reals(e: Expr, scale: float = 3.0, grid_per_axis: int | None = None,
                      samples: int = 10_000, seed: int = 0,
                      tol: float = 1e-9) -> RealLineReport:
    """Check whether ``e`` vanishes identically on the reals (surrogate).

    Evaluates on a dense product grid of ``[-scale, scale]^k`` plus
    ``samples`` random points (none when it is 0); residuals are scaled by
    ``1 + p(|a|)`` with ``p`` the majorant, so the verdict is uniform across
    magnitudes.
    """
    names = variables(e)
    k = len(names)
    majorant = polynomial_majorant(e)
    g = grid_per_axis if grid_per_axis is not None else _DEFAULT_AXIS_POINTS.get(k, 11)

    worst = 0.0
    witness: dict | None = None

    def consider(env: dict) -> None:
        nonlocal worst, witness
        shape = env[names[0]].shape if names else (1,)
        vals = np.broadcast_to(np.asarray(eval_pointwise(e, env), dtype=float), shape)
        bound_val = majorant.evaluate({n: np.abs(env[n]) for n in names})
        bound = np.broadcast_to(np.asarray(bound_val, dtype=float), shape)
        scaled = np.abs(vals) / (1.0 + bound)
        idx = int(np.argmax(scaled))
        if scaled.flat[idx] > worst:
            worst = float(scaled.flat[idx])
            witness = {n: float(env[n].flat[idx]) for n in names}

    if k == 0:
        consider({})
    else:
        axis = np.linspace(-scale, scale, g)
        if k == 1:
            consider({names[0]: axis})
        else:
            rest = np.meshgrid(*([axis] * (k - 1)), indexing="ij")
            rest_flat = [r.reshape(-1) for r in rest]
            for v0 in axis:
                env = {names[0]: np.full(rest_flat[0].shape, v0)}
                for i, name in enumerate(names[1:]):
                    env[name] = rest_flat[i]
                consider(env)
        if samples > 0:
            pts = seeded_rng(seed, 11).uniform(-scale, scale, (samples, k))
            consider({name: pts[:, i] for i, name in enumerate(names)})

    return RealLineReport(worst <= tol, worst, tol, None if worst <= tol else witness)


def lattice_projection(e: Expr) -> Expr:
    """Product-free image of ``e`` under the positively homogeneous projection.

    Symbolically this is product-kill followed by the structural zero
    cleanup; it is idempotent and the identity on product-free terms.
    """
    return zero_simplify(product_kill(e))


def limit_profile(e: Expr, point: Mapping[str, float],
                  eps_list: Sequence[float]) -> list[tuple[float, float]]:
    """Residuals ``|e(eps*a)/eps - e_0(a)|`` for each ``eps``.

    ``e_0`` is the product-killed term; the residual decays linearly in
    ``eps`` (exactly zero for product-free terms when ``eps`` is a power of
    two).
    """
    killed = product_kill(e)
    base = eval_real(killed, point)
    out = []
    for eps in eps_list:
        scaled = {name: eps * value for name, value in point.items()}
        out.append((float(eps), abs(eval_real(e, scaled) / eps - base)))
    return out
