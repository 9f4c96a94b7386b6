"""Weighted function model on the cylinder [0,1] x S, S the max-norm sphere.

Continuous functions on the cylinder, ordered pointwise and multiplied by

    (f * g)(r, u) = r f(r, u) g(r, u),

form a Banach f-algebra under the sup norm; the canonical generators are
``(r, u) -> u . x``.  This module samples that model on finite grids: the
sphere is gridded per cube face, the radial coordinate by explicit levels.
S is the dual sphere of the absolute-sum norm, the one domain modelled, so
every grid is a cube grid.
The extension of a term along generators evaluates it with the cylinder
product directly on the rows with r > 0; the r = 0 row, where that product
vanishes, is computed symbolically through the product-kill transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .ball import _CAP_EXPONENT, REAL_GRID_CAP, generator_vectors
from .expr import Expr, eval_pointwise
from .models import ConditionReport, _disjoint_pair
from .rewrite import product_kill
from .seeding import seeded_rng

__all__ = [
    "CylinderGrid", "StarFunction", "star_product", "generator", "constant_one",
    "cylinder_extension", "strong_unit_candidate", "UnitCandidate",
    "check_star_axioms",
]


@dataclass(frozen=True, eq=False)
class CylinderGrid:
    """Finite sampling of [0,1] x S: radial levels times sphere points.

    ``r_levels`` must contain 0 and 1.  Cube grids only: ``sphere_points``
    are rows with max-coordinate magnitude exactly 1, checked on construction.
    """

    r_levels: np.ndarray
    sphere_points: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.r_levels, dtype=float)
        pts = np.asarray(self.sphere_points, dtype=float)
        if r.ndim != 1 or pts.ndim != 2:
            raise ValueError("r_levels must be a vector, sphere_points a matrix")
        if 0.0 not in r or 1.0 not in r:
            raise ValueError("r_levels must contain 0 and 1")
        if pts.size and np.any(np.max(np.abs(pts), axis=1) != 1.0):
            raise ValueError("sphere points must have max-coordinate magnitude exactly 1")
        object.__setattr__(self, "r_levels", r)  # frozen
        object.__setattr__(self, "sphere_points", pts)

    @property
    def dimension(self) -> int:
        return self.sphere_points.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.r_levels.shape[0], self.sphere_points.shape[0])

    @property
    def size(self) -> int:
        return self.r_levels.shape[0] * self.sphere_points.shape[0]

    @staticmethod
    def regular_size(dimension: int, r_levels: int, face_points: int) -> int:
        """Points of :meth:`regular`: the boundary of the ``face_points^n`` cube
        lattice, times the radial levels (for ``face_points >= 2``).  Beyond
        ``REAL_GRID_CAP.bit_length()`` dimensions it is the count at that
        dimension instead, which is already above the cap (the boundary holds
        at least ``2^n`` points), so no huge power is computed."""
        k = min(dimension, _CAP_EXPONENT)
        return r_levels * (face_points ** k - (face_points - 2) ** k)

    @classmethod
    def regular(cls, dimension: int, r_levels: int = 33, face_points: int = 8) -> "CylinderGrid":
        """Uniform grid: per-face lattices on the 2n cube faces in canonical
        order (axis 0 +, axis 0 -, axis 1 +, ...), each shared edge point kept
        on its first face only.  A point of face ``(i, +-)`` lies on an earlier
        face exactly when one of its first ``i`` free coordinates (axes 0 to
        i - 1) is +-1, so those points are dropped from it.

        Raises ValueError, before building anything, for a grid of more than
        :data:`~latalg.ball.REAL_GRID_CAP` points.
        """
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        if r_levels < 2 or face_points < 2:
            raise ValueError("need at least two radial levels and two points per face axis")
        if cls.regular_size(dimension, r_levels, face_points) > REAL_GRID_CAP:
            raise ValueError(f"the cylinder grid of dimension {dimension} would hold more "
                             f"than the budget of {REAL_GRID_CAP} points")
        r = np.linspace(0.0, 1.0, r_levels)
        axis = np.linspace(-1.0, 1.0, face_points)
        cells = np.indices((face_points,) * (dimension - 1))
        cells = cells.reshape(dimension - 1, face_points ** (dimension - 1)).T
        # on_edge[:, i - 1]: one of the first i free coordinates is an end of the axis.
        on_edge = np.logical_or.accumulate((cells == 0) | (cells == face_points - 1), axis=1)
        faces = []
        for i in range(dimension):
            free = axis[cells if i == 0 else cells[~on_edge[:, i - 1]]]
            faces += [np.insert(free, i, sign, axis=1) for sign in (1.0, -1.0)]
        return cls(r, np.concatenate(faces))


@dataclass(eq=False)
class StarFunction:
    """Values over the cylinder grid, indexed (radial level, sphere point)."""

    grid: CylinderGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(f"values must have shape {self.grid.shape}")

    def sup(self) -> float:
        return float(np.max(np.abs(self.values), initial=0.0))

    def _check(self, other: "StarFunction") -> None:
        if other.grid is not self.grid:
            raise ValueError("star functions live on different grids")

    def to_csv(self, path) -> None:
        n = self.grid.dimension
        nr, ns = self.grid.shape
        r = np.repeat(self.grid.r_levels, ns)
        u = np.tile(self.grid.sphere_points, (nr, 1))
        header = "r," + ",".join(f"u{i + 1}" for i in range(n)) + ",value"
        table = np.column_stack([r, u, self.values.reshape(-1)])
        np.savetxt(path, table, delimiter=",", header=header, comments="")


def star_product(f: StarFunction, g: StarFunction) -> StarFunction:
    """Weighted pointwise product ``(r, u) -> r f g``."""
    f._check(g)
    r = f.grid.r_levels[:, None]
    return StarFunction(f.grid, r * f.values * g.values)


def generator(x: Sequence[float], grid: CylinderGrid) -> StarFunction:
    """Canonical generator ``(r, u) -> u . x`` (independent of r)."""
    vec = np.asarray(x, dtype=float)
    if vec.shape != (grid.dimension,):
        raise ValueError(f"expected a vector of dimension {grid.dimension}")
    row = grid.sphere_points @ vec
    return StarFunction(grid, np.tile(row, (grid.r_levels.shape[0], 1)))


def constant_one(grid: CylinderGrid) -> StarFunction:
    return StarFunction(grid, np.ones(grid.shape))


def cylinder_extension(e: Expr, gens: Mapping[str, Sequence[float]],
                       grid: CylinderGrid) -> StarFunction:
    """Image of a term under the extension homomorphism along ``gens``.

    The rows with r > 0 evaluate the term once at the sphere points with the
    cylinder product ``r * a * b``; the r = 0 row is the product-killed term
    evaluated at ``u`` itself, the paper's symbolic row.
    """
    dots = {name: grid.sphere_points @ vec
            for name, vec in generator_vectors(e, gens, grid.dimension)[0].items()}

    r = grid.r_levels
    positive = r > 0.0
    out = np.zeros(grid.shape)  # every grid holds r = 0 and r = 1, so both parts are nonempty
    r_pos = r[positive][:, None]
    out[positive] = eval_pointwise(e, dots, lambda a, b: r_pos * a * b)
    out[~positive] = eval_pointwise(product_kill(e), dots)
    return StarFunction(grid, out)


@dataclass
class UnitCandidate:
    function: StarFunction
    grid_min: float
    accepted: bool


def strong_unit_candidate(family: Sequence[Sequence[float]], grid: CylinderGrid) -> UnitCandidate:
    """Pointwise sup of |generators| over a family of unit vectors.

    The candidate is accepted when its grid minimum is at least 1/2, the
    threshold under which the sup fails to dominate the dual norm.
    """
    if len(family) == 0:
        raise ValueError("the family must be nonempty")
    sups = None
    for x in family:
        vec = np.asarray(x, dtype=float)
        if not abs(float(np.sum(np.abs(vec))) - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError(f"family vectors must have absolute-sum norm 1, got {vec}")
        g = np.abs(generator(vec, grid).values)
        sups = g if sups is None else np.maximum(sups, g)
    grid_min = float(np.min(sups))
    return UnitCandidate(StarFunction(grid, sups), grid_min, grid_min >= 0.5)


def check_star_axioms(grid: CylinderGrid, trials: int = 100, seed: int = 0,
                      product: Callable[[StarFunction, StarFunction], StarFunction] = star_product
                      ) -> ConditionReport:
    """Verify the product laws on random samples.

    Checked per trial: commutativity, associativity, the disjointness-
    preservation law for positive multipliers, and constructive
    semiprimeness away from r = 0 (f*f = 0 at a point with r > 0 forces
    f = 0 there).  The weight row is pinned globally: 1*1 must equal r.
    A residual above the fixed tolerance 1e-12, or NaN, is a violation.
    """
    tol = 1e-12
    rng = seeded_rng(seed, 21)
    report = ConditionReport("star_axioms", trials)
    one = constant_one(grid)
    weight = product(one, one)
    expected = np.broadcast_to(grid.r_levels[:, None], grid.shape)
    unit = np.max(np.abs(weight.values - expected))
    if not unit <= tol:
        report.record(law="unit_weight_row", residual=float(unit))

    r_positive = grid.r_levels[:, None] > 0.0
    for trial in range(trials):
        f = StarFunction(grid, rng.uniform(-1, 1, grid.shape))
        g = StarFunction(grid, rng.uniform(-1, 1, grid.shape))
        h = StarFunction(grid, rng.uniform(-1, 1, grid.shape))

        comm = np.max(np.abs(product(f, g).values - product(g, f).values))
        if not comm <= tol:
            report.record(law="commutativity", trial=trial, residual=float(comm))
        assoc = np.max(np.abs(product(product(f, g), h).values
                              - product(f, product(g, h)).values))
        if not assoc <= tol:
            report.record(law="associativity", trial=trial, residual=float(assoc))

        x, y = _disjoint_pair(rng, grid.shape)
        z = StarFunction(grid, np.abs(rng.uniform(-1, 1, grid.shape)))
        disj = np.max(np.minimum(product(z, StarFunction(grid, x)).values, y))
        if not disj <= tol:
            report.record(law="f_algebra_condition", trial=trial, residual=float(disj))

        square = product(f, f)
        bad = r_positive & (square.values == 0.0) & (f.values != 0.0)
        if np.any(bad):
            report.record(law="semiprime_positive_r", trial=trial, points=int(np.sum(bad)))
    return report
