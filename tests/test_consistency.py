"""Cross-module consistency checks.

These tie the independent evaluation paths together: scalar recursion,
vectorized pointwise evaluation, model evaluation with unit weights, and
the cylinder extension at full radius all compute the same function.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from latalg.ball import eval_on_ball, BallGrid
from latalg.cylinder import CylinderGrid, cylinder_extension
from latalg.expr import eval_pointwise, eval_real, random_expr, variables
from latalg.models import WeightedGridModel
from latalg.rewrite import NormalFormBudgetError, normal_form


def test_pointwise_matches_scalar_eval():
    rng = random.Random(1)
    for i in range(100):
        e = random_expr(rng, ("x", "y"), 9)
        pts = np.random.default_rng(i).uniform(-2, 2, (37, 2))
        vec = np.broadcast_to(
            np.asarray(eval_pointwise(e, {"x": pts[:, 0], "y": pts[:, 1]}), dtype=float),
            (37,))
        for k in range(0, 37, 7):
            assert vec[k] == eval_real(e, {"x": pts[k, 0], "y": pts[k, 1]})


def test_unit_weight_model_matches_pointwise():
    # With all weights 1 the model product is the plain pointwise product.
    rng = random.Random(2)
    model = WeightedGridModel(np.ones(23))
    nprng = np.random.default_rng(2)
    for _ in range(50):
        e = random_expr(rng, ("x", "y"), 8)
        values = {v: nprng.uniform(-2, 2, 23) for v in ("x", "y")}
        direct = np.broadcast_to(
            np.asarray(eval_pointwise(e, values), dtype=float), (23,))
        modeled = model.evaluate(e, {v: model.element(a) for v, a in values.items()}).values
        assert np.array_equal(direct, modeled)


def test_ball_restriction_matches_scalar_eval():
    rng = random.Random(3)
    grid = BallGrid(2, 7)
    gens = {"x": [0.75, 0.25], "y": [-0.5, 0.5]}
    functionals = {v: grid.points @ np.asarray(vec, dtype=float)
                   for v, vec in gens.items()}
    for _ in range(20):
        e = random_expr(rng, ("x", "y"), 7)
        f = eval_on_ball(e, gens, grid)
        for idx in (0, 11, 24, 48):
            a = {v: float(vals[idx]) for v, vals in functionals.items()}
            assert f.values[idx] == eval_real(e, a)


def test_cylinder_extension_at_full_radius():
    # At r = 1 the extension equals the plain evaluation at the functional u.
    rng = random.Random(4)
    grid = CylinderGrid.regular(2, r_levels=5, face_points=6)
    gens = {"v": [1.0, 0.0], "w": [0.0, 1.0]}
    full = grid.r_levels == 1.0
    for _ in range(20):
        e = random_expr(rng, ("v", "w"), 7)
        ext = cylinder_extension(e, gens, grid)
        u1, u2 = grid.sphere_points[:, 0], grid.sphere_points[:, 1]
        direct = np.broadcast_to(
            np.asarray(eval_pointwise(e, {"v": u1, "w": u2}), dtype=float),
            (grid.sphere_points.shape[0],))
        assert np.array_equal(ext.values[full][0], direct)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**6), x=st.floats(-3, 3), y=st.floats(-3, 3))
def test_normal_form_agreement_hypothesis(seed, x, y):
    e = random_expr(random.Random(seed), ("x", "y"), 6)
    try:
        nf = normal_form(e, budget=200_000)
    except NormalFormBudgetError:
        return
    lhs = eval_real(e, {"x": x, "y": y})
    rhs = float(nf.evaluate({"x": x, "y": y}))
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))


def test_variables_cover_all_paths():
    rng = random.Random(5)
    for _ in range(50):
        e = random_expr(rng, ("a", "b", "c"), 8)
        names = variables(e)
        # evaluation succeeds with exactly the reported variables
        assert isinstance(eval_real(e, {n: 0.5 for n in names}), float)
