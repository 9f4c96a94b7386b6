import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest

from latalg import ball
from latalg.ball import (
    REAL_GRID_CAP, BallGrid, limit_profile,
    transport_residual, vanishes_on_ball, vanishes_on_reals,
)
from latalg.cylinder import CylinderGrid, cylinder_extension
from latalg.expr import (
    Add, Mul, Scale, Var, Zero, cosh_sinh_witness, eval_pointwise, eval_real, parse,
    print_expr, random_expr, variables,
)
from latalg.freenorm import (
    OperatorIntoAlgebra, SearchConfig, evaluate_operator, operator_lower_bound,
    product_free_lower_bound,
)
from latalg.models import DiagonalAlgebra, ZeroProductModel
from latalg.rewrite import polynomial_majorant, product_kill
from latalg.seeding import seeded_rng

WITNESS = parse("pos(pos(x)*pos(x) - pos(x))")


def test_grid_requires_odd_axis():
    with pytest.raises(ValueError):
        BallGrid(1, 4)
    with pytest.raises(ValueError):
        BallGrid(0, 5)
    g = BallGrid(2, 3)
    assert g.size == 9
    assert {tuple(p) for p in g.points} >= {(0.0, 0.0), (1.0, 1.0), (-1.0, 1.0)}


def ball_scan(e, gens, grid):
    """``vanishes_on_ball``, checked against ``eval_real`` at every point of
    ``grid.points``: the residual is the largest ``|e|`` and the witness the
    first point attaining it."""
    functionals = {v: grid.points @ np.asarray(vec, dtype=float) for v, vec in gens.items()}
    values = np.abs([eval_real(e, {v: float(f[i]) for v, f in functionals.items()})
                     for i in range(grid.size)])
    rep = vanishes_on_ball(e, gens, grid)
    assert rep.max_residual == values.max()
    if not rep.vanishes:
        assert rep.witness == tuple(grid.points[int(np.argmax(values))])
    return rep


def test_eval_on_ball_generator_is_coordinate():
    rep = ball_scan(Var("v"), {"v": [1.0]}, BallGrid(1, 5))
    assert rep.max_residual == 1.0 and rep.witness == (-1.0,)


def test_eval_on_ball_witness_vanishes():
    rep = ball_scan(WITNESS, {"x": [1.0]}, BallGrid(1, 101))
    assert rep.vanishes and rep.max_residual == 0.0 and rep.witness is None


def test_eval_on_ball_product_point():
    rep = ball_scan(Mul(Var("v"), Var("w")), {"v": [1, 0], "w": [0, 1]}, BallGrid(2, 5))
    assert rep.max_residual == 1.0 and rep.witness == (-1.0, -1.0)
    rep = ball_scan(parse("v*w \\/ 0"), {"v": [1, 0], "w": [0, -0.5]}, BallGrid(2, 5))
    assert rep.max_residual == 0.5 and rep.witness == (-1.0, 1.0)


def test_eval_on_ball_dimension_mismatch():
    with pytest.raises(ValueError):
        vanishes_on_ball(Var("v"), {"v": [1.0, 0.0]}, BallGrid(1, 5))


def test_vanishes_on_ball_verdicts():
    g = BallGrid(1, 101)
    rep = vanishes_on_ball(WITNESS, {"x": [1.0]}, g)
    assert rep.vanishes and rep.max_residual == 0.0

    rep2 = vanishes_on_ball(Var("v"), {"v": [1.0]}, g)
    assert not rep2.vanishes and rep2.max_residual == 1.0

    e = Add(Mul(Var("v"), Var("v")), parse("-v"))
    rep3 = vanishes_on_ball(e, {"v": [1.0]}, g)
    assert not rep3.vanishes and rep3.max_residual == 2.0
    assert rep3.witness == (-1.0,)


def test_vanishes_on_reals_verdicts():
    assert vanishes_on_reals(parse("pos(x)*neg(x)"), samples=2000).vanishes
    rep = vanishes_on_reals(parse("x \\/ 0"), samples=2000)
    assert not rep.vanishes and rep.witness is not None
    assert vanishes_on_reals(parse("(x \\/ y) + (x /\\ y) - x - y"),
                             grid_per_axis=51, samples=2000).vanishes


def test_kernel_witness_separates_ball_and_reals():
    # Vanishing on the ball without vanishing on the reals shows the
    # restriction map is not injective; the suite pins the curated witness.
    g = BallGrid(1, 1001)
    assert vanishes_on_ball(WITNESS, {"x": [1.0]}, g).vanishes
    assert not vanishes_on_reals(WITNESS, samples=2000).vanishes


def _real_line_corpus():
    """(term, keyword arguments) pairs with 0 to 5 variables for the pinned digest."""
    names = ("x", "y", "z", "u", "w")
    cases = [(e, {}) for e in (Zero(), Scale(2.0, Zero()), parse("0 \\/ -1.5*0"), parse("0*0"))]
    rng = random.Random(606)
    for k in range(1, 6):
        found = 0
        while found < 4:
            e = random_expr(rng, names[:k], 9)
            if len(variables(e)) == k:
                cases.append((e, {}))
                found += 1
    identities = ("pos({x})*neg({x})", "({x} \\/ {y}) + ({x} /\\ {y}) - {x} - {y}",
                  "abs({x}*{y}) - abs({x})*abs({y})",
                  "(({x} \\/ {y})*pos({z})) - (({x}*pos({z})) \\/ ({y}*pos({z})))")
    for i, text in enumerate(identities):
        cases.append((parse(text.format(x="x", y="y", z="z")), {}))
        sub_rng = random.Random(800 + i)
        subs = {v: f"({print_expr(random_expr(sub_rng, names, 3))})" for v in "xyz"}
        cases.append((parse(text.format(**subs)), {}))
    # The scaled maximum is attained at several grid points, in different
    # chunks: the first in C order is the witness.
    for text in ("x \\/ y", "abs(x) + 0*y", "pos(x) \\/ pos(y) \\/ pos(z)"):
        cases.append((parse(text), {}))
    # Residual-0 terms under a negative tol: only a strictly larger residual
    # replaces the witness, so it stays None.
    for text in ("x - x", "pos(x)*neg(x) + 0*y", "0", "(x \\/ y) + (x /\\ y) - x - y + 0*z"):
        cases.append((parse(text), {"tol": -1.0}))
    return cases


# sha256 of (vanishes, max_scaled_residual, witness) over the corpus above,
# recorded from known-good reports: verdicts, residuals and witnesses must
# stay bit-identical.
REAL_LINE_DIGEST = "d4cc83d88b282a7232045bb1a9d08b43266f7cab9ba0cf55cb8bafbeb93a1214"


def test_real_line_reports_are_bit_identical():
    lines = []
    for e, kwargs in _real_line_corpus():
        report = vanishes_on_reals(e, **kwargs)
        witness = None if report.witness is None else sorted(report.witness.items())
        lines.append(repr((report.vanishes, report.max_scaled_residual, witness)))
    assert sorted({len(variables(e)) for e, _ in _real_line_corpus()}) == [0, 1, 2, 3, 4, 5]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == REAL_LINE_DIGEST


def _ball_corpus():
    """(term, generators, grid, tol) cases in dimensions 1 to 4 for the pinned digest."""
    names = ("x", "y", "z", "u")
    rng, vec_rng = random.Random(909), np.random.default_rng(909)
    # One chunk (n = 1, 101 and 1001 points; 5^4 points) and many (101^2, 41^3, 15^4).
    grids = {1: (101, 1001), 2: (101,), 3: (41,), 4: (5, 15)}
    cases = []
    for n, sizes in grids.items():
        for points in sizes:
            grid = BallGrid(n, points)
            basis = {v: np.eye(n)[i % n] for i, v in enumerate(names)}
            other = {v: vec_rng.uniform(-0.6, 0.6, n) for v in names}
            for gens in (basis, other):
                for _ in range(3):
                    e = random_expr(rng, names[:n], 8)
                    cases.append((e, {v: gens[v] for v in variables(e)}, grid, 1e-9))
                # The maximum recurs in every later chunk; the first point is the witness.
                e = parse(" \\/ ".join(f"pos({v})" for v in names[:n]))
                cases.append((e, {v: gens[v] for v in variables(e)}, grid, 1e-9))
            for e in (WITNESS, parse("pos(x)*neg(x)")):
                cases.append((e, {"x": basis["x"]}, grid, 1e-9))
            # Zero terms: they vanish, and under a negative tol the witness is the first point.
            for text in ("0", "x - x", "0*0"):
                gens = {v: basis[v] for v in variables(parse(text))}
                cases.extend((parse(text), gens, grid, tol) for tol in (1e-9, -1.0))
    return cases


# sha256 of (vanishes, max_residual, threshold, witness) over the corpus
# above, recorded from known-good reports.
BALL_DIGEST = "4f533c582ab71e346d59784b16aa764d1ebcfa828229768b37bb2b08505f6457"


def test_ball_reports_are_bit_identical():
    lines = []
    for e, gens, grid, tol in _ball_corpus():
        report = vanishes_on_ball(e, gens, grid, tol=tol)
        witness = None if report.witness is None else [float(c) for c in report.witness]
        lines.append(repr((report.vanishes, report.max_residual, report.threshold, witness)))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == BALL_DIGEST


def _cube_corpus():
    """(term, generators) cases on the 101^3 ball grid, 101 blocks of one
    101 x 101 plane each: the CI kernel term ``x*y - z``, three random terms
    and two whose worst point lies inside the grid, with the basis
    generators x = e1, z = e3 and the product generators y = (0, 0.5, 0.5)
    and u = (0.1, -0.3, 0.7), whose products round."""
    gens = {"x": [1.0, 0.0, 0.0], "y": [0.0, 0.5, 0.5], "z": [0.0, 0.0, 1.0],
            "u": [0.1, -0.3, 0.7]}
    rng = random.Random(3636)
    terms = [parse("x*y - z")] + [random_expr(rng, ("x", "y", "z"), 8) for _ in range(3)]
    terms.append(parse("x*x*x - x + y*y*y - y"))  # worst at (-0.58, -1, -0.16), block 21
    terms.append(parse("u*u*u - u + pos(x)"))  # worst at (1, 0.02, -0.96), block 100
    return [(e, {v: gens[v] for v in variables(e)}) for e in terms]


# sha256 of (vanishes, max_residual, threshold, witness) over the corpus
# above, recorded from the reports of the (size, k) block layout.
CUBE_DIGEST = "548af0277e2104c4332411a2c899db7212360f5a862a4159b98f27c0e8c5c8b9"


def test_cube_reports_are_bit_identical():
    lines = []
    for e, gens in _cube_corpus():
        report = vanishes_on_ball(e, gens, BallGrid(3, 101))
        witness = None if report.witness is None else [float(c) for c in report.witness]
        lines.append(repr((report.vanishes, report.max_residual, report.threshold, witness)))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CUBE_DIGEST


def _transport_corpus():
    """(term text, seed) cases for the pinned transport digest: identities with
    random subterms, random non-identities and zero terms, at four seeds."""
    names = ("x", "y", "z")
    identities = ("pos({x})*neg({x})", "({x} \\/ {y}) + ({x} /\\ {y}) - {x} - {y}",
                  "abs({x}*{y}) - abs({x})*abs({y})",
                  "(({x} \\/ {y})*pos({z})) - (({x}*pos({z})) \\/ ({y}*pos({z})))")
    cases = []
    for seed in (0, 3, 17, 101):
        rng = random.Random(1700 + seed)
        for text in identities:
            cases.append((text.format(x="x", y="y", z="z"), seed))
            for _ in range(2):
                subs = {v: f"({print_expr(random_expr(rng, names, 4))})" for v in "xyz"}
                cases.append((text.format(**subs), seed))
        cases.extend((print_expr(random_expr(rng, names[:k], 7)), seed) for k in (1, 2, 3))
        cases.extend((text, seed) for text in ("0", "x - x", "0*0"))
    return cases


# sha256 of the residuals over the corpus above, as the transport gave them
# when it evaluated the models one by one, and of the (residual, real
# witness) pairs, recorded from the one-evaluation transport.
TRANSPORT_DIGEST = "9f1e968429c1df36a16c1f302c9d7e51c46481cccd04e83d46341f3a8acea8c5"
WITNESS_DIGEST = "34edc46b3119c51d0c34e8d3f6cf67217d4c3dc0b4e07d60b2a26e02981bd488"


def test_transport_reports_are_bit_identical():
    reports = [transport_residual(parse(text), seed) for text, seed in _transport_corpus()]
    residuals = "\n".join(repr(worst) for worst, _ in reports)
    assert hashlib.sha256(residuals.encode()).hexdigest() == TRANSPORT_DIGEST
    witnesses = "\n".join(repr(report) for report in reports)
    assert hashlib.sha256(witnesses.encode()).hexdigest() == WITNESS_DIGEST


def test_transport_is_one_evaluation(monkeypatch):
    shapes = []

    def counting(e, env, product=None):
        shapes.append([np.shape(value) for value in env.values()])
        return eval_pointwise(e, env, product)

    monkeypatch.setattr(ball, "eval_pointwise", counting)
    points = sum(model.size for model in ball.model_suite(0))
    for text, names in (("x*y - pos(z)", 3), ("x*x + 2*x", 1), ("0*0", 0)):
        shapes.clear()
        transport_residual(parse(text))
        assert shapes == [[(5, points)] * names]


def _zero_weight_hit(monkeypatch, text):
    """The transport of ``text`` in the 7-point zero-product model alone, and
    the model point ``a`` of its hit: the largest value in the worst of the
    five assignments, recomputed from the seeded draws."""
    monkeypatch.setattr(ball, "model_suite", lambda seed: [ZeroProductModel(7)])
    e = parse(text)
    worst, witness = transport_residual(e)
    draws = seeded_rng(0, 61).uniform(-1.0, 1.0, (5, 2, 7))  # assignment, name, point
    values = np.array([[eval_real(product_kill(e), {"x": x, "y": y}) for x, y in zip(*d)]
                       for d in draws])
    sups = np.abs(draws).max(-1)
    bound = polynomial_majorant(e).evaluate({"x": sups[:, 0], "y": sups[:, 1]})
    j = int(np.argmax(np.abs(values).max(-1) / (1.0 + bound)))
    i = int(np.argmax(np.abs(values[j])))
    assert worst > 0.0 and values[j, i] > 0.0
    return e, worst, witness, dict(zip("xy", draws[j, :, i].tolist()))


def test_zero_weight_hit_is_a_shrunk_real_point(monkeypatch):
    # The model value at a is product_kill(e)(a) = lim e(t*a)/t, here
    # pos(y - abs(x)) > 0, while the product part -100*x*x*y dominates e(a).
    e, worst, witness, a = _zero_weight_hit(monkeypatch, "pos(y - abs(x)) - 100*x*x*y")
    assert worst > 1e-9 and eval_real(e, a) < 0.0
    t = witness["y"] / a["y"]
    assert 0.0 < t < 1.0 and math.log2(t).is_integer()
    assert witness == {name: t * value for name, value in a.items()}
    assert all(type(value) is float for value in witness.values())
    assert eval_real(e, witness) > 0.0  # the model value's sign


def test_zero_weight_witness_without_a_close_scale(monkeypatch):
    # Down to t = 2^-63 the product part keeps e(t*a)/t far from the model
    # value, so the witness is the t of largest |e(t*a)|/t: t = 1.  (The
    # majorant scales the residual below any tolerance; the witness is kept.)
    e, _, witness, a = _zero_weight_hit(monkeypatch, "pos(y - abs(x)) - 1e300*x*x*y")
    assert witness == a and eval_real(e, witness) < 0.0


def test_real_grid_cap():
    # From 14 variables on the grid is the single point (-3, ..., -3).
    for k, per_axis in ((1, 1001), (3, 41), (6, 11), (7, 7), (8, 5), (10, 3), (14, 1), (40, 1),
                        (70, 1)):
        e = parse(" + ".join(f"x{i}" for i in range(k)))
        report = vanishes_on_reals(e, samples=0)
        assert report.grid_per_axis == per_axis and per_axis ** k <= REAL_GRID_CAP
        assert report.grid_capped == (k >= 7)
        assert not report.vanishes and report.witness == {f"x{i}": -3.0 for i in range(k)}
    explicit = vanishes_on_reals(parse(" + ".join(f"x{i}" for i in range(7))),
                                 grid_per_axis=3, samples=0)
    assert explicit.grid_per_axis == 3 and not explicit.grid_capped


@pytest.mark.parametrize("text", ["x", "x + y", "x + y + z"])
@pytest.mark.parametrize("per_axis", [0, -1])
def test_explicit_grid_below_one_is_refused(monkeypatch, text, per_axis):
    monkeypatch.setattr(ball, "eval_pointwise", None)  # nothing is evaluated
    with pytest.raises(ValueError, match="grid_per_axis must be >= 1"):
        vanishes_on_reals(parse(text), grid_per_axis=per_axis, samples=0)


def test_random_samples_are_drawn_in_chunks(monkeypatch):
    sizes = []

    def counting(e, env):
        sizes.append(len(next(iter(env.values()))))
        return eval_pointwise(e, env)

    monkeypatch.setattr(ball, "eval_pointwise", counting)
    vanishes_on_reals(parse("x*y*z - pos(x)"), grid_per_axis=3, samples=20_000)
    assert sum(sizes) == 27 + 20_000 and max(sizes) <= ball._CHUNK


def test_one_evaluation_per_block(monkeypatch):
    sizes = []

    def counting(e, env):
        sizes.append(len(next(iter(env.values()))))
        return eval_pointwise(e, env)

    monkeypatch.setattr(ball, "eval_pointwise", counting)
    # The 3-variable real line: 41^3 grid points in 6 blocks of whole 41 x 41
    # planes, then 10,000 random points in 2; all 8 calls fold the tape.
    e = parse("x*y - pos(z)")
    vanishes_on_reals(e)
    assert len(sizes) == 8 and sum(sizes) == 41 ** 3 + 10_000
    assert "_kernel" not in vars(e)
    # The ball grids: one 101 x 101 plane per block.
    for n, blocks in ((3, 101), (2, 1)):
        sizes.clear()
        gens = {"x": np.eye(n)[0], "y": np.full(n, 0.5)}
        vanishes_on_ball(parse("x*y - pos(x)"), gens, BallGrid(n, 101))
        assert len(sizes) == blocks and sizes == [101 ** n // blocks] * blocks


@pytest.mark.parametrize("g, k", [(1, 1), (1, 4), (1001, 1), (101, 3), (41, 3), (21, 4), (3, 7)])
def test_grid_chunks_stack_to_the_c_order_grid(g, k):
    # (1, k): the single point; (1001, 1): no trailing axes; (101, 3): one
    # 101 x 101 plane per block; (41, 3): a short last block; (21, 4): two
    # trailing axes.
    axis = np.linspace(-1.0, 1.0, g)
    blocks, buffers = [], set()
    for points in ball._grid_chunks(axis, k):
        assert points.shape[0] == k and points.shape[1] <= ball._GRID_BLOCK
        assert points.flags.c_contiguous  # one contiguous row per coordinate
        buffers.add(id(points.base))
        blocks.append(np.ascontiguousarray(points.T))
    expected = np.stack(np.meshgrid(*([axis] * k), indexing="ij"), axis=-1).reshape(-1, k)
    stacked = np.concatenate(blocks)
    assert stacked.shape == expected.shape
    assert np.array_equal(stacked.view(np.int64), expected.view(np.int64))
    assert len(buffers) == 1  # every block is a view of one buffer
    if (g, k) == (101, 3):
        assert len(blocks) == 101 and all(block.shape[0] == 101 ** 2 for block in blocks)
    if (g, k) == (41, 3):
        assert len(blocks) == 6 and blocks[-1].shape[0] < blocks[0].shape[0]


def test_grid_chunk_is_reused_and_witnesses_are_copies():
    # A block is overwritten by the next one ...
    chunks = ball._grid_chunks(np.linspace(-1.0, 1.0, 101), 3)
    first = next(chunks)
    first_point = first[0].copy()
    next(chunks)
    assert not np.array_equal(first[0], first_point)
    # ... but the scans read their witness before drawing the next block: the
    # worst point is the first one, in the first of many blocks.
    gens = {"x": [1.0, 0.0, 0.0], "y": [0.0, 1.0, 0.0], "z": [0.0, 0.0, 1.0]}
    corner = parse("neg(x) /\\ neg(y) /\\ neg(z)")  # largest at the first point alone
    report = vanishes_on_ball(corner, gens, BallGrid(3, 101))
    assert report.witness == (-1.0, -1.0, -1.0) and report.max_residual == 1.0
    report = vanishes_on_reals(corner, samples=0)
    assert report.witness == {"x": -3.0, "y": -3.0, "z": -3.0}


def _old_worst_point(chunks, worst=0.0):
    """The worst-point rule before ``argmax`` came first: a copy to compare against."""
    witness = None
    with np.errstate(all="ignore"):
        for values, bound, witness_at in chunks:
            scores = np.ravel(np.abs(values) / (1.0 + bound))
            if not (np.isfinite(scores).all() and np.isfinite(bound).all()):
                scores = np.where(np.isfinite(values) & np.isfinite(bound), scores, np.inf)
            idx = int(np.argmax(scores))
            if scores[idx] > worst:
                worst, witness = float(scores[idx]), witness_at(idx)
    return worst, witness


def test_worst_point_matches_the_old_rule_on_non_finite_chunks():
    rng = np.random.default_rng(29)
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -1.0])
    for trial in range(400):
        chunks = []
        for c in range(int(rng.integers(1, 4))):
            size = int(rng.integers(1, 40))
            values = rng.uniform(-2.0, 2.0, size)
            hits = rng.random(size) < rng.choice([0.0, 0.05, 0.3])
            values[hits] = rng.choice(specials[:3], int(hits.sum()))
            kind = trial % 3
            if kind == 0:
                bound = float(rng.choice([0.0, 1.5, np.inf, np.nan, -1.0]))
            elif kind == 1:
                bound = rng.uniform(0.0, 3.0, size)
                marks = rng.random(size) < rng.choice([0.0, 0.1])
                bound[marks] = rng.choice(specials, int(marks.sum()))
            else:
                bound = 0.0
            chunks.append((values, bound, lambda i, c=c: (c, i)))
        worst = float(rng.choice([0.0, -1.0]))
        new = ball._worst_point(iter(chunks), worst=worst)
        old = _old_worst_point(iter(chunks), worst=worst)
        assert repr(new) == repr(old), (trial, new, old)


def test_grid_budget_checked_before_allocation():
    assert BallGrid(6, 11).size == REAL_GRID_CAP
    with pytest.raises(ValueError, match="budget"):
        BallGrid(10, 9)
    # Decided without the 10**7-digit point count, and without printing it.
    with pytest.raises(ValueError, match=r"3\^10000000 points, more than the budget"):
        BallGrid(10 ** 7, 3)


def test_ball_grid_points_are_built_once():
    # The meshgrid's axes are views, so the stacked grid is the one copy.
    grid = BallGrid(3, 41)
    tracemalloc.start()
    try:
        points = grid.points
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert points.shape == (41 ** 3, 3) and points.flags.c_contiguous
    assert peak <= 1.1 * points.nbytes


def test_non_finite_ball_residual_does_not_vanish():
    # An overflowing square (inf, against an infinite threshold) and a
    # difference of two (NaN): neither vanishes, and the witness is x = -1.
    for text in ("(1e200*x)*(1e200*x)", "(1e200*x)*(1e200*x) - (1e200*x)*(1e200*x)"):
        with np.errstate(all="ignore"):
            report = vanishes_on_ball(parse(text), {"x": [1.0]}, BallGrid(1, 3))
        assert not report.vanishes and report.witness == (-1.0,)
        assert report.max_residual == np.inf
    # NaN from x = 0.5 on: the residual reads inf, the witness is the first such point.
    big = "(1e200*pos(x))*(1e200*pos(x))"
    report = vanishes_on_ball(parse(f"{big} - {big}"), {"x": [1.0]}, BallGrid(1, 5))
    assert not report.vanishes and report.max_residual == np.inf and report.witness == (0.5,)


def test_vanishes_on_ball_never_builds_the_grid(monkeypatch):
    monkeypatch.setattr(BallGrid, "points", property(lambda self: pytest.fail("built the grid")))
    gens = {"x": [1, 0, 0], "y": [0, 1, 0], "z": [0, 0, 1]}
    report = vanishes_on_ball(parse("x*y - pos(z)"), gens, BallGrid(3, 41))
    assert not report.vanishes and report.max_residual == 2.0 and report.witness == (-1.0, 1.0, 1.0)


def test_basis_index_only_for_exact_unit_vectors():
    for n in range(1, 5):
        for j in range(n):
            assert ball._basis_index(np.eye(n)[j]) == j
            assert ball._basis_index(2.0 * np.eye(n)[j]) is None
            assert ball._basis_index(-np.eye(n)[j]) is None
    assert ball._basis_index(np.array([-0.0, 1.0, 0.0])) == 1
    assert ball._basis_index(np.array([1.0])) == 0
    for vec in ([1.0, 1e-300], [np.nan, 0.0], [0.0, 0.0, 0.0]):
        assert ball._basis_index(np.array(vec)) is None


@pytest.mark.parametrize("g, k", [(101, 2), (41, 3), (15, 4)])
def test_basis_coordinate_is_the_product_on_every_grid_block(g, k):
    # Reading coordinate j of a block gives the floats of its product with
    # e_j, the sign of every zero included: the 101^2 grid in one block, the
    # others in blocks of 7 planes of 41 x 41 and 3 cubes of 15^3.
    blocks = 0
    for block in ball._grid_chunks(np.linspace(-1.0, 1.0, g), k):
        points = np.ascontiguousarray(block.T)
        for j, unit in enumerate(np.eye(k)):
            product = points @ unit
            assert np.array_equal(block[j], product)
            assert np.array_equal(np.signbit(block[j]), np.signbit(product))
        blocks += 1
    assert blocks == {(101, 2): 1, (41, 3): 6, (15, 4): 5}[g, k]


def _old_ball_scan(e, gens, grid, tol=1e-9):
    """``vanishes_on_ball`` as it was before basis generators read their
    coordinate: every generator by its product with each point."""
    vectors, _ = ball.generator_vectors(e, gens, grid.dimension)
    threshold = tol * (1.0 + ball.majorant_upper_bound(e, ball.generator_norms(gens)))

    def chunks():
        for block in ball._grid_chunks(np.linspace(-1.0, 1.0, grid.points_per_axis), grid.dimension):
            points = np.ascontiguousarray(block.T)  # (size, k), in C order
            values = eval_pointwise(e, {name: points @ vec for name, vec in vectors.items()})
            yield values, 0.0, lambda i: tuple(points[i])

    residual, witness = _old_worst_point(chunks(), worst=-1.0)
    vanishes = math.isfinite(threshold) and residual <= threshold
    return ball.BallReport(vanishes, residual, threshold, None if vanishes else witness)


def test_basis_and_product_generators_in_one_scan_match_the_all_product_scan():
    gens = {"x": [1.0, 0.0, 0.0], "y": [0.3, -0.2, 0.5], "z": [0.0, 0.0, 1.0]}
    rng = random.Random(3232)
    terms = [parse("x*y - pos(x)"), parse("x \\/ y"), WITNESS, parse("pos(x)*neg(y) - 0.5*x"),
             parse("x*y - z"), parse("x*y - pos(z)"), parse("pos(x - z)")]
    terms += [random_expr(rng, ("x", "y", "z"), 8) for _ in range(6)]
    reports = set()
    for e in terms:
        gens_e = {v: gens[v] for v in variables(e)}
        for grid in (BallGrid(3, 41), BallGrid(3, 5)):
            new = vanishes_on_ball(e, gens_e, grid)
            assert repr(new) == repr(_old_ball_scan(e, gens_e, grid))
            reports.add(new.vanishes)
    assert reports == {True, False}


def test_non_finite_points_are_violations():
    for text in ("(1e200*x)*(1e200*x) - (1e200*x)*(1e200*x)", "(1e300*x)*(1e300*x)*0"):
        report = vanishes_on_reals(parse(text))
        assert not report.vanishes and report.max_scaled_residual == np.inf
        assert report.witness == {"x": -3.0}


def test_product_kill_projection_examples():
    product_free = parse("(x \\/ y) + -2.0*x")
    assert product_kill(product_free) == product_free
    for e in (parse("x*y + (x \\/ y)"), cosh_sinh_witness(5)):
        assert product_kill(product_kill(e)) == product_kill(e)


def test_product_kill_idempotent():
    rng = random.Random(3)
    for _ in range(50):
        e = random_expr(rng, ("x", "y"), 8)
        p = product_kill(e)
        assert product_kill(p) == p


def test_limit_profile_closed_forms():
    e = parse("x*y + (x \\/ y)")
    ((eps, res),) = limit_profile(e, {"x": 1.0, "y": 1.0}, [2.0 ** -10])
    assert res == 2.0 ** -10

    product_free = parse("(x \\/ y) + -0.5*y")
    for eps, res in limit_profile(product_free, {"x": 0.7, "y": -0.3},
                                  [2.0 ** -k for k in range(1, 20)]):
        assert res == 0.0

    cubic = parse("x*x*x")
    ((_, res),) = limit_profile(cubic, {"x": 1.0}, [2.0 ** -5])
    assert res == 2.0 ** -10


def test_limit_law_calibrated_slope():
    # Calibrate K at eps = 2^-5 (with headroom for the pre-asymptotic range);
    # linear decay must then hold for every smaller eps, and the final
    # residual is tiny.
    eps_list = [2.0 ** -k for k in range(5, 21)]
    for i in range(50):
        e = random_expr(random.Random(2000 + i), ("x", "y", "z"), 10)
        killed = product_kill(e)
        for j in range(20):
            prng = random.Random(12000 + 100 * i + j)
            lam = {v: prng.uniform(-1, 1) for v in ("x", "y", "z")}
            profile = limit_profile(e, lam, eps_list)
            base = abs(eval_real(killed, lam))
            slope = 4.0 * profile[0][1] / eps_list[0]
            for eps, res in profile:
                assert res <= slope * eps + 1e-9 * (1.0 + base)
            assert profile[-1][1] <= 1e-4 * (1.0 + base)


def test_weak_unit_surrogate():
    # |f| /\ |v| has positive grid max for a curated family of nonzero terms.
    family = [Var("v"), parse("v*v"), parse("pos(v)"), parse("v \\/ 0.5*v"),
              parse("v*v + -1.0*v")]
    xs = np.linspace(-3, 3, 601)
    for f in family:
        vals = np.minimum(np.abs([eval_real(f, {"v": x}) for x in xs]), np.abs(xs))
        assert np.max(vals) > 0.0


def test_semiprime_surrogate_on_ball():
    # Terms not vanishing on the ball keep a nonzero product with a generator.
    g = BallGrid(1, 201)
    for f in (Var("v"), parse("v*v"), parse("pos(v)")):
        assert not vanishes_on_ball(f, {"v": [1.0]}, g).vanishes
        assert ball_scan(Mul(f, Var("v")), {"v": [1.0]}, g).max_residual > 0.0


def test_projection_semantic_identity_on_product_free():
    # The projection returns a product-free term unchanged, so its values too.
    rng = random.Random(9)
    for _ in range(50):
        e = random_expr(rng, ("x", "y"), 8, allow_product=False)
        p = product_kill(e)
        assert p == e
        for _ in range(10):
            a = {"x": rng.uniform(-2, 2), "y": rng.uniform(-2, 2)}
            assert eval_real(p, a) == eval_real(e, a)


def _cylinder_extension(e, gens):
    return cylinder_extension(e, gens, CylinderGrid.regular(2, r_levels=3, face_points=2))


def _evaluate_operator(e, gens):
    op = OperatorIntoAlgebra(DiagonalAlgebra([1.0]), np.array([[1.0], [0.5]]))
    return evaluate_operator(e, gens, op)


def _operator_lower_bound(e, gens):
    return operator_lower_bound(e, gens, SearchConfig(search_iters=0, delta_list=()))


def _product_free_lower_bound(e, gens):
    return product_free_lower_bound(e, gens, iters=0)


def _vanishes_on_ball(e, gens):
    return vanishes_on_ball(e, gens, BallGrid(2, 3))


BINDERS = (_vanishes_on_ball, _cylinder_extension, _evaluate_operator, _operator_lower_bound,
           _product_free_lower_bound)
# The one message each fault gets, whichever caller binds the generators.
BINDING_MESSAGES = ("no generator vector for variable 'w'",
                    "generator for 'w' has shape (3,), expected (2,)",
                    "generator for 'w' has shape (), expected (2,)")


# Every caller binding variables to generator vectors of dimension 2.
@pytest.mark.parametrize("caller, gens, message", [
    (lambda e, gens: vanishes_on_ball(e, gens, BallGrid(2, 3)), {"v": [1.0, 0.0]},
     "no generator"),
    (_cylinder_extension, {"v": [1.0, 0.0]}, "no generator"),
    (_cylinder_extension, {"v": [1.0, 0.0], "w": [0.0, 1.0, 0.0]}, "expected"),
    (_evaluate_operator, {"v": [1.0, 0.0]}, "no generator"),
    (_evaluate_operator, {"v": [1.0, 0.0], "w": [0.0, 1.0, 0.0]}, "expected"),
    (_operator_lower_bound, {"v": [1.0, 0.0]}, "no generator"),
    (_operator_lower_bound, {"v": [1.0, 0.0], "w": [0.0, 1.0, 0.0]}, "expected"),
    (_product_free_lower_bound, {"v": [1.0, 0.0]}, "no generator"),
    (_product_free_lower_bound, {"v": [1.0, 0.0], "w": [0.0, 1.0, 0.0]}, "expected"),
    (_vanishes_on_ball, {"v": [1.0, 0.0], "w": [0.0, 1.0, 0.0]}, "expected"),
    # A scalar is not a vector of length 1.
    *((caller, {"v": [1.0, 0.0], "w": 1.0}, "expected") for caller in BINDERS),
])
def test_generator_binding_errors(caller, gens, message):
    with pytest.raises(ValueError, match=message) as err:
        caller(parse("v \\/ w"), gens)
    assert str(err.value) in BINDING_MESSAGES
