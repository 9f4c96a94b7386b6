"""The four benchmark workloads: seeded inputs, the timed operation and its checks.

Each workload generates term *text* from its own seeded generator, so the
inputs do not depend on the library under test.  An operation calls the
library functions that the matching README command calls, at the README
arguments; its outcome is then checked against the reference evaluator
outside the timed region.  Terms have a fixed number of operators per
workload, and operations come in rounds of fixed composition (number of
variables, identity or random term, product count, task kind), so that a run
measures the same mix whatever the seed.
"""

import itertools
import math
import random
import re

import numpy as np

from latalg import ball, cylinder, discretize, expr, freenorm, models, rewrite
from reference import ref_eval

TOL = 1e-9  # the README default --tol

# The four acceptance identities, with placeholders for substituted terms.
IDENTITIES = (
    "pos({x})*neg({x})",
    "({x} \\/ {y}) + ({x} /\\ {y}) - {x} - {y}",
    "abs({x}*{y}) - abs({x})*abs({y})",
    "(({x} \\/ {y})*pos({z})) - (({x}*pos({z})) \\/ ({y}*pos({z})))",
)


def term_text(rng, names, max_complexity):
    """Random term text, complexity at most ``max_complexity``.

    Same shape law as ``latalg.expr.random_expr``: a leaf is a variable with
    probability 0.85 and 0 otherwise; inner nodes are add/join/product/scaling
    with weights .28/.28/.22/.22 and coefficients uniform in [-2, 2].
    """
    if max_complexity <= 1:
        return rng.choice(names) if rng.random() < 0.85 else "(0)"
    kind = rng.choices(("+", "\\/", "*", "scale"), weights=(0.28, 0.28, 0.22, 0.22))[0]
    if kind == "scale":
        return f"{rng.uniform(-2.0, 2.0)!r}*({term_text(rng, names, max_complexity - 1)})"
    left = term_text(rng, names, rng.randint(1, max_complexity - 1))
    right = term_text(rng, names, rng.randint(1, max_complexity - 1))
    return f"({left} {kind} {right})"


# Product counts (3 standing for 3 or more) of one round of terms: 35/45/15/5 %.
# Normal-form cost grows steeply with the product count.  term_text produces
# 40/40/15/5 %, but then the median operation sits exactly where the cheap
# product-free terms (under ~2 ms) end and the one-product terms (1.4-20 ms)
# begin; so few operations fall near it that the median of a 20 s run moved by
# ~9% between runs.  One of the eight product-free terms of a round is traded
# for a one-product term, which puts the median inside the one-product group.
PRODUCT_MIX = (0, 1, 0, 1, 2, 0, 1, 1, 1, 2, 0, 1, 0, 1, 2, 0, 1, 0, 1, 3)


def sized_term(rng, names, operators, products=None, max_complexity=5):
    """First term of the seeded stream with exactly ``operators`` operators,
    every one of ``names`` and no zero leaf (and ``products`` products, 3
    standing for 3 or more).

    Operation cost follows term size and the variables used, and a zero leaf
    can turn a term into an identity that takes the slow path; fixing these
    keeps the work of a run the same whatever the seed.
    """
    while True:
        text = term_text(rng, names, max_complexity)
        count = sum(text.count(op) for op in (" + ", " \\/ ", " * ", "*("))
        if (count == operators and "(0)" not in text
                and all(re.search(rf"\b{n}\b", text) for n in names)
                and products in (None, min(text.count(" * "), 3))):
            return text


def basis_gens(names):
    return {name: np.eye(len(names))[i] for i, name in enumerate(names)}


def _points(rng, names, count, scale=3.0):
    return {n: np.array([rng.uniform(-scale, scale) for _ in range(count)]) for n in names}


def _close(a, b, rel):
    return abs(a - b) <= rel * (1.0 + abs(a))


def check_ball(term, report, grid, names, rng):
    """A ball verdict agrees with the reference evaluator on the grid, whose
    coordinates are the functional values of ``names`` (basis generators)."""
    if report.witness is not None:
        value = ref_eval(term, dict(zip(names, report.witness)))
        return abs(value) > report.threshold and _close(abs(value), report.max_residual, 1e-9)
    rows = grid.points[[rng.randrange(grid.size) for _ in range(32)]]
    values = ref_eval(term, {n: rows[:, i] for i, n in enumerate(names)})
    return bool(np.all(np.abs(values) <= report.threshold))


def check_reals(term, report, rng):
    """A real-line verdict agrees with the reference evaluator."""
    names = expr.variables(term)
    if report.witness is not None:
        return abs(ref_eval(term, report.witness)) > 0.5 * report.tol
    values = ref_eval(term, _points(rng, names, 8)) if names else ref_eval(term, {})
    return bool(np.all(np.abs(values) <= 1e-6))


class Outcome:
    """What an operation returned: ``ok`` after checking, ``decided`` when it
    finished within its budget, and ``record`` for the run digest."""

    def __init__(self, ok, decided, record):
        self.ok, self.decided, self.record = ok, decided, record


class Workload:
    """Base: ``inputs()`` yields operation inputs forever; ``op`` is timed."""

    name = ""
    round_size = 1
    tail_percentile = 50.0
    trace_ops = 0  # operations per traced slice: whole rounds, 1-4 s untraced on 2 CPUs
    calibration = "interpreter"  # the calibration unit of the same kind of work

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(seed)
        self.check_rng = random.Random(seed + 1_000_003)

    @property
    def min_ops(self):
        """Fewest operations that leave ten samples above the tail percentile,
        rounded up to whole rounds."""
        need = math.ceil(10 / (1.0 - self.tail_percentile / 100.0))
        return -(-need // self.round_size) * self.round_size

    def final_checks(self):
        """Fixed README cases checked once per run, outside the timing."""
        return []


class IdentityVerdicts(Workload):
    """check-identity, then the 101-per-axis ball kernel check for 1-2 variables.

    A round holds a random term in 1, 2 and 3 variables and a substitution
    instance of each acceptance identity; only identities reach the 41-model
    transport.  The two groups take 3-9 ms and ~25 ms, so with an even split
    the median would sit in the gap between them; at 3 of 7 it falls among
    the identity instances.
    """

    name = "identity_verdicts"
    round_size = 7
    tail_percentile = 95.0
    trace_ops = 98

    def inputs(self):
        for i in itertools.count():
            slot = i % self.round_size
            if slot < 3:
                yield "random", sized_term(self.rng, ("x", "y", "z")[: slot + 1], 4)
            else:
                subs = {v: f"({sized_term(self.rng, ('x', 'y'), 2, max_complexity=3)})" for v in "xyz"}
                yield "identity", IDENTITIES[slot - 3].format(**subs)

    def op(self, item):
        """The check-identity pipeline of the CLI at its defaults, then the kernel grid."""
        _, text = item
        e = expr.parse(text)
        real = ball.vanishes_on_reals(e, scale=3.0, samples=10_000, seed=0, tol=TOL)
        verdict, worst = "non-identity", None
        if real.vanishes:
            majorant = rewrite.polynomial_majorant(e)
            names = expr.variables(e)
            rng = np.random.default_rng([0, 61])
            worst = 0.0
            for model in models.model_suite(0):
                for _ in range(5):
                    assignment = {name: model.random_element(rng) for name in names}
                    value = model.evaluate(e, assignment).sup_norm()
                    bound = float(majorant.evaluate(
                        {n: el.sup_norm() for n, el in assignment.items()})) if names else 0.0
                    worst = max(worst, value / (1.0 + bound))
            verdict = "identity" if worst <= TOL else "transport-violation"
        names = expr.variables(e)
        ball_report = grid = None
        if len(names) <= 2:
            grid = ball.BallGrid(max(len(names), 1), 101)
            ball_report = ball.vanishes_on_ball(e, basis_gens(names), grid, tol=TOL)
        return e, real, verdict, worst, grid, ball_report

    def check(self, item, result):
        kind, _ = item
        e, real, verdict, worst, grid, ball_report = result
        ok = check_reals(e, real, self.check_rng)
        if kind == "identity":
            ok = ok and verdict == "identity"
        else:
            ok = ok and verdict in ("identity", "non-identity")
        if ball_report is not None:
            ok = ok and check_ball(e, ball_report, grid, expr.variables(e), self.check_rng)
        record = {"verdict": verdict, "real_residual": real.max_scaled_residual,
                  "model_residual": worst,
                  "ball": None if ball_report is None else ball_report.vanishes,
                  "ball_residual": None if ball_report is None else ball_report.max_residual}
        return Outcome(ok, True, record)

    def final_checks(self):
        # README kernel example: zero on the ball, 2 at x = 2.
        e = expr.parse("pos(pos(x)*pos(x)-pos(x))")
        grid = ball.BallGrid(1, 101)
        on_ball = ball.vanishes_on_ball(e, {"x": [1.0]}, grid, tol=TOL)
        on_reals = ball.vanishes_on_reals(e, scale=3.0, seed=0, tol=TOL)
        witness = on_ball.vanishes and not on_reals.vanishes
        ref_zero = np.all(ref_eval(e, {"x": grid.points[:, 0]}) == 0.0)
        return [("ball-kernel witness", bool(witness and ref_zero
                                             and ref_eval(e, {"x": 2.0}) == 2.0))]


class NormSearch(Workload):
    """norm_sandwich at a fixed search budget, basis generators in n = 1..4."""

    name = "norm_search"
    round_size = 4
    tail_percentile = 90.0
    trace_ops = 40
    search_iters = 500

    def inputs(self):
        for i in itertools.count():
            names = tuple(f"x{j + 1}" for j in range(1 + i % 4))
            yield names, sized_term(self.rng, names, 4)

    def config(self, iters):
        return freenorm.SearchConfig(search_iters=iters, seed=0,
                                     delta_list=(2.0 ** -5, 2.0 ** -6, 2.0 ** -7))

    def op(self, item):
        names, text = item
        e = expr.parse(text)
        return e, freenorm.norm_sandwich(e, basis_gens(names), self.config(self.search_iters))

    def check(self, item, result):
        names, _ = item
        e, sandwich = result
        ok = check_witness(e, basis_gens(names), sandwich)
        record = {"lower": sandwich.lower, "upper": sandwich.upper,
                  "witness_atoms": len(sandwich.witness.to_json()["weights"])}
        return Outcome(ok, True, record)

    def final_checks(self):
        out = []
        for text in ("x1*x1", "x1"):
            s = freenorm.norm_sandwich(expr.parse(text), {"x1": [1.0]}, self.config(10_000))
            out.append((f"norm {text} = 1", s.lower == 1.0 and s.upper == 1.0))
        return out


def check_witness(e, gens, sandwich):
    """The norm witness is a contraction into a diagonal algebra whose image of
    ``e`` has sup norm ``lower``, and ``lower <= upper``."""
    witness = sandwich.witness.to_json()
    weights = np.asarray(witness["weights"])
    columns = np.asarray(witness["columns"])
    env = {name: np.asarray(vec, dtype=float) @ columns for name, vec in gens.items()}
    image = np.broadcast_to(ref_eval(e, env, weight=weights), weights.shape)
    value = float(np.max(np.abs(image), initial=0.0))
    return bool(_close(sandwich.lower, value, 1e-9)
                and np.max(np.abs(columns)) <= 1.0 + 1e-9
                and np.all(weights > 0.0) and np.all(weights <= 1.0)
                # The slack of acceptance test c09 and of norm_sandwich's own
                # guard: both sides are floats from different formulas.
                and sandwich.lower <= sandwich.upper + 1e-12 * (1.0 + sandwich.upper))


class NormalFormRoundtrip(Workload):
    """normal_form, normal_form_to_expr, then normal_form of the printed form."""

    name = "normal_form_roundtrip"
    round_size = len(PRODUCT_MIX)
    tail_percentile = 98.0
    trace_ops = 300
    # Both calls get a term budget.  With the default budget for the first
    # call and 2e5 for the second, one aborted round trip took 2-8 s (2 CPUs)
    # and single terms added up to 60 MB, so a run held a handful of them and
    # its rate and memory swung with the seed.  At 5e3 no operation takes
    # more than ~0.05 s.
    budget = 5_000

    def inputs(self):
        for i in itertools.count():
            yield sized_term(self.rng, ("x", "y"), 4, PRODUCT_MIX[i % self.round_size])

    def op(self, text):
        e = expr.parse(text)
        nf = back = nf2 = None
        try:
            nf = rewrite.normal_form(e, budget=self.budget)
            back = rewrite.normal_form_to_expr(nf)
            nf2 = rewrite.normal_form(back, budget=self.budget)
        except rewrite.NormalFormBudgetError:
            pass
        return e, nf, back, nf2

    def check(self, text, result):
        e, nf, back, nf2 = result
        if back is None:
            return Outcome(True, False, {"decided": False})
        names = expr.variables(e)
        pts = _points(self.check_rng, names, 6)
        lhs = np.broadcast_to(ref_eval(e, pts), (6,))
        forms = [nf.evaluate(pts), ref_eval(back, pts)] + ([] if nf2 is None else [nf2.evaluate(pts)])
        ok = all(np.all(np.abs(lhs - np.broadcast_to(f, (6,))) <= 1e-6 * (1.0 + np.abs(lhs)))
                 for f in forms)
        record = {"decided": nf2 is not None, "nf_terms": nf.term_count(),
                  "roundtrip_terms": 0 if nf2 is None else nf2.term_count()}
        return Outcome(bool(ok), nf2 is not None, record)


class DenseGrids(Workload):
    """Few nodes over many points: the 101^3 ball kernel check, the cylinder
    extension and the discretize pipeline on an n = 3 grid of 104,808 points."""

    name = "dense_grids"
    round_size = 9  # (kernel, extension, discretize) x 3 deltas
    tail_percentile = 75.0
    trace_ops = 9
    calibration = "array"
    names = ("x1", "x2", "x3")
    deltas = (2.0 ** -5, 2.0 ** -6, 2.0 ** -7)

    def inputs(self):
        for i in itertools.count():
            task = ("kernel", "extension", "discretize")[i % 3]
            delta = self.deltas[(i // 3) % 3]
            yield task, delta, sized_term(self.rng, self.names, 3, max_complexity=4)

    def op(self, item):
        task, delta, text = item
        e = expr.parse(text)
        gens = basis_gens(self.names)
        if task == "kernel":
            grid = ball.BallGrid(3, 101)
            on_ball = ball.vanishes_on_ball(e, gens, grid, tol=TOL)
            return e, grid, on_ball, ball.vanishes_on_reals(e, scale=3.0, seed=0, tol=TOL)
        grid = cylinder.CylinderGrid.regular(3, r_levels=33, face_points=24)
        if task == "extension":
            return e, grid, cylinder.cylinder_extension(e, gens, grid)
        # The discretize command for one delta, with e as the composite term.
        w = np.broadcast_to(grid.r_levels[:, None], grid.shape)
        originals = {n: cylinder.generator(v, grid).values for n, v in gens.items()}
        partition = discretize.build_partition(delta)
        splits = []
        for n in self.names:
            splits.extend([np.maximum(originals[n], 0.0), np.maximum(-originals[n], 0.0)])
        atoms = discretize.atomize(splits, w, partition)
        weights = discretize.discrete_weight(w, atoms, partition)
        discretes = [discretize.discretize_function(s, atoms, partition) for s in splits]
        composite_gens = {n: (originals[n], discretes[2 * i] - discretes[2 * i + 1])
                          for i, n in enumerate(self.names)}
        bounds = discretize.verify_bounds(splits, discretes, w, weights, atoms, delta,
                                          pair_trials=100, seed=0, composite=e,
                                          composite_gens=composite_gens)
        return e, grid, (w, weights, atoms, composite_gens, bounds)

    def check(self, item, result):
        task = item[0]
        e, grid = result[0], result[1]
        if task == "kernel":
            on_ball, on_reals = result[2], result[3]
            ok = (check_ball(e, on_ball, grid, self.names, self.check_rng)
                  and check_reals(e, on_reals, self.check_rng))
            return Outcome(ok, True, {"task": task, "ball": on_ball.vanishes,
                                      "ball_residual": on_ball.max_residual,
                                      "real_residual": on_reals.max_scaled_residual})
        if task == "extension":
            ext = result[2]
            top = int(np.flatnonzero(grid.r_levels == 1.0)[0])
            env = {n: grid.sphere_points @ v for n, v in basis_gens(self.names).items()}
            want = np.broadcast_to(ref_eval(e, env), (grid.shape[1],))
            ok = bool(np.all(np.abs(ext.values[top] - want) <= 1e-9 * (1.0 + np.abs(want))))
            return Outcome(ok, True, {"task": task, "sup": ext.sup()})
        w, weights, atoms, composite_gens, bounds = result[2]
        on_grid = ref_eval(e, {n: o for n, (o, _) in composite_gens.items()}, weight=w)
        in_algebra = ref_eval(e, {n: c for n, (_, c) in composite_gens.items()}, weight=weights)
        lifted = np.broadcast_to(in_algebra, weights.shape)[atoms.atom_of_point]
        observed = float(np.max(np.abs(np.broadcast_to(on_grid, w.shape).reshape(-1) - lifted)))
        ok = (bounds.ok and bounds.composite_observed <= bounds.composite_budget
              and _close(bounds.composite_observed, observed, 1e-9))
        return Outcome(bool(ok), True, {"task": task, "atoms": bounds.atoms,
                                        "split_error": bounds.max_split_error,
                                        "observed": bounds.composite_observed,
                                        "budget": bounds.composite_budget})


WORKLOADS = {w.name: w for w in (IdentityVerdicts, NormSearch, NormalFormRoundtrip, DenseGrids)}
