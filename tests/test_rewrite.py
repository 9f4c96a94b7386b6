import random
from functools import reduce

import numpy as np
import pytest

from latalg.expr import (
    _children, Add, Join, Mul, NegPart, Pos, Scale, Var, Zero, cosh_sinh_witness,
    eval_real, parse, print_expr, random_expr, variables,
)
from latalg.rewrite import (
    NormalForm, _Builder, NormalFormBudgetError, Polynomial, check_normal_form,
    normal_form, normal_form_to_expr, polynomial_majorant, product_kill,
    zero_simplify,
)


def test_product_kill_examples():
    x, y = Var("x"), Var("y")
    assert product_kill(Mul(x, y)) == Zero()
    assert product_kill(Add(Mul(x, y), Join(x, y))) == Add(Zero(), Join(x, y))
    killed = product_kill(cosh_sinh_witness(4))
    assert killed == Add(Zero(), Scale(-1.0, Zero()))
    assert eval_real(killed, {}) == 0.0


def test_product_kill_positive_homogeneity():
    # Killed terms are positively homogeneous; powers of two make it exact.
    rng = random.Random(11)
    for _ in range(100):
        e = product_kill(random_expr(rng, ("x", "y"), 9))
        a = {"x": rng.uniform(-2, 2), "y": rng.uniform(-2, 2)}
        for t in (0.5, 2.0, 8.0, 0.0):
            scaled = {k: t * v for k, v in a.items()}
            assert eval_real(e, scaled) == t * eval_real(e, a)


def test_zero_simplify_rules():
    x = Var("x")
    assert zero_simplify(Add(Zero(), x)) == x
    assert zero_simplify(Add(x, Zero())) == x
    assert zero_simplify(Scale(1.0, x)) == x
    assert zero_simplify(Scale(-3.0, Zero())) == Zero()
    assert zero_simplify(Join(Zero(), Zero())) == Zero()
    # join with zero is not collapsed: that is a lattice fact, not a neutral one
    assert zero_simplify(Join(x, Zero())) == Join(x, Zero())


def test_normal_form_var():
    nf = normal_form(Var("x"))
    assert nf.pos == (Polynomial.symbol("x+"),)
    assert nf.neg == (Polynomial.symbol("x-"),)


def test_normal_form_product_expansion():
    nf = normal_form(Mul(Var("x"), Var("y")))
    assert nf.pos == (Polynomial({("x+", "y+"): 1.0, ("x-", "y-"): 1.0}),)
    assert nf.neg == (Polynomial({("x+", "y-"): 1.0, ("x-", "y+"): 1.0}),)
    check_normal_form(Mul(Var("x"), Var("y")), nf, seed=1)


def test_normal_form_join_with_zero():
    e = parse("x \\/ 0")
    nf = normal_form(e)
    assert (nf.pos, nf.neg) == ((Polynomial.symbol("x+"),), (Polynomial.zero(),))
    check_normal_form(e, nf, seed=2)


@pytest.mark.parametrize("text, pos, used", [
    ("pos(x)", {("x+",): 1.0}, 2),
    ("x \\/ 0", {("x+",): 1.0}, 2),
    ("0 \\/ x", {("x+",): 1.0}, 2),
    ("neg(x)", {("x-",): 1.0}, 2),
    ("pos(x)*pos(y)", {("x+", "y+"): 1.0}, 12),
])
def test_disjoint_join_with_zero_is_the_positive_side(text, pos, used):
    # (p - n) \/ 0 = p for disjoint p, n >= 0; the generic join spends 6 on
    # each one-variable case and 52 on pos(x)*pos(y).
    builder = _Builder(1_000_000)
    nf = builder.build(parse(text))
    assert (nf.pos, nf.neg) == ((Polynomial(pos),), (Polynomial.zero(),))
    assert builder.used == used


@pytest.mark.parametrize("text, pos, neg, used", [
    # x+ + y- against x- + y+: the monomials x+ and y+ hold no opposite splits.
    ("(x - y) \\/ 0", [{("x+",): 1.0, ("y-",): 1.0}, {("x-",): 1.0, ("y+",): 1.0}],
     [{("x-",): 1.0, ("y+",): 1.0}], 15),
    # no zero side
    ("abs(x)", [{("x+",): 2.0}, {("x-",): 2.0}], [{("x+",): 1.0, ("x-",): 1.0}], 7),
])
def test_join_without_disjoint_zero_side_stays_generic(text, pos, neg, used):
    e = parse(text)
    builder = _Builder(1_000_000)
    nf = builder.build(e)
    assert nf.pos == tuple(map(Polynomial, pos)) and nf.neg == tuple(map(Polynomial, neg))
    assert builder.used == used
    check_normal_form(e, nf, seed=4)


def test_polynomial_disjoint():
    xp, xm, yp, ym = (Polynomial.symbol(s) for s in ("x+", "x-", "y+", "y-"))
    assert xp.disjoint(xm) and xm.disjoint(xp)
    assert (xp * yp).disjoint(xm + xm * ym) and (xp * yp).disjoint(xm.scaled(-2.0))
    assert not (xp + ym).disjoint(xm + yp)
    assert not xp.disjoint(yp) and not xp.disjoint(xp)
    assert Polynomial.zero().disjoint(xp) and xp.disjoint(Polynomial.zero())
    # plain majorant symbols carry no sign to oppose
    assert not Polynomial.symbol("x").disjoint(Polynomial.symbol("x"))


def test_normal_form_random_agreement():
    rng = random.Random(42)
    built = 0
    for i in range(60):
        e = random_expr(rng, ("x", "y"), 8)
        try:
            nf = normal_form(e)
        except NormalFormBudgetError:
            continue
        built += 1
        check_normal_form(e, nf, seed=i)
    assert built >= 50


def test_normal_form_budget_aborts():
    # Repeated squaring of sums blows up; a small budget must abort cleanly.
    e = Var("x")
    for _ in range(6):
        e = Mul(Add(e, Var("y")), Add(e, Var("z")))
    with pytest.raises(NormalFormBudgetError):
        normal_form(e, budget=500)


def test_normal_form_coefficients_are_positive():
    # The product rule max P * max Q = max PQ needs every polynomial of both
    # join lists to be nonnegative wherever it is evaluated.
    for names in (("x",), ("x", "y"), ("x", "y", "z")):
        for s in range(300):
            nf = normal_form(random_expr(random.Random(s), names, 7))
            assert all(c > 0 for p in nf.pos + nf.neg for c in p.terms.values()), (names, s)


def test_normal_form_product_fits_small_budget():
    e = parse("(x \\/ y \\/ z) * (x \\/ y \\/ z)")
    nf = normal_form(e, budget=300)
    assert nf.term_count() == 132
    check_normal_form(e, nf, seed=3)


def test_normal_form_to_expr_examples():
    nf = NormalForm((Polynomial.symbol("x+"),), (Polynomial.symbol("x-"),))
    e = normal_form_to_expr(nf)
    for v in (-2.0, -0.5, 0.0, 1.5):
        assert eval_real(e, {"x": v}) == v

    single = NormalForm((Polynomial({("x+", "y-"): 2.0}),), (Polynomial.zero(),))
    e2 = normal_form_to_expr(single)
    assert eval_real(e2, {"x": 3.0, "y": -2.0}) == pytest.approx(2.0 * 3.0 * 2.0)


def _per_occurrence_expr(nf):
    """``normal_form_to_expr`` without sharing: new nodes at every occurrence."""
    def symbol(token):
        return Pos(Var(token[:-1])) if token[-1] == "+" else NegPart(Var(token[:-1]))

    def poly(p):
        if p.is_zero():
            return Zero()
        monos = [(reduce(Mul, map(symbol, m)), c) for m, c in p.sorted_terms()]
        return reduce(Add, [mono if c == 1.0 else Scale(c, mono) for mono, c in monos])

    return Add(reduce(Join, map(poly, nf.pos)), Scale(-1.0, reduce(Join, map(poly, nf.neg))))


def _occurrences(e):
    """Every node occurrence of ``e`` with its parent's kind, by a tree walk."""
    stack, seen = [(e, None)], []
    while stack:
        node, parent = stack.pop()
        seen.append((node, parent))
        stack += [(kid, type(node)) for kid in _children(node)]
    return seen


def test_normal_form_to_expr_shares_symbol_and_monomial_nodes():
    nf = normal_form(parse("(pos(x)*pos(y) + pos(x)*x + x*y) \\/ x*y"))
    e = normal_form_to_expr(nf)
    objects = {}  # printed subterm -> the objects at its occurrences
    occurrences = 0
    for node, parent in _occurrences(e):
        split_symbol = isinstance(node, Join) and isinstance(node.right, Zero)
        monomial = isinstance(node, Mul) and parent is not Mul  # the top of a Mul chain
        if split_symbol or monomial:
            objects.setdefault(print_expr(node), set()).add(id(node))
            occurrences += 1
    assert all(len(ids) == 1 for ids in objects.values()), objects
    assert {"x \\/ 0", "-1.0*y \\/ 0", "(x \\/ 0) * (y \\/ 0)"} <= objects.keys()
    assert occurrences > 2 * len(objects)  # symbols and monomials do repeat
    assert print_expr(e) == print_expr(_per_occurrence_expr(nf))
    for s in range(100):
        nf = normal_form(random_expr(random.Random(s), ("x", "y"), 7))
        reference = _per_occurrence_expr(nf)
        assert print_expr(normal_form_to_expr(nf)) == print_expr(reference), s


def test_normal_form_budget_use_is_pinned():
    # Totals of _Builder.used at the default budget: sharing the printed
    # form's nodes must not move them, as its structure is unchanged.
    first = roundtrip = 0
    for s in range(600):
        builder = _Builder(1_000_000)
        nf = builder.build(random_expr(random.Random(s), ("x", "y"), 7))
        again = _Builder(1_000_000)
        again.build(normal_form_to_expr(nf))
        first += builder.used
        roundtrip += again.used
    assert (first, roundtrip) == (44_684, 212_733)


def test_normal_form_round_trip_oracle():
    rng = random.Random(17)
    verified = 0
    for i in range(15):
        e = random_expr(rng, ("x", "y"), 5)
        try:
            nf = normal_form(e)
            nf2 = normal_form(normal_form_to_expr(nf), budget=200_000)
        except NormalFormBudgetError:
            continue
        verified += 1
        for _ in range(30):
            a = {"x": rng.uniform(-2, 2), "y": rng.uniform(-2, 2)}
            lhs, rhs = float(nf.evaluate(a)), float(nf2.evaluate(a))
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))
    assert verified == 15


def test_normal_form_round_trip_is_a_fixed_point():
    # The printed form spells each split symbol as a disjoint pair joined with
    # zero, Pos(Var) or NegPart(Var), which normalizes back to ({v+}, {0}) or
    # ({v-}, {0}); so the printed form normalizes to the same join lists.
    for s in range(300):
        nf = normal_form(random_expr(random.Random(s), ("x", "y"), 7))
        nf2 = normal_form(normal_form_to_expr(nf), budget=200_000)
        assert (nf2.pos, nf2.neg) == (nf.pos, nf.neg), s


def test_split_decomposition_one_variable():
    # With the negative splits pinned to zero a one-variable normal form
    # reproduces the positive-axis values, and symmetrically.
    for i in range(20):
        e = random_expr(random.Random(300 + i), ("x",), 6)
        nf = normal_form(e)
        for lam in (0.25, 1.0, 2.5):
            plus = nf.evaluate_split({"x+": lam, "x-": 0.0})
            assert abs(plus - eval_real(e, {"x": lam})) <= 1e-9 * (1 + abs(plus))
            minus = nf.evaluate_split({"x+": 0.0, "x-": lam})
            assert abs(minus - eval_real(e, {"x": -lam})) <= 1e-9 * (1 + abs(minus))


def test_polynomial_invariants():
    with pytest.raises(ValueError):
        Polynomial({(): 1.0})
    p = Polynomial({("x",): 1.0, ("y",): -1.0})
    assert (p + p.scaled(-1.0)).is_zero()
    q = Polynomial.symbol("x") * Polynomial.symbol("x")
    assert q.terms == {("x", "x"): 1.0}


def test_majorant_examples():
    assert polynomial_majorant(Var("x")) == Polynomial.symbol("x")
    assert polynomial_majorant(Mul(Var("x"), Var("x"))) == Polynomial({("x", "x"): 1.0})
    m = polynomial_majorant(parse("x*y + (x \\/ y)"))
    assert m == Polynomial({("x", "y"): 1.0, ("x",): 1.0, ("y",): 1.0})


def test_majorant_dominates_10k_points():
    rng = random.Random(8)
    for i in range(20):
        e = random_expr(rng, ("x", "y"), 7)
        m = polynomial_majorant(e)
        pts = np.random.default_rng(i).uniform(-3, 3, (500, 2))
        for x, y in pts:
            lhs = abs(eval_real(e, {"x": x, "y": y}))
            rhs = float(m.evaluate({"x": abs(x), "y": abs(y)}))
            assert lhs <= rhs * (1 + 1e-12) + 1e-300


def test_majorant_coefficients_nonnegative_no_constant():
    rng = random.Random(21)
    for _ in range(50):
        m = polynomial_majorant(random_expr(rng, ("x", "y", "z"), 8))
        assert all(c >= 0 for c in m.terms.values())
        assert all(len(mono) > 0 for mono in m.terms)


def test_normal_form_agrees_in_weighted_models():
    from latalg.models import random_weighted_grid

    rng = random.Random(33)
    nprng = np.random.default_rng(33)
    for i in range(10):
        e = random_expr(rng, ("x", "y"), 6)
        try:
            nf = normal_form(e)
        except NormalFormBudgetError:
            continue
        back = normal_form_to_expr(nf)
        model = random_weighted_grid(nprng, 6)
        assignment = {v: model.random_element(nprng) for v in set(variables(e)) | set(variables(back))}
        lhs = model.evaluate(e, assignment).values
        rhs = model.evaluate(back, assignment).values
        scale = 1.0 + float(np.max(np.abs(lhs)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * scale


def test_normal_form_transport_through_model_suite():
    from latalg.models import model_suite

    e = parse("x*y + (x \\/ 0) + -0.5*y")
    nf = normal_form(e)
    back = normal_form_to_expr(nf)
    rng = np.random.default_rng(91)
    for model in model_suite(seed=91):
        assignment = {v: model.random_element(rng)
                      for v in set(variables(e)) | set(variables(back))}
        lhs = model.evaluate(e, assignment).values
        rhs = model.evaluate(back, assignment).values
        assert np.max(np.abs(lhs - rhs), initial=0.0) <= 1e-9 * (1.0 + np.max(np.abs(lhs), initial=0.0))
