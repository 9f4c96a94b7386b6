import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latalg.expr import (
    _SIZE, MAX_NESTING, MAX_TERM_SIZE, Abs, Add, Expr, Join, Meet, MissingVariableError, Mul, Neg,
    NegPart, ParseError, Pos, Scale, Var, Zero, complexity, contains_product,
    eval_real, fold, parse, print_expr, random_expr, substitute, variables,
)


def test_parse_join_zero():
    assert parse("x \\/ 0") == Join(Var("x"), Zero())


def test_parse_desugars_witness():
    expected = Join(
        Add(
            Mul(Join(Var("x"), Zero()), Join(Var("x"), Zero())),
            Scale(-1.0, Join(Var("x"), Zero())),
        ),
        Zero(),
    )
    assert parse("pos(pos(x)*pos(x) - pos(x))") == expected


def test_parse_leading_number_is_scale():
    assert parse("2*(x + y)") == Scale(2.0, Add(Var("x"), Var("y")))


def test_parse_expr_times_expr_is_product():
    assert parse("x*y") == Mul(Var("x"), Var("y"))


def test_parse_meet_abs_neg():
    assert parse("x /\\ y") == Meet(Var("x"), Var("y"))
    assert parse("abs(x)") == Join(Var("x"), Scale(-1.0, Var("x")))
    assert parse("neg(x)") == Join(Scale(-1.0, Var("x")), Zero())


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("x + ")
    assert err.value.position == 4
    with pytest.raises(ParseError):
        parse("x ? y")
    with pytest.raises(ParseError):
        parse("(x + y")


def test_bare_nonzero_constant_rejected():
    assert parse("0") == Zero()
    assert parse("0.0") == Zero()
    assert parse("0e3") == Zero()
    with pytest.raises(ParseError):
        parse("2")
    with pytest.raises(ParseError):
        parse("x + 1")


def test_print_examples():
    assert print_expr(Join(Var("x"), Zero())) == "x \\/ 0"
    assert print_expr(Zero()) == "0"
    assert print_expr(Scale(-1.0, Var("x"))) == "-1.0*x"


def test_print_scale_parenthesizes_loose_children():
    e = Scale(2.0, Add(Var("x"), Var("y")))
    assert parse(print_expr(e)) == e
    e2 = Scale(2.0, Mul(Var("x"), Var("y")))
    assert parse(print_expr(e2)) == e2


def test_complexity_examples():
    assert complexity(Var("x")) == 1
    assert complexity(Zero()) == 1
    assert complexity(Join(Var("x"), Zero())) == 2
    assert complexity(Mul(Join(Var("x"), Zero()), Var("y"))) == 3


def test_complexity_exceeds_children():
    rng = random.Random(7)
    for _ in range(50):
        e = random_expr(rng, ("x", "y"), 9)
        if isinstance(e, (Zero, Var)):
            continue
        kids = [e.child] if hasattr(e, "child") else [e.left, e.right]
        assert all(complexity(k) < complexity(e) for k in kids)


def test_eval_examples():
    assert eval_real(parse("x \\/ 0"), {"x": -2.0}) == 0.0
    wit = parse("pos(pos(x)*pos(x) - pos(x))")
    assert eval_real(wit, {"x": 2.0}) == 2.0
    assert eval_real(wit, {"x": 0.5}) == 0.0


def test_eval_missing_variable():
    with pytest.raises(MissingVariableError):
        eval_real(Var("x"), {})


def test_constructors_build_core_terms():
    x, y = Var("x"), Var("y")
    assert Meet(x, y) == Scale(-1.0, Join(Scale(-1.0, x), Scale(-1.0, y)))
    assert Abs(x) == Join(x, Scale(-1.0, x))
    assert Pos(x) == Join(x, Zero())
    assert NegPart(x) == Join(Scale(-1.0, x), Zero())
    assert Neg(Scale(2.0, x)) == Scale(-2.0, x)
    assert Neg(Neg(x)) == Scale(1.0, x)
    e = parse("x*y + 2*(x \\/ 0)")
    assert Abs(e).left is e and Abs(e).right.child is e
    assert set(Expr.__subclasses__()) == {Zero, Var, Scale, Add, Join, Mul}


def test_round_trip_1000_random_expressions():
    rng = random.Random(20240)
    for _ in range(1000):
        e = random_expr(rng, ("x", "y", "z"), 12)
        assert parse(print_expr(e)) == e


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**9), x=st.floats(-5, 5), y=st.floats(-5, 5))
def test_notation_has_its_real_meaning(seed, x, y):
    rng = random.Random(seed)
    a, b = random_expr(rng, ("x", "y"), 5), random_expr(rng, ("x", "y"), 5)
    env = {"x": x, "y": y}
    va, vb = eval_real(a, env), eval_real(b, env)
    assert eval_real(Meet(a, b), env) == min(va, vb)
    assert eval_real(Abs(a), env) == abs(va)
    assert eval_real(Pos(a), env) == max(va, 0.0)
    assert eval_real(NegPart(a), env) == max(-va, 0.0)
    assert eval_real(Neg(a), env) == -va


def _eval_fraction(e, a):
    if isinstance(e, Zero):
        return Fraction(0)
    if isinstance(e, Var):
        return a[e.name]
    if isinstance(e, Scale):
        return Fraction(e.coeff) * _eval_fraction(e.child, a)
    if isinstance(e, Add):
        return _eval_fraction(e.left, a) + _eval_fraction(e.right, a)
    if isinstance(e, Join):
        return max(_eval_fraction(e.left, a), _eval_fraction(e.right, a))
    raise AssertionError("product-free terms only")


def test_dyadic_exactness_product_free():
    # Scaling by dyadics, addition and max are exact in binary floating point,
    # so float evaluation must coincide with exact rational evaluation.
    rng = random.Random(99)

    def dyadic():
        return rng.randrange(-64, 65) / 2 ** rng.randrange(0, 5)

    for _ in range(200):
        e = random_expr(rng, ("x", "y"), 8, allow_product=False)
        e = _dyadicize(e, rng)
        a = {"x": dyadic(), "y": dyadic()}
        exact = _eval_fraction(e, {k: Fraction(v) for k, v in a.items()})
        assert eval_real(e, a) == float(exact)


def _dyadicize(e, rng):
    if isinstance(e, Scale):
        return Scale(rng.randrange(-8, 9) / 4.0, _dyadicize(e.child, rng))
    if isinstance(e, (Zero, Var)):
        return e
    return type(e)(_dyadicize(e.left, rng), _dyadicize(e.right, rng))


def test_complexity_monotone_under_substitution():
    rng = random.Random(5)
    for _ in range(50):
        e = random_expr(rng, ("x", "y"), 6)
        deeper = random_expr(rng, ("x",), rng.randint(2, 6))
        assert complexity(substitute(e, {"x": deeper})) >= complexity(e)


def test_variables_sorted_and_contains_product():
    e = parse("b*a + c")
    assert variables(e) == ("a", "b", "c")
    assert contains_product(e)
    assert not contains_product(parse("a + b \\/ c"))


def test_scale_requires_finite_coefficient():
    with pytest.raises(ValueError):
        Scale(math.inf, Var("x"))
    with pytest.raises(ValueError):
        Scale(math.nan, Var("x"))


def test_reserved_words_need_parentheses():
    with pytest.raises(ParseError):
        parse("pos + x")
    with pytest.raises(ValueError):
        Var("abs")


def test_print_accepts_sugar():
    e = Abs(Var("x"))
    assert parse(print_expr(e)) == e
    assert print_expr(Pos(Var("x"))) == "x \\/ 0"


@pytest.mark.parametrize("nest", [
    lambda k: "(" * k + "x" + ")" * k,
    lambda k: "-" * k + "x",
    lambda k: "2*" * k + "x",
    lambda k: "pos(" * k + "x" + ")" * k,
    lambda k: "-2*" * (k // 2) + "-" * (k % 2) + "x",
])
def test_nesting_budget(nest):
    # nest(k) nests exactly k levels.
    assert variables(parse(nest(MAX_NESTING))) == ("x",)
    with pytest.raises(ParseError, match="nesting deeper than"):
        parse(nest(MAX_NESTING + 1))


def test_term_size_budget():
    # abs(a) is a \/ -a with a shared, so k nested abs have 2k + 1 distinct
    # subterms but about 3 * 2**k occurrences (k = 10 has 3,070, k = 25 about
    # 100M), and the printed text grows with the occurrences.
    nested = parse("abs(" * 10 + "x" + ")" * 10)
    assert fold(nested, _SIZE) == 3070 and len(nested.tape) == 21
    assert print_expr(nested).count("x") == 2 ** 10
    with pytest.raises(ParseError, match=f"more than {MAX_TERM_SIZE}"):
        parse("abs(" * 25 + "x" + ")" * 25)
    chain = parse("+".join(["x"] * 2000))
    assert fold(chain, _SIZE) == 3999 and len(chain.tape) == 2000


def test_deep_input_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        parse("-" * 3000 + "x")
    assert err.value.position == MAX_NESTING
    with pytest.raises(ParseError):
        parse("(" * 400 + "x" + ")" * 400)
