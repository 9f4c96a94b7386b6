import math
import random
import tracemalloc
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from latalg.discretize import error_budget
from latalg.expr import (
    MAX_NESTING, Abs, Add, Join, Mul, Scale, Var, Zero, eval_pointwise,
    eval_real, fold, parse, print_expr, random_expr,
)
from latalg.models import WeightedGridModel, ZeroProductModel
from latalg.rewrite import NormalFormBudgetError, normal_form, polynomial_majorant, product_kill


def test_postorder_tape():
    x, y = Var("x"), Var("y")
    e = Add(Scale(2.0, x), Join(x, Zero()))
    # (node, children's entries, children last used here), one per distinct subterm.
    assert e.tape == [(x, (), ()), (Scale(2.0, x), (0,), ()), (Zero(), (), ()),
                      (Join(x, Zero()), (0, 2), (0, 2)), (e, (1, 3), (1, 3))]
    assert e.tape is e.tape
    assert e == Add(Scale(2.0, x), Join(x, Zero()))
    assert hash(e) == hash(Add(Scale(2.0, x), Join(x, Zero())))
    shared = Mul(Add(x, y), Add(Var("x"), Var("y")))
    assert len(shared.tape) == 4
    calls = Counter()
    counting = dict.fromkeys((Zero, Var, Scale, Add, Join, Mul),
                             lambda node, *values: calls.update([node]))
    fold(shared, counting)
    assert calls == {x: 1, y: 1, Add(x, y): 1, shared: 1}


def test_signed_zero_scalings_keep_their_entries():
    x = Var("x")
    e = Add(Scale(0.0, x), Scale(-0.0, x))
    assert len(e.tape) == 4
    assert print_expr(e) == "0.0*x + -0.0*x"
    assert repr(e).count("coeff=-0.0") == 1
    back = parse(print_expr(e))
    assert back == e and print_expr(back) == print_expr(e)
    assert Scale(0.0, x) == Scale(-0.0, x) and hash(Scale(0.0, x)) == hash(Scale(-0.0, x))


def _structure(node):
    """Structural key: kind, label (a scaling's with its type and sign), children's keys."""
    if isinstance(node, Scale):
        coeff = node.coeff
        return Scale, coeff, type(coeff), math.copysign(1.0, coeff), _structure(node.child)
    if isinstance(node, (Zero, Var)):
        return type(node), node.label
    return type(node), _structure(node.left), _structure(node.right)


def _reference_tape(e):
    """One entry per structural key, first occurrence in a recursive children-first,
    left-before-right walk of every occurrence, then each child's last consumer."""
    entries, index = [], {}

    def visit(node):
        kids = (node.child,) if isinstance(node, Scale) else (
            () if isinstance(node, (Zero, Var)) else (node.left, node.right))
        args = tuple(visit(kid) for kid in kids)
        key = _structure(node)
        if key not in index:
            index[key] = len(entries)
            entries.append((node, args))
        return index[key]

    visit(e)
    last = {child: j for j, (_, args) in enumerate(entries) for child in args}
    return [(id(node), args, {c for c in args if last[c] == j})
            for j, (node, args) in enumerate(entries)]


def _copy(node):
    """A structurally equal term made of new objects."""
    if isinstance(node, Zero):
        return Zero()
    if isinstance(node, Var):
        return Var(node.name)
    if isinstance(node, Scale):
        return Scale(node.coeff, _copy(node.child))
    return type(node)(_copy(node.left), _copy(node.right))


def _shared_term(rng):
    """Each node takes its children from the nodes built before it, so objects
    are shared; it may also be a fresh copy of one, an ``abs`` or a signed-zero scaling."""
    pool = [Var("x"), Var("y"), Zero()]
    for _ in range(rng.randint(1, 10)):
        a, b = rng.choice(pool), rng.choice(pool)
        kind = rng.randrange(6)
        if kind == 0:
            node = Scale(rng.choice((0.0, -0.0, 2.0, 2, -1.0)), a)
        elif kind == 1:
            node = Abs(a)
        elif kind == 2:
            node = _copy(a)
        else:
            node = (Add, Join, Mul)[kind - 3](a, b)
        pool.append(node)
    return pool[-1]


def test_tape_matches_a_naive_reference_on_shared_terms():
    for s in range(300):
        e = _shared_term(random.Random(s))
        tape = [(id(node), args, set(last_uses)) for node, args, last_uses in e.tape]
        assert tape == _reference_tape(e), s
        assert all(len(set(last_uses)) == len(last_uses) for _, _, last_uses in e.tape), s


def test_fold_drops_values_after_last_use():
    # A left-deep sum over 1e5 points needs two arrays at a time: the running
    # sum and the next one.
    points = np.linspace(-1.0, 1.0, 100_000)
    e = parse(" + ".join("y" if i % 3 else "x" for i in range(2000)))
    env = {"x": points, "y": points[::-1].copy()}
    eval_pointwise(e, {"x": 0.0, "y": 0.0})  # builds the cached tape
    tracemalloc.start()
    try:
        total = eval_pointwise(e, env)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total[0] == -667.0 + 1333.0
    assert peak <= 2 * points.nbytes + 2 ** 14  # two arrays and a little bookkeeping


def test_fold_runs_children_before_parents():
    ops = {Zero: lambda node: "0", Var: lambda node: node.name,
           Scale: lambda node, child: f"s({child})",
           Add: lambda node, left, right: f"+({left},{right})"}
    assert fold(Add(Scale(2.0, Var("x")), Zero()), ops) == "+(s(x),0)"


def test_equality_and_hash_without_recursion():
    text = "+".join(["x"] * 450)
    a, b = parse(text), parse(text)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != parse(text + "+y") and a != parse(text.replace("x", "y", 1))
    assert Scale(0.0, a) == Scale(-0.0, b) and Scale(1.0, a) != Scale(2.0, b)
    assert Join(a, b) != Add(a, b) and Var("x") != "x"
    # The two parsed copies of the sum are distinct objects, which the
    # majorant's ``a \\/ -a`` check compares node by node.
    assert polynomial_majorant(parse(f"({text}) \\/ -({text})")).terms == {("x",): 450.0}
    wide = Abs(parse("+".join(["x"] * 400)))
    assert polynomial_majorant(parse(print_expr(wide))).terms == {("x",): 400.0}
    # repr is the dataclass text, built without recursion.
    assert repr(a) == "Add(left=" * 449 + "Var(name='x')" + ", right=Var(name='x'))" * 449
    assert repr(Scale(-1.5, Join(Var("y"), Zero()))) == (
        "Scale(coeff=-1.5, child=Join(left=Var(name='y'), right=Zero()))")


def _deep_sum(rng, terms):
    return parse(" + ".join(rng.choice(("x", "y")) for _ in range(terms)))


def _chain(kind, depth):
    """Right-nested chain whose printed form nests ``depth`` levels or fewer."""
    e = Var("x")
    for i in range(depth):
        other = Var("y" if i % 2 else "x")
        e = {"scale": lambda: Scale(1.25, e), "add": lambda: Add(other, e),
             "join": lambda: Join(other, e), "mul": lambda: Mul(other, e)}[kind]()
    return e


terms = st.one_of(
    st.builds(lambda seed, depth: random_expr(random.Random(seed), ("x", "y"), depth),
              st.integers(0, 10**9), st.integers(1, 10)),
    st.builds(lambda seed, n: _deep_sum(random.Random(seed), n),
              st.integers(0, 10**9), st.integers(1, 2000)),
    st.builds(_chain, st.sampled_from(["scale", "add", "join", "mul"]),
              st.integers(1, MAX_NESTING)),
)


@settings(max_examples=60, deadline=None)
@given(e=terms, x=st.floats(-1, 1), y=st.floats(-1, 1))
def test_backends_agree(e, x, y):
    assert parse(print_expr(e)) == e

    real = eval_real(e, {"x": x, "y": y})
    assert eval_pointwise(e, {"x": x, "y": y}) == real

    model = ZeroProductModel(3)
    values = {"x": np.array([x, y, 0.5]), "y": np.array([y, -0.25, x])}
    assignment = {name: model.element(v) for name, v in values.items()}
    killed = np.broadcast_to(eval_pointwise(product_kill(e), values), (3,))
    assert np.array_equal(model.evaluate(e, assignment).values, killed)


def test_deep_sum_through_every_backend():
    e = parse("+".join(["x"] * 2000))
    assert eval_real(e, {"x": 0.5}) == 1000.0
    assert eval_pointwise(e, {"x": np.array([0.5, 1.0])}).tolist() == [1000.0, 2000.0]
    model = WeightedGridModel([1.0])
    assert model.evaluate(e, {"x": model.element([0.25])}).values.tolist() == [500.0]
    assert polynomial_majorant(e).terms == {("x",): 2000.0}
    assert error_budget(e, 0.5) == 1000.0
    assert parse(print_expr(e)) == e
    mixed = _deep_sum(random.Random(1), 2000)
    try:
        nf = normal_form(mixed, budget=2000)
    except NormalFormBudgetError:
        pass
    else:
        assert nf.term_count() <= 2000
