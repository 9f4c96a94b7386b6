import math
import operator
import pickle
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latalg.ball import BallGrid, transport_residual, vanishes_on_ball, vanishes_on_reals
from latalg.discretize import error_budget
from latalg.expr import (
    _FOLDS_BEFORE_KERNEL, _KERNEL_MAX_ENTRIES, _POINTWISE, _REBUILD, MAX_NESTING, Abs, Add, Join,
    MissingVariableError, Mul, Scale, Var, Zero, _children, _lookup, eval_pointwise, eval_real,
    fold, parse, print_expr, random_expr, variables,
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


def _folded(e, env, product=operator.mul):
    """``eval_pointwise`` as a fold of the tape, the kernel's reference."""
    return fold(e, {**_POINTWISE, Var: _lookup(env), Mul: lambda node, a, b: product(a, b)})


def _same_bits(a, b):
    """Equal type, dtype, shape and bytes, so a ``-0.0`` against ``0.0`` differs."""
    a_arr, b_arr = np.asarray(a), np.asarray(b)
    return (type(a) is type(b) and a_arr.dtype == b_arr.dtype and a_arr.shape == b_arr.shape
            and a_arr.tobytes() == b_arr.tobytes())


def _warm(e, env):
    """Evaluates ``e`` as often as ``eval_pointwise`` folds it; the next evaluation compiles."""
    for _ in range(_FOLDS_BEFORE_KERNEL):
        eval_pointwise(e, env)
    assert "_kernel" not in vars(e)


def test_kernel_is_bit_identical_to_the_fold():
    points = np.random.default_rng(3)
    weights = points.uniform(0.0, 1.0, 6)
    arrays = {name: points.choice([-0.0, 0.0, 0.5, -1.5, *points.uniform(-2, 2, 4)], 6)
              for name in "xyz"}
    scalars = {"x": -0.0, "y": 0.75, "z": -1.25}
    for s in range(600):
        rng = random.Random(s)
        e = random_expr(rng, ("x", "y", "z"), 7) if s % 2 else _shared_term(rng)
        if s % 5 == 0:  # shared children, entries with ``args == (i, i)``, and a -0.0 scaling
            e = Add(Mul(e, e), Scale(-0.0, Join(e, e)))
        if s % 7 == 0:  # no variables
            e = fold(e, {**_REBUILD, Var: lambda node: Scale(-0.0, Zero())})
        _warm(e, scalars)
        for env, product in ((arrays, operator.mul), (arrays, lambda a, b: weights * a * b),
                             (scalars, operator.mul)):
            assert _same_bits(eval_pointwise(e, env, product), _folded(e, env, product)), s
        assert vars(e)["_kernel"] is not None
        for missing in ({}, {"x": 1.0}, {"z": 1.0}):  # the first unbound name in tape order
            if set(variables(e)) <= missing.keys():
                continue
            with pytest.raises(MissingVariableError) as kernel_error:
                eval_pointwise(e, missing)
            with pytest.raises(MissingVariableError) as fold_error:
                _folded(e, missing)
            assert str(kernel_error.value) == str(fold_error.value), s

    def failing_product(a, b):
        raise KeyError("raised by the product")

    e = Mul(Var("x"), Var("y"))
    _warm(e, {"x": 1.0, "y": 2.0})
    with pytest.raises(KeyError, match="raised by the product"):  # not a missing variable
        eval_pointwise(e, {"x": 1.0, "y": 2.0}, failing_product)


def test_kernel_drops_values_after_last_use():
    # As the fold does, the kernel keeps the running sum and the next array only.
    points = np.linspace(-1.0, 1.0, 100_000)
    e = parse(" + ".join("y" if i % 3 else "x" for i in range(600)))
    env = {"x": points, "y": points[::-1].copy()}
    _warm(e, {"x": 0.0, "y": 0.0})
    eval_pointwise(e, {"x": 0.0, "y": 0.0})  # compiles the cached kernel
    assert vars(e)["_kernel"] is not None
    tracemalloc.start()
    try:
        total = eval_pointwise(e, env)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total[0] == -200.0 + 400.0
    assert peak <= 2 * points.nbytes + 2 ** 14


def _left_sum(entries):
    """``x + y + x + y + ...`` with a tape of ``entries`` entries: two variables, then sums."""
    e = Add(Var("x"), Var("y"))
    for i in range(entries - 3):
        e = Add(e, Var("y" if i % 2 else "x"))
    assert len(e.tape) == entries
    return e


def test_tapes_above_the_cap_are_folded_not_compiled():
    at_cap, above = _left_sum(_KERNEL_MAX_ENTRIES), _left_sum(_KERNEL_MAX_ENTRIES + 1)
    assert at_cap._kernel is not None and above._kernel is None
    assert eval_pointwise(above, {"x": 1.0, "y": 2.0}) == _folded(above, {"x": 1.0, "y": 2.0})
    # Compiling a tape this long traces over 100 MB; folding it, a few values at a time.
    long = _left_sum(33_334)
    _warm(long, {"x": 1.0, "y": 2.0})
    tracemalloc.start()
    try:
        total = eval_pointwise(long, {"x": 1.0, "y": 2.0})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total == 16_667 * 1.0 + 16_666 * 2.0
    assert vars(long)["_kernel"] is None
    assert peak <= 2 ** 16


def test_evaluated_terms_pickle_without_their_kernel():
    e = parse("x*x + 2*y \\/ 0")
    _warm(e, {"x": 3.0, "y": 1.0})
    assert eval_pointwise(e, {"x": 3.0, "y": 1.0}) == 11.0
    copy = pickle.loads(pickle.dumps(e))
    assert copy == e and "_kernel" in vars(e) and "_kernel" not in vars(copy)
    assert eval_pointwise(copy, {"x": 3.0, "y": 1.0}) == 11.0


def test_terms_evaluated_a_few_times_are_folded_not_compiled():
    e = parse("x*y + 2*x \\/ y")
    env = {"x": np.array([1.0, -2.0]), "y": np.array([3.0, 0.5])}
    expected = _folded(e, env)
    for _ in range(_FOLDS_BEFORE_KERNEL):
        assert _same_bits(eval_pointwise(e, env), expected)
    assert "_kernel" not in vars(e)
    assert _same_bits(eval_pointwise(e, env), expected)
    assert vars(e)["_kernel"] is not None


def test_check_identity_and_kernel_never_compile():
    # On one to three variables check-identity evaluates a term 3 or 8 times
    # on the real line and once in the models, and kernel once on its ball
    # grid and 3 or 8 times on the real line: too few to repay compiling.
    for text in ("x*x + 2*x", "x*y + 2*x \\/ y", "x*y - pos(z)", "pos(x)*neg(x) + 0*(y \\/ z)"):
        e = parse(text)
        vanishes_on_reals(e, samples=10_000)
        transport_residual(e)
        assert "_kernel" not in vars(e)
        names = variables(e)
        checked = parse(text)
        vanishes_on_ball(checked, {n: np.eye(len(names))[i] for i, n in enumerate(names)},
                         BallGrid(len(names), 9))
        vanishes_on_reals(checked, samples=10_000)
        assert "_kernel" not in vars(checked)


def test_fold_runs_children_before_parents():
    ops = {Zero: lambda node: "0", Var: lambda node: node.name,
           Scale: lambda node, child: f"s({child})",
           Add: lambda node, left, right: f"+({left},{right})"}
    assert fold(Add(Scale(2.0, Var("x")), Zero()), ops) == "+(s(x),0)"


def _objects(e):
    """The distinct node objects of ``e``, by identity."""
    seen, stack = set(), [e]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack += _children(node)
    return len(seen)


@pytest.mark.parametrize("e, killed", [
    # x*y repeated in distinct objects, then one shared object under abs, then
    # a term that the rewrite does not change: each comes back as a new term.
    (parse("x*y + x*y"), Add(Zero(), Zero())),
    (Abs(parse("x + x*y")), Abs(Add(Var("x"), Zero()))),
    (parse("x + y"), parse("x + y")),
])
def test_rewrites_build_one_new_node_per_tape_entry(e, killed):
    result = product_kill(e)
    assert result is not e and result == killed
    assert len(result.tape) == len(killed.tape) == _objects(result)


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


def test_eval_real_is_eval_pointwise_on_floats():
    # Bit for bit, the sign of a zero included: a join keeps the zero np.maximum keeps.
    for i in range(300):
        e = random_expr(random.Random(i), ("x", "y", "z"), 8)
        rng = random.Random(5000 + i)
        point = {v: rng.uniform(-1, 1) for v in "xyz"}
        real, pointwise = eval_real(e, point), eval_pointwise(e, point)
        assert type(real) is float
        assert real == pointwise and np.signbit(real) == np.signbit(pointwise), i

