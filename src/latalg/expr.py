"""Expression language for lattice-algebra terms over the reals.

A term is built from six node kinds: the constant ``0``, variables, real
scaling, addition, join (pointwise maximum) and a product.  Meet, positive
part, negative part, absolute value and arithmetic negation are notation:
:func:`Meet`, :func:`Pos`, :func:`NegPart`, :func:`Abs` and :func:`Neg`
build the core term that spells them, so every term holds the six kinds
only.  Terms are immutable and hashable, so they may be shared freely
across threads; every operation in this module is pure.

Every traversal of a term runs over its tape, :attr:`Expr.tape`: one entry
per structurally distinct subterm, children before parents, left before
right.  It is built without recursion on first use and cached on the node,
so no traversal is limited by the recursion limit (``==``, ``hash`` and
``repr`` do not recurse either), a term evaluated many times is flattened
once, and a repeated subterm is evaluated once per traversal.  Printed
text grows with every occurrence, so :func:`parse` rejects terms with more
than :data:`MAX_TERM_SIZE` node occurrences.

:func:`fold` runs a tape, dropping each value after its last consumer.  A
backend is an op table that maps each of the six node classes to
``f(node, *child_values)``; ``node`` stands for every occurrence of its
subterm, so an op's value depends on its fields, not on the occurrence.
:func:`eval_pointwise` is the one fold over numpy arrays: every array model
(the reals, weighted grids, diagonal algebras, the zero-product lattice,
the cylinder and the norm search's one-atom algebras) multiplies pointwise
with a weight, so each passes its product to it.

Concrete syntax (see :func:`parse`)::

    expr  := add (("\\/" | "/\\") add)*        lattice ops bind loosest
    add   := mul (("+" | "-") mul)*
    mul   := unary ("*" unary)*                product binds tightest
    unary := "-" unary | atom
    atom  := number "*" unary | number | ident
           | "(" expr ")" | ("pos" | "neg" | "abs") "(" expr ")"

A numeric literal followed by ``*`` denotes scaling, while ``expr * expr``
is the algebra product; the leading numeric token disambiguates.  The
signature has no constants other than 0, so a bare numeric literal is only
legal when it spells zero (``0``, ``0.0``, ...).  Parentheses, unary minus
and ``c*`` prefixes may nest at most :data:`MAX_NESTING` levels deep.
"""

from __future__ import annotations

import math
import operator
import random
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping

import numpy as np

__all__ = [
    "Expr", "Zero", "Var", "Scale", "Add", "Join", "Mul",
    "Meet", "Pos", "NegPart", "Abs", "Neg",
    "Assignment", "ParseError", "MissingVariableError", "MAX_NESTING", "MAX_TERM_SIZE",
    "fold",
    "parse", "print_expr", "complexity", "variables",
    "eval_real", "eval_pointwise", "substitute", "contains_product",
    "random_expr", "cosh_sinh_witness",
]

#: An assignment maps variable names to values (reals here; model elements
#: in the model modules).  Any mapping works.
Assignment = Mapping[str, float]

_RESERVED = frozenset({"pos", "neg", "abs"})


class ExprError(ValueError):
    """Base class for errors raised by this module."""


class ParseError(ExprError):
    """Syntax error, carrying the offending position in the input text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class MissingVariableError(ExprError):
    """An assignment does not cover a free variable."""


class Expr:
    """Base class of the six term kinds.  Instances are immutable.

    ``arity`` is the number of children: none for leaves, ``child`` for
    scaling, ``left`` and ``right`` for binary kinds.  ``label`` is a
    node's own data, children excluded: the name of a variable, the
    coefficient of a scaling.
    """

    __slots__ = ()
    arity = 0
    label = None

    def __eq__(self, other):
        """Structural equality, node pair by node pair on an explicit stack."""
        if not isinstance(other, Expr):
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if type(a) is not type(b) or a.label != b.label:
                return False
            pairs += zip(_children(a), _children(b))
        return True

    def __hash__(self):
        return fold(self, _HASH)

    def __repr__(self):
        """The dataclass text, e.g. ``Add(left=Var(name='x'), right=Zero())``, by a fold."""
        return fold(self, _REPR)

    @cached_property
    def tape(self) -> list[tuple["Expr", tuple[int, ...], tuple[int, ...]]]:
        """``(node, children, last_uses)`` per distinct subterm, children first.

        ``children`` are the entry indices of the node's children, and
        ``last_uses`` those whose last consumer it is.  Subterms share an entry
        when kind, label and children's entries agree; a scaling's label is
        keyed with its type and sign, so ``0.0`` and ``-0.0`` keep theirs.
        The walk pushes only children not yet indexed; a node pushed twice,
        shared by two parents still on the stack, finds its entry again.
        """
        entries, index, keys = [], {}, {}
        stack = [self]
        while stack:  # children first, left before right
            node = stack[-1]
            arity = node.arity
            if arity == 2:
                left, right = index.get(id(node.left)), index.get(id(node.right))
                if left is None or right is None:
                    if right is None:
                        stack.append(node.right)
                    if left is None:
                        stack.append(node.left)
                    continue
                args = (left, right)
                key = (type(node), args)
            elif arity:
                child = index.get(id(node.child))
                if child is None:
                    stack.append(node.child)
                    continue
                args = (child,)
                coeff = node.coeff
                key = (Scale, coeff, args, type(coeff), math.copysign(1.0, coeff))
            else:
                args = ()
                key = (type(node), node.label)
            stack.pop()
            i = index[id(node)] = keys.setdefault(key, len(entries))
            if i == len(entries):
                entries.append((node, args))
        tape, used = [], set()
        for node, args in reversed(entries):
            tape.append((node, args, tuple(set(args) - used)))
            used.update(args)
        return tape[::-1]


def _children(node: Expr) -> tuple[Expr, ...]:
    if node.arity == 1:
        return (node.child,)
    return (node.left, node.right) if node.arity == 2 else ()


@dataclass(frozen=True, eq=False, repr=False)
class Zero(Expr):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class Var(Expr):
    name: str
    label = property(lambda self: self.name)

    def __post_init__(self):
        if not self.name.isidentifier() or not self.name.isascii():
            raise ExprError(f"variable name must be an ASCII identifier: {self.name!r}")
        if self.name in _RESERVED:
            raise ExprError(f"{self.name!r} is a reserved word")


@dataclass(frozen=True, eq=False, repr=False)
class Scale(Expr):
    coeff: float
    child: Expr
    arity = 1
    label = property(lambda self: self.coeff)

    def __post_init__(self):
        if not math.isfinite(self.coeff):
            raise ExprError(f"scaling coefficient must be finite, got {self.coeff!r}")


@dataclass(frozen=True, eq=False, repr=False)
class Add(Expr):
    left: Expr
    right: Expr
    arity = 2


@dataclass(frozen=True, eq=False, repr=False)
class Join(Expr):
    left: Expr
    right: Expr
    arity = 2


@dataclass(frozen=True, eq=False, repr=False)
class Mul(Expr):
    left: Expr
    right: Expr
    arity = 2


_BINARY = (Add, Join, Mul)

_KINDS = (Zero, Var, Scale, *_BINARY)
_HASH = dict.fromkeys(_KINDS, lambda node, *hashes: hash((type(node), node.label, *hashes)))
_SIZE = dict.fromkeys(_KINDS, lambda node, *sizes: 1 + sum(sizes))  # node occurrences

_REPR = {Zero: lambda node: "Zero()", Var: lambda node: f"Var(name={node.name!r})",
         Scale: lambda node, child: f"Scale(coeff={node.coeff!r}, child={child})",
         **dict.fromkeys(_BINARY, lambda node, left, right:
                         f"{type(node).__name__}(left={left}, right={right})")}


# Notation: each function builds the core term that spells it.

def Neg(e: Expr) -> Expr:
    """``-e``, folded into an immediate scaling node, so printed negative
    coefficients round-trip structurally."""
    if isinstance(e, Scale):
        return Scale(-e.coeff, e.child)
    return Scale(-1.0, e)


def Meet(a: Expr, b: Expr) -> Expr:
    """``a /\\ b`` as ``-((-a) \\/ (-b))``."""
    return Neg(Join(Neg(a), Neg(b)))


def Pos(a: Expr) -> Expr:
    """``pos(a)`` as ``a \\/ 0``."""
    return Join(a, Zero())


def NegPart(a: Expr) -> Expr:
    """``neg(a)`` as ``(-a) \\/ 0``."""
    return Join(Neg(a), Zero())


def Abs(a: Expr) -> Expr:
    """``abs(a)`` as ``a \\/ (-a)``, sharing ``a``."""
    return Join(a, Neg(a))


def fold(e: Expr, ops: Mapping[type, Callable]):
    """Value of ``e``: ``ops[type(node)](node, *child_values)`` once per tape entry, each
    value dropped after its last consumer, where a tree walk's value stack drops it."""
    values = {}
    for i, (node, args, last_uses) in enumerate(e.tape):
        op = ops[type(node)]
        arity = len(args)
        if arity == 2:
            values[i] = op(node, values[args[0]], values[args[1]])
        elif arity:
            values[i] = op(node, values[args[0]])
        else:
            values[i] = op(node)
        for k in last_uses:
            del values[k]  # frees an array value as soon as it is used
    return values[i]


def _rebuild_scale(node: Scale, child: Expr) -> Expr:
    return node if child is node.child else Scale(node.coeff, child)


def _rebuild_binary(node: Expr, left: Expr, right: Expr) -> Expr:
    if left is node.left and right is node.right:
        return node
    return type(node)(left, right)


#: Copies a core term from its rewritten children, reusing every node whose
#: children came back unchanged; transforms override the kinds they rewrite.
_REBUILD = {Zero: lambda node: node, Var: lambda node: node, Scale: _rebuild_scale,
            **dict.fromkeys(_BINARY, _rebuild_binary)}

_COMPLEXITY = {Zero: lambda node: 1, Var: lambda node: 1, Scale: lambda node, child: 1 + child,
               **dict.fromkeys(_BINARY, lambda node, left, right: 1 + max(left, right))}


def complexity(e: Expr) -> int:
    """1 for leaves (0 and variables); otherwise one more than the deepest child."""
    return fold(e, _COMPLEXITY)


_VARIABLES = {Zero: lambda node: frozenset(), Var: lambda node: frozenset((node.name,)),
              Scale: lambda node, child: child,
              **dict.fromkeys(_BINARY, lambda node, left, right: left | right)}


def variables(e: Expr) -> tuple[str, ...]:
    """Free variables of ``e``, sorted lexicographically."""
    return tuple(sorted(fold(e, _VARIABLES)))


def substitute(e: Expr, replacements: Mapping[str, Expr]) -> Expr:
    """Replace variables by expressions (simultaneously) in ``e``."""
    ops = {**_REBUILD, Var: lambda node: replacements.get(node.name, node)}
    return fold(e, ops)


_CONTAINS_PRODUCT = {Zero: lambda node: False, Var: lambda node: False,
                     Scale: lambda node, child: child,
                     **dict.fromkeys(_BINARY, lambda node, left, right: left or right),
                     Mul: lambda node, left, right: True}


def contains_product(e: Expr) -> bool:
    return fold(e, _CONTAINS_PRODUCT)


# ---------------------------------------------------------------------------
# Evaluation

def _scale(node: Scale, child):
    return node.coeff * child


def _add(node: Add, left, right):
    return left + right


def _multiply(node: Mul, left, right):
    return left * right


_REAL = {Zero: lambda node: 0.0, Scale: _scale, Add: _add,
         Join: lambda node, left, right: max(left, right), Mul: _multiply}

_POINTWISE = {Zero: lambda node: 0.0, Scale: _scale, Add: _add,
              Join: lambda node, left, right: np.maximum(left, right)}


def _lookup(env: Mapping, convert=None):
    """Op for variables: the value bound to the name in ``env``, passed
    through ``convert`` when one is given."""

    def value(node: Var):
        try:
            bound = env[node.name]
        except KeyError:
            raise MissingVariableError(f"no value for variable {node.name!r}") from None
        return bound if convert is None else convert(bound)

    return value


def eval_real(e: Expr, assignment: Assignment) -> float:
    """Evaluate ``e`` over the reals (join = max).

    Raises :class:`MissingVariableError` if a free variable is not covered.
    """
    return fold(e, {**_REAL, Var: _lookup(assignment, float)})


def eval_pointwise(e: Expr, env: Mapping[str, "np.ndarray | float"],
                   product: Callable = operator.mul):
    """Vectorized evaluation: variables may be bound to numpy arrays.

    Join is the pointwise maximum and ``product(a, b)`` the model's product
    of two values, by default the plain pointwise product.  All arrays must
    broadcast against each other, and 0 is the scalar ``0.0``.  Returns an
    array (or a scalar if every binding is scalar, or ``e`` has no variable).
    Raises :class:`MissingVariableError` if a free variable is not bound.
    """
    return fold(e, {**_POINTWISE, Var: _lookup(env), Mul: lambda node, a, b: product(a, b)})


# ---------------------------------------------------------------------------
# Parsing

#: Deepest nesting :func:`parse` accepts, counting parentheses (including
#: those of ``pos``, ``neg`` and ``abs``), unary minus and ``c*`` prefixes.
#: A parenthesis level costs seven interpreter frames, so this stays well
#: inside the default recursion limit of 1000.
MAX_NESTING = 100

#: Most node occurrences a term returned by :func:`parse` may have.  Shared
#: subterms count once per occurrence, as its printed text grows, so nested
#: ``abs`` doubles the count at every level.
MAX_TERM_SIZE = 10 ** 6

_TOKEN_RE = re.compile(
    r"""
    (?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
    | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<op>\\/|/\\|[-+*()])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"unknown token {text[i]!r}", i)
        kind = m.lastgroup
        tokens.append((kind, m.group(), i))
        i = m.end()
    tokens.append(("eof", "", n))
    return tokens


#: Binary operators by binding level, loosest first (see the grammar above);
#: the operands of the last level are unary terms.
_OPERATORS = (
    {"\\/": Join, "/\\": Meet},
    {"+": Add, "-": lambda a, b: Add(a, Neg(b))},
    {"*": Mul},
)


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, pos = self.next()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}, found {text or 'end of input'!r}", pos)

    def nested(self, parse, pos: int) -> Expr:
        """``parse()`` one nesting level deeper, within :data:`MAX_NESTING`."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", pos)
        self.depth += 1
        inner = parse()
        self.depth -= 1
        return inner

    def parse(self) -> Expr:
        e = self.parse_binary()
        kind, text, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected {text!r}", pos)
        return e

    def parse_binary(self, level: int = 0) -> Expr:
        """A left-associative chain of the operators of ``_OPERATORS[level]``."""
        if level == len(_OPERATORS):
            return self.parse_unary()
        ops = _OPERATORS[level]
        left = self.parse_binary(level + 1)
        while True:
            _, text, _ = self.peek()
            if text not in ops:
                return left
            self.next()
            left = ops[text](left, self.parse_binary(level + 1))

    def parse_unary(self) -> Expr:
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.next()
            return Neg(self.nested(self.parse_unary, pos))
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        kind, text, pos = self.next()
        if kind == "num":
            value = float(text)
            nkind, ntext, _ = self.peek()
            if nkind == "op" and ntext == "*":
                self.next()
                return Scale(value, self.nested(self.parse_unary, pos))
            if value == 0.0:
                return Zero()
            raise ParseError(
                f"bare constant {text!r} is not a term (only 0; write c*term for scaling)", pos
            )
        if kind == "ident":
            if text in _RESERVED:
                self.expect_op("(")
                inner = self.nested(self.parse_binary, pos)
                self.expect_op(")")
                return {"pos": Pos, "neg": NegPart, "abs": Abs}[text](inner)
            return Var(text)
        if kind == "op" and text == "(":
            inner = self.nested(self.parse_binary, pos)
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected {text or 'end of input'!r}", pos)


def parse(text: str) -> Expr:
    """Parse ``text`` into a term of the six core kinds, with at most
    :data:`MAX_TERM_SIZE` node occurrences."""
    e = _Parser(text).parse()
    size = fold(e, _SIZE)
    if size > MAX_TERM_SIZE:
        raise ParseError(f"term has {size} node occurrences, more than {MAX_TERM_SIZE}", 0)
    return e


# ---------------------------------------------------------------------------
# Printing

# Binding levels, loosest to tightest.  A node prints as (text, level) and
# is parenthesized when printed in a context demanding a tighter level.
_LAT, _ADD, _MUL, _UNARY, _ATOM = range(5)


def _within(printed: tuple[str, int], need: int) -> str:
    text, level = printed
    return f"({text})" if level < need else text


def _print_mul(node: Mul, left, right) -> tuple[str, int]:
    # A bare "0" factor would re-parse as a scaling coefficient.
    left = "(0)" if isinstance(node.left, Zero) else _within(left, _MUL)
    right = "(0)" if isinstance(node.right, Zero) else _within(right, _UNARY)
    return f"{left} * {right}", _MUL


def _print_scale(node: Scale, child) -> tuple[str, int]:
    c = node.coeff
    sign = "-" if (c < 0 or (c == 0 and math.copysign(1.0, c) < 0)) else ""
    # Parenthesized zero: a trailing bare "0" would bind to a following "*".
    child = "(0)" if isinstance(node.child, Zero) else _within(child, _UNARY)
    return f"{sign}{abs(c)!r}*{child}", _UNARY


_PRINT = {
    Zero: lambda node: ("0", _ATOM),
    Var: lambda node: (node.name, _ATOM),
    Join: lambda node, left, right: (f"{_within(left, _LAT)} \\/ {_within(right, _ADD)}", _LAT),
    Add: lambda node, left, right: (f"{_within(left, _ADD)} + {_within(right, _MUL)}", _ADD),
    Mul: _print_mul,
    Scale: _print_scale,
}


def print_expr(e: Expr) -> str:
    """Render ``e`` so that ``parse(print_expr(e)) == e`` structurally (for
    terms whose printed nesting stays within :data:`MAX_NESTING`)."""
    return fold(e, _PRINT)[0]


# ---------------------------------------------------------------------------
# Seeded random expressions

#: Node-kind distribution of :func:`random_expr` above the leaf level.
_NODE_KINDS = (("add", 0.28), ("join", 0.28), ("mul", 0.22), ("scale", 0.22))
_LEAF_VAR_P = 0.85


def random_expr(
    rng: random.Random,
    var_names: tuple[str, ...] = ("x", "y", "z"),
    max_complexity: int = 8,
    allow_product: bool = True,
) -> Expr:
    """Seeded random core expression with complexity at most ``max_complexity``.

    Distribution: a leaf is a variable with probability 0.85 and 0 otherwise;
    internal nodes are add/join/mul/scale with weights .28/.28/.22/.22 (mul
    weight redistributed to scale when products are disabled).  Scaling
    coefficients are uniform in [-2, 2].
    """
    if max_complexity <= 1:
        if rng.random() < _LEAF_VAR_P:
            return Var(rng.choice(var_names))
        return Zero()
    kinds, weights = zip(*_NODE_KINDS)
    if not allow_product:
        weights = (0.28, 0.28, 0.0, 0.44)
    kind = rng.choices(kinds, weights=weights, k=1)[0]
    if kind == "scale":
        return Scale(rng.uniform(-2.0, 2.0),
                     random_expr(rng, var_names, max_complexity - 1, allow_product))
    left = random_expr(rng, var_names, rng.randint(1, max_complexity - 1), allow_product)
    right = random_expr(rng, var_names, rng.randint(1, max_complexity - 1), allow_product)
    if kind == "add":
        return Add(left, right)
    if kind == "join":
        return Join(left, right)
    return Mul(left, right)


# ---------------------------------------------------------------------------
# A curated witness

def cosh_sinh_witness(k: int) -> Expr:
    """Truncated ``x*cosh(x)**2 - x*sinh(x)**2`` with the unit as the variable ``one``.

    Both summands are products, so the term evaluates to exactly zero under
    any zero product, while with ``one`` bound to 1 its real value is
    within the series remainder of ``x`` on [-1, 1].  The signature has no
    constant 1, hence the extra variable.
    """
    if k < 1:
        raise ExprError("k must be >= 1")
    t = Var("x")
    one = Var("one")

    def power(base: Expr, exponent: int) -> Expr:
        acc = base
        for _ in range(exponent - 1):
            acc = Mul(acc, base)
        return acc

    cosh_terms: Expr = one
    for j in range(1, k + 1):
        cosh_terms = Add(cosh_terms, Scale(1.0 / math.factorial(2 * j), power(t, 2 * j)))
    sinh_terms: Expr = t
    for j in range(1, k + 1):
        sinh_terms = Add(sinh_terms, Scale(1.0 / math.factorial(2 * j + 1), power(t, 2 * j + 1)))
    return Add(
        Mul(t, Mul(cosh_terms, cosh_terms)),
        Scale(-1.0, Mul(t, Mul(sinh_terms, sinh_terms))),
    )
