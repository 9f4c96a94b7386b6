"""Symbolic rewrites of lattice-algebra terms.

Three transforms live here:

* :func:`product_kill` replaces every product node by 0, yielding a
  product-free (hence positively homogeneous) term.  On any model whose
  product is identically zero, a term and its killed form evaluate
  identically.  It is the one projection of a term onto its lattice part:
  idempotent, and a product-free term comes back equal to itself.

* :func:`normal_form` rewrites a term as a difference of two joins of
  constant-free polynomials in the split variables ``v+`` and ``v-``
  (which evaluate as the positive and negative part of ``v``), all with
  positive coefficients, so a product is two pair sums of four pair-product
  lists.  One exact rule, ``(p - n) \\/ 0 = p`` for disjoint ``p, n >= 0``
  (:meth:`Polynomial.disjoint`), makes the printed form of
  :func:`normal_form_to_expr` normalize back to the same join lists.  The
  recursion is deterministic but can blow up exponentially; a term budget,
  which counts every list emitted, products included, aborts cleanly rather
  than truncating.

* :func:`polynomial_majorant` produces a nonnegative-coefficient,
  constant-free polynomial ``p`` with ``|e(a)| <= p(|a|)`` for every real
  assignment ``a`` (the same bound holds in any model with a
  submultiplicative lattice norm, evaluated at element norms).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, reduce
from typing import Mapping

import numpy as np

from .expr import (
    _REBUILD, Add, Expr, Join, Mul, Neg, NegPart, Pos, Scale, Var, Zero, eval_pointwise, fold,
    variables,
)

__all__ = [
    "Polynomial", "NormalForm", "NormalFormBudgetError",
    "product_kill", "normal_form", "normal_form_to_expr",
    "polynomial_majorant", "check_normal_form",
    "split_pos", "split_neg",
]

#: A monomial is a sorted tuple of symbol names; repetition encodes powers.
Monomial = tuple[str, ...]


def split_pos(name: str) -> str:
    """Split-variable symbol for the positive part of ``name``."""
    return name + "+"


def split_neg(name: str) -> str:
    return name + "-"


class Polynomial:
    """Sparse polynomial with no constant term.

    ``terms`` maps monomials to nonzero real coefficients.  Symbols are
    opaque strings: split variables like ``"x+"`` in normal forms, plain
    variable names (standing for ``|x|``) in majorants.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, float] | None = None):
        clean: dict[Monomial, float] = {}
        for mono, coeff in (terms or {}).items():
            if len(mono) == 0:
                raise ValueError("constant terms are not allowed")
            if coeff != 0.0:
                clean[tuple(mono)] = float(coeff)
        self.terms = clean

    @classmethod
    def symbol(cls, name: str) -> "Polynomial":
        return cls({(name,): 1.0})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, 0.0) + coeff
        return Polynomial(out)

    def scaled(self, factor: float) -> "Polynomial":
        return Polynomial({m: factor * c for m, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out: dict[Monomial, float] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                out[mono] = out.get(mono, 0.0) + c1 * c2
        return Polynomial(out)

    def disjoint(self, other: "Polynomial") -> bool:
        """Whether each monomial pair holds ``v+`` on one side and ``v-`` on the
        other, for some ``v``: then the two are disjoint in every f-algebra."""
        flips = [{s[:-1] + ("-" if s[-1] == "+" else "+") for s in m if s[-1] in "+-"}
                 for m in self.terms]
        return all(not f.isdisjoint(m2) for f in flips for m2 in other.terms)

    def evaluate(self, env: Mapping[str, "np.ndarray | float"]):
        """Evaluate with symbols bound to scalars or broadcastable arrays."""
        total = 0.0
        for mono, coeff in self.terms.items():
            value = coeff
            for sym in mono:
                value = value * env[sym]
            total = total + value
        return total

    def sorted_terms(self) -> list[tuple[Monomial, float]]:
        return sorted(self.terms.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if self.is_zero():
            return "Polynomial(0)"
        body = " + ".join(f"{c!r}*{'*'.join(m)}" for m, c in self.sorted_terms())
        return f"Polynomial({body})"


class NormalFormBudgetError(RuntimeError):
    """The normal-form construction exceeded its term budget."""

    def __init__(self, budget: int, count: int):
        super().__init__(f"normal form exceeded budget of {budget} terms ({count} reached)")
        self.budget = budget
        self.count = count


@dataclass(frozen=True)
class NormalForm:
    """Difference of two joins of split-variable polynomials.

    Semantics: ``max(p(s) for p in pos) - max(q(s) for q in neg)`` where the
    split environment ``s`` binds ``v+`` to ``max(v, 0)`` and ``v-`` to
    ``max(-v, 0)``.  Both join lists are nonempty.
    """

    pos: tuple[Polynomial, ...]
    neg: tuple[Polynomial, ...]

    def __post_init__(self):
        if not self.pos or not self.neg:
            raise ValueError("join lists must be nonempty")

    def term_count(self) -> int:
        return sum(1 + len(p.terms) for p in self.pos + self.neg)

    def evaluate_split(self, env: Mapping[str, "np.ndarray | float"]):
        """Evaluate with split symbols bound directly."""
        pos = reduce(np.maximum, (p.evaluate(env) for p in self.pos))
        neg = reduce(np.maximum, (q.evaluate(env) for q in self.neg))
        return pos - neg

    def evaluate(self, assignment: Mapping[str, "np.ndarray | float"]):
        env = {}
        for name, value in assignment.items():
            env[split_pos(name)] = np.maximum(value, 0.0)
            env[split_neg(name)] = np.maximum(-np.asarray(value, dtype=float), 0.0)
        return self.evaluate_split(env)


# ---------------------------------------------------------------------------
# Product kill

_PRODUCT_KILL = {**_REBUILD, Mul: lambda node, left, right: Zero()}


def product_kill(e: Expr) -> Expr:
    """A new term: ``e`` with every product node replaced by 0.

    The output is product-free, hence positively homogeneous, and equals
    the scaled limit ``e(eps*a)/eps`` as ``eps`` decreases to 0.  It shares
    only leaves with ``e``.
    """
    return fold(e, _PRODUCT_KILL)


# ---------------------------------------------------------------------------
# Normal form

class _Builder:
    """Normal-form combinators with a global term budget.

    ``zero``, ``var``, ``scale``, ``add``, ``join`` and ``mul`` are the ops of
    :func:`~latalg.expr.fold`: each takes the node and its children's normal
    forms, and :meth:`build` folds a term with them.

    Every polynomial in a join list built here has only positive
    coefficients: the leaves are ``0``, ``v+`` and ``v-``, ``add`` and
    ``join`` add polynomials in pairs, ``scale`` multiplies by ``|c|`` and
    ``mul`` only multiplies and adds.  Split variables are nonnegative, so
    each such polynomial is nonnegative wherever it is evaluated, and in an
    f-algebra multiplying by a positive element preserves joins:
    ``max P * max Q = max PQ`` for ``PQ`` the list of pair products.  Hence

        (max P - max N)(max Q - max M) = [max PQ + max NM] - [max PM + max NQ],

    each bracket a pair sum of two product lists.  Join lists are
    deduplicated order-preservingly (join is idempotent, so this is exact)
    and the budget is enforced while lists are built, not after.

    ``join`` has one exact rule: ``({p}, {n}) \\/ 0`` is ``({p}, {0})`` when
    ``p.disjoint(n)``, since ``p, n >= 0`` and ``p ⊥ n`` give ``(p - n) \\/ 0 = p``.
    That disjointness holds in every f-algebra: ``v+ ⊥ v-``, ``a ⊥ b`` and
    ``c >= 0`` give ``ac ⊥ b``, and sums of pairwise disjoint monomials stay
    disjoint.  A rule node emits only ``p``, which the generic join emits too
    (as ``p + 0``), so budget use never rises at it.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.used = 0

    def _emit(self, acc: dict, poly: Polynomial) -> None:
        """Append ``poly`` to the join list ``acc`` (a dict, so insertion-ordered)
        unless it is there already, hashing it once."""
        size = len(acc)
        acc.setdefault(poly)
        if len(acc) == size:
            return
        self.used += 1 + len(poly.terms)
        if self.used > self.budget:
            raise NormalFormBudgetError(self.budget, self.used)

    def _pairsum(self, acc: dict, xs, ys) -> None:
        for p in xs:
            for q in ys:
                self._emit(acc, p + q)

    def zero(self, node: Expr) -> NormalForm:
        z = Polynomial()
        return NormalForm((z,), (z,))

    def var(self, node: Var) -> NormalForm:
        return NormalForm((Polynomial.symbol(split_pos(node.name)),),
                          (Polynomial.symbol(split_neg(node.name)),))

    def add(self, node: Add, a: NormalForm, b: NormalForm) -> NormalForm:
        # max(P1)+max(P2) = max over pairs of sums, and likewise for the
        # subtrahends.
        pos, neg = {}, {}
        self._pairsum(pos, a.pos, b.pos)
        self._pairsum(neg, a.neg, b.neg)
        return NormalForm(tuple(pos), tuple(neg))

    def scale(self, node: Scale, a: NormalForm) -> NormalForm:
        coeff = node.coeff
        if coeff == 0.0:
            return self.zero(node)
        scaled_pos = tuple(p.scaled(abs(coeff)) for p in a.pos)
        scaled_neg = tuple(q.scaled(abs(coeff)) for q in a.neg)
        if coeff > 0:
            return NormalForm(scaled_pos, scaled_neg)
        return NormalForm(scaled_neg, scaled_pos)

    def join(self, node: Join, a: NormalForm, b: NormalForm) -> NormalForm:
        # (p - n) \/ 0 = p for disjoint p, n >= 0, in either order.
        for x, y in ((a, b), (b, a)):
            if (len(x.pos) == len(x.neg) == len(y.pos) == len(y.neg) == 1
                    and y.pos[0].is_zero() and y.neg[0].is_zero()  # y is the zero form
                    and x.pos[0].disjoint(x.neg[0])):
                self._emit({}, x.pos[0])  # charges p to the budget
                return NormalForm(x.pos, y.neg)
        # Bring both sides to the common subtrahend max(N1)+max(N2):
        # a \/ b = [ (max(P1)+max(N2)) \/ (max(P2)+max(N1)) ] - (max(N1)+max(N2)).
        pos, neg = {}, {}
        self._pairsum(pos, a.pos, b.neg)
        self._pairsum(pos, b.pos, a.neg)
        self._pairsum(neg, a.neg, b.neg)
        return NormalForm(tuple(pos), tuple(neg))

    def _products(self, xs, ys) -> tuple[Polynomial, ...]:
        """The join list of the products ``q * p``, ``ys`` outermost, each
        emitted, and counted, as it is built."""
        acc = {}
        for q in ys:
            for p in xs:
                self._emit(acc, q * p)
        return tuple(acc)

    def mul(self, node: Mul, a: NormalForm, b: NormalForm) -> NormalForm:
        pos, neg = {}, {}
        self._pairsum(pos, self._products(a.pos, b.pos), self._products(a.neg, b.neg))
        self._pairsum(neg, self._products(a.pos, b.neg), self._products(a.neg, b.pos))
        return NormalForm(tuple(pos), tuple(neg))

    def build(self, e: Expr) -> NormalForm:
        """Normal form of the core term ``e``, children before parents."""
        return fold(e, {Zero: self.zero, Var: self.var, Scale: self.scale,
                        Add: self.add, Join: self.join, Mul: self.mul})


def normal_form(e: Expr, budget: int = 1_000_000) -> NormalForm:
    """Rewrite ``e`` as a difference of joins of split-variable polynomials.

    ``budget`` caps the work of the construction, counted in emitted
    terms: each polynomial added to a join list counts its monomials plus
    one, cumulatively, and a subterm repeated in ``e`` is built, and
    counted, once.  A product counts its four pair-product lists as well as
    the two pair sums of them that form its result.  The construction is
    inherently exponential in the worst case and raises
    :class:`NormalFormBudgetError` rather than truncating.
    """
    return _Builder(budget).build(e)


def normal_form_to_expr(nf: NormalForm) -> Expr:
    """Core expression evaluating identically to ``nf`` on all assignments.

    Nodes are shared: each split symbol's ``Pos(Var v)`` or ``NegPart(Var v)``
    and each monomial's ``Mul`` chain is built once and reused at every
    occurrence.  Structure, and so the printed text and the normal form of
    the result, is that of a build with new nodes at every occurrence.
    """
    @cache
    def symbol_expr(token: str) -> Expr:
        name, sign = token[:-1], token[-1]
        return Pos(Var(name)) if sign == "+" else NegPart(Var(name))

    @cache
    def monomial_expr(mono: Monomial) -> Expr:
        return reduce(Mul, map(symbol_expr, mono))

    def poly_expr(p: Polynomial) -> Expr:
        if p.is_zero():
            return Zero()
        parts = []
        for mono, coeff in p.sorted_terms():
            base = monomial_expr(mono)
            parts.append(base if coeff == 1.0 else Scale(coeff, base))
        return reduce(Add, parts)

    pos = reduce(Join, (poly_expr(p) for p in nf.pos))
    neg = reduce(Join, (poly_expr(q) for q in nf.neg))
    return Add(pos, Scale(-1.0, neg))


# ---------------------------------------------------------------------------
# Polynomial majorant

def _majorant_join(node: Join, left: Polynomial, right: Polynomial) -> Polynomial:
    if isinstance(node.right, Zero):
        return left
    if isinstance(node.left, Zero):
        return right
    if node.right == Neg(node.left) or node.left == Neg(node.right):
        return left
    return left + right


_MAJORANT = {
    Zero: lambda node: Polynomial(),
    Var: lambda node: Polynomial.symbol(node.name),
    Scale: lambda node, child: child.scaled(abs(node.coeff)),
    Add: lambda node, left, right: left + right,
    Join: _majorant_join,
    Mul: lambda node, left, right: left * right,
}


def polynomial_majorant(e: Expr) -> Polynomial:
    """Nonnegative-coefficient polynomial ``p`` with ``|e(a)| <= p(|a|)``.

    Symbols are the plain variable names, to be bound to ``|a(v)|`` (or to
    element norms when the bound is used at the model level).  Recursion:
    variables map to themselves, scaling to ``|c|*p``, both addition and
    join to ``p+q`` (``|a \\/ b| <= |a| + |b|`` keeps the recursion inside
    the polynomial ring) and products to ``p*q``.  The joins spelling a
    positive part, negative part or absolute value are bounded tightly by
    the child's majorant (``|a \\/ 0| <= |a|`` and ``|a \\/ -a| = |a|``).
    """
    return fold(e, _MAJORANT)


def check_normal_form(e: Expr, nf: NormalForm, seed: int = 0) -> float:
    """Max relative disagreement between ``e`` and ``nf`` at 100 random points,
    coordinates uniform in [-3, 3] (``random.Random(seed)``, point by point).

    Independent oracle: direct real evaluation of ``e`` (join as
    ``np.maximum``, so a NaN propagates and a zero keeps its sign) against
    the split-variable evaluation of ``nf``, each at all points in one call,
    each difference divided by ``1 + |e|``.  Raises AssertionError beyond 1e-6,
    or at NaN: a point where either side overflows cannot be compared.
    """
    rng = random.Random(seed)
    names = variables(e)
    points = np.array([[rng.uniform(-3.0, 3.0) for _ in names] for _ in range(100)])
    a = dict(zip(names, points.T))
    lhs = eval_pointwise(e, a)
    err = np.abs(lhs - nf.evaluate(a)) / (1.0 + np.abs(lhs))
    worst = float(np.max(err, initial=0.0))
    if not worst <= 1e-6:
        raise AssertionError(f"normal form disagrees with expression: rel err {worst}")
    return worst
