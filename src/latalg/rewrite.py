"""Symbolic rewrites of lattice-algebra terms.

Three transforms live here:

* :func:`product_kill` replaces every product node by 0, yielding a
  product-free (hence positively homogeneous) term.  On any model whose
  product is identically zero, a term and its killed form evaluate
  identically.

* :func:`normal_form` rewrites a term as a difference of two joins of
  constant-free polynomials in the split variables ``v+`` and ``v-``
  (which evaluate as the positive and negative part of ``v``).  The
  recursion is deterministic but can blow up exponentially; a configurable
  term budget aborts cleanly rather than truncating.

* :func:`polynomial_majorant` produces a nonnegative-coefficient,
  constant-free polynomial ``p`` with ``|e(a)| <= p(|a|)`` for every real
  assignment ``a`` (the same bound holds in any model with a
  submultiplicative lattice norm, evaluated at element norms).

:func:`zero_simplify` is a purely structural cleanup used after
product-kill: it removes neutral zeros (``0 + e``, ``1*e``, ``c*0``,
``0 \\/ 0``) and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Mapping

import numpy as np

from .expr import (
    _REBUILD, Add, Expr, Join, Mul, Neg, NegPart, Pos, Scale, Var, Zero, eval_real, fold,
)

__all__ = [
    "Polynomial", "NormalForm", "NormalFormBudgetError",
    "product_kill", "zero_simplify", "normal_form", "normal_form_to_expr",
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
    def zero(cls) -> "Polynomial":
        return cls()

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

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def scaled(self, factor: float) -> "Polynomial":
        return Polynomial({m: factor * c for m, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out: dict[Monomial, float] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                out[mono] = out.get(mono, 0.0) + c1 * c2
        return Polynomial(out)

    def split_signs(self) -> tuple["Polynomial", "Polynomial"]:
        """Write ``self = p - n`` with ``p`` and ``n`` having positive coefficients."""
        pos = {m: c for m, c in self.terms.items() if c > 0}
        neg = {m: -c for m, c in self.terms.items() if c < 0}
        return Polynomial(pos), Polynomial(neg)

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

    def split_env(self, assignment: Mapping[str, "np.ndarray | float"]) -> dict:
        env = {}
        for name, value in assignment.items():
            env[split_pos(name)] = np.maximum(value, 0.0)
            env[split_neg(name)] = np.maximum(-np.asarray(value, dtype=float), 0.0)
        return env

    def evaluate_split(self, env: Mapping[str, "np.ndarray | float"]):
        """Evaluate with split symbols bound directly."""
        pos = reduce(np.maximum, (p.evaluate(env) for p in self.pos))
        neg = reduce(np.maximum, (q.evaluate(env) for q in self.neg))
        return pos - neg

    def evaluate(self, assignment: Mapping[str, "np.ndarray | float"]):
        return self.evaluate_split(self.split_env(assignment))

    def to_json(self) -> dict:
        def poly(p: Polynomial):
            return [{"monomial": list(m), "coeff": c} for m, c in p.sorted_terms()]

        return {"pos": [poly(p) for p in self.pos], "neg": [poly(q) for q in self.neg]}

    @classmethod
    def from_json(cls, data: dict) -> "NormalForm":
        def poly(items) -> Polynomial:
            terms: dict[Monomial, float] = {}
            for item in items:
                mono = tuple(item["monomial"])
                terms[mono] = terms.get(mono, 0.0) + float(item["coeff"])
            return Polynomial(terms)

        return cls(tuple(poly(p) for p in data["pos"]), tuple(poly(q) for q in data["neg"]))


# ---------------------------------------------------------------------------
# Product kill and structural cleanup

_PRODUCT_KILL = {**_REBUILD, Mul: lambda node, left, right: Zero()}


def product_kill(e: Expr) -> Expr:
    """Copy of ``e`` with every product node replaced by 0.

    The output is product-free, hence positively homogeneous, and equals
    the scaled limit ``e(eps*a)/eps`` as ``eps`` decreases to 0.
    """
    return fold(e, _PRODUCT_KILL)


def _simplify_scale(node: Scale, child: Expr) -> Expr:
    if isinstance(child, Zero) or node.coeff == 1.0:
        return child
    return Scale(node.coeff, child)


def _simplify_add(node: Add, left: Expr, right: Expr) -> Expr:
    if isinstance(left, Zero):
        return right
    if isinstance(right, Zero):
        return left
    return Add(left, right)


def _simplify_join(node: Join, left: Expr, right: Expr) -> Expr:
    if isinstance(left, Zero) and isinstance(right, Zero):
        return left
    return Join(left, right)


_ZERO_SIMPLIFY = {**_REBUILD, Scale: _simplify_scale, Add: _simplify_add, Join: _simplify_join}


def zero_simplify(e: Expr) -> Expr:
    """Remove neutral zeros structurally: 0+e, e+0, 1*e, c*0, 0 \\/ 0.

    No lattice identities beyond neutral elements are used; in particular
    ``e \\/ 0`` is left alone.
    """
    return fold(e, _ZERO_SIMPLIFY)


# ---------------------------------------------------------------------------
# Normal form

class _Builder:
    """Normal-form combinators with a global term budget.

    The product recursion follows a fixed order: first a single polynomial
    into a difference of joins (splitting its coefficients by sign), then a
    pure join (rewritten as a positive join minus a polynomial using the
    negative split of its first entry), then the general difference.  Pair
    enumerations run in lexicographic order throughout.  Join lists are
    deduplicated order-preservingly (join is idempotent, so this is exact)
    and the budget is enforced while lists are built, not after.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.used = 0

    def _emit(self, acc: dict, poly: Polynomial) -> None:
        """Append ``poly`` to the join list ``acc`` (a dict, so insertion-ordered)
        unless it is there already."""
        if poly in acc:
            return
        acc[poly] = None
        self.used += 1 + len(poly.terms)
        if self.used > self.budget:
            raise NormalFormBudgetError(self.budget, self.used)

    def _pairsum(self, acc: dict, xs, ys) -> None:
        for p in xs:
            for q in ys:
                self._emit(acc, p + q)

    def zero(self) -> NormalForm:
        z = Polynomial.zero()
        return NormalForm((z,), (z,))

    def var(self, name: str) -> NormalForm:
        return NormalForm((Polynomial.symbol(split_pos(name)),),
                          (Polynomial.symbol(split_neg(name)),))

    def add(self, a: NormalForm, b: NormalForm) -> NormalForm:
        # max(P1)+max(P2) = max over pairs of sums, and likewise for the
        # subtrahends.
        pos, neg = {}, {}
        self._pairsum(pos, a.pos, b.pos)
        self._pairsum(neg, a.neg, b.neg)
        return NormalForm(tuple(pos), tuple(neg))

    def neg(self, a: NormalForm) -> NormalForm:
        return NormalForm(a.neg, a.pos)

    def sub(self, a: NormalForm, b: NormalForm) -> NormalForm:
        return self.add(a, self.neg(b))

    def scale(self, a: NormalForm, coeff: float) -> NormalForm:
        if coeff == 0.0:
            return self.zero()
        scaled_pos = tuple(p.scaled(abs(coeff)) for p in a.pos)
        scaled_neg = tuple(q.scaled(abs(coeff)) for q in a.neg)
        if coeff > 0:
            return NormalForm(scaled_pos, scaled_neg)
        return NormalForm(scaled_neg, scaled_pos)

    def join(self, a: NormalForm, b: NormalForm) -> NormalForm:
        # Bring both sides to the common subtrahend max(N1)+max(N2):
        # a \/ b = [ (max(P1)+max(N2)) \/ (max(P2)+max(N1)) ] - (max(N1)+max(N2)).
        pos, neg = {}, {}
        self._pairsum(pos, a.pos, b.neg)
        self._pairsum(pos, b.pos, a.neg)
        self._pairsum(neg, a.neg, b.neg)
        return NormalForm(tuple(pos), tuple(neg))

    def join_many(self, items: list[NormalForm]) -> NormalForm:
        return reduce(self.join, items)

    def poly_times_join(self, x: Polynomial, joins: tuple[Polynomial, ...]) -> NormalForm:
        # x >= 0 split: x*max(U) = max(x_p*u) - max(x_n*u) since split
        # monomials are pointwise nonnegative.
        x_pos, x_neg = x.split_signs()
        pos, neg = {}, {}
        for u in joins:
            self._emit(pos, x_pos * u)
        for u in joins:
            self._emit(neg, x_neg * u)
        return NormalForm(tuple(pos), tuple(neg))

    def poly_times_nf(self, x: Polynomial, b: NormalForm) -> NormalForm:
        return self.sub(self.poly_times_join(x, b.pos), self.poly_times_join(x, b.neg))

    def join_times_nf(self, joins: tuple[Polynomial, ...], b: NormalForm) -> NormalForm:
        if len(joins) == 1:
            return self.poly_times_nf(joins[0], b)
        # Rewrite max(w_1..w_p) = max(w1_pos, w_2 + w1_neg, ...) - w1_neg,
        # first entry split by coefficient sign; the leading join is then a
        # pointwise-nonnegative element.
        w1_pos, w1_neg = joins[0].split_signs()
        lifted = (w1_pos,) + tuple(w + w1_neg for w in joins[1:])
        positive = NormalForm(lifted, (Polynomial.zero(),))
        prod_pos = self.join_many([self.poly_times_nf(u, positive) for u in b.pos])
        prod_neg = self.join_many([self.poly_times_nf(v, positive) for v in b.neg])
        correction = self.poly_times_nf(w1_neg, b)
        return self.sub(self.sub(prod_pos, prod_neg), correction)

    def mul(self, a: NormalForm, b: NormalForm) -> NormalForm:
        return self.sub(self.join_times_nf(a.pos, b), self.join_times_nf(a.neg, b))

    def build(self, e: Expr) -> NormalForm:
        """Normal form of the core term ``e``, children before parents."""
        return fold(e, {
            Zero: lambda node: self.zero(),
            Var: lambda node: self.var(node.name),
            Scale: lambda node, a: self.scale(a, node.coeff),
            Add: lambda node, a, b: self.add(a, b),
            Join: lambda node, a, b: self.join(a, b),
            Mul: lambda node, a, b: self.mul(a, b),
        })


def normal_form(e: Expr, budget: int = 1_000_000) -> NormalForm:
    """Rewrite ``e`` as a difference of joins of split-variable polynomials.

    ``budget`` caps the work of the construction, counted in emitted
    terms: each polynomial added to a join list counts its monomials plus
    one, cumulatively, and a subterm repeated in ``e`` is built, and
    counted, once.  The construction is inherently exponential in the worst
    case and raises :class:`NormalFormBudgetError` rather than truncating.
    """
    return _Builder(budget).build(e)


def normal_form_to_expr(nf: NormalForm) -> Expr:
    """Core expression evaluating identically to ``nf`` on all assignments."""

    def symbol_expr(token: str) -> Expr:
        name, sign = token[:-1], token[-1]
        return Pos(Var(name)) if sign == "+" else NegPart(Var(name))

    def monomial_expr(mono: Monomial) -> Expr:
        factors = [symbol_expr(tok) for tok in mono]
        return reduce(Mul, factors)

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
    Zero: lambda node: Polynomial.zero(),
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


def check_normal_form(e: Expr, nf: NormalForm, points: int = 100, seed: int = 0,
                      scale: float = 3.0, rel_tol: float = 1e-6) -> float:
    """Max relative disagreement between ``e`` and ``nf`` at random points.

    Independent oracle: direct real evaluation of ``e`` against the
    split-variable evaluation of ``nf``.  Raises AssertionError beyond
    ``rel_tol``.
    """
    import random as _random

    from .expr import variables

    rng = _random.Random(seed)
    names = variables(e)
    worst = 0.0
    for _ in range(points):
        a = {n: rng.uniform(-scale, scale) for n in names}
        lhs = eval_real(e, a)
        rhs = float(nf.evaluate(a))
        err = abs(lhs - rhs) / (1.0 + abs(lhs))
        worst = max(worst, err)
    if worst > rel_tol:
        raise AssertionError(f"normal form disagrees with expression: rel err {worst}")
    return worst
