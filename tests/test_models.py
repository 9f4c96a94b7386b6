import hashlib
import json
import random

import numpy as np
import pytest

from latalg.expr import Mul, Var, parse, random_expr, variables
from latalg.models import (
    ConditionReport, DiagonalAlgebra, FiniteModel, ModelError, WeightedGridModel,
    ZeroProductModel, check_f_algebra_condition, check_fstar, check_semiprime,
    check_submultiplicative, model_suite, random_diagonal, random_weighted_grid,
    square_zero_witness,
)
from latalg.rewrite import polynomial_majorant, product_kill


class BrokenOffDiagonalModel(FiniteModel):
    """Negative control: product smears mass across neighbouring points."""

    def product_values(self, a, b):
        return a * np.roll(b, 1)


class InflatingModel(FiniteModel):
    """Negative control: weight 2 breaks submultiplicativity."""

    def product_values(self, a, b):
        return 2.0 * a * b


class SmearingModel(FiniteModel):
    """Negative control: squares are nonzero, but a point's product also reads
    its neighbour's, so disjoint elements can multiply to nonzero."""

    def product_values(self, a, b):
        return a * b + np.roll(a, 1) * b


class SignedSquareModel(FiniteModel):
    """Negative control: one point whose product drops negative values, so
    elements of opposite signs multiply to zero although their meet is not."""

    def product_values(self, a, b):
        return np.maximum(a * b, 0.0)


class SummingModel(FiniteModel):
    """Negative control: every point holds the product of the coordinate sums,
    1 on basis pairs but above sup|a| * sup|b| for spread-out elements."""

    def product_values(self, a, b):
        return np.full(a.shape, np.sum(a) * np.sum(b))


def test_eval_zero_product_kills_squares():
    m = ZeroProductModel(4)
    x = m.element([1.0, -2.0, 3.0, 0.5])
    out = m.evaluate(Mul(Var("x"), Var("x")), {"x": x})
    assert np.array_equal(out.values, np.zeros(4))


def test_eval_weighted_grid_example():
    m = WeightedGridModel([0.5])
    out = m.evaluate(Mul(Var("x"), Var("y")), {"x": m.element([2.0]), "y": m.element([3.0])})
    assert out.values.tolist() == [3.0]


def test_identity_vanishes_in_any_model():
    # pos(x)*neg(x) vanishes on the reals (dense sampling first), so it must
    # vanish in every model.
    from latalg.ball import vanishes_on_reals

    e = parse("pos(x)*neg(x)")
    assert vanishes_on_reals(e, grid_per_axis=201, samples=2000).vanishes
    rng = np.random.default_rng(3)
    for model in (WeightedGridModel([0.1, 0.9, 1.0]), DiagonalAlgebra([0.4, 1.0]),
                  ZeroProductModel(5)):
        for _ in range(50):
            x = model.random_element(rng)
            out = model.evaluate(e, {"x": x})
            assert out.sup_norm() <= 1e-12


def test_model_mismatch_rejected():
    a = WeightedGridModel([0.5, 0.5])
    b = WeightedGridModel([0.5, 0.5])
    with pytest.raises(ModelError):
        a.evaluate(Var("x"), {"x": b.element([1.0, 2.0])})
    with pytest.raises(ModelError):
        a.evaluate(Var("x"), {})
    with pytest.raises(ModelError):
        a.element([1.0])


def test_weight_validation():
    with pytest.raises(ModelError):
        WeightedGridModel([0.5, 1.5])
    with pytest.raises(ModelError):
        WeightedGridModel([-0.1])
    with pytest.raises(ModelError):
        DiagonalAlgebra([0.5, 0.0])
    for kind in (DiagonalAlgebra, WeightedGridModel):  # NaN compares false both ways
        with pytest.raises(ModelError):
            kind([float("nan"), 0.5])


def test_f_algebra_condition_clean_models():
    assert check_f_algebra_condition(DiagonalAlgebra([0.3, 1.0, 0.7]), 100, seed=1).ok
    assert check_f_algebra_condition(WeightedGridModel([0.0, 0.5, 1.0]), 100, seed=2).ok


def test_f_algebra_condition_broken_model():
    report = check_f_algebra_condition(BrokenOffDiagonalModel(6), 100, seed=3)
    assert not report.ok
    assert report.violations[0]["residual"] > 0


def test_f_algebra_condition_violations_are_pinned():
    # Trials and residuals at seeds 0-5: a reordered random draw changes the digest.
    violations = [check_f_algebra_condition(BrokenOffDiagonalModel(7), 30, seed).violations
                  for seed in range(6)]
    digest = hashlib.sha256(json.dumps(violations).encode()).hexdigest()
    assert digest == "b6bd14bd2e953d51cb50c3b45e87e757542736d9dccde00fda750697bf6b6287"


def test_semiprime_examples():
    assert check_semiprime(DiagonalAlgebra([0.3, 1.0])) is True
    weighted = WeightedGridModel([0.0, 0.5])
    assert check_semiprime(weighted) is False
    witness = square_zero_witness(weighted)
    assert witness.values.tolist() == [1.0, 0.0]
    assert check_semiprime(ZeroProductModel(3)) is False


def test_fstar_examples_and_agreement():
    assert check_fstar(DiagonalAlgebra([0.2, 0.9])) is True
    assert check_fstar(WeightedGridModel([0.0, 0.5])) is False
    rng = np.random.default_rng(10)
    for i in range(20):
        size = int(rng.integers(1, 9))
        model = (random_weighted_grid(rng, size) if i % 2 else random_diagonal(rng, size))
        assert check_fstar(model, 50, seed=i) == check_semiprime(model, 50, seed=i)
    assert check_fstar(ZeroProductModel(4)) == check_semiprime(ZeroProductModel(4))
    # Off f-algebras the two part: these models are semiprime, and with no
    # square-zero basis element each fails one of the two laws.  The smearing model fails the first (a disjoint pair with a
    # nonzero product): its random pairs multiply to nonzero.  The one-point
    # signed-square model fails the second (a zero product, a nonzero meet):
    # one element of each of its disjoint pairs is zero.
    for model in (SmearingModel(4), SignedSquareModel(1)):
        assert square_zero_witness(model) is None and check_semiprime(model)
        assert check_fstar(model) is False


def test_submultiplicative():
    assert check_submultiplicative(WeightedGridModel(np.ones(5)), 100, seed=4)
    assert not check_submultiplicative(InflatingModel(5), 100, seed=5)
    # Basis pairs multiply to 1 in the summing model: only a random pair fails.
    summing = SummingModel(5)
    assert all(summing.product_values(summing.basis(i).values, summing.basis(j).values).max() == 1.0
               for i in range(5) for j in range(5))
    assert not check_submultiplicative(summing, 100, seed=5)
    rng = np.random.default_rng(6)
    for i in range(100):
        model = random_weighted_grid(rng, int(rng.integers(1, 10)))
        assert check_submultiplicative(model, 10, seed=i)


def test_submultiplicative_fails_a_nan_product():
    class NaNModel(FiniteModel):
        def product_values(self, a, b):
            return np.full(self.size, np.nan)

    assert not check_submultiplicative(NaNModel(3), 10, seed=0)


def test_zero_product_collapse_bit_exact():
    m = ZeroProductModel(6)
    rng = np.random.default_rng(12)
    prng = random.Random(12)
    for _ in range(200):
        e = random_expr(prng, ("x", "y"), 8)
        assignment = {v: m.random_element(rng) for v in variables(e)}
        lhs = m.evaluate(e, assignment).values
        rhs = m.evaluate(product_kill(e), assignment).values
        assert np.array_equal(lhs, rhs)


def test_identity_transport_suite():
    identities = [
        parse("pos(x)*neg(x)"),
        parse("(x \\/ y) + (x /\\ y) - x - y"),
        parse("abs(x*y) - abs(x)*abs(y)"),
        parse("((x \\/ y)*pos(z)) - ((x*pos(z)) \\/ (y*pos(z)))"),
    ]
    rng = np.random.default_rng(99)
    models = model_suite(seed=99)
    for e in identities:
        majorant = polynomial_majorant(e)
        names = variables(e)
        for model in models:
            for _ in range(5):
                assignment = {v: model.random_element(rng) for v in names}
                value = model.evaluate(e, assignment).sup_norm()
                bound = float(majorant.evaluate({v: a.sup_norm() for v, a in assignment.items()}))
                assert value <= 1e-9 * (1.0 + bound)


def test_model_suite_returns_a_fresh_list():
    first = model_suite(seed=4)
    kinds = [type(model) for model in first]
    first.clear()
    second = model_suite(seed=4)
    assert [type(model) for model in second] == kinds and len(second) == 41
    assert second is not model_suite(seed=4)


def test_condition_report_shape():
    report = check_f_algebra_condition(DiagonalAlgebra([1.0]), 5)
    assert isinstance(report, ConditionReport)
    assert report.trials == 5 and report.ok
