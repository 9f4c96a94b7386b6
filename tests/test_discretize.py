import numpy as np
import pytest

from latalg.cylinder import CylinderGrid, generator
from latalg.discretize import (
    atomize, build_diagonal_algebra, build_partition, discrete_weight,
    discretize_function, discretize_generators, error_budget, lift_to_grid, verify_bounds,
)
from latalg.expr import Mul, Var, parse
from latalg.models import check_f_algebra_condition, check_semiprime


@pytest.fixture
def trace():
    # Worked 3-point example: one function, one weight, delta = 0.25.
    p = build_partition(0.25)
    f = np.array([0.2, 0.5, 0.9])
    w = np.array([0.3, 0.3, 0.8])
    atoms = atomize([f], w, p)
    return p, f, w, atoms


def test_build_partition_examples():
    assert build_partition(0.25).cuts.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0, 1.25]
    assert build_partition(0.5).cuts.tolist() == [0.0, 0.5, 1.0, 1.5]
    for delta in (1.0, 1.5, 0.0, -0.1):
        with pytest.raises(ValueError):
            build_partition(delta)


def test_partition_mesh_and_top_cut():
    for delta in (0.25, 0.3, 2.0 ** -5, 0.07):
        p = build_partition(delta)
        assert p.mesh <= delta + 1e-12
        assert p.cuts[-1] == 1.0 + delta
        assert p.cuts[-2] >= 1.0 - 1e-12  # value 1 sits in the top cell


def test_atomize_trace(trace):
    p, f, w, atoms = trace
    assert atoms.atom_count == 3
    assert atoms.fingerprints.tolist() == [[0, 1], [2, 1], [3, 3]]
    assert atoms.atom_of_point.tolist() == [0, 1, 2]


def test_atomize_edge_cases():
    p = build_partition(0.25)
    const = atomize([np.full(5, 0.4)], np.full(5, 0.9), p)
    assert const.atom_count == 1
    distinct = atomize([np.array([0.1, 0.3, 0.6, 0.9])], np.array([0.1, 0.3, 0.6, 0.9]), p)
    assert distinct.atom_count == 4
    with pytest.raises(ValueError):
        atomize([np.array([-0.1])], np.array([0.5]), p)
    with pytest.raises(ValueError):
        atomize([np.array([1.3])], np.array([0.5]), p)
    # NaN lies in no cell (searchsorted would place it above the top cut).
    with pytest.raises(ValueError):
        atomize([np.array([np.nan, 0.5])], np.array([0.5, 0.5]), p)
    with pytest.raises(ValueError):
        atomize([np.array([0.5])], np.array([np.nan]), p)


@pytest.mark.parametrize("delta, functions, points", [
    (0.5, 1, 40), (0.25, 3, 500), (0.125, 4, 2000), (2.0 ** -5, 2, 3000), (0.3, 6, 1),
])
def test_atomize_matches_unique_when_atoms_merge(delta, functions, points):
    # Coarse cells over random values put many points in each atom.
    rng = np.random.default_rng(points + functions)
    p = build_partition(delta)
    fns = [rng.uniform(0.0, 1.0, points) for _ in range(functions)]
    w = rng.uniform(0.0, 1.0, points)
    atoms = atomize(fns, w, p)
    stacked = np.stack([p.cell_index(v) for v in fns + [w]], axis=1)
    fingerprints, inverse = np.unique(stacked, axis=0, return_inverse=True)
    assert atoms.atom_count < points or points == 1
    assert atoms.fingerprints.dtype == fingerprints.dtype
    assert np.array_equal(atoms.fingerprints, fingerprints)
    assert np.array_equal(atoms.atom_of_point, inverse.reshape(-1))


def test_discretize_function_trace(trace):
    p, f, w, atoms = trace
    assert discretize_function(f, atoms, p).tolist() == [0.0, 0.5, 0.75]
    assert discretize_function(np.zeros(3), atoms, p).tolist() == [0.0, 0.0, 0.0]


def test_discretize_value_exactly_one():
    p = build_partition(0.25)
    atoms = atomize([np.array([1.0])], np.array([1.0]), p)
    assert discretize_function(np.array([1.0]), atoms, p).tolist() == [1.0]
    assert discrete_weight(np.array([1.0]), atoms, p).tolist() == [1.0]


def test_discretize_requires_constant_cells():
    # A single shared atom (constant inputs) rejects probes that straddle cells.
    p = build_partition(0.25)
    atoms = atomize([np.full(3, 0.4)], np.full(3, 0.9), p)
    assert atoms.atom_count == 1
    with pytest.raises(ValueError):
        discretize_function(np.array([0.2, 0.5, 0.2]), atoms, p)


def test_discrete_weight_trace_and_floor():
    p = build_partition(0.25)
    atoms = atomize([np.array([0.2, 0.9])], np.array([0.3, 0.8]), p)
    assert discrete_weight(np.array([0.3, 0.8]), atoms, p).tolist() == [0.25, 0.75]
    atoms2 = atomize([np.array([0.2])], np.array([0.1]), p)
    assert discrete_weight(np.array([0.1]), atoms2, p).tolist() == [0.25]


def test_build_diagonal_algebra(trace):
    p, f, w, atoms = trace
    weights = discrete_weight(w, atoms, p)
    algebra = build_diagonal_algebra(atoms, weights)
    assert check_semiprime(algebra)
    assert check_f_algebra_condition(algebra, 50).ok
    a0, a1 = algebra.basis(0), algebra.basis(1)
    assert np.all(algebra.product_values(a0.values, a1.values) == 0.0)
    assert algebra.product_values(a0.values, a0.values).tolist() == [0.25, 0.0, 0.0]
    with pytest.raises(Exception):
        build_diagonal_algebra(atoms, np.array([0.0, 0.5, 0.5]))


def test_verify_bounds_trace(trace):
    p, f, w, atoms = trace
    weights = discrete_weight(w, atoms, p)
    f_d = discretize_function(f, atoms, p)
    report = verify_bounds([f], [f_d], w, weights, atoms, 0.25, pair_trials=200)
    assert report.ok
    assert report.max_split_error < 0.25
    assert report.product_bound_violations == 0
    data = report.to_json()
    assert data["atoms"] == 3 and data["delta"] == 0.25
    assert data["productBoundViolations"] == 0


def test_adversarial_pair_is_tight(trace):
    # Atom indicators make |x.y| - |x*y| equal |c_t - w| on the atom, which
    # stays within delta.
    p, f, w, atoms = trace
    weights = discrete_weight(w, atoms, p)
    for j in range(atoms.atom_count):
        x = np.zeros(atoms.atom_count)
        x[j] = 1.0
        circ = lift_to_grid(weights * x * x, atoms)
        star = w * lift_to_grid(x, atoms) ** 2
        gap = np.max(np.abs(circ) - np.abs(star))
        assert gap <= 0.25 + 1e-12


def _cylinder_data(delta, r_levels=17, face_points=8):
    grid = CylinderGrid.regular(2, r_levels=r_levels, face_points=face_points)
    w = np.broadcast_to(grid.r_levels[:, None], grid.shape)
    values = [generator(v, grid).values for v in ([1.0, 0.0], [0.0, 1.0])]
    splits = []
    for val in values:
        splits.extend([np.maximum(val, 0.0), np.maximum(-val, 0.0)])
    p = build_partition(delta)
    atoms = atomize(splits, w, p)
    return grid, w, values, splits, p, atoms


def test_halving_delta_shrinks_error():
    sups = []
    for delta in (2.0 ** -4, 2.0 ** -5, 2.0 ** -6):
        _, w, _, splits, p, atoms = _cylinder_data(delta)
        errs = []
        for s in splits:
            d = discretize_function(s, atoms, p)
            errs.append(float(np.max(s.reshape(-1) - lift_to_grid(d, atoms))))
        sups.append(max(errs))
        assert max(errs) < delta
    assert sups[1] <= sups[0] and sups[2] <= sups[1]


def test_atom_refinement():
    # Halving delta only refines the fingerprints, never merges atoms.
    _, _, _, _, p1, atoms1 = _cylinder_data(2.0 ** -4)
    _, _, _, _, p2, atoms2 = _cylinder_data(2.0 ** -5)
    pairs = {}
    for point, (coarse, fine) in enumerate(zip(atoms1.atom_of_point, atoms2.atom_of_point)):
        if fine in pairs:
            assert pairs[fine] == coarse
        else:
            pairs[fine] = coarse


def test_split_parts_recombine_below_absolute_value():
    _, w, values, splits, p, atoms = _cylinder_data(2.0 ** -5)
    for i, val in enumerate(values):
        pos_d = lift_to_grid(discretize_function(splits[2 * i], atoms, p), atoms)
        neg_d = lift_to_grid(discretize_function(splits[2 * i + 1], atoms, p), atoms)
        assert np.all(pos_d + neg_d <= np.abs(val).reshape(-1) + 1e-15)


def test_monomial_approximation_improves():
    # Star-monomials versus diagonal monomials up to total degree 4: the sup
    # distance decreases monotonically under delta halving.
    exponents = [(1, 0), (2, 0), (1, 1), (2, 1), (2, 2), (3, 1)]
    distances = {exp: [] for exp in exponents}
    for delta in (2.0 ** -3, 2.0 ** -4, 2.0 ** -5):
        grid, w, values, splits, p, atoms = _cylinder_data(delta)
        weights = discrete_weight(w, atoms, p)
        coeffs = [
            discretize_function(splits[0], atoms, p) - discretize_function(splits[1], atoms, p),
            discretize_function(splits[2], atoms, p) - discretize_function(splits[3], atoms, p),
        ]
        from latalg.models import WeightedGridModel

        grid_model = WeightedGridModel(w.reshape(-1))
        algebra = build_diagonal_algebra(atoms, weights)
        for k1, k2 in exponents:
            expr = None
            for _ in range(k1):
                expr = Var("a") if expr is None else Mul(expr, Var("a"))
            for _ in range(k2):
                expr = Var("b") if expr is None else Mul(expr, Var("b"))
            on_grid = grid_model.evaluate(expr, {
                "a": grid_model.element(values[0].reshape(-1)),
                "b": grid_model.element(values[1].reshape(-1)),
            }).values
            in_algebra = lift_to_grid(algebra.evaluate(expr, {
                "a": algebra.element(coeffs[0]),
                "b": algebra.element(coeffs[1]),
            }).values, atoms)
            distances[(k1, k2)].append(float(np.max(np.abs(on_grid - in_algebra))))
    for exp, seq in distances.items():
        assert seq[1] <= seq[0] + 1e-12, (exp, seq)
        assert seq[2] <= seq[1] + 1e-12, (exp, seq)


def test_composite_error_within_budget():
    delta = 2.0 ** -5
    grid, w, values, splits, p, atoms = _cylinder_data(delta)
    weights = discrete_weight(w, atoms, p)
    discretes = [discretize_function(s, atoms, p) for s in splits]
    coeffs_a = discretes[0] - discretes[1]
    coeffs_b = discretes[2] - discretes[3]
    composite = parse("a*b + (a \\/ b)*a")
    report = verify_bounds(splits, discretes, w, weights, atoms, delta,
                           pair_trials=100, composite=composite,
                           composite_gens={"a": (values[0], coeffs_a),
                                           "b": (values[1], coeffs_b)})
    assert report.composite_observed <= report.composite_budget
    assert report.ok


def test_error_budget_recursion():
    assert error_budget(Var("x"), 0.25) == 0.25
    assert error_budget(parse("x + y"), 0.1) == pytest.approx(0.2)
    # product rule: m1*b2 + m2*b1 + delta*m1*m2 with unit magnitudes
    assert error_budget(parse("x*y"), 0.1) == pytest.approx(0.1 + 0.1 + 0.1)
    assert error_budget(parse("2*x"), 0.1) == pytest.approx(0.2)


def test_atomize_accepts_star_functions():
    from latalg.cylinder import StarFunction, constant_one

    grid = CylinderGrid.regular(1, r_levels=5, face_points=4)
    one = constant_one(grid)
    w = StarFunction(grid, np.abs(generator([1.0], grid).values))
    p = build_partition(0.25)
    atoms = atomize([one], w, p)
    assert atoms.grid_size == grid.size
    coeffs = discretize_function(one, atoms, p)
    assert np.all(coeffs == 1.0)


def test_random_composites_stay_within_budget():
    import random

    from latalg.expr import random_expr

    delta = 2.0 ** -5
    grid, w, values, splits, p, atoms = _cylinder_data(delta, r_levels=9, face_points=6)
    weights = discrete_weight(w, atoms, p)
    discretes = [discretize_function(s, atoms, p) for s in splits]
    gens = {"a": (values[0], discretes[0] - discretes[1]),
            "b": (values[1], discretes[2] - discretes[3])}
    for i in range(10):
        e = random_expr(random.Random(40 + i), ("a", "b"), 7)
        report = verify_bounds(splits, discretes, w, weights, atoms, delta,
                               pair_trials=10, composite=e, composite_gens=gens)
        assert report.composite_observed <= report.composite_budget, (i, report.to_json())


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("delta", [2.0 ** -4, 2.0 ** -5, 0.1])
@pytest.mark.parametrize("scaled", [False, True])
def test_discretize_generators_matches_pipeline(n, delta, scaled):
    # One call equals atomize + discrete_weight + discretize_function bit for
    # bit.  Scaled generators are passed scaled; the reference scales their
    # splits instead, which is the same because scale > 0.
    grid = CylinderGrid.regular(max(n, 1), r_levels=9, face_points=4)
    w = np.broadcast_to(grid.r_levels[:, None], grid.shape)
    vectors = list(np.eye(n))
    if n > 1:
        vectors[-1] = np.linspace(-1.0, 0.5, n) / np.sum(np.abs(np.linspace(-1.0, 0.5, n)))
    values = [generator(vec, grid).values for vec in vectors]
    scale = 1.0 / (1.0 + delta) if scaled else 1.0
    discrete = discretize_generators([scale * v for v in values], w, delta)

    partition = build_partition(delta)
    splits = [scale * part for v in values for part in (np.maximum(v, 0.0), np.maximum(-v, 0.0))]
    atoms = atomize(splits, w, partition)
    discretes = [discretize_function(s, atoms, partition) for s in splits]
    assert np.array_equal(discrete.atoms.atom_of_point, atoms.atom_of_point)
    assert np.array_equal(discrete.atoms.fingerprints, atoms.fingerprints)
    assert all(np.array_equal(a, b) for a, b in zip(discrete.splits, splits, strict=True))
    assert all(np.array_equal(a, b) for a, b in zip(discrete.discretes, discretes, strict=True))
    assert np.array_equal(discrete.weights, discrete_weight(w, atoms, partition))
    expected = np.array([discretes[2 * i] - discretes[2 * i + 1] for i in range(n)])
    assert np.array_equal(discrete.coefficients, expected.reshape(n, atoms.atom_count))
    assert discrete.coefficients.flags.c_contiguous
