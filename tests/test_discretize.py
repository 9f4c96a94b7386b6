import numpy as np
import pytest

from latalg.cylinder import CylinderGrid, generator
import latalg.discretize as discretize_module
from latalg.discretize import (
    AtomDecomposition, atomize, build_partition, discrete_weight,
    discretize_function, discretize_generators, error_budget, lift_to_grid, verify_bounds,
)
from latalg.expr import Mul, Var, parse
from latalg.models import DiagonalAlgebra, check_f_algebra_condition, check_semiprime
from latalg.seeding import seeded_rng


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
    # 1 / delta just above 2 once took one cell too few: mesh delta + 1.7e-11.
    for delta in (0.25, 0.3, 2.0 ** -5, 0.07, 1.0 / (2.0 + 1e-10)):
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


def _unique_reference(fns, w, p):
    # Cells by binary search, atoms by np.unique over the stacked columns.
    cells = np.stack([np.searchsorted(p.cuts, np.asarray(v, dtype=float).reshape(-1), side="right") - 1
                      for v in [*fns, w]], axis=1)
    fingerprints, inverse = np.unique(cells, axis=0, return_inverse=True)
    return fingerprints, inverse.reshape(-1)


def _assert_atoms_equal(atoms, reference):
    fingerprints, inverse = reference
    assert atoms.fingerprints.dtype == fingerprints.dtype
    assert atoms.atom_of_point.dtype == inverse.dtype
    assert np.array_equal(atoms.fingerprints, fingerprints)
    assert np.array_equal(atoms.atom_of_point, inverse)


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
    assert atoms.atom_count < points or points == 1
    _assert_atoms_equal(atoms, _unique_reference(fns, w, p))


@pytest.mark.parametrize("delta", [2.0 ** -k for k in range(1, 21)]
                         + [0.1, 0.3, 0.9, 1.0 / (2.0 + 1e-10), 1e-6])
def test_cell_index_equals_a_binary_search_of_the_cuts(delta):
    # The arithmetic guess is corrected once each way against the real cuts;
    # values on every cut and one ulp either side of it are where it could slip.
    p = build_partition(delta)
    below, top = p.cuts[:-1], p.cuts[-1]
    values = np.concatenate([below, np.nextafter(below, -np.inf), np.nextafter(below, np.inf),
                             [0.0, -0.0, np.nextafter(top, 0.0)],
                             np.random.default_rng(0).uniform(0.0, top, 10 ** 5)])
    values = values[(values >= 0.0) & (values < top)]
    got, want = p.cell_index(values), np.searchsorted(p.cuts, values, side="right") - 1
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_cell_index_keeps_the_type_of_scalars_and_arrays():
    p = build_partition(0.25)
    for value in (0.5, 0, np.float64(0.999), np.array(0.25), -0.0, [0.5], np.array([[0.1, 1.0]]), []):
        got = p.cell_index(value)
        want = np.searchsorted(p.cuts, np.asarray(value, dtype=float), side="right") - 1
        assert type(got) is type(want) and got.dtype == want.dtype and np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)
    for value in (np.nan, -1e-300, -0.5, 1.25, np.inf, [0.5, np.nan], np.array([[0.5, 1.3]])):
        with pytest.raises(ValueError):
            p.cell_index(value)


def test_atomize_re_ranks_the_key_and_keeps_the_order(monkeypatch):
    # Radix 1,000,001 fits three digits in an int64; after a re-rank, the rank
    # and two more.  So 9 columns (8 functions and the weight) take three
    # re-ranks.  Each column takes 0, 1 or one random level, so atoms merge
    # on early columns and split on later ones.
    p = build_partition(1e-6)
    rng = np.random.default_rng(8)
    fns = [rng.choice([0.0, 1.0, rng.uniform()], 3000) for _ in range(8)]
    w = rng.choice([0.0, 1.0, rng.uniform()], 3000)
    unique, re_ranks = np.unique, []
    monkeypatch.setattr(np, "unique", lambda a, **kw: re_ranks.append(a.shape) or unique(a, **kw))
    atoms = atomize(fns, w, p)
    monkeypatch.undo()
    assert re_ranks == [(3000,)] * 3
    assert 1 < atoms.atom_count < 3000
    _assert_atoms_equal(atoms, _unique_reference(fns, w, p))


def test_atomize_splits_every_point_of_the_n3_cylinder_grid():
    # The dense_grids shape: 33 radial levels x 3,176 sphere points, 6 splits.
    grid = CylinderGrid.regular(3, r_levels=33, face_points=24)
    w = np.broadcast_to(grid.r_levels[:, None], grid.shape)
    values = [generator(basis, grid).values for basis in np.eye(3)]
    splits = [part for v in values for part in (np.maximum(v, 0.0), np.maximum(-v, 0.0))]
    p = build_partition(2.0 ** -7)
    atoms = atomize(splits, w, p)
    assert atoms.atom_count == grid.size == 33 * 3176
    _assert_atoms_equal(atoms, _unique_reference(splits, w, p))


def test_atomize_with_no_points_or_no_split_functions():
    p = build_partition(0.25)
    empty = atomize([np.empty(0), np.empty(0)], np.empty(0), p)
    assert empty.atom_count == empty.grid_size == 0
    _assert_atoms_equal(empty, _unique_reference([np.empty(0), np.empty(0)], np.empty(0), p))
    w = np.random.default_rng(0).uniform(0.0, 1.0, 500)
    weight_only = atomize([], w, p)
    assert weight_only.atom_count == 4
    _assert_atoms_equal(weight_only, _unique_reference([], w, p))


def test_atomize_refuses_functions_of_different_lengths():
    p = build_partition(0.25)
    for fns, w in (([np.zeros(3)], np.zeros(4)), ([np.zeros(1)], np.zeros(4)), ([np.zeros(4)], np.zeros(1))):
        with pytest.raises(ValueError, match="one value per grid point"):
            atomize(fns, w, p)


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
    algebra = DiagonalAlgebra(weights)
    assert check_semiprime(algebra)
    assert check_f_algebra_condition(algebra, 50).ok
    a0, a1 = algebra.basis(0), algebra.basis(1)
    assert np.all(algebra.product_values(a0.values, a1.values) == 0.0)
    assert algebra.product_values(a0.values, a0.values).tolist() == [0.25, 0.0, 0.0]
    with pytest.raises(Exception):
        DiagonalAlgebra(np.array([0.0, 0.5, 0.5]))


def test_verify_bounds_trace(trace):
    p, f, w, atoms = trace
    weights = discrete_weight(w, atoms, p)
    f_d = discretize_function(f, atoms, p)
    report = verify_bounds([f], [f_d], w, weights, atoms, 0.25)
    assert report.ok
    assert report.max_split_error < 0.25
    assert report.product_bound_atoms == report.open_atoms == 0
    data = report.to_json()
    assert data["atoms"] == 3 and data["delta"] == 0.25
    assert data["productBoundAtoms"] == data["openAtoms"] == 0


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


def test_verify_bounds_refuses_a_missing_discrete(trace):
    # zip() would check one split of the two and report ok.
    p, f, w, atoms = trace
    weights = discrete_weight(w, atoms, p)
    with pytest.raises(ValueError, match="2 originals but 1 discretes"):
        verify_bounds([f, f], [discretize_function(f, atoms, p)], w, weights, atoms, 0.25)


def test_verify_bounds_refuses_weights_not_one_per_atom(trace):
    # One weight would broadcast over the three atoms.
    p, f, w, atoms = trace
    f_d = discretize_function(f, atoms, p)
    with pytest.raises(ValueError, match="one weight per atom"):
        verify_bounds([f], [f_d], w, np.array([0.5]), atoms, 0.25)


def test_verify_bounds_refuses_w_not_one_per_grid_point(trace):
    # One sample of w would broadcast over the three grid points.
    p, f, w, atoms = trace
    weights = discrete_weight(w, atoms, p)
    f_d = discretize_function(f, atoms, p)
    with pytest.raises(ValueError, match="one w value per grid point"):
        verify_bounds([f], [f_d], np.array([0.3]), weights, atoms, 0.25)


def test_verify_bounds_refuses_a_delta_that_is_not_positive(trace):
    p, f, w, atoms = trace
    weights = discrete_weight(w, atoms, p)
    f_d = discretize_function(f, atoms, p)
    for delta in (0.0, -0.25, float("nan")):
        with pytest.raises(ValueError, match="delta must be positive"):
            verify_bounds([f], [f_d], w, weights, atoms, delta)


def _violates(w, weights, atoms, delta, x, y):
    """The pair check on grid points: both products lifted to every point."""
    circ = lift_to_grid(weights * x * y, atoms)
    star = w * lift_to_grid(x, atoms) * lift_to_grid(y, atoms)
    return bool(np.any(np.abs(circ) > np.abs(star) + delta + 1e-12))


def _pointwise_violations(w, weights, atoms, delta, pair_trials, seed):
    """How many of ``pair_trials`` random pairs with sup norm <= 1 violate."""
    rng = seeded_rng(seed, 31)
    return sum(_violates(w, weights, atoms, delta, rng.uniform(-1, 1, atoms.atom_count),
                         rng.uniform(-1, 1, atoms.atom_count)) for _ in range(pair_trials))


def _adversarial_case(seed):
    """Atoms of 1 to many points, weights up to 2*delta above the least
    sampled |w| of their atom; NaN samples and negative weights in some."""
    rng = np.random.default_rng(seed)
    atom_count = int(rng.integers(1, 40))
    shares = rng.dirichlet(np.full(atom_count, 0.3))
    extra = rng.choice(atom_count, int(rng.integers(0, 5 * atom_count)), p=shares)
    atom_of_point = rng.permutation(np.concatenate([np.arange(atom_count), extra]))
    atoms = AtomDecomposition(atom_of_point, np.arange(atom_count)[:, None])
    delta = float(rng.choice([0.25, 0.1, 2.0 ** -5]))
    w = rng.uniform(-1.0, 1.0, atom_of_point.size) if seed % 4 == 0 else rng.uniform(0.0, 1.0, atom_of_point.size)
    if seed % 3 == 0:
        w[rng.random(w.size) < 0.3] = np.nan
    least = np.array([np.min(np.abs(v[~np.isnan(v)]), initial=np.inf) for v in
                      (w[atom_of_point == a] for a in range(atom_count))])
    least[np.isinf(least)] = 0.5  # an atom of NaN samples only
    weights = least + rng.uniform(-delta, 2.0 * delta, atom_count)
    if seed % 2 == 0:
        weights[rng.random(atom_count) < 0.5] *= -1.0
    return w, weights, atoms, delta


def test_pair_check_matches_pointwise_formula():
    # Random pairs violate only where an atom is counted, and the counted
    # atoms are exactly those whose indicator pair x = y = e_a violates.
    counted = 0
    for seed in range(240):
        w, weights, atoms, delta = _adversarial_case(seed)
        report = verify_bounds([], [], w, weights, atoms, delta)
        if _pointwise_violations(w, weights, atoms, delta, 12, seed):
            assert report.product_bound_atoms > 0, seed
        indicators = np.eye(atoms.atom_count)
        failing = sum(_violates(w, weights, atoms, delta, e_a, e_a) for e_a in indicators)
        assert report.product_bound_atoms == failing, seed
        assert report.open_atoms >= failing, seed
        assert report.ok == (failing == 0), seed
        counted += failing > 0
    assert counted >= 160  # the check is not vacuous


def test_exact_count_never_lifts_to_the_grid(monkeypatch):
    calls = []
    lift = discretize_module.lift_to_grid
    monkeypatch.setattr(discretize_module, "lift_to_grid",
                        lambda coeffs, atoms: calls.append(1) or lift(coeffs, atoms))
    delta = 2.0 ** -5
    grid, w, values, splits, p, atoms = _cylinder_data(delta)
    weights = np.minimum(discrete_weight(w, atoms, p) + 2.0 * delta, 1.0)  # opens most atoms
    discretes = [discretize_function(s, atoms, p) for s in splits]
    gens = {"a": (values[0], discretes[0] - discretes[1]), "b": (values[1], discretes[2] - discretes[3])}
    report = verify_bounds(splits, discretes, w, weights, atoms, delta,
                           composite=parse("a*b"), composite_gens=gens)
    assert report.product_bound_atoms > 0
    assert len(calls) == len(splits) + 1


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
        algebra = DiagonalAlgebra(weights)
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
    report = verify_bounds(splits, discretes, w, weights, atoms, delta, composite=composite,
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
                               composite=e, composite_gens=gens)
        assert report.composite_observed <= report.composite_budget, (i, report.to_json())


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("delta", [2.0 ** -4, 2.0 ** -5, 0.1, 2.0 ** -3, 0.3])
@pytest.mark.parametrize("scaled", [False, True])
def test_discretize_generators_matches_pipeline(n, delta, scaled):
    # One call equals atomize + discrete_weight + discretize_function over the
    # whole grid bit for bit.  Scaled generators are passed scaled; the
    # reference scales their splits instead, which is the same because
    # scale > 0.  At 33 radial levels the radial cells merge atoms unless
    # delta = 2^-5, at delta = 0.3 the sphere classes merge too, and with no
    # generators all sphere points are one class.
    for r_levels, face_points in ((9, 4), (33, 5)):
        grid = CylinderGrid.regular(max(n, 1), r_levels=r_levels, face_points=face_points)
        w = np.broadcast_to(grid.r_levels[:, None], grid.shape)
        vectors = list(np.eye(n))
        if n > 1:
            vectors[-1] = np.linspace(-1.0, 0.5, n) / np.sum(np.abs(np.linspace(-1.0, 0.5, n)))
        values = [generator(vec, grid).values for vec in vectors]
        scale = 1.0 / (1.0 + delta) if scaled else 1.0
        discrete = discretize_generators([scale * v[0] for v in values], grid, delta)

        partition = build_partition(delta)
        splits = [scale * part for v in values for part in (np.maximum(v, 0.0), np.maximum(-v, 0.0))]
        atoms = atomize(splits, w, partition)
        discretes = [discretize_function(s, atoms, partition) for s in splits]
        merged = n == 0 or delta == 0.3 or (r_levels == 33 and delta != 2.0 ** -5)
        assert (atoms.atom_count < grid.size) == merged
        assert np.array_equal(discrete.atoms.atom_of_point, atoms.atom_of_point)
        assert np.array_equal(discrete.atoms.fingerprints, atoms.fingerprints)
        assert all(np.array_equal(a, b) for a, b in zip(discrete.splits, splits, strict=True))
        assert all(np.array_equal(a, b) for a, b in zip(discrete.discretes, discretes, strict=True))
        assert np.array_equal(discrete.weights, discrete_weight(w, atoms, partition))
        expected = np.array([discretes[2 * i] - discretes[2 * i + 1] for i in range(n)])
        assert np.array_equal(discrete.coefficients, expected.reshape(n, atoms.atom_count))
        assert discrete.coefficients.flags.c_contiguous


def test_discretize_generators_refuses_values_not_one_per_sphere_point():
    grid = CylinderGrid.regular(2, r_levels=5, face_points=4)
    with pytest.raises(ValueError, match="one value per sphere point"):
        discretize_generators([generator([1.0, 0.0], grid).values], grid, 0.25)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_generator_discretization_opens_no_atom(n):
    # Each weight is the lower end c_t <= r of its radial cell, or the first
    # cut c_1 < delta + 1e-12 in cell 0, so verify_bounds finds no open atom.
    # The last delta once gave c_1 = delta + 1.7e-11.
    grid = CylinderGrid.regular(n, r_levels=33, face_points=5)
    w = np.broadcast_to(grid.r_levels[:, None], grid.shape)
    for delta in (2.0 ** -7, 2.0 ** -5, 2.0 ** -3, 0.1, 0.3, 0.5, 0.9, 1.0 / (2.0 + 1e-10)):
        values = [grid.sphere_points @ basis / (1.0 + delta) for basis in np.eye(n)]
        discrete = discretize_generators(values, grid, delta)
        report = verify_bounds(discrete.splits, discrete.discretes, w, discrete.weights,
                               discrete.atoms, delta)
        assert report.open_atoms == report.product_bound_atoms == 0, delta


def test_partition_refuses_more_cells_than_the_budget(monkeypatch):
    # 1e-8 would allocate about 10^8 cuts; a subnormal delta overflows the count.
    assert build_partition(1e-6).cuts.shape == (1_000_002,)
    monkeypatch.setattr(np, "linspace", lambda *args: pytest.fail("allocated"))
    for delta in (1e-7, 1e-8, 1e-300, 5e-324):
        with pytest.raises(ValueError, match="needs more than the budget of 1771561 cells"):
            build_partition(delta)
