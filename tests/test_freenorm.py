import functools
import hashlib
import itertools
import json
import random
from pathlib import Path

import numpy as np
import pytest

from latalg.expr import (
    Mul, Scale, Var, Zero, contains_product, eval_pointwise, parse, random_expr, variables,
)
from latalg.ball import _CHUNK, REAL_GRID_CAP, generator_vectors
from latalg.cylinder import CylinderGrid, generator
from latalg.discretize import (
    atomize, build_partition, discrete_weight, discretize_function, discretize_generators,
)
from latalg.freenorm import (
    ContractionError, OperatorIntoAlgebra, SearchConfig, _atom_values,
    evaluate_operator, majorant_upper_bound, norm_sandwich,
    operator_lower_bound, product_free_lower_bound,
)
from latalg.models import DiagonalAlgebra
from latalg.seeding import seeded_rng
import latalg.freenorm as freenorm

FAST = SearchConfig(search_iters=300)


def _tables(weights, columns, counts, cells):
    """Each source's ``(weights, columns)`` in a fixed table of one weight row
    per column row, in turn: its ``counts[i]`` rows, each with its first
    ``cells[i]`` weights (the rest pad it to the widest source)."""
    cut = np.cumsum(counts)[:-1]
    return [(w[:, :k], c) for w, c, k in zip(np.split(weights, cut), np.split(columns, cut), cells, strict=True)]


def _radial_cells(n, delta_list, sources):
    """The radial cells of each of the ``sources`` of the fixed rows in
    dimension ``n``: 1 for the signs, then each mesh parameter's, as
    discretize_generators counts them (none when the grid budget skips them)."""
    if sources == 1:
        return [1]
    grid = CylinderGrid.regular(n, r_levels=freenorm.R_LEVELS, face_points=freenorm.FACE_POINTS)
    return [1] + [discretize_generators(list(grid.sphere_points.T / (1.0 + delta)), grid, delta).radial_cells
                  for delta in delta_list]


def _fixed_tables(n, seed, delta_list):
    """The ``(weights, columns)`` of each source of the fixed-rows entry, without
    the padding: the tables the search considered one at a time before they were
    stacked, in turn."""
    weights, counts, columns = freenorm._fixed_atoms(n, seed, delta_list)
    return _tables(np.repeat(weights, counts, axis=0), columns, counts,
                   _radial_cells(n, delta_list, len(counts)))


def _expanded(weights, columns):
    """The rows ``(weight, column...)`` of a table of factors, in the order the
    search considers its atoms: entry ``(s, t)`` is row ``s * k + t``."""
    return np.column_stack([weights.reshape(-1), np.repeat(columns, weights.shape[1], axis=0)])


def test_lower_bound_generator():
    value, op = operator_lower_bound(Var("v"), {"v": [1.0]}, FAST)
    assert value == 1.0
    assert op.algebra.size == 1 and abs(op.columns[0, 0]) == 1.0


def test_lower_bound_generator_square():
    value, op = operator_lower_bound(Mul(Var("v"), Var("v")), {"v": [1.0]}, FAST)
    assert value == 1.0


def test_lower_bound_zero():
    value, _ = operator_lower_bound(Zero(), {}, FAST)
    assert value == 0.0


def test_upper_bound_examples():
    assert majorant_upper_bound(Var("v"), {"v": 1.0}) == 1.0
    assert majorant_upper_bound(Mul(Var("v"), Var("v")), {"v": 1.0}) == 1.0
    assert majorant_upper_bound(parse("v*w + (v \\/ w)"), {"v": 1.0, "w": 1.0}) == 3.0


def test_sandwich_examples():
    s = norm_sandwich(Var("v"), {"v": [1.0]}, FAST)
    assert s.lower == 1.0 and s.upper == 1.0
    s2 = norm_sandwich(Mul(Var("v"), Var("v")), {"v": [1.0]}, FAST)
    assert s2.upper == 1.0 and s2.lower >= 0.95
    s3 = norm_sandwich(Zero(), {}, FAST)
    assert s3.lower == 0.0 and s3.upper == 0.0
    data = s.to_json()
    assert set(data) >= {"lower", "upper", "witness"}


def test_sandwich_soundness_random():
    for i in range(20):
        e = random_expr(random.Random(400 + i), ("v", "w"), 7)
        s = norm_sandwich(e, {"v": [1, 0], "w": [0, 1]},
                          SearchConfig(search_iters=150, seed=i))
        assert s.lower <= s.upper + 1e-12 * (1.0 + s.upper)


def test_contraction_certificate_enforced():
    # A NaN column is no contraction either: its bound would read nan.
    algebra = DiagonalAlgebra([1.0])
    for column in (1.5, np.nan):
        op = OperatorIntoAlgebra(algebra, np.array([[column]]))
        with pytest.raises(ContractionError):
            op.certify()
        with pytest.raises(ContractionError):
            evaluate_operator(Var("v"), {"v": [1.0]}, op)


def test_compiled_term_matches_evaluate_operator():
    # The term folded once over a batch of atoms gives, for every atom, the
    # value evaluate_operator gives its one-atom operator, bit for bit, also
    # for non-basis generators, whose images are rounded sums.
    rng = np.random.default_rng(17)
    for i in range(30):
        n = 1 + i % 4
        e = random_expr(random.Random(600 + i), ("v", "w"), 7)
        gens = {name: rng.uniform(-1.0, 1.0, n) for name in ("v", "w")}
        atoms = np.column_stack([1.0 - rng.random(12), rng.uniform(-1.0, 1.0, (12, n))])
        expected = [evaluate_operator(e, gens, OperatorIntoAlgebra(DiagonalAlgebra(a[:1]), a[1:, None]))
                    for a in atoms]
        values = _atom_values(e, generator_vectors(e, gens, n)[0], atoms[:, :1], atoms[:, 1:])
        assert values.shape == (12, 1) and values[:, 0].tolist() == expected
    atoms[3, 1] = 1.5
    with pytest.raises(ContractionError):
        _atom_values(e, generator_vectors(e, gens, n)[0], atoms[:, :1], atoms[:, 1:])


def test_factored_tables_evaluate_as_their_expanded_rows():
    # Every fixed table is evaluated on its factors, one row per sphere class
    # with only the products broadcast against the radial weights.  In C
    # order the values equal those of the expanded rows bit for bit, and the
    # search keeps the first expanded row of the best value: NaN never wins,
    # and where the k_r radial cells of a class tie (terms without products)
    # the first cell of the first best class wins.  Generators on and off the
    # basis, terms without variables, and overflows to inf - inf = NaN.
    rng = np.random.default_rng(24)
    config = SearchConfig(search_iters=0)
    # big is NaN at |x0| > 0.9, else 0.  The product beside it is inf where
    # w x0^2 > 0.11: a tie of classes that reach it at different radial cells.
    big = "(1e308*x0 + 1e308*x0) - (1e308*x0 + 1e308*x0)"
    special = [parse(big), parse(f"x0 \\/ ({big})"), parse(f"(4e154*x0)*(4e154*x0) + {big}"),
               parse("(2e155*x0)*(2e155*x0) - (2e155*x0)*(2e155*x0)"),
               Zero(), Mul(Zero(), Zero()), Scale(-0.5, Mul(Mul(Zero(), Zero()), Zero()))]
    cases = []
    for i in range(320):
        n = 1 + i % 4
        names = tuple(f"x{j}" for j in range(n))
        e = special[i // 4] if i < 4 * len(special) else random_expr(
            random.Random(2400 + i), names, 7, allow_product=i % 3 != 0)
        gens = dict(zip(names, np.eye(n) if i % 2 else rng.uniform(-1.0, 1.0, (n, n))))
        cases.append((n, e, gens))
    fixed = {n: _fixed_tables(n, 0, config.delta_list) for n in range(1, 5)}
    ties = first_cell_wins = nan_cases = 0
    with np.errstate(all="ignore"):
        for n, e, gens in cases:
            vectors = generator_vectors(e, gens, n)[0]
            values, rows = [], []
            for weights, columns in fixed[n]:
                factored = _atom_values(e, vectors, weights, columns)
                expanded = _expanded(weights, columns)
                rowwise = _atom_values(e, vectors, expanded[:, :1], expanded[:, 1:])
                assert factored.shape == (len(columns), weights.shape[1])
                assert factored.tobytes() == rowwise.tobytes()
                if weights.shape[1] > 1 and not contains_product(e):
                    assert np.array_equal(factored, np.repeat(factored[:, :1], weights.shape[1], axis=1),
                                          equal_nan=True)
                    ties += 1
                values.append(factored.reshape(-1))
                rows.append(expanded)
            starts = np.cumsum([0, *map(len, rows)])
            values, rows = np.concatenate(values), np.concatenate(rows)
            nan_cases += bool(np.isnan(values).any())
            if np.isnan(values).all():  # no candidate at all
                with pytest.raises(ValueError, match="no candidate"):
                    operator_lower_bound(e, gens, config, n)
                continue
            first = int(np.argmax(np.where(np.isnan(values), -1.0, values)))
            _, op = operator_lower_bound(e, gens, config, n)
            winner = np.r_[op.algebra.weights, op.columns[:, 0]]
            assert not np.isnan(values[first]) and winner.tobytes() == rows[first].tobytes()
            table = int(np.searchsorted(starts, first, side="right")) - 1
            k_r = fixed[n][table][0].shape[1]
            if k_r > 1 and not contains_product(e):
                assert (first - starts[table]) % k_r == 0
                first_cell_wins += 1
    assert ties and first_cell_wins and nan_cases
    weights, columns = fixed[2][1]
    broken = columns.copy()
    broken[-1, -1] = 1.5
    with pytest.raises(ContractionError):
        _atom_values(parse("x0 * x1"), {"x0": np.eye(2)[0], "x1": np.eye(2)[1]}, weights, broken)


def _product_atom_values(e, vectors, weights, columns):
    """``_atom_values`` as it was before basis generators read their column:
    every generator by its stacked product with each row."""
    images = {name: np.matmul(vec, columns[:, :, None]) for name, vec in vectors.items()}
    values = eval_pointwise(e, images, lambda a, b: weights * a * b)
    return np.abs(np.broadcast_to(values, weights.shape))


def test_basis_generators_read_their_column_bit_for_bit():
    # The cached fixed table of n = 1 to 4 and one drawn window, with terms on
    # basis generators alone and beside a generator off the basis.
    delta_list = SearchConfig().delta_list
    tables = []
    for n in range(1, 5):
        weights, counts, columns = freenorm._ROWS.get(
            ("fixed", n, None, delta_list), lambda n=n: freenorm._fixed_atoms(n, 0, delta_list))
        tables.append((n, np.repeat(weights, counts, axis=0), columns))
    atoms = freenorm._drawn_atoms(0, 3, range(4)).reshape(-1, 4)
    tables.append((3, atoms[:, :1], atoms[:, 1:]))
    rng = random.Random(3200)
    with np.errstate(all="ignore"):
        for n, weights, columns in tables:
            names = tuple(f"x{j}" for j in range(n))
            off = np.linspace(-0.5, 0.5, n)
            for i in range(12):
                e = random_expr(rng, (*names, "y"), 8)
                gens = {**dict(zip(names, np.eye(n))), "y": np.eye(n)[-1] if i % 2 else off}
                vectors = generator_vectors(e, {v: gens[v] for v in variables(e)}, n)[0]
                values = _atom_values(e, vectors, weights, columns)
                assert values.tobytes() == _product_atom_values(e, vectors, weights, columns).tobytes()


def test_discretized_operator_certified():
    # discretize_generators gives a contractive many-atom operator whose
    # atoms are the fixed rows after the sign rows, one table per mesh
    # parameter; off the basis one of them can win.
    grid = CylinderGrid.regular(2, r_levels=freenorm.R_LEVELS, face_points=freenorm.FACE_POINTS)
    deltas = (2.0 ** -4, 2.0 ** -5)
    _, *mesh = _fixed_tables(2, 0, deltas)
    for delta, table in zip(deltas, mesh, strict=True):
        discrete = discretize_generators(
            [grid.sphere_points @ basis / (1.0 + delta) for basis in np.eye(2)], grid, delta)
        op = OperatorIntoAlgebra(DiagonalAlgebra(discrete.weights), discrete.coefficients)
        op.certify()
        assert op.algebra.size > 1 and np.all(op.algebra.weights > 0.0)
        assert np.array_equal(_expanded(*table), np.column_stack([discrete.weights, discrete.coefficients.T]))
    gens = {"u": [0.3647975870165865, 0.355302514932059, 0.31102339878434215],
            "v": [-0.2385536385835234, -0.4228005422815786, 0.44646578044606333]}
    config = SearchConfig(search_iters=0)
    value, best = operator_lower_bound(parse("u*v*u"), gens, config)
    signs, *mesh = [_expanded(*table) for table in _fixed_tables(3, 0, config.delta_list)]
    row = np.r_[best.algebra.weights, best.columns[:, 0]]
    assert best.algebra.size == 1 and not (signs == row).all(axis=1).any()
    assert any((table == row).all(axis=1).any() for table in mesh)
    assert value > operator_lower_bound(parse("u*v*u"), gens, SearchConfig(search_iters=0, delta_list=()))[0]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_discretized_atom_table_matches_full_grid_pipeline(monkeypatch, n):
    # At the default config the one fold of the fixed rows holds the sign
    # rows, then for each mesh parameter the rows of atomize + discrete_weight
    # + discretize_function over the whole grid.
    calls, real_atom_values = [], freenorm._atom_values

    def record(e, vectors, weights, columns):
        calls.append((weights, columns))
        return real_atom_values(e, vectors, weights, columns)

    monkeypatch.setattr(freenorm, "_atom_values", record)
    names = [f"x{i}" for i in range(n)]
    config = SearchConfig(search_iters=0)
    operator_lower_bound(parse(" \\/ ".join(names)), dict(zip(names, np.eye(n))), config)
    grid = CylinderGrid.regular(n, r_levels=freenorm.R_LEVELS, face_points=freenorm.FACE_POINTS)
    w = np.broadcast_to(grid.r_levels[:, None], grid.shape)
    (weights, columns), = calls
    counts = freenorm._fixed_atoms(n, 0, config.delta_list)[1]
    cells = _radial_cells(n, config.delta_list, len(counts))
    tables = [_expanded(*table) for table in _tables(weights, columns, counts, cells)]
    assert len(tables) == 1 + len(config.delta_list)
    assert np.array_equal(tables[0], np.column_stack([np.ones(2 ** n), freenorm._sign_rows(n, 0, 41)]))
    for table, delta in zip(tables[1:], config.delta_list):
        partition = build_partition(delta)
        values = [1.0 / (1.0 + delta) * generator(basis, grid).values for basis in np.eye(n)]
        splits = [part for v in values for part in (np.maximum(v, 0.0), np.maximum(-v, 0.0))]
        atoms = atomize(splits, w, partition)
        discretes = [discretize_function(s, atoms, partition) for s in splits]
        expected = np.column_stack([discrete_weight(w, atoms, partition)]
                                   + [discretes[2 * i] - discretes[2 * i + 1] for i in range(n)])
        assert np.array_equal(table, expected)


def test_monotone_in_iterations():
    # Budgets that end inside a round (15 atoms per round at n = 2) as well.
    e = parse("v*w + (v \\/ w)")
    gens = {"v": [1, 0], "w": [0, 1]}
    values = [operator_lower_bound(e, gens, SearchConfig(search_iters=n, seed=3))[0]
              for n in (0, 7, 50, 123, 400)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_monotone_in_delta_list():
    e = parse("v*v + v")
    gens = {"v": [1.0]}
    short = operator_lower_bound(e, gens, SearchConfig(search_iters=50, delta_list=(2.0 ** -5,)))[0]
    longer = operator_lower_bound(
        e, gens, SearchConfig(search_iters=50, delta_list=(2.0 ** -5, 2.0 ** -6)))[0]
    assert longer >= short


@pytest.mark.parametrize("n", [4, 7])
def test_bad_mesh_parameter_refused_with_or_without_the_mesh_source(n):
    # From n = 7 on the cylinder grid exceeds the budget and the mesh source is
    # skipped; its parameters are refused all the same.
    gens = {f"x{i}": np.eye(n)[i] for i in range(n)}
    config = SearchConfig(search_iters=5, delta_list=(1.5,))
    with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\), got 1.5"):
        norm_sandwich(parse("x0 \\/ x1"), gens, config, n)


def test_scaling_law_with_replayed_witness():
    e = parse("v*v + (v \\/ 0)")
    gens = {"v": [1.0]}
    value, op = operator_lower_bound(e, gens, FAST)
    for lam in (0.5, 2.0, -1.5):
        scaled = evaluate_operator(Scale(lam, e), gens, op)
        assert scaled == pytest.approx(abs(lam) * value, rel=1e-12)


def test_embedding_replay_does_not_decrease():
    # A witness found in dimension 1 extends by a zero column to dimension 2
    # and replays to the same value, so the two-dimensional bound dominates.
    for text in ("v", "v*v", "pos(v) + v*v"):
        e = parse(text)
        value1, op1 = operator_lower_bound(e, {"v": [1.0]}, FAST)
        embedded = OperatorIntoAlgebra(
            op1.algebra, np.vstack([op1.columns, np.zeros_like(op1.columns)]))
        replayed = evaluate_operator(e, {"v": [1.0, 0.0]}, embedded)
        assert replayed == pytest.approx(value1, rel=1e-12)
        value2, _ = operator_lower_bound(e, {"v": [1.0, 0.0]}, FAST)
        assert max(value2, replayed) >= value1 - 1e-12


def test_majorant_submultiplicative_structurally():
    from latalg.rewrite import polynomial_majorant

    rng = random.Random(77)
    for _ in range(20):
        f = random_expr(rng, ("v", "w"), 5)
        g = random_expr(rng, ("v", "w"), 5)
        assert polynomial_majorant(Mul(f, g)) == polynomial_majorant(f) * polynomial_majorant(g)


def test_product_free_lower_examples():
    gens = {"v": [1, 0], "w": [0, 1]}
    value = product_free_lower_bound(parse("abs(v) \\/ abs(w)"), gens,
                                     tuple_size=2, iters=100)
    assert value >= 2.0 - 1e-9
    assert product_free_lower_bound(Var("v"), {"v": [1.0]}, 1, 50) == 1.0
    assert product_free_lower_bound(parse("v - v"), {"v": [1.0]}, 2, 50) == 0.0


def test_product_free_rejects_products():
    with pytest.raises(ValueError):
        product_free_lower_bound(Mul(Var("v"), Var("v")), {"v": [1.0]})


def test_product_free_respects_upper_bound():
    gens = {"v": [1, 0], "w": [0, 1]}
    rng = random.Random(55)
    for _ in range(10):
        e = random_expr(rng, ("v", "w"), 6, allow_product=False)
        lower = product_free_lower_bound(e, gens, tuple_size=3, iters=150)
        upper = majorant_upper_bound(e, {"v": 1.0, "w": 1.0})
        assert lower <= upper * (1 + 1e-12) + 1e-12


def test_operator_apply_shape_checked():
    op = OperatorIntoAlgebra(DiagonalAlgebra([0.5, 1.0]), np.array([[1.0, -0.5]]))
    with pytest.raises(ValueError):
        op.apply([1.0, 2.0])
    element = op.apply([2.0])
    assert element.values.tolist() == [2.0, -1.0]


EYE4 = {f"x{i + 1}": np.eye(4)[i] for i in range(4)}
EYE11 = {f"x{i + 1}": np.eye(11)[i] for i in range(11)}

# (term, generators, search config, floor, witness atoms, sha256 prefix of
# the witness JSON).  The floor is the bound of the search that drew
# operators of up to 8 atoms (at n = 11, the majorant upper bound); the
# one-atom search must reach it.  The cases cover n = 1..4, n = 11 where
# 2**n > SIGN_PATTERN_CAP and the sign rows are sampled (every one attains
# the floor, so the digest pins the first sampled row), non-basis
# generators, zero leaves, products, and sign and moved winners
# (test_discretized_operator_certified has a discretized one,
# test_first_round_of_draws_alone a drawn one).
GOLDEN = [
    ('x1*x1',
     {'x1': [1.0]},
     dict(search_iters=300),
     1.0, 1, 'c1d1f111ea052316'),
    ('x1*x2 + (x1 \\/ x2)',
     {'x1': [1, 0], 'x2': [0, 1]},
     dict(search_iters=400, seed=7),
     2.0, 1, '6f9c60a57f050216'),
    ('v*w + (v \\/ w)',
     {'v': [0.5, 0.5], 'w': [0.3, -0.7]},
     dict(search_iters=400, seed=1),
     1.0, 1, '05718ce77fa7dd08'),
    ('(x*y - z) \\/ (0.5*(x*z) + y)',
     {'x': [1, 0, 0], 'y': [0, 1, 0], 'z': [0, 0, 1]},
     dict(search_iters=300, seed=11),
     2.0, 1, 'eaa3f35bb3a916dd'),
    ('x1*x2*x3 - abs(x1)*x4 + (x2 \\/ x4)',
     EYE4,
     dict(search_iters=250, seed=3),
     3.0, 1, '4011a688f5ed596e'),
    ('pos(a*b) + 1.5*(c \\/ d)',
     {'a': [0.1, -0.4, 0.25, 0.25], 'b': [0.3, 0.3, -0.2, 0.2], 'c': [-0.5, 0.125, 0.0, 0.375], 'd': [0.05, 0.6, -0.15, 0.2]},
     dict(search_iters=250, seed=4),
     1.5, 1, '89ce76feed5382fb'),
    ('x*y + neg(z) - 0.75*x',
     {'x': [0.4, -0.6, 0.0], 'y': [0.1, 0.2, 0.7], 'z': [-0.3, 0.3, 0.4]},
     dict(search_iters=200, seed=9, delta_list=(0.0625,)),
     1.23046875, 1, 'f749761b5780463e'),
    ('x*(0) + (0) \\/ y + 0*y',
     {'x': [1, 0], 'y': [0.25, -0.75]},
     dict(search_iters=120, seed=6),
     1.0, 1, '05718ce77fa7dd08'),
    ('0',
     {},
     dict(search_iters=50),
     0.0, 1, 'c1d1f111ea052316'),
    ('v*v*v - w',
     {'v': [0.6, -0.2, 0.2], 'w': [0.1, 0.1, -0.8]},
     dict(search_iters=300, seed=-3, delta_list=()),
     1.8, 1, 'f749761b5780463e'),
    ('v*w \\/ (v + w)',
     {'v': [0.5, -0.5], 'w': [0.25, 0.75]},
     dict(search_iters=60, seed=4294967304, delta_list=()),
     0.933262570360213, 1, '6f9c60a57f050216'),
    ('(w \\/ (w \\/ v) \\/ w * (v * v)) + w * v',
     {'v': [0.2739233746429086], 'w': [-0.4604265724722594]},
     dict(search_iters=200, seed=0, delta_list=()),
     0.45860999916358947, 1, '74c99b4b98874ca8'),
    ('w + w + w + (w + v * v) + (w \\/ w) + (-1.4684907630962236*(v \\/ w) + (w \\/ w))',
     {'v': [-0.17613413012497814, -0.047262000889459234, -0.2718179889644719], 'w': [0.06173517130314021, 0.18846578666979238, 0.24505199805408817]},
     dict(search_iters=200, seed=30, delta_list=()),
     3.6982488501148927, 1, '06927a47eaa7745e'),
    ('(0 + w \\/ -1.0696309208926817*(w \\/ w)) * (0 + (0 \\/ v)) * (v * -0.9214777657641968*w)',
     {'v': [0.45415110296200456, 0.2679320906355993], 'w': [-0.3740292532117979, 0.3269880859307448]},
     dict(search_iters=200, seed=41, delta_list=()),
     0.030711114176074892, 1, 'a916f0af388885c4'),
    ('w * (0 \\/ v)',
     {'v': [0.19161512792441573, 0.22244622305572168, 0.03193630678948334], 'w': [0.31563273076007525, -0.17544429472509346, 0.09794889550014492]},
     dict(search_iters=200, seed=50),
     0.1083518746126132, 1, 'c2ddc9b72807a940'),
    ('(-1.771489136924004*(v \\/ v) \\/ w + v \\/ 0 + v) + 0.5744812753840596*(-0.4635444223995897*w * (w * w))',
     {'v': [-0.007363810711807139, -0.19663246213856977], 'w': [-0.23143221879620413, 0.48515714634220275]},
     dict(search_iters=200, seed=73, delta_list=()),
     0.5272442841282304, 1, 'be19d179ccca5c7c'),
    ('w * v * (w \\/ w)',
     {'v': [-0.1433541592369011, -0.17343547658502367, 0.08212522626206348, 0.09216587936382215], 'w': [0.2165822011576018, 0.12574499791341937, 0.2134311847343508, 0.22364172162207263]},
     dict(search_iters=200, seed=75, delta_list=()),
     0.08696805513163941, 1, '92bbb62098e704dc'),
    ('(v + w * v) * (w \\/ v * v)',
     {'v': [0.06254773330233349, 0.19860690048478774, 0.13784284512259676, -0.13739640500470407], 'w': [-0.09991685754438728, 0.18677672269813095, -0.24736734771721264, 0.16061420919138314]},
     dict(search_iters=30, seed=7, delta_list=()),
     0.07382837591385012, 1, '56266e408acd3a1a'),
    (' + '.join(f'abs({name})' for name in EYE11),
     EYE11,
     dict(search_iters=100, seed=0),
     11.0, 1, 'a518a5445e68a015'),
]


@pytest.mark.parametrize("text, gens, config, floor, atoms, digest", GOLDEN)
def test_lower_bound_golden(text, gens, config, floor, atoms, digest):
    found, op = operator_lower_bound(parse(text), gens, SearchConfig(**config))
    blob = json.dumps(op.to_json(), sort_keys=True).encode()
    assert found >= floor
    assert op.algebra.size == atoms
    assert hashlib.sha256(blob).hexdigest()[:16] == digest
    assert evaluate_operator(parse(text), gens, op) == found


def test_search_dimension_budget():
    # A round holds 5(n + 1) atoms of n + 1 entries: n = 594 fits the grid
    # budget, n = 595 is refused before any search array is built.
    config = SearchConfig(search_iters=1, delta_list=())
    value, _ = operator_lower_bound(Var("x"), {"x": np.eye(594)[0]}, config)
    assert value == 1.0
    with pytest.raises(ValueError, match="budget"):
        operator_lower_bound(Var("x"), {"x": np.eye(595)[0]}, config)


def test_first_round_of_draws_alone():
    # The term overflows to inf - inf = NaN at every sign and mesh atom, so
    # no fixed row wins and each round holds the draws alone until a drawn
    # atom keeps both products finite; the first such atom wins with 0.0.
    # At seed 1 every atom of round 0 overflows too.
    e = parse("(2e155*x)*(2e155*x) - (2e155*x)*(2e155*x)")
    for seed in range(4):
        with np.errstate(all="ignore"):
            value, op = operator_lower_bound(e, {"x": [1.0]}, SearchConfig(search_iters=10, seed=seed))
        row = np.r_[op.algebra.weights, op.columns[:, 0]]
        draws = freenorm._drawn_atoms(seed, 1, range(2)).reshape(-1, 2)
        assert value == 0.0 and (draws == row).all(axis=1).any()


def _sandwich_bytes(e, gens, config):
    s = norm_sandwich(e, gens, config)
    return s.lower, s.upper, json.dumps(s.witness.to_json(), sort_keys=True)


def test_cached_rows_give_the_cold_results_bit_for_bit():
    # Each case once after clearing the row cache, then all again warm, in
    # the opposite order: bounds and witnesses must not move in any bit.
    cases = [(parse(text), gens, SearchConfig(**config)) for text, gens, config, *_ in GOLDEN]
    for i in range(120):
        n = 1 + i % 4
        names = tuple(f"x{j + 1}" for j in range(n))
        e = random_expr(random.Random(900 + i), names, 6)
        cases.append((e, dict(zip(names, np.eye(n))),
                      SearchConfig(search_iters=500, seed=i % 3)))
    cold = []
    for case in cases:
        freenorm._ROWS.clear()
        cold.append(_sandwich_bytes(*case))
    warm = [_sandwich_bytes(*case) for case in reversed(cases)][::-1]
    assert warm == cold


def test_cached_rows_are_read_only(monkeypatch):
    freenorm._ROWS.clear()
    seen, real_atom_values = [], freenorm._atom_values

    def record(e, vectors, weights, columns):
        seen.append((weights, columns))
        return real_atom_values(e, vectors, weights, columns)

    monkeypatch.setattr(freenorm, "_atom_values", record)
    # The weights, row counts and columns of the sign and mesh rows as one
    # entry, then the draws of the first block of rounds, 6000 // 45 = 133 of
    # them, whose first 3 are the one window of the ascent's 3 rounds (no
    # round beats the sign atoms' value 1).  The fold of the fixed rows reads
    # the cached columns; its weights are expanded per call.
    operator_lower_bound(parse("x * y"), {"x": [1, 0], "y": [0, 1]},
                         SearchConfig(search_iters=40, delta_list=(2.0 ** -4,)))
    entries = list(freenorm._ROWS._tables.values())
    assert list(freenorm._ROWS._tables) == [("fixed", 2, None, (2.0 ** -4,)), ("draws", 0, 2, 0)]
    assert [len(tables) for tables in entries] == [3, 1] and len(seen) == 2
    assert [table.shape for table in entries[0]] == [(2, 17), (2,), (24, 2)] and seen[0][1] is entries[0][2]
    assert entries[1][0].shape == (133, 9, 3)
    for table in (table for tables in entries for table in tables):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.5


def test_draws_are_cached_once_per_block_of_rounds():
    # Windows start at term-specific rounds, but each is a view of its
    # block's table: at n = 2 a block holds 6000 // 45 = 133 rounds, and
    # 2,000 atoms span at most ceil(2000 / 9) = 223 rounds, two blocks.
    freenorm._ROWS.clear()
    for s in range(12):
        e = random_expr(random.Random(1000 + s), ("u", "v"), 6)
        gens = dict(zip(variables(e), np.random.default_rng(s).uniform(-0.5, 0.5, (2, 2))))
        operator_lower_bound(e, gens, SearchConfig(search_iters=2000), dimension=2)
    draws = {key: tables for key, tables in freenorm._ROWS._tables.items() if key[0] == "draws"}
    assert set(draws) <= {("draws", 0, 2, 0), ("draws", 0, 2, 1)}
    assert [table.shape for tables in draws.values() for table in tables] == [(133, 9, 3)] * len(draws)


def test_fixed_rows_are_shared_by_every_seed_below_the_sign_cap(monkeypatch):
    # No n = 4 fixed row reads the seed: three seeds build them once.  From
    # 2**n > SIGN_PATTERN_CAP on the sign rows are drawn from it.
    built, real = [], freenorm._fixed_atoms
    monkeypatch.setattr(freenorm, "_fixed_atoms", lambda *args: built.append(args) or real(*args))
    freenorm._ROWS.clear()
    e = parse("x0 \\/ x3")
    for seed in range(3):
        operator_lower_bound(e, {"x0": [1, 0, 0, 0], "x3": [0, 0, 0, 1]},
                             SearchConfig(search_iters=20, seed=seed))
    assert [args[0] for args in built] == [4]
    gens = {"x0": np.eye(11)[0]}
    for seed in range(2):
        operator_lower_bound(parse("x0"), gens, SearchConfig(search_iters=0, seed=seed))
    assert [args[:2] for args in built[1:]] == [(11, 0), (11, 1)]


BASE_ROWS = dict(search_iters=40, seed=0, delta_list=(2.0 ** -5,))


@pytest.mark.parametrize("change", [
    dict(seed=1), dict(delta_list=(2.0 ** -4,)), dict(delta_list=()), dict(search_iters=80),
    dict(delta_list=(2.0 ** -5, 2.0 ** -6)), dict(delta_list=[2.0 ** -5, 2.0 ** -6]),
])
def test_each_config_field_keys_the_rows(monkeypatch, change):
    # With the base config's rows cached, the changed config must use the
    # rows it uses on a cleared cache, and those differ from the base's (an
    # empty delta_list keys a fixed entry of the sign rows alone, a larger
    # search_iters reads more rounds of draws, and a delta_list given as a
    # list keys the same entry as the tuple).  The first fold holds the fixed
    # rows: one mesh parameter more appends its rows.
    gens = {"x": [1, 0, 0], "y": [0, 1, 0], "z": [0, 0, 1]}
    e = parse("(x * y) \\/ z")
    real_atom_values = freenorm._atom_values

    def rows_used(config, clear):
        if clear:
            freenorm._ROWS.clear()
        tables = []

        def record(e, vectors, weights, columns):
            tables.append(_expanded(weights, columns))
            return real_atom_values(e, vectors, weights, columns)

        monkeypatch.setattr(freenorm, "_atom_values", record)
        operator_lower_bound(e, gens, config)
        monkeypatch.setattr(freenorm, "_atom_values", real_atom_values)
        return tables

    def same(a, b):
        return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))

    changed = SearchConfig(**{**BASE_ROWS, **change})
    base = rows_used(SearchConfig(**BASE_ROWS), clear=True)
    cold = rows_used(changed, clear=True)
    rows_used(SearchConfig(**BASE_ROWS), clear=True)
    warm = rows_used(changed, clear=False)
    assert same(warm, cold)
    if len(change.get("delta_list", ())) == 2:
        assert np.array_equal(cold[0][:len(base[0])], base[0]) and len(cold[0]) > len(base[0])
    else:
        assert not same(cold, base)


def test_row_cache_evicts_least_recently_used_within_its_budget():
    cache, small = freenorm._RowCache(budget=300), 100 - freenorm._RowCache.OVERHEAD
    built = []

    def tables(*sizes):
        def build():
            built.append(sizes)
            return tuple(np.zeros(size) for size in sizes)
        return build

    for key in "abc":
        cache.get(key, tables(small))  # charged 100 each
    assert cache.entries == 300
    cache.get("a", tables(small))  # a hit makes "a" the most recent
    cache.get("d", tables(small - 20, 20))  # charged 100 together; evicts "b", the least recent
    assert built == [(small,)] * 3 + [(small - 20, 20)] and list(cache._tables) == ["c", "a", "d"]
    big = cache.get("e", tables(small, 201))  # charged 301: built, returned, evicts nothing
    assert [table.shape for table in big] == [(small,), (201,)]
    assert not any(table.flags.writeable for table in big)
    assert list(cache._tables) == ["c", "a", "d"] and cache.entries == 300
    cache.get("e", tables(small, 201))
    assert built[-2:] == [(small, 201)] * 2


def test_row_cache_stays_within_the_grid_budget(monkeypatch):
    # Kept as factors, the n = 5 fixed rows hold 101,512 entries (2.07 M
    # expanded) and the n = 6 ones 766,536: both are cached beside the n <= 4
    # entries, and repeated n = 4, 5 and 6 searches build no row; the n = 594
    # round holds about 1.06 M.
    def search(n):
        names = [f"x{i}" for i in range(n)]
        operator_lower_bound(parse(" \\/ ".join(names)), dict(zip(names, np.eye(n))),
                             SearchConfig(search_iters=20))

    freenorm._ROWS.clear()
    for n in range(1, 5):
        search(n)
    kept = list(freenorm._ROWS._tables)
    search(5)
    search(6)
    assert freenorm._ROWS.entries <= REAL_GRID_CAP
    assert set(kept) <= set(freenorm._ROWS._tables)
    for n, entries in ((5, 101_512), (6, 766_536)):
        fixed = [key for key in freenorm._ROWS._tables if key[:2] == ("fixed", n)]
        assert len(fixed) == 1
        assert sum(table.size for table in freenorm._ROWS._tables[fixed[0]]) == entries
    built = []
    for builder in ("_fixed_atoms", "_drawn_atoms"):
        real = getattr(freenorm, builder)
        monkeypatch.setattr(freenorm, builder, lambda *args, real=real: built.append(args) or real(*args))
    search(6)
    search(5)
    search(4)
    assert built == [] and freenorm._ROWS.entries <= REAL_GRID_CAP
    test_search_dimension_budget()
    tables = freenorm._ROWS._tables.values()
    assert sum(table.size for entry in tables for table in entry) < freenorm._ROWS.entries <= REAL_GRID_CAP


_reference_fixed = functools.lru_cache(maxsize=None)(_fixed_tables)


@functools.lru_cache(maxsize=None)
def _reference_draws(seed, n, round_):
    """The draws of ascent round ``round_``, as the search drew them before windows."""
    rng = seeded_rng(seed, 42, round_)
    return np.column_stack([1.0 - rng.random(3 * (n + 1)), rng.uniform(-1.0, 1.0, (3 * (n + 1), n))])


def _sequential_lower_bound(e, gens, config, dimension=None, improved=None):
    """The operator search with each fixed source in its own fold and the
    ascent round by round, one fold a round (the implementation before the
    fixed rows were stacked and the rounds windowed), each fold's first best
    atom kept only when strictly greater: the reference the search must match
    bit for bit.  Appends each round that improves to ``improved``."""
    vectors, n = generator_vectors(e, gens, dimension)
    best_value, best = -1.0, None

    def consider(weights, columns):
        nonlocal best_value, best
        values = freenorm._atom_values(e, vectors, weights, columns)
        i = np.unravel_index(np.argmax(np.where(np.isnan(values), -1.0, values)), values.shape)
        if values[i] > best_value:
            best_value = float(values[i])
            best = np.r_[weights[i], columns[i[0]]]
            return True
        return False

    for weights, columns in _reference_fixed(n, config.seed, tuple(config.delta_list)):
        consider(weights, columns)
    step, left, round_ = 0.25, config.search_iters, 0
    moves = np.kron(np.eye(n + 1), [[1.0], [-1.0]])
    low = np.r_[2.0 ** -52, -np.ones(n)]
    while left > 0:
        draws = _reference_draws(config.seed, n, round_)
        atoms = draws if best is None else np.vstack([np.clip(best + step * moves, low, 1.0), draws])
        if consider(atoms[:left, :1], atoms[:left, 1:]):
            if improved is not None:
                improved.append(round_)
        else:
            step /= 2
        left -= len(atoms)
        round_ += 1
    op = OperatorIntoAlgebra(DiagonalAlgebra(best[:1]), best[1:, None])
    return evaluate_operator(e, gens, op), op


def _search_bytes(search, e, gens, config, dimension=None, **extra):
    value, op = search(e, gens, config, dimension, **extra)
    return value.hex(), op.algebra.weights.tobytes(), op.columns.tobytes()


def _norm_search_inputs(monkeypatch, count):
    """The first ``count`` seed-1 inputs of the benchmark's ``norm_search``
    workload, as (term, basis generators, search config)."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads
    workload = workloads.NormSearch(1)
    config = workload.config(workload.search_iters)
    return [(parse(text), workloads.basis_gens(names), config)
            for names, text in itertools.islice(workload.inputs(), count)]


def _corpus_b(iters, seed, delta_list=SearchConfig.delta_list):
    """ROADMAP's corpus B at ``iters`` ascent atoms, the given seed and mesh parameters."""
    for s in range(120):
        e = random_expr(random.Random(1000 + s), ("u", "v", "w"), 7)
        rng = np.random.default_rng(s)
        gens = {name: rng.uniform(-0.5, 0.5, 3) for name in variables(e)}
        yield e, gens, SearchConfig(search_iters=iters, seed=seed, delta_list=delta_list), 3


def _off_basis_eleven():
    """A term in 2 of 11 variables, each generator uniform in [-0.5, 0.5]^11."""
    rng, names = np.random.default_rng(15), tuple(EYE11)
    return random_expr(random.Random(15), names, 9), {name: rng.uniform(-0.5, 0.5, 11) for name in names}


def _assert_windows_match_rounds(cases):
    improved = []
    for e, gens, config, *dimension in cases:
        rounds = []
        with np.errstate(all="ignore"):
            expected = _search_bytes(_sequential_lower_bound, e, gens, config, *dimension, improved=rounds)
            assert _search_bytes(operator_lower_bound, e, gens, config, *dimension) == expected, (e, config)
        improved.append(rounds)
    _reference_fixed.cache_clear()
    _reference_draws.cache_clear()
    return improved


def test_windowed_ascent_matches_the_sequential_rounds_on_norm_search_inputs(monkeypatch):
    _assert_windows_match_rounds(_norm_search_inputs(monkeypatch, 200))


@pytest.mark.parametrize("iters", [0, 37, 500, 10_000])
def test_windowed_ascent_matches_the_sequential_rounds_on_corpus_b(iters):
    # At n = 3 a round holds 20 atoms of 4 entries, so the first window holds
    # the first 75 rounds (ball._CHUNK entries) or all of them: a round that
    # improves before its last is a mid-window hit, which cuts the window.
    for seed in (0, 3):
        improved = _assert_windows_match_rounds(_corpus_b(iters, seed))
        if iters >= 500:
            last = min(75, -(-iters // 20)) - 1
            assert sum(round_ < last for rounds in improved for round_ in rounds) > 10


def test_windowed_ascent_matches_the_sequential_rounds_at_the_edges():
    nan_term = parse("(2e155*x)*(2e155*x) - (2e155*x)*(2e155*x)")  # test_first_round_of_draws_alone
    cases = [(nan_term, {"x": [1.0]}, SearchConfig(search_iters=iters, seed=seed))
             for seed in range(4) for iters in (10, 500)]
    # Budgets that end inside a round.
    cases += [(parse(text), gens, SearchConfig(**{**config, "search_iters": iters}))
              for text, gens, config, *_ in GOLDEN for iters in (1, 7, 37)]
    # n = 11 samples its sign rows (the term off the basis improves in 15 of
    # its first 34 rounds at seed 0); n = 594 holds one round per window.
    cases += [(e, gens, SearchConfig(search_iters=2_000, seed=seed))
              for seed in (0, 5) for e, gens in ((parse(GOLDEN[-1][0]), EYE11), _off_basis_eleven())]
    cases += [(parse(text), {"x": np.eye(594)[0], "y": np.eye(594)[593]}, SearchConfig(search_iters=10_000))
              for text in ("x", "x * y - abs(y)")]
    # Round 0 improves, then a drawn atom wins round 1.
    e, rng = random_expr(random.Random(5163), ("u", "v"), 7), np.random.default_rng(163)
    cases.append((e, {name: rng.uniform(-0.5, 0.5, 2) for name in variables(e)},
                  SearchConfig(search_iters=2_000, seed=3, delta_list=())))
    _assert_windows_match_rounds(cases)


def test_each_ascent_fold_holds_at_most_a_chunk_or_one_round(monkeypatch):
    # The ascent folds tables of at most ball._CHUNK entries (atoms times
    # n + 1), or of one round; on the norm_search inputs it is one fold after
    # the fold of the fixed rows.
    sizes, real_atom_values = [], freenorm._atom_values

    def record(e, vectors, weights, columns):
        sizes.append(len(columns))
        return real_atom_values(e, vectors, weights, columns)

    def folds(e, gens, config, dimension=None):
        sizes.clear()
        with np.errstate(all="ignore"):
            operator_lower_bound(e, gens, config, dimension)
        return sizes[:]

    norm_search = _norm_search_inputs(monkeypatch, 100)
    monkeypatch.setattr(freenorm, "_atom_values", record)
    assert max(len(folds(*case)) for case in norm_search) <= 2
    cases = [(3, case) for case in _corpus_b(10_000, 3)]
    cases += [(1, (parse("(2e155*x)*(2e155*x) - (2e155*x)*(2e155*x)"), {"x": [1.0]},
                   SearchConfig(search_iters=500, seed=1))),
              (11, (*_off_basis_eleven(), SearchConfig(search_iters=2_000))),
              (594, (parse("x * y - abs(y)"), {"x": np.eye(594)[0], "y": np.eye(594)[1]},
                     SearchConfig(search_iters=10_000, delta_list=())))]
    for n, case in cases:
        for atoms in folds(*case)[1:]:
            assert atoms * (n + 1) <= _CHUNK or atoms <= 5 * (n + 1)


@pytest.mark.parametrize("delta_list", [(), (0.6,), (0.25, 2.0 ** -5), SearchConfig.delta_list])
def test_one_fold_holds_every_fixed_row(monkeypatch, delta_list):
    # The sign rows and the sphere classes of every mesh parameter are scored
    # in the search's first _atom_values call, one weight row per class (its
    # table's radial weights, padded with the last one to the most cells);
    # without an ascent it is the only call, and the ascent's folds follow it.
    calls, real_atom_values = [], freenorm._atom_values

    def record(e, vectors, weights, columns):
        calls.append((weights, columns))
        return real_atom_values(e, vectors, weights, columns)

    monkeypatch.setattr(freenorm, "_atom_values", record)
    for n in range(1, 5):
        names = [f"x{i}" for i in range(n)]
        grid = CylinderGrid.regular(n, r_levels=freenorm.R_LEVELS, face_points=freenorm.FACE_POINTS)
        meshes = [discretize_generators(list(1.0 / (1.0 + delta) * grid.sphere_points.T), grid, delta)
                  for delta in delta_list]
        signs = freenorm._sign_rows(n, 0, 41)
        k = max([1] + [mesh.radial_cells for mesh in meshes])
        rows = [(np.ones(k), signs)] + [(mesh.weights[np.minimum(np.arange(k), mesh.radial_cells - 1)],
                                         mesh.coefficients[:, ::mesh.radial_cells].T) for mesh in meshes]
        for iters in (0, 300):
            calls.clear()
            operator_lower_bound(parse(" * ".join(names)), dict(zip(names, np.eye(n))),
                                 SearchConfig(search_iters=iters, delta_list=delta_list))
            (weights, columns), *ascent = calls
            assert len(ascent) == (iters > 0) and all(w.shape[1] == 1 for w, _ in ascent)
            assert np.array_equal(columns, np.concatenate([c for _, c in rows]))
            assert np.array_equal(weights, np.concatenate([np.tile(w, (len(c), 1)) for w, c in rows]))


def test_unequal_radial_cells_match_the_per_table_rule(monkeypatch):
    # At mesh parameters 0.25 and 2**-5 the tables have 5 and 17 radial cells,
    # so the sign rows and the 0.25 table are padded to 17 cells.  On corpus B
    # and four corpus-B-style inputs at which the 0.25 table wins (three of
    # them at its last cell, tied with its 12 padded copies) the search equals the
    # per-table reference bit for bit, and the first best atom of the fold of
    # the fixed rows is always a real radial cell of its table.
    deltas = (0.25, 2.0 ** -5)
    cases = {3: list(_corpus_b(0, 0, deltas))}
    for n, s in ((2, 5941), (2, 8919), (3, 387), (3, 1103)):
        e, rng = random_expr(random.Random(7000 + s), ("u", "v", "w"), 7), np.random.default_rng(s)
        gens = {name: rng.uniform(-0.5, 0.5, n) for name in variables(e)}
        cases.setdefault(n, []).append((e, gens, SearchConfig(search_iters=0, delta_list=deltas), n))
    for iters, seed in ((0, 0), (200, 0), (500, 3)):
        _assert_windows_match_rounds((e, gens, SearchConfig(search_iters=iters, seed=seed, delta_list=deltas), n)
                                     for n in cases for e, gens, _, _ in cases[n])
    folds, real_atom_values = [], freenorm._atom_values

    def record(e, vectors, weights, columns):
        values = real_atom_values(e, vectors, weights, columns)
        folds.append(values.copy())
        return values

    monkeypatch.setattr(freenorm, "_atom_values", record)
    wins, padded_ties = [0, 0, 0], 0
    for n in cases:
        cells = _radial_cells(n, deltas, 3)
        assert cells == [1, 5, 17]
        ends = np.cumsum(freenorm._fixed_atoms(n, 0, deltas)[1])
        for e, gens, config, _ in cases[n]:
            folds.clear()
            with np.errstate(all="ignore"):
                operator_lower_bound(e, gens, config, n)
            values = np.where(np.isnan(folds[0]), -1.0, folds[0])
            s, t = divmod(int(np.argmax(values)), values.shape[1])
            table = int(np.searchsorted(ends, s, side="right"))
            assert t < cells[table]
            wins[table] += 1
            padded_ties += table == 1 and t == 4 and bool((values[s, 5:] == values[s, t]).all())
    assert wins[0] and wins[1] == 4 and padded_ties == 3
