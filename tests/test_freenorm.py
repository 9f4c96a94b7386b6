import hashlib
import json
import random

import numpy as np
import pytest

from latalg.expr import Mul, Scale, Var, Zero, parse, random_expr
from latalg.ball import REAL_GRID_CAP, generator_vectors
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
import latalg.freenorm as freenorm

FAST = SearchConfig(search_iters=300)


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
        assert _atom_values(e, generator_vectors(e, gens, n), atoms).tolist() == expected
    atoms[3, 1] = 1.5
    with pytest.raises(ContractionError):
        _atom_values(e, generator_vectors(e, gens, n), atoms)


def test_discretized_operator_certified():
    # discretize_generators gives a contractive many-atom operator whose
    # atoms are the fixed rows after the sign rows, one table per mesh
    # parameter; off the basis one of them can win.
    grid = CylinderGrid.regular(2, r_levels=freenorm.R_LEVELS, face_points=freenorm.FACE_POINTS)
    deltas = (2.0 ** -4, 2.0 ** -5)
    _, *mesh = freenorm._fixed_atoms(2, 0, deltas)
    for delta, table in zip(deltas, mesh, strict=True):
        discrete = discretize_generators(
            [grid.sphere_points @ basis / (1.0 + delta) for basis in np.eye(2)], grid, delta)
        op = OperatorIntoAlgebra(DiagonalAlgebra(discrete.weights), discrete.coefficients)
        op.certify()
        assert op.algebra.size > 1 and np.all(op.algebra.weights > 0.0)
        assert np.array_equal(table, np.column_stack([discrete.weights, discrete.coefficients.T]))
    gens = {"u": [0.3647975870165865, 0.355302514932059, 0.31102339878434215],
            "v": [-0.2385536385835234, -0.4228005422815786, 0.44646578044606333]}
    config = SearchConfig(search_iters=0)
    value, best = operator_lower_bound(parse("u*v*u"), gens, config)
    signs, *mesh = freenorm._fixed_atoms(3, 0, config.delta_list)
    row = np.r_[best.algebra.weights, best.columns[:, 0]]
    assert best.algebra.size == 1 and not (signs == row).all(axis=1).any()
    assert any((table == row).all(axis=1).any() for table in mesh)
    assert value > operator_lower_bound(parse("u*v*u"), gens, SearchConfig(search_iters=0, delta_list=()))[0]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_discretized_atom_table_matches_full_grid_pipeline(monkeypatch, n):
    # At the default config the rows that the discretized source adds equal
    # those of atomize + discrete_weight + discretize_function over the whole
    # grid, for each mesh parameter.
    tables, real_atom_values = [], freenorm._atom_values

    def record(e, vectors, atoms):
        tables.append(atoms.copy())
        return real_atom_values(e, vectors, atoms)

    monkeypatch.setattr(freenorm, "_atom_values", record)
    names = [f"x{i}" for i in range(n)]
    config = SearchConfig(search_iters=0)
    operator_lower_bound(parse(" \\/ ".join(names)), dict(zip(names, np.eye(n))), config)
    grid = CylinderGrid.regular(n, r_levels=freenorm.R_LEVELS, face_points=freenorm.FACE_POINTS)
    w = np.broadcast_to(grid.r_levels[:, None], grid.shape)
    assert len(tables) == 1 + len(config.delta_list)
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
        draws = np.vstack([freenorm._drawn_atoms(seed, 1, round_) for round_ in (0, 1)])
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

    def record(e, vectors, atoms):
        seen.append(atoms)
        return real_atom_values(e, vectors, atoms)

    monkeypatch.setattr(freenorm, "_atom_values", record)
    # The sign and mesh rows as one entry, then one entry of draws.
    operator_lower_bound(parse("x * y"), {"x": [1, 0], "y": [0, 1]},
                         SearchConfig(search_iters=5, delta_list=(2.0 ** -4,)))
    entries = list(freenorm._ROWS._tables.values())
    assert list(freenorm._ROWS._tables) == [("fixed", 2, 0, (2.0 ** -4,)), ("draws", 0, 2, 0)]
    assert [len(tables) for tables in entries] == [2, 1] and len(seen) == 3
    for table in [*seen[:2], *(table for tables in entries for table in tables)]:
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0.5


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
    # list keys the same entry as the tuple).
    gens = {"x": [1, 0, 0], "y": [0, 1, 0], "z": [0, 0, 1]}
    e = parse("(x * y) \\/ z")
    real_atom_values = freenorm._atom_values

    def rows_used(config, clear):
        if clear:
            freenorm._ROWS.clear()
        tables = []

        def record(e, vectors, atoms):
            tables.append(atoms.copy())
            return real_atom_values(e, vectors, atoms)

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
        assert same(cold[:2], base[:2]) and len(cold) > len(base)  # one mesh parameter more
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
    # Three n = 5 mesh tables hold about 2.07 M entries, more than the budget
    # together, so the n = 5 fixed rows are built, used and dropped without
    # evicting the n <= 4 entries; the n = 594 round holds about 1.06 M.
    def search(n):
        names = [f"x{i}" for i in range(n)]
        operator_lower_bound(parse(" \\/ ".join(names)), dict(zip(names, np.eye(n))),
                             SearchConfig(search_iters=20))

    freenorm._ROWS.clear()
    for n in range(1, 5):
        search(n)
    kept = list(freenorm._ROWS._tables)
    search(5)
    assert freenorm._ROWS.entries <= REAL_GRID_CAP
    assert set(kept) <= set(freenorm._ROWS._tables)
    assert not [key for key in freenorm._ROWS._tables if key[:2] == ("fixed", 5)]
    built = []
    for builder in ("_fixed_atoms", "_drawn_atoms"):
        real = getattr(freenorm, builder)
        monkeypatch.setattr(freenorm, builder, lambda *args, real=real: built.append(args) or real(*args))
    search(4)
    assert built == []
    test_search_dimension_budget()
    tables = freenorm._ROWS._tables.values()
    assert sum(table.size for entry in tables for table in entry) < freenorm._ROWS.entries <= REAL_GRID_CAP
