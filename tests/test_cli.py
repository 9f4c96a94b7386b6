import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latalg import ball, freenorm
from latalg.cli import _COMMANDS, _OPTIONS, main
from latalg.expr import eval_real, parse
from latalg.models import WeightedGridModel

TEN_VARIABLES = " \\/ ".join(f"x{i}" for i in range(10))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_identity_true(capsys):
    code, out, _ = run_cli(capsys, "check-identity", "--expr", "pos(x)*neg(x)",
                           "--iters", "10")
    report = json.loads(out)
    assert code == 0
    assert report["verdict"] == "identity"
    assert report["version"] and report["params"]["seed"] == 0


def test_check_identity_non_identity(capsys):
    code, out, _ = run_cli(capsys, "check-identity", "--expr", "x \\/ 0",
                           "--iters", "10")
    report = json.loads(out)
    assert code == 0
    assert report["verdict"] == "non-identity"
    assert "witness" in report


def test_parse_error_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["check-identity", "--expr", "x +* y"])
    assert err.value.code == 2


def test_missing_expr_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["check-identity"])
    assert err.value.code == 2


def test_kernel_classifications(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--expr", "pos(pos(x)*pos(x)-pos(x))",
                           "--grid-sphere", "101")
    assert code == 0
    assert json.loads(out)["verdict"] == "ball-kernel witness"

    _, out, _ = run_cli(capsys, "kernel", "--expr", "x", "--grid-sphere", "101")
    assert json.loads(out)["verdict"] == "nonzero on ball"

    _, out, _ = run_cli(capsys, "kernel", "--expr", "pos(x)*neg(x)",
                        "--grid-sphere", "101")
    assert json.loads(out)["verdict"] == "identity"


# One input per verdict branch of check-identity and kernel.  The cone term is
# nonzero only where |x - y/100| < 9y/1000: the real grid of --iters 0 misses
# it and the model transport's random draws hit it.  Each model is the reals
# at points rescaled by its weights, so the hit is a real non-identity, with
# or without a product.
CONE = "pos(0.009*y - abs(x - 0.01*y))"
VERDICTS = [
    (["check-identity", "--expr", "x \\/ 0", "--iters", "10"], "non-identity", 0),
    (["check-identity", "--expr", "pos(x)*neg(x)", "--iters", "10"], "identity", 0),
    (["check-identity", "--expr", f"{CONE}*pos(y)", "--iters", "0"], "non-identity", 0),
    (["kernel", "--expr", "x"], "nonzero on ball", 0),
    (["kernel", "--expr", "pos(pos(x)*pos(x)-pos(x))", "--grid-sphere", "101"],
     "ball-kernel witness", 0),
    (["kernel", "--expr", "pos(x)*neg(x)"], "identity", 0),
]


@pytest.mark.parametrize("argv, verdict, expected", VERDICTS,
                         ids=[f"{argv[0]}-{verdict}" + ("-model-hit" if CONE in argv[2] else "")
                              for argv, verdict, _ in VERDICTS])
def test_every_verdict_is_labelled_sampled(capsys, argv, verdict, expected):
    code, out, _ = run_cli(capsys, *argv)
    report = json.loads(out)
    assert (code, report["verdict"], report["method"]) == (expected, verdict, "sampled")


def test_product_free_model_hit_is_a_real_witness(capsys):
    # With or without a product, the model point of the hit rescaled by its
    # weight is a real point where the term is not zero.
    for text in (CONE, f"{CONE}*pos(y)"):
        code, out, _ = run_cli(capsys, "check-identity", "--expr", text, "--iters", "0")
        report = json.loads(out)
        assert (code, report["verdict"], report["vanishes_on_reals"]) == (0, "non-identity", True)
        assert report["model_residual"] > 1e-9
        assert report["witness"] == {"x": 0.00762057662548922, "y": 0.5232855147215352}
        assert eval_real(parse(text), report["witness"]) > 0.0


def test_surface_outputs(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "surface", "--n", "2", "--out", str(tmp_path),
                           "--grid-r", "5", "--grid-sphere", "4")
    assert code == 0
    report = json.loads(out)
    assert len(report["files"]) == 3
    weight = np.loadtxt(tmp_path / "unit_star_unit.csv", delimiter=",", skiprows=1)
    assert np.array_equal(weight[:, 0], weight[:, 3])
    gen1 = np.loadtxt(tmp_path / "generator_e1.csv", delimiter=",", skiprows=1)
    assert np.array_equal(gen1[:, 1], gen1[:, 3])


@pytest.mark.parametrize("extra, count", [((), 3), (("--expr", "v*w", "--gens", "v=e1;w=e2"), 4)])
def test_surface_n_defaults_to_2(tmp_path, capsys, extra, count):
    code, out, _ = run_cli(capsys, "surface", "--out", str(tmp_path), *extra)
    assert code == 0
    assert len(json.loads(out)["files"]) == count == len(list(tmp_path.glob("*.csv")))


def test_surface_requires_n2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["surface", "--n", "3"])
    assert err.value.code == 2


def test_norm_report(capsys):
    code, out, _ = run_cli(capsys, "norm", "--expr", "x1", "--iters", "100")
    report = json.loads(out)
    assert code == 0
    assert report["lower"] == pytest.approx(1.0, abs=0.02)
    assert report["upper"] == 1.0
    assert "witness" in report and "iters" not in report  # echoed once, in params
    assert report["params"]["iters"] == 100

    _, out, _ = run_cli(capsys, "norm", "--expr", "0", "--iters", "10")
    report = json.loads(out)
    assert report["lower"] == 0.0 and report["upper"] == 0.0

    # A term without variables still acts on the dimension --n names.
    code, out, _ = run_cli(capsys, "norm", "--expr", "0", "--n", "3", "--iters", "5")
    report = json.loads(out)
    assert code == 0 and report["lower"] == 0.0
    assert len(report["witness"]["columns"]) == 3


def test_discretize_report_and_usage_error(capsys):
    code, out, _ = run_cli(capsys, "discretize", "--expr", "v*v + (v \\/ w)",
                           "--n", "2", "--delta", "0.03125", "--grid-r", "9",
                           "--grid-sphere", "4")
    assert code == 0
    report = json.loads(out)
    run = report["runs"][0]
    assert run["ok"] and run["productBoundAtoms"] == run["openAtoms"] == 0
    assert run["supError"] < 0.03125

    with pytest.raises(SystemExit) as err:
        main(["discretize", "--expr", "v", "--delta", "1.5"])
    assert err.value.code == 2


@pytest.mark.parametrize("command", ["norm", "discretize"])
@pytest.mark.parametrize("delta", ["1e-8", "5e-324"])
def test_delta_past_the_cell_budget_is_one_usage_line(capsys, command, delta):
    # Refused before any partition is allocated, and not blamed on the generators.
    with pytest.raises(SystemExit) as err:
        main([command, "--expr", "x", "--n", "1", "--delta", delta])
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert lines == [f"error: delta = {float(delta)} needs more than the budget of 1771561 cells"]


def test_reports_are_deterministic(capsys):
    args = ["norm", "--expr", "x1*x1 + (x1 \\/ x2)", "--iters", "50", "--seed", "7"]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_gens_parsing_forms(capsys):
    code, out, _ = run_cli(capsys, "norm", "--expr", "v \\/ w",
                           "--gens", "v=0.5,0.5;w=e2", "--iters", "20")
    assert code == 0
    report = json.loads(out)
    assert report["upper"] == pytest.approx(2.0)  # majorant at |v|_1 = |w|_1 = 1

    code, out, _ = run_cli(capsys, "kernel", "--expr", "v",
                           "--gens", "v=e1", "--n", "2", "--grid-sphere", "5")
    assert code == 0 and json.loads(out)["verdict"] == "nonzero on ball"

    # Without --n the dimension is that of the longest generator.
    code, _, _ = run_cli(capsys, "discretize", "--expr", "v", "--gens", "v=0.5,0.5",
                         "--grid-r", "5", "--grid-sphere", "4")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["surface", "--expr", "x", "--gens", "x=0,0,1"],  # no --n: the surface is 2-dimensional
    ["norm", "--expr", "x", "--gens", "x=0,0,1", "--n", "2"],
])
def test_too_long_generator_names_the_dimension(capsys, argv):
    with pytest.raises(SystemExit) as err:  # before surface writes anything
        main(argv)
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert "has 3 coordinates, more than the dimension 2" in message and "--n" not in message


def test_gens_missing_variable_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["norm", "--expr", "v + w", "--gens", "v=e1"])
    assert err.value.code == 2


@pytest.mark.parametrize("command", ["kernel", "surface", "norm", "discretize"])
def test_missing_generator_is_refused_by_the_library(capsys, tmp_path, command):
    out_dir = tmp_path / "surfaces"
    extra = ["--out", str(out_dir)] if command == "surface" else []
    with pytest.raises(SystemExit) as err:
        main([command, "--expr", "x*y", "--gens", "y=e1", *extra])
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    assert captured.err == "error: no generator vector for variable 'x'\n"
    assert not out_dir.exists()


def test_discretize_ignores_generators_the_term_does_not_read(capsys):
    runs = []
    for gens in ("x=1,0;y=0,1", "x=1,0"):
        code, out, _ = run_cli(capsys, "discretize", "--expr", "x", "--gens", gens)
        assert code == 0
        runs.append(json.loads(out)["runs"])
    assert runs[0] == runs[1] and runs[0][0]["atoms"] == 264


@pytest.mark.parametrize("argv", [
    ["norm", "--expr", "x", "--gens", "x=e0"],
    ["norm", "--expr", "x", "--gens", "x=abc"],
    ["norm", "--expr", "x", "--gens", "x=1,nan"],
    ["norm", "--expr", "1e999*x"],
    ["discretize", "--expr", "v", "--grid-sphere", "1"],
    ["surface", "--n", "2", "--grid-r", "1"],
    ["norm", "--expr", "x", "--gens", "x"],
    ["norm", "--expr", "x", "--iters", "-3"],
    ["norm", "--expr", "x", "--delta", "1.5"],
    ["kernel", "--expr", "x", "--grid-sphere", "-5"],
    ["kernel", "--expr", "x", "--grid-sphere", "2"],
    ["kernel", "--expr", "(" * 400 + "x" + ")" * 400],
    ["check-identity", "--expr=" + "-" * 3000 + "x"],
    ["discretize", "--expr", "v", "--gens", "v=2,0", "--n", "2"],
    ["norm", "--expr", "x", "--iters", "abc"],
    ["norm", "--expr", "x", "--bogus", "1"],
    ["kernel", "--expr", "abs(" * 25 + "x" + ")" * 25],
    ["check-identity", "--expr", "(1e200*x)*(1e200*x)-(1e200*x)*(1e200*x)+x"],
    ["kernel", "--expr", "(1e200*x)*(1e200*x)-(1e200*x)*(1e200*x)+x"],
    ["check-identity", "--expr", "x", "--tol", "nan"],
    ["check-identity", "--expr", "x", "--tol", "inf"],
    ["check-identity", "--expr", "x", "--tol", "-1"],
    ["norm", "--expr", "x", "--gens", "x=1e308,1e308", "--iters", "5"],
    ["norm", "--expr", "x", "--n", "0"],
    ["kernel", "--expr", "x", "--n", "0"],
    ["discretize", "--expr", "x", "--n", "0"],
    ["kernel", "--expr", TEN_VARIABLES],
    ["discretize", "--expr", "x", "--n", "10"],
    ["surface", "--n", "2", "--expr", "v", "--gens", "v=1,0,0"],
    ["surface", "--expr", "x", "--gens", "x=0,0,1"],
    ["discretize", "--expr", "v", "--gens", "v=0.5,0.5", "--n", "1"],
    ["kernel", "--expr", "x", "--gens", "x=1,0", "--n", "1"],
    ["norm", "--expr", "x", "--n", "5000", "--iters", "0"],
    ["norm", "--expr", "0", "--n", "5000", "--iters", "5"],
    ["kernel", "--expr", "x", "--gens", "x=e1;x=e2"],
    # Each option has one spelling: a unique prefix of it is unrecognized.
    ["check-identity", "--expr", "x", "--t", "0.5"],
    ["check-identity", "--expr", "x", "--i", "1"],
    ["check-identity", "--expr", "x", "--t", "0.5", "--i", "1"],
    ["norm", "--exp", "x"],
    ["--vers"],
])
def test_input_errors_exit_2_with_one_line(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("command", ["kernel", "discretize"])
def test_huge_dimension_is_refused_by_the_grid_budget(capsys, command):
    # The budget is decided without the point count: (grid_sphere + 1)^5000
    # has 4771 digits, too many to format.
    with pytest.raises(SystemExit) as err:
        main([command, "--expr", "x", "--n", "5000"])
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "more than the budget of 1771561" in lines[0]


def test_unwritable_surface_out_exits_2(capsys, tmp_path):
    taken = tmp_path / "file"
    taken.write_text("")
    for out in (taken, taken / "sub"):
        with pytest.raises(SystemExit) as err:
            main(["surface", "--n", "2", "--grid-r", "3", "--grid-sphere", "3", "--out", str(out)])
        captured = capsys.readouterr()
        assert err.value.code == 2 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot write the surfaces")


# The options each command reads, by dest: its whole argument surface.
COMMAND_OPTIONS = {
    "check-identity": ("expr", "seed", "tol", "iters"),
    "kernel": ("expr", "gens", "n", "grid_sphere", "seed", "tol"),
    "surface": ("expr", "gens", "n", "grid_r", "grid_sphere", "out"),
    "norm": ("expr", "gens", "n", "delta", "seed", "iters"),
    "discretize": ("expr", "gens", "n", "grid_r", "grid_sphere", "delta"),
}


def _flag(dest):
    return "--" + dest.replace("_", "-")


def _readme_table(header):
    """The README table under ``header``: its first column mapped to its second."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    rows = {}
    for line in lines[lines.index(header) + 2:]:  # past the |---| line
        if not line.startswith("|"):
            break
        first, second = (cell.strip() for cell in line.strip("|").split("|")[:2])
        rows[first.strip("`")] = second
    return rows


def test_readme_option_tables_match_the_parser():
    # Both README tables are kept by hand.  A command's row lists its options
    # in _COMMANDS order, "(optional)" marking one that another command requires.
    required = {name for _, options in _COMMANDS.values() for name in options if name.endswith("!")}
    expected = {command: ", ".join(f"`{_flag(name.rstrip('!'))}`"
                                   + (" (optional)" if name + "!" in required else "")
                                   for name in options)
                for command, (_, options) in _COMMANDS.items()}
    assert _readme_table("| command | options |") == expected
    assert list(_readme_table("| option | default | value |")) == [_flag(dest) for dest in _OPTIONS]


@pytest.mark.parametrize("argv, foreign", [
    (["check-identity", "--expr", "x", "--iters", "1"], ["--gens", "x=e1"]),
    (["kernel", "--expr", "x", "--grid-sphere", "3"], ["--iters", "5"]),
    (["surface", "--n", "2", "--grid-r", "3", "--grid-sphere", "3", "--out", "s"], ["--seed", "1"]),
    (["norm", "--expr", "x", "--iters", "1"], ["--tol", "0"]),
    (["discretize", "--expr", "x", "--grid-r", "3", "--grid-sphere", "3"], ["--out", "d"]),
    (["discretize", "--expr", "x", "--grid-r", "3", "--grid-sphere", "3"], ["--iters", "1"]),
    (["discretize", "--expr", "x", "--grid-r", "3", "--grid-sphere", "3"], ["--seed", "1"]),
])
def test_each_command_takes_only_the_options_it_reads(capsys, monkeypatch, tmp_path, argv,
                                                       foreign):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert sorted(json.loads(out)["params"]) == sorted(COMMAND_OPTIONS[argv[0]])
    with pytest.raises(SystemExit) as err:
        main(argv + foreign)
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


# Option values for the exit-code fuzz: each argv takes one good value per
# option of its command (None leaves the option out), then up to two bad
# ones, where an option the command does not read is bad.  "dir", "file" and
# "file/sub" name a fresh directory, an existing file and a path below that
# file.
FUZZ_GOOD = {
    "--expr": ["x", "pos(x)*neg(x)", "x*y - y*x", "v \\/ w", "0"],
    "--n": [None, "2"],
    "--gens": [None, "x=e1;y=e2", "v=0.5,0.5;w=e2"],
    "--grid-r": [None, "3"],
    "--grid-sphere": [None, "3", "4"],
    "--delta": [None, "0.25"],
    "--seed": [None, "5"],
    "--tol": [None, "1e-6"],
    "--iters": ["0", "3"],
    "--out": ["dir"],
}
FUZZ_BAD = [("--expr", None), ("--expr", "x +* y"), ("--n", "0"), ("--n", "1"),
            ("--gens", "x=1,0,0"), ("--gens", "x=e0"), ("--gens", "x=e1;x=e2"),
            ("--grid-r", "1"), ("--grid-sphere", "1"), ("--delta", "1"), ("--seed", "abc"),
            ("--tol", "-1"), ("--iters", "-1"), ("--out", "file"), ("--out", "file/sub")]


@st.composite
def fuzzed_argv(draw):
    command = draw(st.sampled_from(sorted(COMMAND_OPTIONS)))
    own = [_flag(dest) for dest in COMMAND_OPTIONS[command]]
    options = {flag: draw(st.sampled_from(FUZZ_GOOD[flag])) for flag in own}
    foreign = [(flag, values[-1]) for flag, values in FUZZ_GOOD.items() if flag not in own]
    bad = [(flag, value) for flag, value in FUZZ_BAD if flag in own] + foreign
    options.update(draw(st.lists(st.sampled_from(bad), max_size=2)))
    return command, options


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(drawn=fuzzed_argv())
def test_fuzzed_argv_keeps_the_exit_code_contract(drawn):
    command, options = drawn
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "file").write_text("")
        if "--out" in options:
            options["--out"] = str(Path(tmp) / options["--out"])
        argv = [command]
        for flag, value in options.items():
            if value is not None:
                argv += [flag, value]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    assert code == 2 or {_flag(dest) for dest in COMMAND_OPTIONS[command]} >= set(argv[1::2]), argv
    if code == 2:
        lines = err.getvalue().splitlines()
        assert out.getvalue() == "" and len(lines) == 1 and lines[0].startswith("error: "), argv


def _sum_of(k: int) -> str:
    return " + ".join(f"x{i}" for i in range(k))


def _all_e1(k: int) -> str:
    return ";".join(f"x{i}=e1" for i in range(k))


@pytest.mark.parametrize("argv", [
    ["discretize", "--expr", "0"],
    ["check-identity", "--expr", "x", "--iters", "0"],
    # From 14 variables on the default real-line grid is one point.
    *(["check-identity", "--expr", _sum_of(k), "--iters", "1"] for k in (40, 70)),
    *(["kernel", "--expr", _sum_of(k), "--gens", _all_e1(k)] for k in (40, 70)),
])
def test_edge_inputs_report(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["command"] == argv[0]
    assert "Traceback" not in err


def test_non_finite_real_line_point_is_named(capsys):
    with pytest.raises(SystemExit) as err:
        main(["check-identity", "--expr", "(1e200*x)*(1e200*x)-(1e200*x)*(1e200*x)+x"])
    assert err.value.code == 2
    assert "not finite at {'x': -3.0}" in capsys.readouterr().err


def test_non_finite_transport_value_exits_2(capsys, monkeypatch):
    overflowing = WeightedGridModel([1.0])
    overflowing.weights = np.array([np.inf])  # the transport multiplies by the weights

    monkeypatch.setattr(ball, "model_suite", lambda seed: [overflowing])
    with pytest.raises(SystemExit) as err:
        main(["check-identity", "--expr", "pos(x)*neg(x)"])
    captured = capsys.readouterr()
    assert err.value.code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "not finite in model" in lines[0]


def test_norm_on_ten_variables_skips_the_discretized_source(capsys, monkeypatch):
    # Its cylinder grid would exceed the grid budget, so it is never built.
    monkeypatch.setattr(freenorm, "discretize_generators", lambda *args: pytest.fail("discretized"))
    code, out, _ = run_cli(capsys, "norm", "--expr", TEN_VARIABLES, "--iters", "10000")
    report = json.loads(out)
    assert code == 0 and report["lower"] == 1.0 and report["upper"] == 10.0
    assert len(report["witness"]["weights"]) == 1


def test_capped_real_grid_is_reported(capsys):
    names = [f"x{i}" for i in range(10)]
    for command, *option in (("check-identity", "--iters", "1"), ("kernel", "--grid-sphere", "3")):
        code, out, _ = run_cli(capsys, command, "--expr", " \\/ ".join(names), *option)
        assert code == 0
        assert json.loads(out)["real_grid_per_axis"] == 3
    code, out, _ = run_cli(capsys, "check-identity", "--expr", "x \\/ y")
    assert "real_grid_per_axis" not in json.loads(out)


def test_kernel_even_grid_rounds_up(capsys):
    reports = []
    for points in ("4", "5"):
        code, out, _ = run_cli(capsys, "kernel", "--expr", "pos(x)*pos(x) - x",
                               "--grid-sphere", points)
        assert code == 0
        report = json.loads(out)
        del report["params"]
        reports.append(report)
    assert reports[0] == reports[1]


def test_large_sum_against_its_negation(capsys):
    # (S) \/ -(S) parses S twice; the majorant compares the copies node by node.
    s = "+".join(["x"] * 450)
    uppers = []
    for text in (f"({s}) \\/ -({s})", f"abs({s})"):
        for command in ("kernel", "check-identity", "norm"):
            code, out, _ = run_cli(capsys, command, "--expr", text)
            assert code == 0
        uppers.append(json.loads(out)["upper"])
    assert uppers == [450.0, 450.0]


# sha256 of the stdout of the five README commands, and of the CSVs the
# surface command writes, recorded from known-good reports: the reports
# must stay byte-identical.
README_REPORTS = [
    (["check-identity", "--expr", "pos(x)*neg(x)"],
     "45ac5d79f6ecdf038f93c000aeaa0b3aa25a3666289a3c1bdb92ca150c71bf92"),
    (["kernel", "--expr", "pos(pos(x)*pos(x)-pos(x))", "--grid-sphere", "101"],
     "cca2a564187149dc80a588dd9c45c821ac1db7f1be6e5b968a081696d2794bf4"),
    (["surface", "--n", "2", "--out", "surfaces", "--expr", "v*w"],
     "46dfb39a85afbdc48ee5654ecd05a721a208d610301963450cfa3d3bee5922fd"),
    (["norm", "--expr", "x1*x1", "--iters", "10000"],
     "16812d1bf4f5b5b55a1551165190d6cb8c5f1e8b78aadbf3409bd318a1078150"),
    (["discretize", "--expr", "v*v + (v \\/ w)", "--n", "2", "--delta", "0.03125"],
     "006fa3d696e8d01b9c47834b66b7173bd6ee13caa2c6d31361c257eccb4fd962"),
]
SURFACE_CSVS = {
    "expression.csv": "bfc28a7991d9839b08fe1652e0e04a2c5d44fc0f5b4d1cf84569329364c1ebab",
    "generator_e1.csv": "4f8a6213a55956ce8e6e9c3eeb718fc9a1c2a2c7b0a3834e01b5c61aac84d5db",
    "generator_e2.csv": "ac3469871ca63fb2dd5f5fa93b6134af9a9dc3941595f53f0385de0828830def",
    "unit_star_unit.csv": "449b088d786f43bc66d9996f891414ef9c5c17783766bd7f7389b938dea31a02",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_readme_reports_are_byte_identical(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    for argv, digest in README_REPORTS:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert _sha256(out.encode()) == digest, argv[0]
    for name, digest in SURFACE_CSVS.items():
        assert _sha256((tmp_path / "surfaces" / name).read_bytes()) == digest, name
