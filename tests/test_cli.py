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
from latalg.cli import main
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
    assert "witness" in report and "iters" in report

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
                           "--grid-sphere", "4", "--iters", "20")
    assert code == 0
    report = json.loads(out)
    run = report["runs"][0]
    assert run["ok"] and run["productBoundViolations"] == 0
    assert run["supError"] < 0.03125

    with pytest.raises(SystemExit) as err:
        main(["discretize", "--expr", "v", "--delta", "1.5"])
    assert err.value.code == 2


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
                         "--grid-r", "5", "--grid-sphere", "4", "--iters", "5")
    assert code == 0


def test_gens_missing_variable_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["norm", "--expr", "v + w", "--gens", "v=e1"])
    assert err.value.code == 2


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
    ["discretize", "--expr", "v", "--gens", "v=0.5,0.5", "--n", "1"],
    ["kernel", "--expr", "x", "--gens", "x=1,0", "--n", "1"],
    ["norm", "--expr", "x", "--n", "5000", "--iters", "0"],
    ["norm", "--expr", "0", "--n", "5000", "--iters", "5"],
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


# Option values for the exit-code fuzz: each argv takes one good value per
# option (None leaves the option out), then up to two bad ones.  "dir",
# "file" and "file/sub" name a fresh directory, an existing file and a path
# below that file.
FUZZ_GOOD = {
    "--expr": ["x", "pos(x)*neg(x)", "x*y - y*x", "v \\/ w", "0"],
    "--n": [None, "2"],
    "--gens": [None, "x=e1;y=e2", "v=0.5,0.5;w=e2"],
    "--grid-r": [None, "3"],
    "--grid-sphere": [None, "3", "4"],
    "--delta": [None, "0.25"],
    "--iters": ["0", "3"],
    "--out": ["dir"],
}
FUZZ_BAD = [("--expr", None), ("--expr", "x +* y"), ("--n", "0"), ("--n", "1"),
            ("--gens", "x=1,0,0"), ("--gens", "x=e0"), ("--grid-r", "1"),
            ("--grid-sphere", "1"), ("--delta", "1"), ("--iters", "-1"),
            ("--out", "file"), ("--out", "file/sub")]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(["check-identity", "kernel", "surface", "norm", "discretize"]),
       options=st.fixed_dictionaries({flag: st.sampled_from(values)
                                      for flag, values in FUZZ_GOOD.items()}),
       bad=st.lists(st.sampled_from(FUZZ_BAD), max_size=2))
def test_fuzzed_argv_keeps_the_exit_code_contract(command, options, bad):
    options.update(bad)
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "file").write_text("")
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
    if code == 2:
        lines = err.getvalue().splitlines()
        assert out.getvalue() == "" and len(lines) == 1 and lines[0].startswith("error: "), argv


@pytest.mark.parametrize("argv", [
    ["discretize", "--expr", "0"],
    ["check-identity", "--expr", "x", "--iters", "0"],
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
    class Overflowing(WeightedGridModel):
        def product_values(self, a, b):
            return np.full(self.size, np.inf)

    monkeypatch.setattr(ball, "model_suite", lambda seed: [Overflowing([1.0])])
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
    for command in ("check-identity", "kernel"):
        code, out, _ = run_cli(capsys, command, "--expr", " \\/ ".join(names), "--iters", "1",
                               "--grid-sphere", "3")
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
     "79b502fff7bd8ec3a1c6a9e3094570580070c044ba58cc5146bb13f6ed2df5cf"),
    (["kernel", "--expr", "pos(pos(x)*pos(x)-pos(x))", "--grid-sphere", "101"],
     "c7eec5538460b5165b84328cf9591b3d8dfd0aa4bb84f0cb6b78c17a535ac77c"),
    (["surface", "--n", "2", "--out", "surfaces", "--expr", "v*w"],
     "5ebfa0b10aa62f3c90c7933b6b046d1a5bd43b242355071e6055beb3cad75531"),
    (["norm", "--expr", "x1*x1", "--iters", "10000"],
     "b286e2940f30fca25c1c66f17e8e2794207a8fc1f9b8e2ade19b978e3d822526"),
    (["discretize", "--expr", "v*v + (v \\/ w)", "--n", "2", "--delta", "0.03125"],
     "cab5bbdda78e4cb2eefd5ea03dd2dfad85ab979cfbd6a89040b9791cb086b779"),
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
