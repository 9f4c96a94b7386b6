"""Self-test of the benchmark; takes about two minutes on 2 CPUs.

    python3 bench/selftest.py            # from the repository root
    python3 -m pytest bench/selftest.py  # same tests under pytest

Checks that two runs with one seed give identical deterministic counters and
digest, that a seed not used while the benchmark was written passes every
output check, that the run refuses a directory without the sources, and that
the reference evaluator agrees with hand-computed values.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("identity_verdicts", "norm_search", "normal_form_roundtrip", "dense_grids")
HELD_OUT_SEED = 987_654


def bench(workload, seed, cwd=ROOT):
    """Run bench/run.py with no time budget beyond its minimum operation count."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed",
                           str(seed), "--seconds", "0", "--trace", "0"],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def test_same_seed_repeats_counters_and_digest():
    for workload in WORKLOADS:
        details = []
        for _ in range(2):
            code, lines = bench(workload, 5)
            assert code == 0, workload
            details.append(json.loads(lines[-2]))
        assert details[0]["counters"] == details[1]["counters"], workload
        assert details[0]["digest"] == details[1]["digest"], workload


def test_held_out_seed_passes_every_check():
    for workload in WORKLOADS:
        code, lines = bench(workload, HELD_OUT_SEED)
        result = json.loads(lines[-1])
        assert code == 0 and result["correct"] and result["failed"] == 0, (workload, lines[-2])
        assert result["metrics"]["ok_ratio"]["value"] == 1.0


def test_refuses_checkout_without_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(ROOT / "bench", Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        code, lines = bench("identity_verdicts", 1, cwd=tmp)
    assert code != 0 and not lines


def test_reference_evaluator():
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]
    from latalg.expr import parse
    from reference import ref_eval

    assert ref_eval(parse("pos(x)*neg(x)"), {"x": -2.0}) == 0.0
    assert ref_eval(parse("(x \\/ y) + 2*(x*y)"), {"x": 1.5, "y": -1.0}) == -1.5
    assert ref_eval(parse("x*y"), {"x": 3.0, "y": 2.0}, weight=0.5) == 3.0
    deep = parse(" + ".join(["x"] * 500))
    assert ref_eval(deep, {"x": 1.0}) == 500.0


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name}: ok")
