"""latalg benchmark: one command for every end-to-end and per-layer metric.

Run from the repository root:

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

``--trace 0`` measures the workload in a fresh single-threaded child process
(bench/loop.py) and reports the end-to-end metrics.  ``--trace 1`` reports
the per-layer metrics of every workload: each workload's fixed slice runs
untraced and then traced in its own child, and the README commands run as
child processes (the ``cli`` layer).  Either way the last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it give the details (counters, digest, tail percentile, environment).
The run fails, printing no result, when ./src/latalg is missing or a child
process fails.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("identity_verdicts", "norm_search", "normal_form_roundtrip", "dense_grids")
SETUP_REPEATS = 10
CHILD_TIMEOUT_S = 160.0
THREADS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}
# Prints the import time in reference seconds (over the host factor sampled
# just before and after it, in the same process) and in wall seconds.
IMPORT_PROBE = ("import sys, time\nsys.path.insert(0, sys.argv[1])\nfrom calibrate import Calibration\n"
                "clock = Calibration('python')\nbefore = clock.sample()\nt = time.perf_counter()\n"
                "import latalg, latalg.cli\nt = time.perf_counter() - t\n"
                "print(t / ((before + clock.sample()) / 2), t)")
CLI_ENTRY = "import sys\nfrom latalg.cli import main\nsys.exit(main())"

# The README commands, each under the workload that mirrors it, and what each
# report must say.
EXPECTED = {
    "check-identity": lambda r: r["verdict"] == "identity",
    "kernel": lambda r: r["verdict"] == "ball-kernel witness",
    "norm": lambda r: r["lower"] == r["upper"] == 1.0,
    "surface": lambda r: len(r["files"]) == 4,
    "discretize": lambda r: all(run["ok"] for run in r["runs"]),
}
README_COMMANDS = {
    "identity_verdicts": {
        "check-identity": ["check-identity", "--expr", "pos(x)*neg(x)"],
        "kernel": ["kernel", "--expr", "pos(pos(x)*pos(x)-pos(x))", "--grid-sphere", "101"],
    },
    "norm_search": {"norm": ["norm", "--expr", "x1*x1", "--iters", "10000"]},
    "dense_grids": {
        "surface": ["surface", "--n", "2", "--out", "surfaces", "--expr", "v*w"],
        "discretize": ["discretize", "--expr", "v*v + (v \\/ w)", "--n", "2", "--delta", "0.03125"],
    },
}


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.update(THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv, cwd=ROOT, check=True):
    """Run a Python child to completion; return (exit code, stdout, wall s, peak RSS MB).

    With ``check`` a nonzero exit raises :class:`BenchError`."""
    with tempfile.TemporaryFile(dir=ROOT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE, stderr=err,
                                env=child_env(), cwd=cwd)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        message = err.read().decode(errors="replace")
    if check and proc.returncode != 0:
        raise BenchError(f"child {argv[0]} exited {proc.returncode}: {message[-2000:]}")
    return proc.returncode, out, wall, usage.ru_maxrss / 1024.0


def import_times(count):
    """Import times of latalg and latalg.cli, each in a fresh interpreter:
    (reference seconds, wall seconds) per probe."""
    return [tuple(map(float, run_child(["-c", IMPORT_PROBE, str(BENCH)])[1].split()))
            for _ in range(count)]


def loop_child(*args):
    _, out, _, _ = run_child([str(BENCH / "loop.py"), *map(str, args)])
    return json.loads(out)


def environment():
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "threads": THREADS}


def end_to_end(workload, seed, seconds):
    # Half the probes before the workload and half after it, so that one slow
    # spell of a shared host does not set the median.
    before = import_times(SETUP_REPEATS // 2)
    res = loop_child("run", workload, seed, seconds)
    probes = before + import_times(SETUP_REPEATS - SETUP_REPEATS // 2)
    setup = statistics.median(ref for ref, _ in probes)
    attempted = res["ops"] + len(res["final_checks"])
    failed = res["failed_ops"] + sum(1 for _, ok in res["final_checks"] if not ok)
    print(json.dumps({"workload": workload, "seed": seed, "environment": environment(),
                      "numpy": res["numpy"],
                      "latency_tail": {"percentile": res["tail_percentile"], "ops": res["ops"],
                                       "samples_beyond": res["samples_beyond_tail"]},
                      "busy_s": res["busy_s"], "wall": res["wall"],
                      "wall_setup_s": statistics.median(wall for _, wall in probes),
                      "host_factor": res["host_factor"],
                      "counters": res["counters"], "digest": res["digest"],
                      "final_checks": res["final_checks"], "failures": res["failures"][:20]}))
    metrics = {
        "ops_per_s": (res["ops_per_s"], "op/ref-s"),
        "latency_p50_ms": (res["p50_ms"], "ref-ms"),
        "latency_tail_ms": (res["tail_ms"], "ref-ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "ok_ratio": (1.0 - res["failed_ops"] / res["ops"], "1"),
        "decided_ratio": (res["decided"] / res["ops"], "1"),
    }
    return failed == 0, attempted, failed, metrics


def cli_layer(workload, setup, tmp):
    """Run each README command twice; wall time minus set-up, peak RSS, and checks."""
    metrics, failures = {}, []
    for command, argv in README_COMMANDS.get(workload, {}).items():
        runs = [run_child(["-c", CLI_ENTRY, *argv], cwd=tmp, check=False) for _ in range(2)]
        codes = [code for code, _, _, _ in runs]
        try:
            if not EXPECTED[command](json.loads(runs[0][1])):
                failures.append(f"{command}: unexpected report")
        except (ValueError, KeyError):
            failures.append(f"{command}: stdout is not the JSON report")
        if codes != [0, 0]:
            failures.append(f"{command}: exit codes {codes}")
        if runs[0][1] != runs[1][1]:
            failures.append(f"{command}: stdout differs between two invocations")
        metrics[f"cli.{command}_s"] = statistics.mean(r[2] for r in runs) - setup
        metrics[f"cli.{command}_rss_mb"] = max(r[3] for r in runs)
    return metrics, failures


def per_layer(seed):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    setup = statistics.median(wall for _, wall in import_times(SETUP_REPEATS))
    wanted = [m["name"] for m in spec]
    metrics, failures, attempted, details = {}, [], 0, {}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        res = loop_child("trace", workload, seed, out_dir / f"spans-{workload}.jsonl")
        attempted += res["ops"]
        layer = res["metrics"]
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-tmp-") as tmp:
            cli_metrics, cli_failures = cli_layer(workload, setup, tmp)
        layer.update(cli_metrics)
        attempted += 2 * len(README_COMMANDS.get(workload, {}))
        failures += cli_failures
        for key, value in layer.items():
            name = f"{workload}.{key}"
            if name in wanted:
                metrics[name] = value
        details[workload] = {"ops": res["ops"], "spans": res["spans"],
                             "untraced_s": res["untraced_s"], "traced_s": res["traced_s"],
                             "peak_rss_mb": res["peak_rss_mb"]}
    missing = [name for name in wanted if name not in metrics]
    if missing:
        raise BenchError(f"per-layer metrics not produced: {missing}")
    units = {m["name"]: m["unit"] for m in spec}
    print(json.dumps({"seed": seed, "environment": environment(), "setup_s": setup,
                      "slices": details, "failures": failures}))
    return (not failures, attempted, len(failures),
            {name: (metrics[name], units[name]) for name in wanted})


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "latalg" / "__init__.py").is_file():
        sys.exit("error: run from the repository root; ./src/latalg is missing")
    try:
        if args.trace:
            correct, attempted, failed, metrics = per_layer(args.seed)
        else:
            correct, attempted, failed, metrics = end_to_end(args.workload, args.seed, args.seconds)
    except (BenchError, ValueError) as exc:
        sys.exit(f"error: {exc}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))


if __name__ == "__main__":
    main()
