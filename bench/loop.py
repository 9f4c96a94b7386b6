"""Workload child process: one fresh interpreter per workload run.

    python3 bench/loop.py run   WORKLOAD SEED SECONDS
    python3 bench/loop.py trace WORKLOAD SEED SPANS_FILE

``run`` is the closed loop: the next operation starts when the previous one
has returned and been checked; only the operation itself is timed.  It stops
after whole rounds once the timed total reaches SECONDS and enough samples lie
above the tail percentile.  Times are converted to reference seconds with the
host factor sampled between operations (calibrate.py); the wall-clock figures
are reported beside them.  Throughput is the median over blocks of about a
second of operation time.  ``trace`` runs each operation of a fixed slice
untraced and traced, and prints the per-layer numbers.  Both print one JSON
object on stdout.
"""

import hashlib
import itertools
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import latalg
from latalg import expr, freenorm
from calibrate import Calibration
from tracer import Tracer
from workloads import WORKLOADS, basis_gens

WALL_LIMIT_S = 140.0
# Throughput is the median over blocks of whole rounds of at least this much
# operation time, so that a slow spell of a shared host moves only some blocks.
BLOCK_S = 1.0
# The host factor is sampled each time this much operation time has passed
# since the last sample, and after the last operation.  An operation's time in
# reference seconds is its wall time over the mean of the two samples around
# it and the one before and after those, which damps the jitter of single
# samples while following drifts that last seconds.
CAL_EVERY_S = 0.25


def percentile(sorted_values, q):
    """Nearest-rank percentile and the number of samples above it."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def run(workload, seconds):
    items = workload.inputs()
    clock = Calibration(workload.calibration)
    latencies, failures, records = [], [], []
    segments = []  # operations timed between consecutive host-factor samples
    decided = failed_ops = pending = 0
    busy = since_sample = 0.0
    clock.sample()
    start = time.perf_counter()
    while busy < seconds or len(latencies) < workload.min_ops or len(latencies) % workload.round_size:
        if time.perf_counter() - start > WALL_LIMIT_S:
            break
        item = next(items)
        t0 = time.perf_counter()
        try:
            result = workload.op(item)
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        else:
            error = None
        elapsed = time.perf_counter() - t0
        busy += elapsed
        since_sample += elapsed
        latencies.append(elapsed)
        pending += 1
        if error is None:
            try:
                outcome = workload.check(item, result)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
            else:
                if not outcome.ok:
                    error = "output check failed"
        if error is not None:
            failed_ops += 1
            failures.append(f"op {len(latencies) - 1} {item!r}: {error}")
            record = {"failed": True}
        else:
            decided += outcome.decided
            record = outcome.record
        if len(latencies) <= workload.min_ops:
            records.append(record)
        if since_sample >= CAL_EVERY_S:
            clock.sample()
            segments.append(pending)
            pending, since_sample = 0, 0.0
    if pending:
        clock.sample()
        segments.append(pending)
    factors = []
    for j, count in enumerate(segments):
        factors += [statistics.fmean(clock.samples[max(j - 1, 0):j + 3])] * count

    final = [(name, bool(ok)) for name, ok in workload.final_checks()]
    failures += [f"final check failed: {name}" for name, ok in final if not ok]
    ref = [lat / factor for lat, factor in zip(latencies, factors)]
    ordered, wall_ordered = sorted(ref), sorted(latencies)
    tail, beyond = percentile(ordered, workload.tail_percentile)
    return {
        "ops": len(latencies),
        "busy_s": busy,
        "ops_per_s": statistics.median(block_rates(ref, workload.round_size)),
        "p50_ms": 1e3 * percentile(ordered, 50.0)[0],
        "tail_ms": 1e3 * tail,
        "wall": {"ops_per_s": statistics.median(block_rates(latencies, workload.round_size)),
                 "p50_ms": 1e3 * percentile(wall_ordered, 50.0)[0],
                 "tail_ms": 1e3 * percentile(wall_ordered, workload.tail_percentile)[0],
                 "s": time.perf_counter() - start},
        "host_factor": {"median": statistics.median(clock.samples), "min": min(clock.samples),
                        "max": max(clock.samples), "samples": len(clock.samples)},
        "tail_percentile": workload.tail_percentile,
        "samples_beyond_tail": beyond,
        "decided": decided,
        "failed_ops": failed_ops,
        "failures": failures,
        "final_checks": final,
        "counters": counters(records),
        "digest": hashlib.sha256(repr((records, final)).encode()).hexdigest(),
    }


def block_rates(times, round_size):
    """Operations per second over consecutive blocks of whole rounds holding
    at least BLOCK_S of operation time; one rate for a shorter run."""
    rates, count, busy = [], 0, 0.0
    for index, t in enumerate(times, 1):
        count, busy = count + 1, busy + t
        if busy >= BLOCK_S and index % round_size == 0:
            rates.append(count / busy)
            count, busy = 0, 0.0
    return rates or [len(times) / sum(times)]


def counters(records):
    """Deterministic counts over the recorded operations: each string field
    counted by value, each boolean counted when true, each integer summed."""
    out = Counter(ops=len(records))
    for record in records:
        for key, value in record.items():
            if isinstance(value, str):
                out[f"{key}={value}"] += 1
            elif isinstance(value, bool):
                out[key] += int(value)
            elif isinstance(value, int):
                out[key] += value
    return dict(sorted(out.items()))


def trace(workload, spans_file):
    items = list(itertools.islice(workload.inputs(), workload.trace_ops + 1))
    workload.op(items[0])  # warm-up, untimed
    items = items[1:]
    terms = [expr.parse(item[1]) for item in items] if workload.name == "norm_search" else []
    tracer = Tracer()
    tracer.install()
    # Each operation runs once untraced and once traced, in alternating order,
    # so that a slow spell of the host weighs on both sides alike.
    wall = {False: 0.0, True: 0.0}
    for index, item in enumerate(items):
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            tracer.enabled = traced
            t0 = time.perf_counter()
            if traced:
                with tracer.span("bench.op"):
                    workload.op(item)
            else:
                workload.op(item)
            wall[traced] += time.perf_counter() - t0
    untraced, traced = wall[False], wall[True]
    tracer.enabled = True
    for (names, _), term in zip(items, terms):
        # The fixed cost of a search: the same call with no random candidates.
        with tracer.span("bench.fixed"):
            freenorm.operator_lower_bound(term, basis_gens(names), workload.config(0))

    with open(spans_file, "w") as out:
        for name, start, end, parent, info in tracer.spans:
            out.write(json.dumps([name, start, end, parent, info]) + "\n")
    metrics = layer_metrics(tracer)
    metrics["trace_overhead"] = traced / untraced
    return {"ops": len(items), "untraced_s": untraced, "traced_s": traced,
            "spans": len(tracer.spans), "metrics": metrics}


def layer_metrics(tracer):
    """Every per-layer number the spans give; run.py keeps the ones it lists."""
    spans = tracer.spans
    m = {f"{name}_s": t for name, t in tracer.self_times().items()}
    by_name = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(index)

    def info(name, key):
        return sum(spans[i][4][key] for i in by_name.get(name, ()) if spans[i][4] and key in spans[i][4])

    calls = len(by_name.get("models.evaluate", ()))
    m["models.evaluate_calls"] = calls
    m["models.us_per_evaluate"] = 1e6 * m.get("models.evaluate_s", 0.0) / max(calls, 1)
    m["ball.real_points"] = sum(spans[i][4]["points"] for i in by_name.get("expr.eval_pointwise", ())
                                if tracer.under(i, "ball.vanishes_on_reals"))
    m["ball.ball_points"] = info("ball.vanishes_on_ball", "points")
    m["expr.nodes"] = info("expr.parse", "nodes")
    m["expr.distinct_nodes"] = info("expr.parse", "distinct")
    m["cylinder.grid_points"] = info("cylinder.extension", "points")
    m["discretize.atoms"] = info("discretize.atomize", "atoms")
    m["discretize.grid_points"] = info("discretize.atomize", "points")

    normal_forms = [spans[i] for i in by_name.get("rewrite.normal_form", ())]
    aborted = [s for s in normal_forms if "error" in s[4]]
    first_of_op = set()  # an operation's first normal form; a second one is the round trip
    for s in normal_forms:
        m["rewrite.roundtrip_terms" if s[3] in first_of_op else "rewrite.nf_terms"] = (
            m.get("rewrite.roundtrip_terms" if s[3] in first_of_op else "rewrite.nf_terms", 0)
            + s[4].get("terms", 0))
        first_of_op.add(s[3])
    m["rewrite.budget_exceeded"] = len(aborted)
    m["rewrite.budget_wasted_s"] = sum(s[2] - s[1] for s in aborted)

    searches = [i for i in by_name.get("freenorm.lower_bound", ()) if not tracer.under(i, "bench.fixed")]
    fixed = [i for i in by_name.get("freenorm.lower_bound", ()) if tracer.under(i, "bench.fixed")]
    m["freenorm.lower_bound_s"] = sum(spans[i][2] - spans[i][1] for i in searches)
    m["freenorm.fixed_s"] = sum(spans[i][2] - spans[i][1] for i in fixed)
    per_search = {i: [] for i in searches + fixed}
    for i in by_name.get("freenorm.evaluate_operator", ()):
        if spans[i][3] in per_search:
            per_search[spans[i][3]].append(spans[i][4]["value"])
    evaluated = sum(len(per_search[i]) for i in searches)
    candidates = evaluated - sum(len(per_search[i]) for i in fixed)
    improvements = 0
    for i in searches:
        best = -1.0
        for value in per_search[i]:
            if value > best:
                best, improvements = value, improvements + 1
    m["freenorm.candidates"] = candidates
    m["freenorm.us_per_candidate"] = (1e6 * (m["freenorm.lower_bound_s"] - m["freenorm.fixed_s"])
                                      / max(candidates, 1))
    m["freenorm.improvements"] = improvements / max(evaluated, 1)
    return m


def main(argv):
    mode, name, seed = argv[0], argv[1], int(argv[2])
    if not Path(latalg.__file__).resolve().is_relative_to(Path.cwd().resolve() / "src"):
        sys.exit(f"latalg imported from {latalg.__file__}, not from ./src")
    workload = WORKLOADS[name](seed)
    if mode == "run":
        result = run(workload, float(argv[3]))
    else:
        result = trace(workload, argv[3])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["numpy"] = np.__version__
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
