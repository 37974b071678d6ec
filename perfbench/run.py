"""Run one coulombstar benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {sweep,zeros,pointwise,cli} \
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a coulombstar checkout; the package is imported
from the checkout's ``src/``, never from site-packages.  One caller drives
the workload in a closed loop with one call outstanding.  With ``--trace 0``
the last stdout line carries the end-to-end metrics; with ``--trace 1`` the
public names are wrapped in spans (see spans.py) and it carries the
per-layer metrics instead.  Output checks run in both modes, outside the
timed regions.  Every time is normalized by the reference gauge of
reference.py, which runs where the timed work runs: an in-process loop pins
itself to one CPU after the set-up has been measured, while the set-up
imports, the CLI ops and their gauge run unpinned, as a user would start them.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

from reference import Gauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench_out"

SETUP_RUNS = 5
# Latency samples kept, a uniform sample of all ops once a run has more.  The
# buffers are allocated and written before the loop, so the process's memory
# does not grow with the number of ops and peak_rss_mb is the program's.
RESERVOIR = 1 << 16
# Samples that must lie beyond the tail percentile for it to mean anything.
TAIL_MIN_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "answered_frac": "fraction",
    "bound_held_frac": "fraction",
    "peak_rss_mb": "MB",
}

# Span names whose calls and self time are reported, per op.
SPAN_METRICS = (
    "series.table_for_radius",
    "series.g_values",
    "series.g_prime_values",
    "series.g_second_values",
    "series.normalization_constant",
    "analytic.eval_p",
    "starlike.certify",
    "zeros.find_zeros",
    "zeros.np_roots",
    "zeros.winding_number",
    "admissibility.extremize",
)
SELF_ONLY = ("starlike.parameter_scan", "zeros.product_convergence_report")
SCALAR_EVALUATORS = ("series.eval_g", "series.eval_g_prime", "series.eval_g_second", "series.eval_f")
PER_OP_COUNTERS = {
    "series.g_values.points": "points/op",
    "series.g_prime_values.points": "points/op",
    "series.horner_madds": "madds/op",
    "starlike.grid_points": "points/op",
    "zeros.np_roots.seeds": "roots/op",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    from spans import REFUSAL_CLASSES

    units = {}
    for name in SPAN_METRICS:
        units[f"{name}.calls"] = "calls/op"
        units[f"{name}.self_s"] = "s/op"
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = "s/op"
    units["series.eval.calls"] = "calls/op"
    units["series.eval.self_s"] = "s/op"
    units.update(PER_OP_COUNTERS)
    units["series.table_order_mean"] = "terms"
    units["starlike.certified_frac"] = "fraction"
    units["zeros.seed_yield"] = "fraction"
    units["cli.main.self_s"] = "s/op"
    units["cli.startup_ms"] = "ms"
    for layer, classes in REFUSAL_CLASSES.items():
        for cls in classes:
            units[f"{layer}.refused.{cls}"] = "count/op"
    units["refused.other"] = "count/op"
    units["traced_ops_per_s"] = "1/s"
    return units


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "zeros", "pointwise", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup(imports: tuple[str, ...]) -> float:
    """Median import time of the package in fresh interpreters, normalized."""
    code = "\n".join([
        "import sys, time",
        f"sys.path.insert(0, {str(SRC)!r})",
        "t = time.perf_counter()",
        *(f"import {name}" for name in imports),
        "print(repr(time.perf_counter() - t))",
    ])
    gauge = Gauge("process")
    gauge.burst()
    samples = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, cwd=ROOT, check=True)
        samples.append(float(proc.stdout.strip()))
        gauge.burst()
    # one burst is as noisy as one import, so both take their median
    return statistics.median(samples) / statistics.median(gauge.slowdowns())


def percentile(latencies: np.ndarray, weights: np.ndarray, pct: float) -> tuple[float, int]:
    """(value, samples beyond it) at the percentile `pct`, by weighted nearest rank.

    Each sample weighs 1 / (samples of its input), so every distinct input of
    the pool counts the same however far the last cycle through it got.
    """
    order = np.argsort(latencies, kind="stable")
    cumulative = np.cumsum(weights[order])
    rank = int(np.searchsorted(cumulative, pct / 100 * cumulative[-1] * (1 - 1e-12)))
    return float(latencies[order[rank]]), len(order) - rank - 1


def run_loop(workload, seconds: float, tracer=None) -> dict:
    from coulombstar import CoulombError

    ops = workload.ops
    replay = getattr(workload, "replay", None) if tracer is not None else None
    # latency samples and the gauge stretch each falls in, preallocated
    latencies = array("d", bytes(8 * RESERVOIR))
    window = array("i", bytes(4 * RESERVOIR))
    inputs = array("i", bytes(4 * RESERVOIR))
    pick = random.Random(workload.seed).randrange
    busy = [0.0]  # op seconds per gauge stretch
    startup = []
    answered_units = 0
    answered = Counter()
    check_failed = Counter()
    refused = ill_posed = raised = 0
    gauge = Gauge(workload.gauge)
    i = 0
    gauge.burst()
    now = time.perf_counter()
    deadline = now + seconds
    next_gauge = now + workload.gauge_interval_s
    while True:
        op = ops[i % len(ops)]
        i += 1
        out = error = None
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # typed refusals and untyped failures alike
            error = exc
        dt = time.perf_counter() - t0
        busy[-1] += dt
        slot = i - 1 if i <= RESERVOIR else pick(i)
        if slot < RESERVOIR:
            latencies[slot] = dt
            window[slot] = len(busy) - 1
            inputs[slot] = op.key
        if isinstance(error, CoulombError) or (error is None and workload.refusal(out)):
            if workload.well_posed(op):
                refused += 1
            else:
                ill_posed += 1
        elif error is not None:
            if not raised:
                traceback.print_exception(error)
            raised += 1
        else:
            answered_units += op.units
            answered[op.key] += 1
        if out is not None:
            if not workload.check(op, out):
                check_failed[op.key] += 1
            if replay is not None:
                in_process_s, same = replay(op, tracer)
                startup.append(dt - in_process_s)
                check_failed[op.key] += not same
        now = time.perf_counter()
        if now >= next_gauge or now >= deadline:
            gauge.burst()
            busy.append(0.0)
            next_gauge = now + workload.gauge_interval_s
        if now >= deadline:
            break
    # read before the arrays below exist, so the figure is the program's
    peak_rss_kb = workload.peak_child_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kept = min(i, RESERVOIR)
    slowdowns = np.array(gauge.slowdowns(workload.gauge_reach))
    latencies = np.frombuffer(latencies)[:kept]
    normalized = latencies / slowdowns[np.frombuffer(window, dtype=np.int32)[:kept]]
    keys = np.frombuffer(inputs, dtype=np.int32)[:kept]
    return {
        "attempted": i,
        "raised": raised,
        "answered": answered,
        "check_failed": check_failed,
        "refused": refused,
        "ill_posed": ill_posed,
        "busy_s": sum(busy),
        "normalized_busy_s": float(np.dot(busy[:-1], 1.0 / slowdowns)),
        "answered_units": answered_units,
        "latencies": latencies,
        "normalized": normalized,
        "weights": 1.0 / np.bincount(keys)[keys],
        "startup": startup,
        "slowdown": gauge.slowdown,
        "peak_rss_kb": peak_rss_kb,
    }


def verify_outputs(workload, result) -> int:
    """The costly oracle checks, once per distinct input; returns failed ops.

    Runs after the loop and outside any tracing.  An input that fails them
    fails every op that ran it.
    """
    check_failed = result["check_failed"]
    for key, out in workload.first_outputs.items():
        if not workload.verify(workload.ops[key], out):
            check_failed[key] = result["answered"][key]
    return result["raised"] + sum(check_failed.values())


def end_to_end(workload, result, setup_s: float) -> dict[str, float]:
    """The user-facing metrics, every time normalized as reference.py explains."""
    lat, weights = result["normalized"], result["weights"]
    p50_s, _ = percentile(lat, weights, 50.0)
    tail_s, beyond = percentile(lat, weights, workload.tail_pct)
    if beyond < TAIL_MIN_BEYOND:
        print(f"warning: {workload.name}: only {beyond} latency samples lie beyond "
              f"p{workload.tail_pct:g}, so latency_tail_ms is close to the maximum; "
              f"run longer", file=sys.stderr)
    held = (workload.bound_held / workload.bound_checked) if workload.bound_checked else 1.0
    rate = result["answered_units"] / result["busy_s"]
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": result["answered_units"] / result["normalized_busy_s"],
        "latency_p50_ms": 1e3 * p50_s,
        "latency_tail_ms": 1e3 * tail_s,
        "answered_frac": 1.0 - result["refused"] / result["attempted"],
        "bound_held_frac": held,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }
    print(f"# {workload.name}: {result['attempted']} ops, {result['refused']} refused, "
          f"{result['ill_posed']} refused on ill-posed inputs, {len(lat)} latency samples, "
          f"tail = p{workload.tail_pct:g} with {beyond} beyond, ops_per_s counts {workload.units}, "
          f"bounds checked {workload.bound_checked}; "
          f"mean slowdown {result['slowdown']:.3f}, unnormalized ops_per_s {rate:.6g}, "
          f"p50 {1e3 * percentile(result['latencies'], weights, 50.0)[0]:.6g} ms")
    return metrics


def per_layer(workload, result, tracer) -> dict[str, float]:
    """Per-op layer metrics from the spans; times normalized as in end_to_end."""
    ops = result["attempted"]
    slow = result["slowdown"]
    spans = tracer.summary()
    zero = {"calls": 0, "self_s": 0.0}
    metrics = {}
    for name in SPAN_METRICS:
        s = spans.get(name, zero)
        metrics[f"{name}.calls"] = s["calls"] / ops
        metrics[f"{name}.self_s"] = s["self_s"] / ops / slow
    for name in SELF_ONLY:
        metrics[f"{name}.self_s"] = spans.get(name, zero)["self_s"] / ops / slow
    metrics["series.eval.calls"] = sum(spans.get(n, zero)["calls"] for n in SCALAR_EVALUATORS) / ops
    metrics["series.eval.self_s"] = (
        sum(spans.get(n, zero)["self_s"] for n in SCALAR_EVALUATORS) / ops / slow)
    c = tracer.counters
    for name in PER_OP_COUNTERS:
        metrics[name] = c[name] / ops
    tables = spans.get("series.table_for_radius", zero)["calls"]
    metrics["series.table_order_mean"] = c["series.table_order_sum"] / tables if tables else 0.0
    certifies = spans.get("starlike.certify", zero)["calls"]
    metrics["starlike.certified_frac"] = c["starlike.certified"] / certifies if certifies else 0.0
    seeds = c["zeros.np_roots.seeds"]
    metrics["zeros.seed_yield"] = c["zeros.found"] / seeds if seeds else 0.0
    metrics["cli.main.self_s"] = spans.get("cli.main", zero)["self_s"] / ops / slow
    startup = result["startup"]
    metrics["cli.startup_ms"] = 1e3 * statistics.median(startup) / slow if startup else 0.0
    units = per_layer_units()
    for name in units:
        if ".refused." in name or name == "refused.other":
            metrics[name] = tracer.refused[name] / ops
    metrics["traced_ops_per_s"] = result["answered_units"] / result["busy_s"] * slow
    TRACE_DIR.mkdir(exist_ok=True)
    tracer.dump(TRACE_DIR / f"spans-{workload.name}.npz")
    return {name: metrics[name] for name in units}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "coulombstar" / "__init__.py").is_file():
        print(f"error: no coulombstar package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import coulombstar

    if Path(coulombstar.__file__).resolve().parent != SRC / "coulombstar":
        print(f"error: coulombstar imported from {coulombstar.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from spans import Tracer, installed
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    setup_s = None if args.trace else measure_setup(workload.imports)
    if not workload.subprocesses:
        # One CPU for an in-process loop, so the reference gauge runs where its
        # work runs (this sets only our own affinity, after the set-up).
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload.prepare()
    if args.trace:
        tracer = Tracer()
        with installed(tracer):
            result = run_loop(workload, args.seconds, tracer)
        metrics = per_layer(workload, result, tracer)
        units = per_layer_units()
    else:
        result = run_loop(workload, args.seconds)
        metrics = end_to_end(workload, result, setup_s)
        units = END_TO_END_UNITS
    failed = verify_outputs(workload, result)
    if workload.summary():
        print(f"# {workload.name}: {workload.summary()}")
    for name, value in metrics.items():
        print(f"{name:48s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
