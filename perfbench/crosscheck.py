"""Reproduce the ROADMAP baseline timings with the benchmark's own tracer.

    python3 perfbench/crosscheck.py

Measures, as the ROADMAP did (minimum of several runs, unnormalized wall
time): `certify` of (0.5, 0.1, lemniscate) on the default grid,
`find_zeros(sine, 20)` with the share spent in its own code and in the
40-digit refinement, the 441-pair lemniscate `scan` of acceptance check 7
as a CLI subprocess, and a fresh-interpreter import.  Prints each figure next
to the ROADMAP's.  The subprocesses run unpinned, as run.py starts them; the
in-process figures run pinned to one CPU, as run.py's loop does.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import coulombstar as cs  # noqa: E402
from coulombstar import zeros as zeros_module  # noqa: E402

from reference import Gauge  # noqa: E402
from spans import Tracer, installed  # noqa: E402
from workloads import ACCEPTANCE_7, cli_env  # noqa: E402

ROADMAP = {
    "certify_ms": 3.8,
    "find_zeros_sine20_ms": 86.0,
    "find_zeros_refine_share": 0.94,
    "scan_441_cli_s": 3.3,
    "import_s": 0.23,
}


def best(fn, runs: int) -> float:
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def traced_find_zeros(params, radius: float) -> tuple[float, float]:
    """(find_zeros self share, refinement share) of one warm traced call.

    The refinement is the private `_refine_mp`, wrapped here only; its time
    counts as find_zeros self time in the benchmark's per-layer metrics.
    """
    refine = zeros_module._refine_mp
    tracer = Tracer()
    with installed(tracer):
        zeros_module._refine_mp = _timed(tracer, refine)
        try:
            cs.find_zeros(params, radius)
        finally:
            zeros_module._refine_mp = refine
    spans = tracer.summary()
    total = spans["zeros.find_zeros"]["total_s"]
    refine_s = spans["zeros._refine_mp"]["total_s"]
    return (spans["zeros.find_zeros"]["self_s"] + refine_s) / total, refine_s / total


def _timed(tracer, fn):
    def wrapped(*args, **kwargs):
        with tracer.span("zeros._refine_mp"):
            return fn(*args, **kwargs)
    return wrapped


def main() -> int:
    gauge = Gauge()
    gauge.burst()
    measured = {}
    # the processes first, unpinned as a user starts them
    (L_lo, L_hi, L_step), (e_lo, e_hi, e_step) = ACCEPTANCE_7
    scan = [sys.executable, "-m", "coulombstar", "scan",
            "--L-min", str(L_lo), "--L-max", str(L_hi), "--L-step", str(L_step),
            "--eta-min", str(e_lo), "--eta-max", str(e_hi), "--eta-step", str(e_step),
            "--class", "lemniscate"]
    env = cli_env()
    scan_s = best(lambda: subprocess.run(scan, env=env, cwd=ROOT, capture_output=True,
                                         check=True), 3)
    code = f"import sys, time; sys.path.insert(0, {str(ROOT / 'src')!r}); " \
           "t = time.perf_counter(); import coulombstar; print(time.perf_counter() - t)"
    import_s = min(
        float(subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True).stdout)
        for _ in range(5))
    # then the in-process figures, pinned to one CPU as run.py's loop is
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    params = cs.CoulombParams(0.5, 0.1)
    measured["certify_ms"] = 1e3 * best(lambda: cs.certify(params, "lemniscate"), 20)
    sine = cs.CoulombParams(0.0, 0.0)
    measured["find_zeros_sine20_ms"] = 1e3 * best(lambda: cs.find_zeros(sine, 20.0), 5)
    self_share, refine_share = traced_find_zeros(sine, 20.0)
    measured["find_zeros_refine_share"] = refine_share
    measured["scan_441_cli_s"] = scan_s
    measured["import_s"] = import_s
    gauge.burst()
    print(f"reference slowdown during the check: {gauge.slowdown:.3f}")
    print(f"find_zeros(sine, 20): {self_share:.1%} in find_zeros' own code and the refinement")
    print(f"{'figure':28s} {'ROADMAP':>10s} {'measured':>10s} {'ratio':>7s}")
    for name, value in measured.items():
        print(f"{name:28s} {ROADMAP[name]:10.4g} {value:10.4g} {value / ROADMAP[name]:7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
