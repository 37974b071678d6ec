"""Run every workload over several seeds and print each metric's median and spread.

    python3 perfbench/report.py [--seeds 1 2 3] [--seconds 20] [--trace 0|1]
                                [--workloads sweep zeros ...] [--json out.json]

Each run is a fresh `run.py` process, one at a time.  Spread is the distance
between the first and third quartile of a metric's values as a share of
their median, as statistics.quantiles(values, n=4) gives them.  The output
checks run inside every run; a run that is not correct is reported and
makes this script exit 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "zeros", "pointwise", "cli")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    info = [line for line in proc.stdout.splitlines() if line.startswith("#")]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["info"] = info
    return result


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--json", type=Path, help="also write all results here")
    args = parser.parse_args(argv)
    all_correct = True
    results = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result = run(workload, seed, args.seconds, args.trace)
            runs.append(result)
            all_correct &= result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}  "
                  + "; ".join(line.lstrip("# ") for line in result["info"]), flush=True)
        results[workload] = runs
        print(f"\n{workload}: {'metric':44s} {'median':>12s} {'spread':>8s}  unit")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            print(f"{workload}: {name:44s} {statistics.median(values):12.6g} "
                  f"{spread(values):8.2%}  {first['unit']}")
        print(flush=True)
    if args.json:
        args.json.write_text(json.dumps(results, indent=1) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
