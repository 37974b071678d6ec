"""Time the working tree against a git revision in alternating pairs of benchmark runs.

    python3 tools/bench_ab.py REV --run WORKLOAD:SEEDS [--run ...] --number N
        [--title T] [--claim "WORKLOAD METRIC"] [--machine M]

SEEDS is a seed or an inclusive range such as ``3101-3110``; each seed is
one pair.  REV is extracted with ``git archive``, and the change is a copy
of the working tree's files that git tracks or would track (``git ls-files
-co --exclude-standard``), so neither run sees the other's files.  Each run
is ``python3 perfbench/run.py --workload W --seed S --seconds T`` from its
own tree, T being ``BENCHMARK.json``'s ``run_seconds``, with
``PYTHONDONTWRITEBYTECODE=1`` and every ``__pycache__`` removed first, and
the pairs alternate which tree runs first (REV first in even pairs).  The last stdout line of each run carries its metrics.
After a workload's pairs comes one traced pair (``--trace 1``, REV first)
on its first seed, whose last lines carry the per-layer metrics of
``perfbench/spans.py`` instead.

It writes ``BENCH_<N>.json`` in the layout of the earlier
``BENCH_*.json`` files: the SHA of REV, the git tree id of the change's
``src/``, a machine note, and for each workload and each end-to-end metric
of ``BENCHMARK.json`` both sides' median, quartiles (linear, as numpy's
25th and 75th percentiles), minimum, maximum and values, the pairs the
change wins, and the ratio of the medians, and under ``trace`` each
per-layer metric of both sides' traced runs.  With --claim it adds whether
the metric is better on at least nine of ten pairs and better in the
median by more than the distance between the parent's quartiles.  It
prints one line per run as it goes.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True,
                          check=True, env=env).stdout.strip()


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev")
    parser.add_argument("--run", action="append", required=True, metavar="WORKLOAD:SEEDS")
    parser.add_argument("--number", type=int, required=True, help="N of BENCH_<N>.json")
    parser.add_argument("--title", default="")
    parser.add_argument("--claim", default=None, metavar="WORKLOAD METRIC")
    parser.add_argument("--machine", default=f"{os.cpu_count()}-core {platform.machine()}, "
                        f"{platform.system()} {platform.release()}, Python {platform.python_version()}")
    return parser.parse_args(argv)


def extract(rev: str, into: Path) -> None:
    """REV's files, by git archive, into the empty directory `into`."""
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                               stdout=subprocess.PIPE)
    unpack = subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() or unpack.returncode:
        raise SystemExit(f"git archive of {rev} failed")


def copy_working_tree(into: Path) -> None:
    for name in git("ls-files", "-co", "--exclude-standard", "-z").split("\0"):
        source = ROOT / name
        if name and source.is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)


def src_tree_id() -> str:
    """The git tree id that the working tree's src/ would have if committed."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        git("read-tree", "HEAD", env=env)
        git("add", "-A", "src", env=env)
        return git("rev-parse", git("write-tree", env=env) + ":src")


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One run.py result from a tree with no bytecode cache."""
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run.py --workload {workload} --seed {seed} failed in {tree}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "runs": len(values), "values": values}


def compare(runs: dict[str, list[dict]], declared: list[dict]) -> dict:
    """One workload's record: correctness, attempts and each end-to-end metric of both sides."""
    metrics = {}
    for spec in declared:
        name, sign = spec["name"], 1 if spec["better"] == "higher" else -1
        parent, change = ([r["metrics"][name]["value"] for r in runs[side]]
                          for side in ("parent", "change"))
        diffs = [sign * (b - a) for a, b in zip(parent, change)]
        p, c = summary(parent), summary(change)
        metrics[name] = {
            "unit": spec["unit"], "better": spec["better"], "parent": p, "change": c,
            "change_wins": sum(d > 0 for d in diffs), "ties": diffs.count(0), "pairs": len(diffs),
            "median_ratio": c["median"] / p["median"] if p["median"] else None,
        }
    return {
        "all_correct": all(r["correct"] for side in runs.values() for r in side),
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in runs},
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in runs},
        "metrics": metrics,
    }


def traced(runs: dict[str, list[dict]], seed: int) -> dict:
    """One workload's traced record: each per-layer metric's unit and both sides' values."""
    (parent,), (change,) = runs["parent"], runs["change"]
    return {
        "seed": seed, "all_correct": parent["correct"] and change["correct"],
        "metrics": {name: {"unit": record["unit"], "parent": record["value"],
                           "change": change["metrics"][name]["value"]}
                    for name, record in parent["metrics"].items()},
    }


def alternate(trees: dict[str, Path], workload: str, pairs: list[int], seconds: float,
              trace: int = 0) -> dict[str, list[dict]]:
    """Both sides' runs on each seed of `pairs`, REV first in even pairs, each printed as it ends."""
    runs = {"parent": [], "change": []}
    for i, seed in enumerate(pairs):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            runs[side].append(run(trees[side], workload, seed, seconds, trace))
            values = runs[side][-1]["metrics"]
            print(workload, seed, side + (" traced" if trace else ""), " ".join(
                f"{name}={values[name]['value']:.6g}" for name in values), flush=True)
    return runs


def claim(workloads: dict, text: str) -> dict:
    workload, metric = text.split()
    record = workloads[workload]["metrics"][metric]
    parent, change = record["parent"], record["change"]
    iqr = parent["q3"] - parent["q1"]
    gain = (change["median"] - parent["median"]) * (1 if record["better"] == "higher" else -1)
    return {
        "metric": f"{workload} {metric}", "parent_median": parent["median"],
        "change_median": change["median"], "parent_min": parent["min"], "change_max": change["max"],
        "ratio": record["median_ratio"], "change_wins": record["change_wins"],
        "pairs": record["pairs"], "parent_iqr": iqr,
        "met": record["change_wins"] >= 0.9 * record["pairs"] and gain > iqr,
    }


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    plan = [(workload, seeds(spec)) for workload, _, spec in (r.partition(":") for r in args.run)]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    result = {
        "pr": args.number, "title": args.title, "parent_sha": git("rev-parse", args.rev),
        "change_src_tree": src_tree_id(),
        "change_src_tree_note": "git tree id of src/ in the change (git rev-parse <change>:src), "
                                "since the change's commit id is not known when this file is written",
        "machine": args.machine,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g}; "
                   "parent and change each run from a clean copy of their trees (no __pycache__), "
                   "alternating which side runs first (parent first in even pairs); quartiles are "
                   "numpy's linear 25th and 75th percentiles; each workload's trace record holds the "
                   "per-layer metrics of one --trace 1 pair on its first seed; written by tools/bench_ab.py",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as base:
        trees = {"parent": Path(base) / "parent", "change": Path(base) / "change"}
        for tree in trees.values():
            tree.mkdir()
        extract(args.rev, trees["parent"])
        copy_working_tree(trees["change"])
        for workload, pairs in plan:
            runs = alternate(trees, workload, pairs, seconds)
            result["workloads"][workload] = {"seeds": pairs, **compare(runs, declared)}
            runs = alternate(trees, workload, pairs[:1], seconds, trace=1)
            result["workloads"][workload]["trace"] = traced(runs, pairs[0])
    if args.claim:
        result["claim"] = claim(result["workloads"], args.claim)
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
