"""Run the benchmark of two checkouts in alternating pairs; write a BENCH record.

Usage:

    python tools/bench.py PARENT CHANGE --out BENCH_N.json

runs ``perfbench/run.py --workload NAME --seconds SECONDS``, for each
workload of the change's ``BENCHMARK.json`` and its ``run_seconds``, from
the root of each checkout in 10 alternating pairs, one run at a time: pair
i runs the parent first when i is odd and the change first when i is
even.  Each run's last line of
output is the JSON that ``run.py`` prints.  The record holds every run and,
per workload and end-to-end metric of the change's ``BENCHMARK.json``, the
median of each side, the distance between the quartiles of the parent's
runs, the pairs whose change run reads better, and whether every run was
correct with no failed config run (``tests/test_source.py`` checks its
layout).  A run that exits nonzero or prints no JSON is recorded as not
correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10  # the alternating pairs a gain claim is judged on


def run_once(root: Path, workload: str, seconds: float) -> dict:
    """One benchmark run of ``workload`` from the checkout at ``root``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True, timeout=10 * seconds + 300)
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        out = None
    if out is None:
        return {"correct": False, "failed": None, "returncode": proc.returncode}
    return {"correct": out["correct"], "failed": out["failed"],
            **{name: m["value"] for name, m in out["metrics"].items()}}


def quartile_distance(values: list[float]) -> float:
    """Q3 - Q1 with linear interpolation between order statistics."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(runs: dict, metrics: dict[str, str]) -> dict:
    """The summary of one workload's runs, ``{"parent": [...], "change":
    [...]}`` with run k of each side from pair k, for the metrics named in
    ``metrics`` with the direction that is better ("lower" or "higher")."""
    pairs = list(zip(runs["parent"], runs["change"]))
    summary = {}
    for name, better in metrics.items():
        both = [(p[name], c[name]) for p, c in pairs if name in p and name in c]
        if not both:
            continue
        parent, change = zip(*both)
        sign = 1 if better == "lower" else -1
        wins = sum(sign * (p - c) > 0 for p, c in both)
        p50, c50 = statistics.median(parent), statistics.median(change)
        summary[name] = {
            "parent_median": round(p50, 4),
            "change_median": round(c50, 4),
            "parent_iqr": round(quartile_distance(list(parent)), 4),
            "change_wins": f"{wins}/{len(both)}",
            "change_pct": round(100 * (c50 / p50 - 1), 1) if p50 else None,
        }
    summary["correct_all"] = all(r["correct"] and r["failed"] == 0
                                 for side in SIDES for r in runs[side])
    return summary


def git_head(root: Path) -> str:
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--out", type=Path, required=True, help="BENCH record to write")
    args = parser.parse_args(argv)
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    roots = dict(zip(SIDES, (args.parent, args.change)))
    runs = {}
    for workload in workloads:
        runs[workload] = {side: [] for side in SIDES}
        for pair in range(1, PAIRS + 1):
            for side in SIDES if pair % 2 else SIDES[::-1]:
                result = run_once(roots[side], workload, seconds)
                runs[workload][side].append({"pair": pair, **result})
                print(workload, pair, side, json.dumps(result), flush=True)
    record = {
        "command": f"python3 perfbench/run.py --workload <name> --seconds {seconds:g}"
                   " (seed 0, --trace 0)",
        "machine": f"{os.cpu_count()}-CPU {platform.machine()}, Python"
                   f" {platform.python_version()}; end-to-end times scaled by"
                   " perfbench/calibrate.py",
        "parent": git_head(args.parent),
        "change": git_head(args.change),
        "method": "tools/bench.py: parent and change checkouts run in alternating order (the"
                  f" parent first in odd pairs, the change first in even pairs), {PAIRS}"
                  " pairs per workload; medians over the runs of each side, parent_iqr the"
                  " distance between the quartiles of the parent's runs (linear"
                  " interpolation), change_wins the pairs whose change run reads better",
        "summary": {w: summarize(runs[w], metrics) for w in workloads},
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record["summary"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
