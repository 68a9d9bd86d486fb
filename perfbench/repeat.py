"""Repeat benchmark runs over seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --workloads pairs batteries
        --seeds 1 2 3 4 5 6 7 8 9 10 [--seconds 60] [--trace 0] [--out FILE]

Runs ``run.py`` once per workload and seed, one run at a time, prints each
run's report (every metric with its unit, and the correctness checks), and
stops at the first run whose outputs fail a check.  Then it prints for
every metric the median, the quartiles (``statistics.quantiles`` with
n=4) and the spread, (q3 - q1) / median.  ``--out`` writes the same
summary, with every run's values, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def summarise(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0,
                "values": values}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS),
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, check=True)
            *report, last = proc.stdout.strip().splitlines()
            print("\n".join(report), flush=True)
            result = json.loads(last)
            if not result["correct"]:
                return 1
            runs.append(result["metrics"])
        summary[workload] = {name: dict(summarise([r[name]["value"] for r in runs]),
                                        unit=runs[0][name]["unit"]) for name in runs[0]}
        for name, s in summary[workload].items():
            print(f"  {workload:<9} {name:<46} median {s['median']:.6g} {s['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.3f}", flush=True)
    if args.out:
        args.out.write_text(json.dumps({"seconds": args.seconds, "seeds": args.seeds,
                                        "trace": args.trace, "workloads": summary},
                                       indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
