"""One benchmark pass in a fresh process: the cost a CLI user pays.

Usage (started by run.py, one worker at a time):

    python3 perfbench/worker.py --root ROOT --workload NAME --seed N
        --work DIR [--swap-threads] [--trace 0|1] [--pass-id N]

Set-up covers importing hardylab (with numpy, scipy and mpmath) from
``ROOT/src``, generating the workload's configs and validating them.  The
pass then calls ``hardylab.cli.main`` once per config, in order.  The
worker writes ``DIR/result.json``: the monotonic time of the first config
call, the pass time (first call to last return), exit codes, peak RSS and,
when traced, the spans.  Each config's outputs land in ``DIR/out/<i>/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads


def prepare(cli, configs: list[dict], work: Path) -> list[Path]:
    """Write the configs to ``work/configs`` and validate each one."""
    paths = []
    for i, cfg in enumerate(configs):
        path = work / "configs" / f"{i}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(cfg))
        cli.ExperimentConfig.from_dict(dict(cfg))
        paths.append(path)
    return paths


def run_pass(cli, paths: list[Path], work: Path) -> dict:
    """Call ``cli.main`` on each config in order and time the calls."""
    exit_codes: list[int | None] = []
    errors: list[str | None] = []
    first_call = time.monotonic()
    start = time.perf_counter()
    for i, path in enumerate(paths):
        try:
            exit_codes.append(cli.main(["--config", str(path), "--out", str(work / "out" / str(i))]))
            errors.append(None)
        except Exception:  # a crash fails this config; the pass goes on
            exit_codes.append(None)
            errors.append(traceback.format_exc())
    pass_s = time.perf_counter() - start
    return {"first_call": first_call, "pass_s": pass_s, "exit_codes": exit_codes,
            "errors": errors}


def import_hardylab(root: Path):
    """Import hardylab from ``root/src`` and refuse any other copy."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import hardylab

    if src not in Path(hardylab.__file__).resolve().parents:
        raise ImportError(f"hardylab was imported from {hardylab.__file__}, not {src}")
    return hardylab


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--swap-threads", action="store_true",
                        help="run each config at the other thread count (1 <-> 2)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass-id", type=int, default=0)
    args = parser.parse_args()

    hardylab = import_hardylab(args.root)
    paths = prepare(hardylab.cli, workloads.generate(args.workload, args.seed, args.swap_threads),
                    args.work)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(args.pass_id)
        tracer.install(hardylab)
    result = run_pass(hardylab.cli, paths, args.work)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["spans"] = tracer.spans if tracer else []
    (args.work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
