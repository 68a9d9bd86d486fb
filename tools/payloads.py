"""List every value of the numeric payloads of a checkout, one per line.

Usage:

    python tools/payloads.py ROOT

imports hardylab from ``ROOT/src`` and runs, through ``hardylab.cli.main``,
the six demo configs and every config of the ``pairs`` and ``batteries``
workloads (``perfbench/workloads.py``) at seeds 0 and 3, each once.  For
each leaf of a run's command, results, series and verdicts (a scalar, or
an empty object or list) it prints one line

    RUN PATH VALUE

with the leaf's JSON path (``results.best_ratio``,
``series.starts[0].ratio``) and its value in canonical JSON, where a
float is its shortest round-trip ``repr``.  Object keys are listed in
sorted order.  A run with no payload prints one line instead:
``RUN exit CODE``, or ``RUN crashed "NAME"`` with the exception's name.  A
RuntimeWarning is an error, so a run whose arithmetic overflows or makes
a NaN prints ``crashed "RuntimeWarning"``.

The configs come from the checkout that holds this script, so two roots
run the same configs, and ``diff`` of their listings shows each value
that was added, removed or moved, with its old and new text.  Nothing is
written outside a temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
import traceback
import warnings
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "perfbench"))

import checks  # noqa: E402
import workloads  # noqa: E402
from worker import import_hardylab  # noqa: E402

#: workload seeds: the one of the references and one other
SEEDS = (workloads.DEFAULT_SEED, 3)


def configs() -> list[tuple[str, dict]]:
    """The name and config of every run, in a fixed order."""
    runs = [(f"demo/{path.stem}", json.loads(path.read_text()))
            for path in sorted((REPO / "demos" / "configs").glob("*.json"))]
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            runs += [(f"{workload}/seed-{seed}/{i}-{cfg['command']}", cfg)
                     for i, cfg in enumerate(workloads.generate(workload, seed))]
    return runs


def leaves(node, path: str):
    """(path, canonical JSON) of every scalar, empty object and empty list
    under ``node``, keys in sorted order."""
    if isinstance(node, dict) and node:
        for key in sorted(node):
            yield from leaves(node[key], f"{path}.{key}" if path else key)
    elif isinstance(node, list) and node:
        for i, item in enumerate(node):
            yield from leaves(item, f"{path}[{i}]")
    else:
        yield path, json.dumps(node, separators=(",", ":"))


def payload_lines(cli, cfg: dict, work: Path) -> list[tuple[str, str]]:
    """(path, value) of each leaf of the payload ``cfg`` writes under ``work``."""
    work.mkdir(parents=True)
    path = work / "config.json"
    path.write_text(json.dumps(cfg))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--config", str(path), "--out", str(work / "out")])
    except Exception as e:  # a crash is a line of the output, not the end of it
        traceback.print_exc()
        return [("crashed", json.dumps(type(e).__name__))]
    payload = checks.read_payload(work / "out")
    if payload is None:
        return [("exit", str(code))]
    return list(leaves(checks.reference_view(payload), ""))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", type=Path, help="checkout whose src/hardylab runs the configs")
    args = parser.parse_args()
    cli = import_hardylab(args.root).cli
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for i, (name, cfg) in enumerate(configs()):
            for path, value in payload_lines(cli, cfg, Path(tmp) / str(i)):
                print(name, path, value)
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
