"""Print one sha256 per config run: the numeric payloads of a checkout.

Usage:

    python tools/payloads.py ROOT

imports hardylab from ``ROOT/src`` and runs, through ``hardylab.cli.main``,
the six demo configs and every config of the ``pairs`` and ``batteries``
workloads (``perfbench/workloads.py``) at seeds 0 and 3, each once.  For
each run it prints the run's name and the sha256 of its payload's
command, results, series and verdicts in the canonical JSON of
``perfbench/checks.py``, or why there is none.  A
RuntimeWarning is an error, so a run whose arithmetic overflows or makes
a NaN prints ``crashed: RuntimeWarning``.  The configs come from the
checkout that holds this script, so two roots run the same configs, and a
diff of their outputs names the payloads that differ.  Nothing is written
outside a temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
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


def payload_digest(cli, cfg: dict, work: Path) -> str:
    """The sha256 of the payload ``cfg`` writes under ``work``."""
    work.mkdir(parents=True)
    path = work / "config.json"
    path.write_text(json.dumps(cfg))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--config", str(path), "--out", str(work / "out")])
    except Exception as e:  # a crash is a line of the output, not the end of it
        traceback.print_exc()
        return f"crashed: {type(e).__name__}"
    payload = checks.read_payload(work / "out")
    if payload is None:
        return f"no payload (exit {code})"
    return hashlib.sha256(checks.canonical(checks.reference_view(payload)).encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", type=Path, help="checkout whose src/hardylab runs the configs")
    args = parser.parse_args()
    cli = import_hardylab(args.root).cli
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for i, (name, cfg) in enumerate(configs()):
            print(name, payload_digest(cli, cfg, Path(tmp) / str(i)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
