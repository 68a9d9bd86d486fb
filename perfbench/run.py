"""Benchmark of the hardylab CLI front door.

    python3 perfbench/run.py --workload {pairs,batteries} --seed N
                             --seconds S --trace {0,1}
    python3 perfbench/run.py --write-references

Run from anywhere; the program under test is ``src/hardylab`` next to this
directory.  A run is a closed loop with one client: each pass is a fresh
worker process (``worker.py``) that runs every config of the workload
through ``hardylab.cli.main``, and run.py starts the next worker only
after the previous one has exited.  Before the timed passes, one untimed
worker runs each config at the other thread count (1 <-> 2); each payload
must be byte-identical to the timed one, ``config_digest`` aside.
Passes continue while the next one fits in ``--seconds`` (counted from the
start of the run, thread check included), and at least ``MIN_PASSES`` run.
Before and after every pass, run.py times ``calibrate.py``, a fixed job in
a fresh process that runs no hardylab code; each pass's times are scaled
by ``calibrate.REFERENCE_S`` over the mean of the two, so that the
end-to-end times are quoted at one machine speed.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` alternates
traced and untraced passes and prints the per-layer metrics of the traced
ones plus the tracing overhead.  Every config run is checked (see
checks.py); the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exit status 2 means the run
could not be made (no ``src/hardylab`` here, or no references).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
CALIBRATE = HERE / "calibrate.py"
REFERENCES = HERE / "references.json"

MIN_PASSES = 3
#: a worker that runs longer than this fails its pass
WORKER_TIMEOUT_S = 60.0
#: no pass starts after this much of the run, whatever MIN_PASSES asks
HARD_LIMIT_S = 100.0


@dataclass
class Pass:
    """What one worker process reported."""

    wall_s: float  # process start to exit, as timed here
    setup_s: float = float("nan")
    pass_s: float = float("nan")
    peak_rss_mb: float = float("nan")
    exit_codes: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    payloads: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    #: REFERENCE_S over the mean calibration time before and after the pass
    speed_scale: float = float("nan")


def run_worker(work: Path, workload: str, seed: int, n_configs: int, *,
               swap_threads: bool = False, trace: bool = False, pass_id: int = 0) -> Pass:
    """Run one pass in a fresh process and collect its outputs."""
    out = work / f"pass{pass_id}"
    cmd = [sys.executable, str(WORKER), "--root", str(ROOT), "--workload", workload,
           "--seed", str(seed), "--work", str(out), "--trace", str(int(trace)),
           "--pass-id", str(pass_id)]
    if swap_threads:
        cmd.append("--swap-threads")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
        failure = None if proc.returncode == 0 else (proc.stderr.strip() or
                                                     f"worker exit {proc.returncode}")
    except subprocess.TimeoutExpired:
        failure = f"worker ran longer than {WORKER_TIMEOUT_S} s"
    p = Pass(wall_s=time.monotonic() - spawned)
    if failure is None:
        result = json.loads((out / "result.json").read_text())
        p.setup_s = result["first_call"] - spawned
        p.pass_s = result["pass_s"]
        p.peak_rss_mb = result["peak_rss_mb"]
        p.exit_codes, p.errors, p.spans = result["exit_codes"], result["errors"], result["spans"]
        p.payloads = [checks.read_payload(out / "out" / str(i)) for i in range(n_configs)]
    else:
        p.exit_codes, p.errors, p.payloads = [None] * n_configs, [failure] * n_configs, \
            [None] * n_configs
    shutil.rmtree(out, ignore_errors=True)
    return p


def time_calibration() -> float:
    """Spawn-to-exit time of one run of calibrate.py."""
    spawned = time.monotonic()
    subprocess.run([sys.executable, str(CALIBRATE)], cwd=ROOT, stdout=subprocess.DEVNULL,
                   check=True, timeout=WORKER_TIMEOUT_S)
    return time.monotonic() - spawned


def score(passes: list[Pass], thread_check: Pass, references: list | None) -> list[str]:
    """One line per failed config run: timed passes, then the thread check."""
    failures = []
    first = passes[0].payloads
    for n, p in enumerate(passes, 1):
        for i, payload in enumerate(p.payloads):
            reasons = checks.config_failures(p.exit_codes[i], p.errors[i], payload,
                                             references[i] if references else None)
            if payload and first[i] and checks.canonical(payload) != checks.canonical(first[i]):
                reasons.append("payload differs from pass 1")
            if reasons:
                failures.append(f"pass {n} config {i}: " + "; ".join(reasons))
    digestless = ("config_digest",)
    for i, payload in enumerate(thread_check.payloads):
        reasons = checks.config_failures(thread_check.exit_codes[i], thread_check.errors[i],
                                         payload, None)
        if payload and first[i] and \
                checks.canonical(payload, digestless) != checks.canonical(first[i], digestless):
            reasons.append("payload differs across thread counts")
        if reasons:
            failures.append(f"thread check config {i}: " + "; ".join(reasons))
    return failures


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, passes beyond) at the highest percentile that
    keeps min(10, n // 4) of the n passes beyond it: ten from 40 passes on,
    the upper quartile below that."""
    s = sorted(values)
    beyond = min(10, len(s) // 4)
    idx = len(s) - 1 - beyond
    return s[idx], 100.0 * (idx + 1) / len(s), beyond


def end_to_end(passes: list[Pass], calibrations: list[float]) -> tuple[dict, list[str]]:
    """Times scaled to the reference machine speed, and the peak RSS."""
    times = [p.pass_s * p.speed_scale for p in passes]
    setups = [p.setup_s * p.speed_scale for p in passes]
    tail_s, pct, beyond = tail(times)
    metrics = {
        "pass_p50_s": (statistics.median(times), "s"),
        "pass_tail_s": (tail_s, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in passes), "MB"),
    }
    notes = [f"pass_tail_s is p{pct:.0f} of {len(times)} passes ({beyond} beyond it)",
             f"calibration median {statistics.median(calibrations):.4f} s against the "
             f"reference {calibrate.REFERENCE_S} s; unscaled medians: pass "
             f"{statistics.median(p.pass_s for p in passes):.4f} s, setup "
             f"{statistics.median(p.setup_s for p in passes):.4f} s",
             "unscaled pass_s per pass: " + " ".join(f"{p.pass_s:.4f}" for p in passes),
             "unscaled setup_s per pass: " + " ".join(f"{p.setup_s:.4f}" for p in passes),
             "speed scale per pass: " + " ".join(f"{p.speed_scale:.4f}" for p in passes)]
    return metrics, notes


def per_layer(traced: list[Pass], plain: list[Pass]) -> tuple[dict, list[str]]:
    tables = [tracer.layer_metrics(p.spans, p.pass_s) for p in traced]
    metrics = {name: (statistics.median(t[name] for t in tables), unit)
               for name, unit in tracer.LAYER_METRICS.items()}
    traced_s = statistics.median(p.pass_s for p in traced)
    plain_s = statistics.median(p.pass_s for p in plain)
    metrics["trace.pass_p50_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    metrics["trace.top_span_share"] = (statistics.median(t["trace.top_span_share"]
                                                         for t in tables), "1")
    notes = [f"{len(traced)} traced and {len(plain)} untraced passes; "
             f"untraced pass_p50_s {plain_s:.4f} s"]
    return metrics, notes


def load_references(workload: str) -> list:
    data = json.loads(REFERENCES.read_text())
    return data["workloads"][workload]


def bench(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> int:
    n_configs = len(workloads.generate(workload, seed))
    references = load_references(workload) if seed == workloads.DEFAULT_SEED else None
    start = time.monotonic()
    thread_check = run_worker(work, workload, seed, n_configs, swap_threads=True)
    passes: list[Pass] = []
    calibrations = [time_calibration()]
    # a pass and the calibration after it; the thread check stands in for
    # the pass until a timed pass gives a better estimate
    longest = thread_check.wall_s + calibrations[0]
    while True:
        elapsed = time.monotonic() - start
        if elapsed > HARD_LIMIT_S or (len(passes) >= MIN_PASSES and elapsed + longest > seconds):
            break
        p = run_worker(work, workload, seed, n_configs,
                       trace=trace and len(passes) % 2 == 0, pass_id=len(passes) + 1)
        calibrations.append(time_calibration())
        p.speed_scale = calibrate.REFERENCE_S / statistics.fmean(calibrations[-2:])
        passes.append(p)
        longest = max(q.wall_s for q in passes) + max(calibrations)

    failures = score(passes, thread_check, references)
    attempted = n_configs * (len(passes) + 1)
    reported = [p for p in passes if not math.isnan(p.pass_s)]
    traced = [p for p in reported if p.spans]
    plain = [p for p in reported if not p.spans]
    if not plain or trace and not traced:
        print("too few passes completed:\n" + "\n".join(failures), file=sys.stderr)
        return 1
    metrics, notes = per_layer(traced, plain) if trace else end_to_end(plain, calibrations)

    print(f"workload {workload}, seed {seed}, {len(passes)} passes in "
          f"{time.monotonic() - start:.1f} s, thread check at swapped thread counts")
    if references is None:
        print(f"reference comparison skipped: seed {seed} is not the default seed "
              f"{workloads.DEFAULT_SEED}")
    else:
        print(f"outputs compared with references.json (relative tolerance {checks.RTOL:g})")
    width = max(map(len, metrics))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")
    print(f"  {'failed_ratio':<{width}}  {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} config runs)")
    for line in notes + failures:
        print("  " + line)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def write_references(work: Path) -> int:
    """Record each workload's payloads at the default seed as the reference."""
    recorded = {}
    for workload in workloads.WORKLOADS:
        n_configs = len(workloads.generate(workload, workloads.DEFAULT_SEED))
        p = run_worker(work, workload, workloads.DEFAULT_SEED, n_configs)
        failures = score([p], p, None)  # the pass stands in for its own thread check
        if failures:
            print(f"{workload}: not recorded:\n" + "\n".join(failures), file=sys.stderr)
            return 1
        recorded[workload] = [checks.reference_view(payload) for payload in p.payloads]
    REFERENCES.write_text(json.dumps({"seed": workloads.DEFAULT_SEED, "workloads": recorded},
                                     indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCES}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the hardylab CLI front door.")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-references", action="store_true",
                        help="record the default-seed outputs of every workload and exit")
    args = parser.parse_args(argv)
    # exit through SystemExit on SIGTERM, so a running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "hardylab" / "__init__.py").is_file():
        print(f"no hardylab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.write_references and args.workload is None:
        parser.error("--workload is required")
    work = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        if args.write_references:
            return write_references(work)
        if args.seed == workloads.DEFAULT_SEED and not REFERENCES.is_file():
            print(f"missing {REFERENCES}; record it with --write-references", file=sys.stderr)
            return 2
        return bench(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())
