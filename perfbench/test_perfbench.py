"""Self-test of the benchmark: every correctness check can fail.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs the blow-up probe config (the first config of ``pairs``) in-process
through the same ``prepare`` / ``run_pass`` code the worker uses, then
scores doctored copies of its outputs.  The last tests run run.py itself for a second or two.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import workloads
import worker

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def hardylab():
    return worker.import_hardylab(run.ROOT)


def probe_pass(hardylab, work: Path, config: dict) -> run.Pass:
    """One pass over a single blow-up probe config, scored as run.py scores it."""
    paths = worker.prepare(hardylab.cli, [config], work)
    result = worker.run_pass(hardylab.cli, paths, work)
    return run.Pass(wall_s=result["pass_s"], pass_s=result["pass_s"],
                    exit_codes=result["exit_codes"], errors=result["errors"],
                    payloads=[checks.read_payload(work / "out" / "0")])


@pytest.fixture(scope="module")
def clean(hardylab, tmp_path_factory):
    config = workloads.generate("pairs", workloads.DEFAULT_SEED)[0]
    return probe_pass(hardylab, tmp_path_factory.mktemp("clean"), config)


@pytest.fixture(scope="module")
def reference():
    return run.load_references("pairs")[:1]


def test_clean_pass_has_no_failures(clean, reference):
    assert run.score([clean], clean, reference) == []


def test_last_bit_move_is_tolerated(clean, reference):
    moved = copy.deepcopy(reference)
    moved[0]["series"]["offset_+0"][0]["ratio"] *= 1 + 1e-13
    assert run.score([clean], clean, moved) == []


def test_perturbed_reference_fails(clean, reference):
    perturbed = copy.deepcopy(reference)
    perturbed[0]["series"]["offset_+0"][0]["ratio"] *= 1 + 1e-6
    failures = run.score([clean], clean, perturbed)
    assert len(failures) == 1 and "differ from the reference" in failures[0]


def test_flipped_expect_fails(hardylab, tmp_path, reference):
    config = workloads.generate("pairs", workloads.DEFAULT_SEED)[0]
    config["expect"] = {"-1": "bounded", "0": "diverging", "1": "diverging"}
    flipped = probe_pass(hardylab, tmp_path, config)
    assert flipped.exit_codes == [1]
    failures = run.score([flipped], flipped, reference)
    assert len(failures) == 2  # the timed pass and the thread check
    assert all("exit code 1" in f and "gates failed" in f for f in failures)


def test_payload_differing_across_threads_fails(clean, reference):
    other = copy.deepcopy(clean)
    other.payloads[0]["config_digest"] = "0" * 16  # allowed to differ
    assert run.score([clean], other, reference) == []
    other.payloads[0]["series"]["offset_-1"][-1]["ratio"] *= 1 + 1e-15
    failures = run.score([clean], other, reference)
    assert failures == ["thread check config 0: payload differs across thread counts"]


def test_payload_differing_across_passes_fails(clean, reference):
    second = copy.deepcopy(clean)
    second.payloads[0]["results"]["beta_table"] = "3"
    failures = run.score([clean, second], clean, reference)
    assert len(failures) == 1 and "differs from pass 1" in failures[0]


def test_crash_fails():
    crashed = run.Pass(wall_s=1.0, exit_codes=[None], errors=["Traceback\nValueError: x"],
                       payloads=[None])
    failures = run.score([crashed], crashed, None)
    assert len(failures) == 2 and "crashed: ValueError: x" in failures[0]


def test_times_are_scaled_to_the_reference_speed():
    passes = [run.Pass(wall_s=3.0, setup_s=1.0, pass_s=2.0, peak_rss_mb=100.0,
                       speed_scale=scale) for scale in (0.5, 1.0, 2.0)]
    metrics, _ = run.end_to_end(passes, [1.0, 1.0, 1.0, 1.0])
    assert metrics["pass_p50_s"] == (2.0, "s")
    assert metrics["setup_s"] == (1.0, "s")
    assert metrics["pass_tail_s"] == (4.0, "s")
    assert metrics["peak_rss_mb"] == (100.0, "MB")


def test_mismatches_types_and_tolerance():
    assert checks.mismatches({"a": [1.0, 2]}, {"a": [1.0 + 1e-12, 2]}) == []
    assert checks.mismatches({"a": 1.0}, {"a": 1.1})
    assert checks.mismatches({"n": 535}, {"n": 534})
    assert checks.mismatches({"ok": 1}, {"ok": True})
    assert checks.mismatches({"a": 1.0}, {"a": 1.0, "b": 2.0})


def test_seed_moves_no_grid():
    def shape(cfg):
        return {k: v for k, v in cfg.items() if k not in ("u", "seed")}

    for workload in workloads.WORKLOADS:
        a, b = (workloads.generate(workload, s) for s in (0, 17))
        assert [shape(c) for c in a] == [shape(c) for c in b]
    pairs = workloads.generate("pairs", 0), workloads.generate("pairs", 17)
    assert pairs[0][2]["u"] != pairs[1][2]["u"]  # the first large-grid config


def test_thread_check_swaps_every_config():
    for workload in workloads.WORKLOADS:
        timed = workloads.generate(workload, 0)
        swapped = workloads.generate(workload, 0, swap_threads=True)
        assert {c["threads"] for c in timed} <= {1, 2}
        assert [c["threads"] for c in swapped] == [3 - c["threads"] for c in timed]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "batteries", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=170)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", "pairs",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""
