"""The pinned payloads of the demo configs and the workload runs, and the
one comparison that holds a run to its pin.

Each demo config is pinned once.  ``data/demo_payloads.json`` holds the
runs that no benchmark workload repeats.  The other demo configs are the
same runs as workload configs, whose payloads ``perfbench/references.json``
records at its ``seed``; ``SHARED_RUNS`` names each one's workload and
index there.  Config text cannot match them: the demo probe leaves
``cells_per_block`` at its default, which the workload sets to 8.  The
workload runs that no demo config repeats are pinned by the references
alone (``UNSHARED_RUNS``).
"""

from __future__ import annotations

import functools
import importlib.util
import json
import math
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
DEMO_STORE = Path(__file__).parent / "data" / "demo_payloads.json"
REFERENCES = REPO / "perfbench" / "references.json"

#: demo config -> (workload, index) of the same run in the references
SHARED_RUNS = {
    "blowup_probe": ("pairs", 0),
    "estimate_constant": ("batteries", 0),
    "lemma_suite": ("batteries", 1),
    "telescope": ("batteries", 2),
}


@functools.cache
def load_workloads():
    """``perfbench/workloads.py``, which imports nothing from hardylab."""
    spec = importlib.util.spec_from_file_location("workloads", REPO / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def stored_payloads() -> dict[str, dict]:
    """The demo store: the payload of each demo config no workload runs."""
    return json.loads(DEMO_STORE.read_text())


@functools.cache
def references() -> dict:
    """``perfbench/references.json``: the payload of each workload run at
    its ``seed``, the workloads' default."""
    refs = json.loads(REFERENCES.read_text())
    assert refs["seed"] == load_workloads().DEFAULT_SEED, refs["seed"]
    return refs


#: (workload, index) of each workload run that no demo config repeats
UNSHARED_RUNS = [(workload, index) for workload, runs in references()["workloads"].items()
                 for index in range(len(runs)) if (workload, index) not in SHARED_RUNS.values()]


def pinned_payload(name: str) -> dict:
    """The pinned command, results, series and verdicts of the demo config
    ``name`` (its file's stem)."""
    if name not in SHARED_RUNS:
        return stored_payloads()[name]
    workload, index = SHARED_RUNS[name]
    return references()["workloads"][workload][index]


def assert_payload_equal(got, want, where="payload"):
    """Floats equal to a relative 1e-12 (exact bits may differ between
    CPUs), every other value exactly: the same keys, lengths and types."""
    assert type(got) is type(want), f"{where}: {got!r} != {want!r}"
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            assert_payload_equal(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_payload_equal(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"
