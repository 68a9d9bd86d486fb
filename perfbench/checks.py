"""Correctness checks on the outputs of one config run.

A config run passes when the CLI returned 0, wrote ``summary.json`` and
every gated verdict holds, and, at the default seed, its numeric payload
matches the reference recorded in ``references.json``.  Floats match
within ``RTOL`` (relative); every other value must be equal.  The
tolerance admits last-bit moves such as a switch of the summation to
``math.fsum`` (which moves two outputs, by at most 3e-16) and catches any
change of kernel (dropping the seminorm's diagonal patch moves the probe
ratios and the hardy-check norms by 0.5-3 %).

``hardy-check``'s ``finite`` gate passes for any input, so its ratios are
only checked through the reference comparison.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

RTOL = 1e-9

#: payload fields compared with the reference (the digest hashes the
#: config, the version names the package; neither is a result)
REFERENCE_FIELDS = ("command", "results", "series", "verdicts")


def read_payload(out_dir: Path) -> dict | None:
    """The numeric payload of ``out_dir/summary.json`` (timing dropped)."""
    try:
        payload = json.loads((out_dir / "summary.json").read_text())
    except (OSError, json.JSONDecodeError):
        return None
    payload.pop("timing", None)
    return payload


def canonical(payload: dict, drop: tuple[str, ...] = ()) -> str:
    """Byte-comparable form of a payload without the ``drop`` fields."""
    return json.dumps({k: v for k, v in payload.items() if k not in drop},
                      sort_keys=True, separators=(",", ":"))


def reference_view(payload: dict) -> dict:
    return {k: payload.get(k) for k in REFERENCE_FIELDS}


def mismatches(actual, expected, rtol: float = RTOL, path: str = "") -> list[str]:
    """Paths at which ``actual`` differs from ``expected``."""
    if isinstance(expected, float) and isinstance(actual, (int, float)) \
            and not isinstance(actual, bool):
        if actual == expected or (math.isnan(actual) and math.isnan(expected)):
            return []
        if math.isfinite(expected) and abs(actual - expected) <= rtol * abs(expected):
            return []
        return [f"{path or '<root>'}: {actual!r} != {expected!r}"]
    if isinstance(expected, dict) and isinstance(actual, dict):
        if actual.keys() != expected.keys():
            return [f"{path or '<root>'}: keys {sorted(actual)} != {sorted(expected)}"]
        return [m for k in expected for m in mismatches(actual[k], expected[k], rtol,
                                                          f"{path}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(actual) != len(expected):
            return [f"{path or '<root>'}: length {len(actual)} != {len(expected)}"]
        return [m for i, (a, e) in enumerate(zip(actual, expected))
                for m in mismatches(a, e, rtol, f"{path}[{i}]")]
    if type(actual) is not type(expected) or actual != expected:
        return [f"{path or '<root>'}: {actual!r} != {expected!r}"]
    return []


def config_failures(exit_code, error: str | None, payload: dict | None,
                    reference: dict | None) -> list[str]:
    """Reasons one config run failed; empty when it passed."""
    if error is not None:
        return ["crashed: " + error.strip().splitlines()[-1]]
    reasons = []
    if exit_code != 0:
        reasons.append(f"exit code {exit_code}")
    if payload is None:
        return reasons + ["no readable summary.json"]
    failed_gates = sorted(k for k, ok in payload.get("verdicts", {}).items() if not ok)
    if failed_gates:
        reasons.append("gates failed: " + ", ".join(failed_gates))
    if reference is not None:
        diffs = mismatches(reference_view(payload), reference)
        if diffs:
            reasons.append(f"{len(diffs)} values differ from the reference, first {diffs[0]}")
    return reasons
