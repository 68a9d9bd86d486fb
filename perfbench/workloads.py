"""Seeded experiment configs for the two benchmark workloads.

Each workload is an ordered list of CLI configs (plain JSON dicts, the only
thing the program sees).  ``pairs`` is the blow-up probe (graded 1-D grids,
1 thread) followed by the large 2-D and 3-D grids (uniform and masked, 2
threads); ``batteries`` is the small-call work.  The workload seed sets the
``seed`` field of the ``lemma-suite`` and ``estimate-constant`` configs and
jitters the bump centres and radii of the large-grid configs.  The jitter
never moves a grid: every grid is fixed by its domain, truncation box and
resolution, so cell and pair counts are the same for every seed.

This module imports nothing from hardylab or numpy, so run.py can use
it before any worker starts.
"""

from __future__ import annotations

import random

WORKLOADS = ("pairs", "batteries")

#: seed whose outputs were recorded in references.json
DEFAULT_SEED = 0

#: worker threads of the probe configs, the large-grid configs (which
#: exercise the threaded pair sum) and the battery configs
PROBE_THREADS, GRID_THREADS, BATTERY_THREADS = 1, 2, 1

_SLAB_1D = {"kind": "slab", "n": 1, "d": 1}
_SLAB_2D = {"kind": "slab", "n": 1, "d": 2}
_FRAC_1D = {"d": 1, "p": "2", "s": "1/2", "tau": "2"}
_FRAC_2D = {"d": 2, "p": "2", "s": "1/2", "tau": "2"}
_L_SHAPE = [[0, 0], [1, 0], [1, 0.5], [0.5, 0.5], [0.5, 1], [0, 1]]


def _probe(cells_per_block: int) -> dict:
    # levels stop at 8: above it LogSpikeFamily.max_depth reuses the
    # level-8 member, so deeper levels would time skipped work
    return {
        "command": "blowup-probe",
        "domain": _SLAB_1D,
        "frac": _FRAC_1D,
        "case": "1b",
        "levels": [3, 8],
        "beta_offsets": [-1, 0, 1],
        "expect": {"-1": "diverging", "0": "bounded", "1": "bounded"},
        "cells_per_block": cells_per_block,
    }


def _bump(rng: random.Random, center, radius, shift: float) -> dict:
    """Tensor bump with centre moved by up to ``shift`` per axis and radii
    scaled by up to 5 %; the caller's nominal support leaves that margin."""
    return {
        "kind": "tensor_bump",
        "center": [c + rng.uniform(-shift, shift) for c in center],
        "radius": [r * rng.uniform(0.95, 1.05) for r in radius],
    }


def _grids(rng: random.Random) -> list[dict]:
    slab_bump = ([0.0, 0.5], [0.6, 0.35], 0.05)
    seminorms = [
        {
            "command": "seminorm",
            "domain": _SLAB_2D,
            "frac": _FRAC_2D,
            "u": _bump(rng, *slab_bump),
            "resolution": res,
        }
        for res in (64, 128)
    ]
    l_shape = {
        "command": "hardy-check",
        "domain": {"kind": "polygon", "vertices": _L_SHAPE},
        "frac": _FRAC_2D,
        "case": "1a",
        "u": _bump(rng, [0.3, 0.3], [0.18, 0.18], 0.02),
        "resolution": 64,
    }
    exterior = {
        "command": "hardy-check",
        "domain": {"kind": "exterior_ball", "R": 1.0, "d": 2},
        "frac": {"d": 2, "p": "4", "s": "1/2", "tau": "5"},
        "case": "2a",
        "u": _bump(rng, [1.6, 0.0], [0.5, 0.5], 0.05),
        "support_box": [[-2.5, -2.5], [2.5, 2.5]],
        "resolution": 64,
    }
    slab_3d = {
        "command": "hardy-check",
        "domain": {"kind": "slab", "n": 1, "d": 3},
        "frac": {"d": 3, "p": "3", "s": "1/3", "tau": "4"},
        "case": "1a",
        "u": _bump(rng, [0.0, 0.0, 0.5], [0.5, 0.5, 0.3], 0.05),
        "resolution": 16,
    }
    return seminorms + [l_shape, exterior, slab_3d]


def _batteries(seed: int) -> list[dict]:
    estimate = {
        "command": "estimate-constant",
        "domain": _SLAB_1D,
        "frac": _FRAC_1D,
        "case": "1b",
        "family": {"kind": "boundary_bump", "log2_h_range": [-7.0, -2.0]},
        "search": {"starts": 8, "budget_per_start": 200},
        "resolution": 128,
        "seed": seed,
    }
    lemma_suite = {
        "command": "lemma-suite",
        "seed": seed,
        "elementary_count": 100000,
        "pair_count": 1000,
    }
    # a log spike has mass in every layer; the demo bump skips the deep
    # layers, which would make the three depths a vacuous run
    telescope = {
        "command": "telescope",
        "domain": _SLAB_2D,
        "frac": _FRAC_2D,
        "u": {"kind": "log_spike", "depth": 2, "t0": 1, "transverse": [[-0.6], [0.6]]},
        "depths": [-4, -5, -6],
    }
    return [estimate, lemma_suite, telescope]


def generate(workload: str, seed: int, swap_threads: bool = False) -> list[dict]:
    """The workload's configs for ``seed``; ``swap_threads`` runs each config
    at the other thread count (1 <-> 2), for the thread check."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if workload == "pairs":
        configs = [dict(cfg, threads=PROBE_THREADS) for cfg in (_probe(8), _probe(16))]
        configs += [dict(cfg, threads=GRID_THREADS) for cfg in _grids(random.Random(seed))]
    else:
        configs = [dict(cfg, threads=BATTERY_THREADS) for cfg in _batteries(seed % 2**32)]
    if swap_threads:
        configs = [dict(cfg, threads=3 - cfg["threads"]) for cfg in configs]
    return configs
