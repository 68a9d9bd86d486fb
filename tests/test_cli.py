import ast
import contextlib
import copy
import functools
import io
import json
import os
import re
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hardylab import cli
from hardylab import experiments as exp
from hardylab import geometry as geo
from hardylab import quadrature as quad
from hardylab.cli import ConfigError, ExperimentConfig
from hardylab.errors import ParameterError
from payload_pins import (SHARED_RUNS, UNSHARED_RUNS, assert_payload_equal, load_workloads,
                          pinned_payload, references, stored_payloads)


EXPONENTS_CFG = {
    "command": "exponents",
    "case": "1a",
    "frac": {"d": 2, "p": "2", "s": "1/2", "tau": "2"},
}

SEMINORM_CFG = {
    "command": "seminorm",
    "domain": {"kind": "slab", "n": 1, "d": 1},
    "frac": {"d": 1, "p": "2", "s": "1/2", "tau": "2"},
    "u": {"kind": "polynomial", "coeffs": [0.0, 1.0], "support": [[0.0], [1.0]]},
    "resolution": 64,
}

PROBE_CFG = {
    "command": "blowup-probe",
    "domain": {"kind": "slab", "n": 1, "d": 1},
    "frac": {"d": 1, "p": "2", "s": "1/2", "tau": "2"},
    "case": "1b",
    "levels": [3, 6],
    "beta_offsets": [-1, 0],
    "expect": {"-1": "diverging", "0": "bounded"},
}

LEMMA_CFG = {
    "command": "lemma-suite",
    "seed": 1,
    "elementary_count": 2000,
    "pair_count": 40,
}


ESTIMATE_CFG = {
    "command": "estimate-constant",
    "domain": {"kind": "slab", "n": 1, "d": 1},
    "frac": {"d": 1, "p": "2", "s": "1/2", "tau": "2"},
    "case": "1b",
    "search": {"starts": 2, "budget_per_start": 15},
    "resolution": 32,
}

# the d=2 slab at case 1a, with a short search
ESTIMATE_2D_CFG = dict(ESTIMATE_CFG, case="1a", domain={"kind": "slab", "n": 1, "d": 2},
                       frac={"d": 2, "p": "2", "s": "1/2", "tau": "2"}, resolution=16,
                       search={"starts": 1, "budget_per_start": 5})

HARDY_CFG = {
    "command": "hardy-check",
    "domain": {"kind": "slab", "n": 1, "d": 1},
    "frac": {"d": 1, "p": "2", "s": "1/2", "tau": "2"},
    "case": "1b",
    "u": {"kind": "tensor_bump", "center": [0.5], "radius": [0.25]},
    "resolution": 32,
}

TELESCOPE_CFG = {
    "command": "telescope",
    "domain": {"kind": "slab", "n": 1, "d": 1},
    "frac": {"d": 1, "p": "2", "s": "1/2", "tau": "2"},
    "u": {"kind": "tensor_bump", "center": [0.3], "radius": [0.25]},
    "depths": [-3, -4],
}

FRAC_2D = {"d": 2, "p": "2", "s": "1/2", "tau": "2"}

EXTERIOR_CFG = dict(
    HARDY_CFG,
    case="2a",
    domain={"kind": "exterior_ball", "R": 1.0, "d": 1},
    u={"kind": "tensor_bump", "center": [1.5], "radius": [0.25]},
    support_box=[[-2.0], [2.0]],
)

BOX_CFG = dict(
    SEMINORM_CFG,
    domain={"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
    frac=FRAC_2D,
    u={"kind": "tensor_bump", "center": [0.5, 0.5], "radius": [0.25, 0.25]},
)

CONE_CFG = dict(
    BOX_CFG,
    domain={"kind": "epigraph", "graph": {"kind": "cone", "slope": 0.5}, "d": 2},
    u={"kind": "tensor_bump", "center": [0.0, 1.0], "radius": [0.25, 0.25]},
    support_box=[[-0.5, 0.5], [0.5, 1.5]],
)

DEMO_CONFIGS = sorted((Path(__file__).parent.parent / "demos" / "configs").glob("*.json"))
DEMO_SCRIPTS = sorted((Path(__file__).parent.parent / "demos").glob("0*.py"))

TELESCOPE_DEMO_CFG = json.loads(next(p for p in DEMO_CONFIGS
                                     if p.stem == "telescope").read_text())

# the former demo bump, at heights [0.15, 0.85]: depths -4, -5 and -6 skip
# their deepest 1, 2 and 3 layers and repeat one chain
SKIPPING_TELESCOPE_CFG = dict(
    TELESCOPE_DEMO_CFG,
    u={"kind": "tensor_bump", "center": [0.0, 0.5], "radius": [0.6, 0.35]},
)


def test_config_rejects_unknown_command():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict({"command": "frobnicate"})
    assert "command" in str(err.value)


def test_config_field_diagnostics():
    bad = dict(EXPONENTS_CFG, frac={"d": 2, "p": "2", "s": "1/2"})
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(bad)
    assert "frac.tau" in str(err.value)

    bad = dict(EXPONENTS_CFG, resolution=100)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(bad)
    assert "resolution" in str(err.value)

    bad = dict(SEMINORM_CFG, u={"kind": "mystery"})
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(bad)
    assert "u.kind" in str(err.value)


def test_config_rejects_float_exponent():
    bad = dict(EXPONENTS_CFG, frac={"d": 2, "p": 2.5, "s": "1/2", "tau": "2"})
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(bad)
    assert "frac.p" in str(err.value)


def test_config_roundtrip_idempotent():
    cfg = ExperimentConfig.from_dict(PROBE_CFG)
    text = cfg.canonical_json()
    again = ExperimentConfig.parse(text)
    assert again.canonical_json() == text
    assert again.digest() == cfg.digest()


def test_domain_from_config_spec():
    # every domain kind and graph kind, read from its config spec
    cases = [
        ({"kind": "slab", "n": 2, "d": 3}, geo.Slab(n=2, d=3)),
        ({"kind": "exterior_ball", "R": 1.5, "d": 2}, geo.ExteriorBall(R=1.5, d=2)),
        ({"kind": "box", "lo": [0.0, 0.0], "hi": [1.0, 2.0]},
         geo.BoxDomain(geo.Box((0.0, 0.0), (1.0, 2.0)))),
        ({"kind": "polygon", "vertices": [[0, 0], [1, 0], [0.5, 1]]},
         geo.Polygon2D(((0.0, 0.0), (1.0, 0.0), (0.5, 1.0)))),
        ({"kind": "epigraph", "graph": {"kind": "cone", "slope": 0.5}, "d": 2},
         geo.Epigraph(geo.ConeGraph(0.5), d=2)),
        ({"kind": "epigraph", "graph": {"kind": "piecewise_linear",
                                        "breakpoints": [[-1.0, 0.0], [1.0, 1.0]]}, "d": 2},
         geo.Epigraph(geo.PiecewiseLinearGraph(((-1.0, 0.0), (1.0, 1.0))), d=2)),
        ({"kind": "epigraph", "graph": {"kind": "flat"}, "d": 3},
         geo.Epigraph(geo.AffineGraph((0.0, 0.0)), d=3)),
        ({"kind": "epigraph", "graph": {"kind": "affine", "slope": [0.5, -1.0], "offset": 0.25},
          "d": 3},
         geo.Epigraph(geo.AffineGraph((0.5, -1.0), 0.25), d=3)),
    ]
    for spec, domain in cases:
        assert ExperimentConfig("seminorm", {"domain": spec}).domain(domain.d) == domain


def test_exponents_record():
    record = cli.run(ExperimentConfig.from_dict(EXPONENTS_CFG))
    assert record.results["alpha"] == "1"
    assert record.results["beta"] == "2"
    assert record.passed


def test_seminorm_record_value():
    record = cli.run(ExperimentConfig.from_dict(SEMINORM_CFG))
    assert record.results["seminorm"] == pytest.approx(1.0, rel=1e-6)


def test_lemma_suite_reproducible():
    cfg = ExperimentConfig.from_dict(LEMMA_CFG)
    r1 = cli.run(cfg)
    r2 = cli.run(cfg)
    assert r1.passed
    assert json.dumps(r1.numeric_payload(), sort_keys=True) == json.dumps(
        r2.numeric_payload(), sort_keys=True
    )


def test_lemma_suite_gate_fails_with_impossible_tolerance():
    cfg = ExperimentConfig.from_dict(dict(LEMMA_CFG, tolerance=-1.0))
    record = cli.run(cfg)
    assert not record.passed


def test_blowup_probe_verdicts():
    record = cli.run(ExperimentConfig.from_dict(PROBE_CFG))
    assert record.results["offset_-1"] == "diverging"
    assert record.results["offset_+0"] == "bounded"
    assert record.passed
    assert len(record.series["offset_-1"]) == 4


def test_numeric_payload_reproduces_across_threads():
    # ``threads`` is still read and bounded, and no thread is started: the
    # field leaves the payload alone, on one config of each command (the
    # demo configs, and HARDY_CFG for hardy-check, which has no demo)
    bases = [json.loads(path.read_text()) for path in DEMO_CONFIGS] + [HARDY_CFG]
    assert {cfg["command"] for cfg in bases} == set(cli.COMMANDS)
    for base in bases:
        payloads = []
        for threads in (1, 2):
            record = cli.run(ExperimentConfig.from_dict(dict(base, threads=threads)))
            payload = record.numeric_payload()
            payload.pop("config_digest")  # differs: threads is part of the config
            payloads.append(json.dumps(payload, sort_keys=True))
        assert payloads[0] == payloads[1], base["command"]


def test_record_files_and_exit_code(tmp_path: Path):
    cfg_path = tmp_path / "probe.json"
    cfg_path.write_text(json.dumps(dict(PROBE_CFG, out=str(tmp_path / "res"))))
    code = cli.main(["--config", str(cfg_path)])
    assert code == 0
    summary = json.loads((tmp_path / "res" / "summary.json").read_text())
    assert summary["command"] == "blowup-probe"
    assert (tmp_path / "res" / "offset_-1.csv").exists()


def test_main_rerun_byte_identical_outputs(tmp_path: Path):
    cfg_path = tmp_path / "lemma.json"
    cfg_path.write_text(json.dumps(LEMMA_CFG))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli.main(["--config", str(cfg_path), "--out", str(out2)]) == 0
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    s1.pop("timing")
    s2.pop("timing")
    assert s1 == s2
    assert (out1 / "power_sum.csv").read_bytes() == (out2 / "power_sum.csv").read_bytes()


def test_main_bad_config_exit_2(tmp_path: Path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text("{not json")
    assert cli.main(["--config", str(cfg_path)]) == 2
    cfg_path.write_text(json.dumps({"command": "exponents"}))  # missing case/frac
    assert cli.main(["--config", str(cfg_path)]) == 2
    cfg_path.write_text("[1, 2]")  # not an object, with a field override
    assert cli.main(["--config", str(cfg_path), "--seed", "2"]) == 2
    cfg_path.write_bytes(b"\xff\xfe")  # not UTF-8
    assert cli.main(["--config", str(cfg_path)]) == 2


def test_main_gate_failure_exit_1(tmp_path: Path):
    cfg_path = tmp_path / "gate.json"
    cfg_path.write_text(json.dumps(dict(LEMMA_CFG, tolerance=-1.0)))
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1


def test_flag_overrides(tmp_path: Path):
    cfg_path = tmp_path / "sem.json"
    cfg_path.write_text(json.dumps(SEMINORM_CFG))
    out = tmp_path / "r"
    assert cli.main(["--config", str(cfg_path), "--out", str(out), "--resolution", "32"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["resolution"] == 32
    # the pair sum takes no worker count, so the CLI has no flag for one
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
        cli.main(["--config", str(cfg_path), "--threads", "2"])
    assert exc.value.code == 2


# configs that break a rule of the library their work would check: the
# config reads call that rule, so they exit 2 naming the field, not during
# the work with no field named
WORK_RULE_CASES = [
    # the telescope's chain is case 1b on the d = 1 slab, which needs sp = 1
    (dict(TELESCOPE_CFG, frac={"d": 1, "p": "4", "s": "1/2", "tau": "4"}, depths=[-4]), "frac"),
    # each case group is stated for its kinds of domain
    (dict(HARDY_CFG, case="2a", domain={"kind": "slab", "n": 1, "d": 2},
          frac={"d": 2, "p": "4", "s": "1/2", "tau": "5"},
          u={"kind": "tensor_bump", "center": [0.0, 0.5], "radius": [0.25, 0.25]}), "domain"),
    (dict(ESTIMATE_CFG, domain={"kind": "exterior_ball", "R": 1.0, "d": 1},
          support_box=[[-2.0], [2.0]]), "domain"),
    # a box domain's grid is its support box clipped to the domain
    (dict(SEMINORM_CFG, domain={"kind": "box", "lo": [0.0], "hi": [1.0]},
          support_box=[[5.0], [6.0]]), "support_box"),
    (dict(SEMINORM_CFG, domain={"kind": "box", "lo": [0.0, 0.0], "hi": [1e-160, 1e-160]},
          frac=FRAC_2D, resolution=16, support_box=[[0.0, 0.0], [1.0, 1.0]],
          u={"kind": "tensor_bump", "center": [5e-161, 5e-161], "radius": [3e-161, 3e-161]}),
     "support_box"),
]


# a member is a function on R^d, d = frac.d (quadrature.check_member): on
# the d = 2 slab, a 3-D member once crashed the evaluation and a 1-D bump
# ran as a bump at (c, c)
SLAB_2D = {"kind": "slab", "n": 1, "d": 2}
BUMP_1D = {"kind": "tensor_bump", "center": [0.5], "radius": [0.25]}
WORK_RULE_CASES += [
    (dict(BOX_CFG, domain=SLAB_2D, resolution=16,
          u={"kind": "tensor_bump", "center": [0.0, 0.5, 0.5], "radius": [0.25] * 3}), "u"),
    (dict(BOX_CFG, domain=SLAB_2D, resolution=16,
          u={"kind": "constant", "value": 1.0, "support": [[0.0] * 3, [0.5] * 3]}), "u"),
    (dict(BOX_CFG, domain=SLAB_2D, resolution=16, u=BUMP_1D), "u"),
    (dict(HARDY_CFG, case="1a", domain=SLAB_2D, frac=FRAC_2D, resolution=16, u=BUMP_1D), "u"),
    (dict(TELESCOPE_CFG, domain=SLAB_2D, frac=FRAC_2D, u=BUMP_1D), "u"),
]


# a member's support, or a family's hull, lies in the grid's box
# (quadrature.check_support): each of these once scored members that leave
# the d = 1 slab or the unit square
ESTIMATE_DEMO_CFG = json.loads(next(p for p in DEMO_CONFIGS
                                    if p.stem == "estimate_constant").read_text())
WORK_RULE_CASES += [
    (dict(HARDY_CFG, u={"kind": "tensor_bump", "center": [0.9], "radius": [0.25]}), "u"),
    (dict(ESTIMATE_DEMO_CFG, family={"kind": "boundary_bump", "log2_h_range": [-3, -0.5]},
          support_box=[[-1], [2]]), "family.log2_h_range"),
    # the default range's bumps reach 0.75, above this support box
    (dict(ESTIMATE_DEMO_CFG, support_box=[[0], [0.5]]), "family.log2_h_range"),
    (dict(ESTIMATE_DEMO_CFG, family={"kind": "boundary_bump", "log2_h_range": [-3, -2]},
          support_box=[[0.5], [1]]), "family.log2_h_range"),
]

# ... and in the closed domain by the domain's own test: a bump half in
# the exterior ball's hole once scored 0.2218, and one below the cone's
# graph 0.1058
WORK_RULE_CASES += [
    (dict(EXTERIOR_CFG, u={"kind": "tensor_bump", "center": [1.0], "radius": [0.25]}), "u"),
    (dict(HARDY_CFG, case="3a", domain=CONE_CFG["domain"], frac=FRAC_2D, resolution=16,
          support_box=[[-0.5, 0.0], [0.5, 1.5]],
          u={"kind": "tensor_bump", "center": [0.0, 0.3], "radius": [0.4, 0.25]}), "u"),
]


# the probe's weight is the slab's, so its case must be one stated for the
# slab: cases 2a and 2b, stated for the exterior ball, once ran the case-1b
# probe under their own label and exited 0
WORK_RULE_CASES += [
    (dict(PROBE_CFG, case="2a"), "domain"),
    (dict(PROBE_CFG, case="2b", frac={"d": 1, "p": "4", "s": "1/4", "tau": "3"}), "domain"),
]

# ... and a group-1 case, whose slab weight is the flat one: cases 3b and
# 3c, stated for the slab with the bounded weight, once ran the flat-weight
# probe under their own label and exited 0
WORK_RULE_CASES += [
    (dict(PROBE_CFG, case="3b"), "case"),
    (dict(PROBE_CFG, case="3c", frac={"d": 1, "p": "2", "s": "1/2", "tau": "3/2"}), "case"),
]

# the record keys each probe by its offset: a repeated offset once ran
# twice and was written once
WORK_RULE_CASES += [
    (dict(PROBE_CFG, beta_offsets=[0, 0, -1]), "beta_offsets"),
]

# an epigraph holds a box on or above the graph's maximum over its shadow,
# which a piecewise-linear graph takes at a breakpoint inside it: this
# bump's lower face, at 0.4, lies below the apex at 0.5
TENT_DOMAIN = {"kind": "epigraph", "d": 2, "graph": {
    "kind": "piecewise_linear", "breakpoints": [[-1.0, 0.0], [0.0, 0.5], [1.0, 0.0]]}}
WORK_RULE_CASES += [
    (dict(HARDY_CFG, case="3a", domain=TENT_DOMAIN, frac=FRAC_2D, resolution=16,
          support_box=[[-1.0, 0.0], [1.0, 1.5]],
          u={"kind": "tensor_bump", "center": [0.0, 0.7], "radius": [0.3, 0.3]}), "u"),
]

# an unbounded domain has no bounding box, so its grid needs a support box
WORK_RULE_CASES += [
    ({k: v for k, v in EXTERIOR_CFG.items() if k != "support_box"}, "support_box"),
    (dict(HARDY_CFG, case="3a", domain=TENT_DOMAIN, frac=FRAC_2D, resolution=16,
          u={"kind": "tensor_bump", "center": [0.0, 1.0], "radius": [0.25, 0.25]}),
     "support_box"),
]

# below four levels every offset reads bounded, so an expected verdict
# cannot fail or cannot pass: levels 3..5 expecting divergence once ran
# and exited 1, a failed gate, though the config is at fault
WORK_RULE_CASES += [
    (dict(PROBE_CFG, levels=[3, 5], expect={"-1": "diverging"}), "expect"),
]

# the flat-slab weight of a group-1 case on a slab takes no scale
# (hardy.weight_takes_scale), so there R is unknown: it once left every
# value the same at R 0.001 and at R 7
WORK_RULE_CASES += [
    (dict(HARDY_CFG, R=7), "R"),
]


@pytest.mark.parametrize("cfg,field", WORK_RULE_CASES)
def test_work_rules_are_checked_when_read(cfg, field):
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_dict(cfg)
    assert err.value.field_path == field


def test_r_moves_the_ratio_where_the_weight_reads_it():
    # on a box the bounded weight, rho = 2R / delta, reads R
    box = dict(HARDY_CFG, domain={"kind": "box", "lo": [0.0], "hi": [1.0]})
    ratio_1, ratio_7 = (cli.run(ExperimentConfig.from_dict(dict(box, R=R))).results["ratio"]
                        for R in (1.0, 7.0))
    assert ratio_1 != ratio_7


@pytest.mark.parametrize(
    "cfg,field",
    [
        (dict(PROBE_CFG, levels="ab"), "levels"),
        (dict(PROBE_CFG, levels=[3]), "levels"),
        (dict(PROBE_CFG, levels=[5, 4]), "levels"),
        (dict(PROBE_CFG, levels=[0, 4]), "levels"),
        (dict(PROBE_CFG, levels=[3, 9]), "levels"),
        (dict(PROBE_CFG, cells_per_block=0), "cells_per_block"),
        (dict(ESTIMATE_CFG, search={"starts": 0}), "search.starts"),
        (dict(ESTIMATE_CFG, search={"budget_per_start": 0}), "search.budget_per_start"),
        (dict(ESTIMATE_CFG, search=[8]), "search"),
        (dict(LEMMA_CFG, elementary_count=0), "elementary_count"),
        (dict(LEMMA_CFG, pair_count="many"), "pair_count"),
        (dict(LEMMA_CFG, tolerance="x"), "tolerance"),
        (dict(TELESCOPE_CFG, depths="ab"), "depths"),
        (dict(TELESCOPE_CFG, depths=[]), "depths"),
        (dict(TELESCOPE_CFG, cells_per_cube=0), "cells_per_cube"),
        (dict(PROBE_CFG, beta_offsets=5), "beta_offsets"),
        (dict(PROBE_CFG, beta_offsets=[]), "beta_offsets"),
        # the probe's growth threshold is its rule's constant, not a field
        (dict(PROBE_CFG, growth_threshold=1.15), "growth_threshold"),
        (dict(PROBE_CFG, expect={"5": "bounded"}), "expect"),
        (dict(PROBE_CFG, expect={"-1": "huge"}), "expect"),
        (dict(ESTIMATE_CFG, family="x"), "family"),
        # log spikes are the probe's members alone: on the uniform grid of a
        # search, every member above level 4 is a multiple of one function
        (dict(ESTIMATE_CFG, family={"kind": "log_spike", "level_range": [3, 12]}),
         "family.kind"),
        (dict(ESTIMATE_CFG, family={"kind": "boundary_bump", "log2_h_range": [-2, -7]}),
         "family.log2_h_range"),
        # R where the weight reads it: on a box and on the exterior ball
        (dict(ESTIMATE_CFG, domain={"kind": "box", "lo": [0.0], "hi": [1.0]}, R=-1), "R"),
        (dict(EXTERIOR_CFG, R="x"), "R"),
        (dict(EXTERIOR_CFG, R=-1), "R"),
        (dict(ESTIMATE_CFG, domain={"kind": "slab", "n": 1, "d": 29916160961}), "domain.d"),
        (dict(HARDY_CFG, domain={"kind": "slab", "n": 1, "d": 2}), "domain.d"),
        (dict(SEMINORM_CFG, domain={"kind": "slab", "n": 1, "d": 3},
              frac={"d": 3, "p": "2", "s": "1/2", "tau": "2"}, resolution=1048576), "resolution"),
        # level 6 grids 101 dyadic blocks: 101 * 16384 cells exceed 2**20
        (dict(PROBE_CFG, cells_per_block=16384), "cells_per_block"),
        (dict(LEMMA_CFG, elementary_count=2**20 + 1), "elementary_count"),
        (dict(LEMMA_CFG, pair_count=2**16 + 1), "pair_count"),
        (dict(ESTIMATE_CFG, search={"starts": 2**10 + 1}), "search.starts"),
        (dict(ESTIMATE_CFG, search={"budget_per_start": 2**14 + 1}), "search.budget_per_start"),
        # the unused ``threads`` is still read with its bounds [1, 64]
        (dict(SEMINORM_CFG, threads=65), "threads"),
        (dict(TELESCOPE_CFG, domain={"kind": "slab", "n": 1, "d": 29916160961},
              frac={"d": 29916160961, "p": "2", "s": "1/2", "tau": "2"}), "depths"),
        # rejected before the d-dimensional bounding box is built
        (dict(ESTIMATE_CFG, case="1a", domain={"kind": "slab", "n": 1, "d": 29916160961},
              frac={"d": 29916160961, "p": "2", "s": "1/2", "tau": "2"}), "resolution"),
        (dict(SEMINORM_CFG, resolution=1024, support_box=[[0.0] * 3, [1.0] * 3]), "support_box"),
        (dict(SEMINORM_CFG, threads=True), "threads"),
        # the cell side 2**-538 breaks the seminorm's range rule: rejected,
        # not a failed gate
        (dict(TELESCOPE_CFG, u={"kind": "tensor_bump", "center": [0.1], "radius": [0.2]},
              depths=[-536]), "depths"),
        (dict(TELESCOPE_CFG, depths=[-100000]), "depths"),
        # JSON booleans are not numbers
        (dict(LEMMA_CFG, seed=True), "seed"),
        (dict(SEMINORM_CFG, frac={"d": True, "p": "2", "s": "1/2", "tau": "2"}), "frac.d"),
        (dict(SEMINORM_CFG, frac={"d": 1, "p": "2", "s": "1/2", "tau": True}), "frac.tau"),
        (dict(TELESCOPE_CFG, u={"kind": "log_spike", "depth": True}), "u.depth"),
        (dict(HARDY_CFG, u={"kind": "constant", "value": True, "support": [[0.2], [0.4]]}),
         "u.value"),
        (dict(ESTIMATE_CFG, family={"kind": "boundary_bump", "width": True}), "family.width"),
        # a short search: were true read as 1.0, it would still run
        (dict(ESTIMATE_CFG, search={"starts": 1, "budget_per_start": 3},
              family={"kind": "boundary_bump", "log2_h_range": [-7, True]}), "family.log2_h_range"),
        (dict(EXTERIOR_CFG, domain={"kind": "exterior_ball", "R": True, "d": 1}), "domain.R"),
        (dict(SEMINORM_CFG, domain={"kind": "box", "lo": [False], "hi": [1.0]}), "domain.lo"),
        (dict(CONE_CFG, domain={"kind": "epigraph", "graph": {"kind": "cone", "slope": True},
                                "d": 2}), "domain.graph.slope"),
        (dict(BOX_CFG, domain={"kind": "polygon",
                               "vertices": [[0, 0], [1, 0], [1, 1], [False, True]]}),
         "domain.vertices"),
        # boundary bumps on [h, h + width] must stay inside the grid's box
        (dict(ESTIMATE_CFG, family={"kind": "boundary_bump", "log2_h_range": [-7, 0.5]}),
         "family.log2_h_range"),
        (dict(ESTIMATE_CFG, family={"kind": "boundary_bump", "log2_h_range": [-7, -0.9]}),
         "family.log2_h_range"),
        (dict(ESTIMATE_CFG, family={"kind": "boundary_bump", "width": 5}), "family.log2_h_range"),
        (dict(ESTIMATE_CFG, family={"kind": "boundary_bump", "log2_h_range": [-7, 2000]}),
         "family.log2_h_range"),
        (dict(ESTIMATE_CFG, family={"kind": "boundary_bump", "width": 0}), "family.width"),
        (dict(ESTIMATE_CFG, family={"kind": "boundary_bump", "width": -0.5}), "family.width"),
        # a family's members must have the dimension of the domain
        (dict(ESTIMATE_2D_CFG, family={"kind": "boundary_bump"}), "family.kind"),
        (dict(ESTIMATE_2D_CFG, family={"kind": "log_spike", "level_range": [3, 5]}),
         "family.kind"),
        # the search has one family, the boundary bumps: a config of the
        # tensor-bump family it once had (this one ran on the d = 1 slab)
        # names its kind, and, with the kind changed, each of its fields
        (dict(ESTIMATE_CFG, family={"kind": "tensor_bump_grid", "center_bounds": [[0.3, 0.7]],
                                    "radius_bounds": [[0.1, 0.2]]}), "family.kind"),
        (dict(ESTIMATE_CFG, family={"kind": "boundary_bump", "radius_bounds": [[0.1, 0.3]]}),
         "family.radius_bounds"),
        (dict(ESTIMATE_CFG, family={"kind": "boundary_bump", "center_bounds": [[0.2, 0.8]]}),
         "family.center_bounds"),
        # a coordinate above 2**500 in magnitude would overflow a squared
        # distance
        (dict(EXTERIOR_CFG, support_box=[[-1e300], [1e300]]), "support_box"),
        (dict(BOX_CFG, domain={"kind": "box", "lo": [-1e300, 0.0], "hi": [1e300, 1.0]}),
         "domain.lo"),
        # ... also where the kind is left to its default, and on the
        # demo's config, whose search would otherwise run
        (dict(ESTIMATE_CFG, family={"radius_bounds": [[0.0, 0.0]]}), "family.radius_bounds"),
        (dict(ESTIMATE_DEMO_CFG, family=dict(ESTIMATE_DEMO_CFG["family"],
                                             radius_bounds=[[-0.2, 0.1]])),
         "family.radius_bounds"),
        # a field the command does not read is unknown: a misspelt field
        # would otherwise run with the default of the one it names
        (dict(PROBE_CFG, cells_per_blocks=64), "cells_per_blocks"),
        (dict(SEMINORM_CFG, frac=dict(SEMINORM_CFG["frac"], q="2")), "frac.q"),
        (dict(SEMINORM_CFG, family={"kind": "boundary_bump"}), "family"),
    ] + WORK_RULE_CASES,
)
def test_main_malformed_field_exit_2(tmp_path: Path, capsys, cfg, field):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"'{field}'" in err
    assert "Traceback" not in err


#: (command, field, value) that exit 2 naming the field: ``seed`` and
#: ``resolution`` are fields of the commands that use them alone, and a
#: resolution is a power of two >= 8 (GridSpec's rule)
SEED_AND_RESOLUTION_CASES = [
    (command, field, 64)
    for field, commands in (
        ("seed", ("seminorm", "hardy-check", "blowup-probe", "telescope", "exponents")),
        ("resolution", ("blowup-probe", "lemma-suite", "telescope", "exponents")),
    )
    for command in commands
] + [("seminorm", "resolution", 4), ("seminorm", "resolution", 100)]


@pytest.mark.parametrize("by_flag", [False, True], ids=["config", "flag"])
@pytest.mark.parametrize("command,field,value", SEED_AND_RESOLUTION_CASES)
def test_seed_and_resolution_exit_2(tmp_path: Path, capsys, command, field, value, by_flag):
    # the same from the config or from ``--seed``/``--resolution``
    cfg, args = dict(BASE_CONFIGS[command]), ["--out", str(tmp_path / "o")]
    if by_flag:
        args += [f"--{field}", str(value)]
    else:
        cfg[field] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["--config", str(cfg_path), *args]) == 2
    assert f"config field '{field}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_probe_cells_per_block_limit():
    # the top level's grid has 101 blocks: the largest block that fits in
    # 2**20 cells passes, one cell more is rejected
    ExperimentConfig.from_dict(dict(PROBE_CFG, cells_per_block=2**20 // 101))
    with pytest.raises(ConfigError, match="cells_per_block"):
        ExperimentConfig.from_dict(dict(PROBE_CFG, cells_per_block=2**20 // 101 + 1))


# (levels, cells_per_block, the field named or None): the seminorm's range
# rule (experiments.check_probe_levels) admits levels up to 8 at every
# cells_per_block, as level 9's cells have side 2^-773 / cells_per_block;
# the size rule then bounds the top level's 389 blocks of cells
PROBE_LEVEL_CASES = [
    ([3, 8], 8, None), ([8, 8], 8, None), ([1, 1], 1, None),
    ([3, 8], 2**20 // 389, None), ([3, 8], 2**20 // 389 + 1, "cells_per_block"),
    ([3, 8], 4096, "cells_per_block"), ([1, 1], 2**20, "cells_per_block"),
    ([3, 9], 1, "levels"), ([3, 9], 8, "levels"), ([9, 9], 8, "levels"),
    ([3, 17], 8, "levels"), ([3, 17], 2**20, "levels"), ([3, 1100], 8, "levels"),
    ([3, 2**70], 8, "levels"), ([0, 3], 8, "levels"), ([5, 4], 8, "levels"),
    ([3, 100], 8, "levels"),
]

#: the side the range rule names for a top level at 8 cells per block, in
#: a form that stays short at any level: level 1100's depth 2^1099 is past
#: the double range
PROBE_LEVEL_SIDES = {(3, 9): "2**-776", (3, 100): "2**-1.90148e+30", (3, 1100): "2**-inf"}


@pytest.mark.parametrize("levels,cells,field", PROBE_LEVEL_CASES)
def test_probe_levels_and_cells_per_block(levels, cells, field):
    cfg = {k: v for k, v in PROBE_CFG.items() if k != "expect"}
    cfg |= {"levels": levels, "cells_per_block": cells}
    if field is not None:
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict(cfg)
        assert err.value.field_path == field
        if cells == 8 and tuple(levels) in PROBE_LEVEL_SIDES:
            assert f"cells of side {PROBE_LEVEL_SIDES[tuple(levels)]} leave" in str(err.value)
        return
    config = ExperimentConfig.from_dict(cfg)
    if cells <= 8:  # the larger grids are only read
        record = cli.run(config)
        assert [row["level"] for row in record.series["offset_+0"]] == list(
            range(levels[0], levels[1] + 1))


def test_seminorm_cell_side_range(tmp_path: Path, capsys):
    # 16 cells per axis on [0, 1e-160]^2 make cells of side 2^-535.5, whose
    # kernel power h^-3 overflows: exit 2 naming the domain, with no
    # RuntimeWarning (an error here) and no NaN written.  On [0, 1e-70]^2
    # every power fits, and the seminorm is the unit box's times
    # lambda^{(d - sp)/p} = 1e-35
    def seminorm(hi, d=2, p="2", s="1/2", resolution=16):
        cfg = dict(SEMINORM_CFG, domain={"kind": "box", "lo": [0] * d, "hi": [hi] * d},
                   frac={"d": d, "p": p, "s": s, "tau": p}, resolution=resolution,
                   u={"kind": "tensor_bump", "center": [hi / 2] * d, "radius": [0.3 * hi] * d})
        cfg_path = tmp_path / "tiny.json"
        cfg_path.write_text(json.dumps(cfg))
        code = cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "o")])
        if code != 0:
            return code, capsys.readouterr().err
        return code, json.loads((tmp_path / "o" / "summary.json").read_text())["results"]["seminorm"]

    code, err = seminorm(1e-160)
    assert code == 2 and "'domain'" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()
    (code0, unit), (code1, small) = seminorm(1.0), seminorm(1e-70)
    assert code0 == code1 == 0 and small == pytest.approx(1e-35 * unit, rel=1e-9)
    # the library keeps the same rule: it raises, it returns no NaN
    box = geo.BoxDomain(geo.Box((0.0, 0.0), (1e-160, 1e-160)))
    bump = quad.TensorBump((5e-161, 5e-161), (3e-161, 3e-161))
    with pytest.raises(ParameterError, match="range"):
        quad.gagliardo_seminorm(bump, box, quad.FracParams(2, 2, "1/2", 2),
                                quad.GridSpec(16, box.box))
    # at d = 1, (p, s, tau) = (4, 1/4, 4) the seminorm forms h^-2 and h^2,
    # so 64 cells on [0, 2^-300] are in range; sp = d makes it dilation
    # invariant, so it is the unit box's
    (code0, unit), (code1, small) = (seminorm(hi, 1, "4", "1/4", 64) for hi in (1.0, 2.0**-300))
    assert code0 == code1 == 0 and small == pytest.approx(unit, rel=1e-12)


def test_telescope_grid_limit():
    # the deepest seminorm's grid: layers m and m + 1 below layer -1, layer
    # -1 alone; in d = 1 each layer is one cube of cells_per_cube cells
    ExperimentConfig.from_dict(dict(TELESCOPE_CFG, depths=[-2], cells_per_cube=2**19))
    with pytest.raises(ConfigError, match="depths"):
        ExperimentConfig.from_dict(dict(TELESCOPE_CFG, depths=[-2], cells_per_cube=2**19 + 1))
    ExperimentConfig.from_dict(dict(TELESCOPE_CFG, depths=[-1], cells_per_cube=2**20))
    # the deepest cell side h = 2^m / cells_per_cube keeps the seminorm's
    # powers h^-(d + sp) and h^2d normal doubles: at d = 1 and sp <= 1,
    # |log2 h| <= 1022 / 2
    ExperimentConfig.from_dict(dict(TELESCOPE_CFG, depths=[-3, -509], cells_per_cube=4))
    with pytest.raises(ConfigError, match="depths"):
        ExperimentConfig.from_dict(dict(TELESCOPE_CFG, depths=[-3, -510], cells_per_cube=4))
    ExperimentConfig.from_dict(dict(TELESCOPE_CFG, depths=[-505],
                                    frac={"d": 1, "p": "3", "s": "1/3", "tau": "3"}))
    # d = 2, n = 1, 4 cells per cube: (2^{1-m} + 2^{-m}) * 16 cells
    slab2 = dict(TELESCOPE_CFG, domain={"kind": "slab", "n": 1, "d": 2},
                 frac={"d": 2, "p": "2", "s": "1/2", "tau": "2"},
                 u={"kind": "tensor_bump", "center": [0.0, 0.3], "radius": [0.5, 0.25]})
    ExperimentConfig.from_dict(dict(slab2, depths=[-3, -14]))
    with pytest.raises(ConfigError, match="depths"):
        ExperimentConfig.from_dict(dict(slab2, depths=[-3, -15]))


def test_probe_and_telescope_extents_come_from_the_experiments(monkeypatch):
    # the size of each command's largest grid is the experiment's own
    # extent: reported at 2**21 cells, the same configs are rejected
    probe = dict(PROBE_CFG, cells_per_block=2)
    telescope = dict(TELESCOPE_CFG, depths=[-2], cells_per_cube=2)
    for cfg in (probe, telescope):
        ExperimentConfig.from_dict(cfg)
    probe_extent, telescope_extent = exp.LogSpikeFamily.grid_extent, exp.telescope_grid_extent
    monkeypatch.setattr(exp.LogSpikeFamily, "grid_extent",
                        lambda *args: (21.0, probe_extent(*args)[1]))
    monkeypatch.setattr(exp, "telescope_grid_extent",
                        lambda *args: (21.0, telescope_extent(*args)[1]))
    for cfg, field in ((probe, "cells_per_block"), (telescope, "depths")):
        with pytest.raises(ConfigError, match=r"2\*\*21\.0000 cells") as err:
            ExperimentConfig.from_dict(cfg)
        assert err.value.field_path == field


def test_telescope_computes_each_layer_once(monkeypatch):
    # depths -3 and -4 share layers -3..-1: four layer pair grids, not 3 + 4,
    # and two member calls on each (its centres and its slope probes), from
    # which the layer's cube averages are read too
    tables, calls = [], []
    bump = quad.TensorBump.__call__

    class Counting(quad.SeminormTables):
        def __init__(self, grid, fp):
            tables.append(grid)
            super().__init__(grid, fp)

    def counting(self, pts):
        calls.append(len(pts))
        return bump(self, pts)

    monkeypatch.setattr(quad, "SeminormTables", Counting)
    monkeypatch.setattr(quad.TensorBump, "__call__", counting)
    record = cli.run(ExperimentConfig.from_dict(TELESCOPE_CFG))
    assert [row["m"] for row in record.series["telescope"]] == [-3, -4]
    assert len(tables) == 4
    assert len(calls) == 2 * 4


def test_telescope_gate_fails_when_the_deepest_layer_is_skipped(tmp_path: Path):
    # the skipping bump repeats one chain at every depth, so the equal
    # constants must not pass the gate
    cfg_path = tmp_path / "bump.json"
    cfg_path.write_text(json.dumps(SKIPPING_TELESCOPE_CFG))
    out = tmp_path / "o"
    assert cli.main(["--config", str(cfg_path), "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdicts"] == {"stable": False}
    assert summary["results"]["stable_within_50pct"]
    assert [row["skipped"] for row in summary["series"]["telescope"]] == [1, 2, 3]


@pytest.mark.parametrize("depths", [[-4], [-5, -5]])
def test_telescope_gate_fails_at_one_depth(tmp_path: Path, depths):
    # one chain shows nothing about the constant's uniformity in depth,
    # whatever the constant
    cfg_path = tmp_path / "one.json"
    cfg_path.write_text(json.dumps(dict(TELESCOPE_DEMO_CFG, depths=depths)))
    out = tmp_path / "o"
    assert cli.main(["--config", str(cfg_path), "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["verdicts"] == {"stable": False}
    assert summary["results"]["stable_within_50pct"]


def _telescope_reports(raw: dict):
    """The library's reports for a telescope config, without the CLI."""
    cfg = ExperimentConfig.from_dict(raw)
    fp = cfg.frac()
    return exp.telescoping_reconstruction(cfg.domain(fp.d), cfg.test_function(fp.d), fp,
                                          cfg.numbers("depths"), cfg.get("cells_per_cube", 4))


def test_telescope_verdict_is_the_library_rule():
    assert exp.telescope_verdict(_telescope_reports(TELESCOPE_DEMO_CFG)) == (True, True)
    assert exp.telescope_verdict(_telescope_reports(SKIPPING_TELESCOPE_CFG)) == (True, False)


#: one base config per command; their verdict keys are every key checked
#: by the witness tables below
BASE_CONFIGS = {
    "exponents": EXPONENTS_CFG,
    "seminorm": SEMINORM_CFG,
    "hardy-check": HARDY_CFG,
    "estimate-constant": ESTIMATE_CFG,
    "blowup-probe": PROBE_CFG,
    "lemma-suite": LEMMA_CFG,
    "telescope": TELESCOPE_CFG,
}

#: a config that makes each verdict false: a gate that cannot fail is vacuous
WITNESSES = {
    "offset_-1": dict(PROBE_CFG, expect={"-1": "bounded"}),
    "offset_+0": dict(PROBE_CFG, expect={"0": "diverging"}),
    "average_difference": dict(LEMMA_CFG, tolerance=-1),
    "power_sum": dict(LEMMA_CFG, tolerance=-1),
    "stable": SKIPPING_TELESCOPE_CFG,
}

#: verdicts no config is known to make false, and why (ROADMAP items 1
#: and 10 give each of them a gate that can fail, or take it out)
KNOWN_VACUOUS = {
    "finite": "hardy-check passes a member outside W^{s,p}, such as an indicator,"
              " whose ratio is finite on every grid (ROADMAP item 1)",
    "elementary": "the two-term bound is a theorem and its near-equal instances are"
                  " settled at 50 digits, so no draw fails it (ROADMAP item 10)",
    "telescoping_identity": "an identity of exact rationals that no config input"
                            " reaches (ROADMAP item 10)",
}


def test_every_verdict_has_a_witness_or_is_known_vacuous():
    assert set(BASE_CONFIGS) == set(cli.COMMANDS)
    keys = set()
    for cfg in BASE_CONFIGS.values():
        keys |= set(cli.run(ExperimentConfig.from_dict(cfg)).verdicts)
    assert not WITNESSES.keys() & KNOWN_VACUOUS.keys()
    # a new key needs a witness or a reason; a listed key must still exist
    assert keys == WITNESSES.keys() | KNOWN_VACUOUS.keys()


@pytest.mark.parametrize("key", sorted(WITNESSES))
def test_verdict_witness_makes_its_key_false(key):
    record = cli.run(ExperimentConfig.from_dict(WITNESSES[key]))
    assert record.verdicts[key] is False
    assert not record.passed


def test_package_has_no_global_statements():
    # module state that functions rebind is shared by every caller; pass
    # what a call needs as an argument instead
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        assigned = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Global)]
        assert not assigned, f"{path.name}: global statement at line(s) {assigned}"


@pytest.mark.parametrize("path", DEMO_CONFIGS, ids=lambda p: p.stem)
def test_demo_config_runs(tmp_path: Path, monkeypatch, path: Path):
    # and reads it once: ``validate`` runs the command's reads and keeps the
    # work they return, which ``run`` does, so one call of its ``_cmd_*``
    command = json.loads(path.read_text())["command"]
    reads, calls = cli._DISPATCH[command], []
    monkeypatch.setitem(cli._DISPATCH, command, lambda cfg: calls.append(cfg) or reads(cfg))
    assert cli.main(["--config", str(path), "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("path", DEMO_CONFIGS, ids=lambda p: p.stem)
def test_demo_config_payload_pinned(path: Path):
    record = cli.run(ExperimentConfig.parse(path.read_text()))
    # through JSON, as summary.json holds it: tuples become lists
    payload = json.loads(json.dumps(record.numeric_payload()))
    want = pinned_payload(path.stem)
    assert_payload_equal({key: payload[key] for key in want}, want, path.stem)


@pytest.mark.parametrize("workload,index", UNSHARED_RUNS)
def test_workload_run_payload_pinned(workload, index):
    # the references' other runs: the 16-cell probe, both seminorms and the
    # three hardy-checks, held to their types as the demo configs are
    cfg = load_workloads().generate(workload, references()["seed"])[index]
    payload = json.loads(json.dumps(cli.run(ExperimentConfig.from_dict(cfg)).numeric_payload()))
    want = references()["workloads"][workload][index]
    assert_payload_equal({key: payload[key] for key in want}, want, f"{workload}[{index}]")


def test_each_demo_config_is_pinned_once():
    # by the demo store or by the references, never both, never neither
    stored, shared = set(stored_payloads()), set(SHARED_RUNS)
    assert not stored & shared, sorted(stored & shared)
    assert sorted(stored | shared) == [p.stem for p in DEMO_CONFIGS]


@pytest.mark.parametrize("path", DEMO_SCRIPTS, ids=lambda p: p.stem)
def test_demo_script_runs(capsys, path: Path):
    # in-process: the scripts only import hardylab and print
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quick_start_runs(capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {"__name__": "__main__"})
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "{'below': 'diverging', 'at': 'bounded', 'above': 'bounded'}"


def test_python_m_hardylab_runs_without_warning(tmp_path: Path):
    src = Path(cli.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    exponents = next(p for p in DEMO_CONFIGS if p.stem == "exponents")
    proc = subprocess.run(
        [sys.executable, "-m", "hardylab", "--config", str(exponents), "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert (tmp_path / "summary.json").exists()


#: reads the configs (argv[1]: JSON list of config and out dir) as a
#: benchmark worker's set-up does, then runs them, with scipy blocked; prints,
#: as JSON, the exit codes, the scipy modules loaded, the numpy, mpmath and
#: hardylab modules first imported by the runs, and every module loaded
_IMPORT_SPLIT = """
import json, sys
from pathlib import Path
sys.modules["scipy"] = None  # makes every scipy import fail
import hardylab
runs = json.loads(sys.argv[1])
for config, _ in runs:
    hardylab.cli.ExperimentConfig.parse(Path(config).read_text())
before = set(sys.modules)
codes = [hardylab.cli.main(["--config", c, "--out", o]) for c, o in runs]
top = {m: m.partition(".")[0] for m in sys.modules if sys.modules[m] is not None}
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m, t in top.items() if t == "scipy"),
                  "late": sorted(m for m, t in top.items()
                                 if t in ("numpy", "mpmath", "hardylab") and m not in before),
                  "loaded": sorted(top)}))
"""


def _fresh_process(code: str, *args: str) -> dict:
    """The JSON that ``code`` prints last, run by a fresh interpreter that
    imports hardylab from this source tree."""
    src = Path(cli.__file__).parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _import_split(configs: list[Path], out: Path) -> dict:
    runs = [(str(path), str(out / f"{i}_{path.stem}")) for i, path in enumerate(configs)]
    return _fresh_process(_IMPORT_SPLIT, json.dumps(runs))


def test_runs_import_nothing_past_set_up(tmp_path: Path):
    # a worker's set-up imports hardylab and reads every config, which
    # imports every module a run needs, and no run needs scipy: a numpy,
    # mpmath or hardylab module first imported inside a run is a cost the
    # run pays on its first call, not at set-up
    got = _import_split(DEMO_CONFIGS, tmp_path)
    del got["loaded"]
    assert got == {"codes": [0] * len(DEMO_CONFIGS), "scipy": [], "late": []}


def test_runs_without_lemma_suite_load_no_lemmas_or_mpmath(tmp_path: Path):
    # only the lemma suite needs ``lemmas``, and only ``lemmas`` needs
    # mpmath: a fresh process that reads and runs the other demo configs and
    # the benchmark's pairs configs loads neither, nor any thread pool
    workloads = load_workloads()
    configs = [path for path in DEMO_CONFIGS if path.stem != "lemma_suite"]
    for i, cfg in enumerate(workloads.generate("pairs", workloads.DEFAULT_SEED)):
        configs.append(tmp_path / f"pairs_{i}.json")
        configs[-1].write_text(json.dumps(cfg))
    assert len(configs) == 12
    got = _import_split(configs, tmp_path / "out")
    assert got["codes"] == [0] * len(configs)
    assert [m for m in got["loaded"]
            if m == "hardylab.lemmas" or m.partition(".")[0] in ("mpmath", "concurrent")] == []


#: imports hardylab and prints, as JSON, the names it binds other than
#: dunders, whether ``lemmas`` was loaded before and after the first
#: ``hardylab.lemmas``, that module's name, and the error that
#: ``hardylab.SlackReport``, once a second name of a ``lemmas`` class, raises
_PACKAGE_NAMES = """
import json, sys
import hardylab
bound = sorted(vars(hardylab))
on_import = "hardylab.lemmas" in sys.modules
name = hardylab.lemmas.__name__
try:
    slack_report = repr(hardylab.SlackReport)
except AttributeError as e:
    slack_report = str(e)
print(json.dumps({"bound": bound, "loaded": [on_import, "hardylab.lemmas" in sys.modules],
                  "lemmas": name, "SlackReport": slack_report}))
"""


@functools.cache
def _package_names() -> dict:
    return _fresh_process(_PACKAGE_NAMES)


def test_lemmas_load_on_first_access():
    got = _package_names()
    assert got["loaded"] == [False, True]
    assert got["lemmas"] == "hardylab.lemmas"


def test_package_binds_only_its_modules():
    # each object has one name, in its module: the package binds the
    # modules that ``import hardylab`` loads and loads ``lemmas`` lazily
    got = _package_names()
    modules = ["cli", "errors", "experiments", "geometry", "hardy", "quadrature"]
    assert [n for n in got["bound"] if not (n.startswith("__") and n.endswith("__"))] == modules
    assert {"__version__", "__getattr__"} <= set(got["bound"])
    assert got["loaded"] == [False, True]
    assert got["SlackReport"] == "module 'hardylab' has no attribute 'SlackReport'"


#: cheap, valid configs of every command, every test function kind and
#: several domain and family kinds; the fuzz test swaps one value at any
#: depth, a field or an element of a list
FUZZ_BASES = [
    EXPONENTS_CFG,
    dict(SEMINORM_CFG, resolution=8, support_box=[[0.0], [1.0]]),
    dict(HARDY_CFG, resolution=8),
    dict(HARDY_CFG, resolution=8,
         u={"kind": "constant", "value": 1.0, "support": [[0.2], [0.4]]}),
    dict(EXTERIOR_CFG, resolution=8),
    dict(BOX_CFG, resolution=8),
    dict(CONE_CFG, resolution=8),
    dict(ESTIMATE_CFG, resolution=8, search={"starts": 1, "budget_per_start": 3},
         family={"kind": "boundary_bump", "log2_h_range": [-4.0, -2.0], "width": 0.5}),
    # two levels cannot tell the verdicts apart, so this probe expects none
    {k: v for k, v in PROBE_CFG.items() if k != "expect"}
    | {"levels": [3, 4], "cells_per_block": 2},
    dict(LEMMA_CFG, elementary_count=10, pair_count=2, tolerance=1e-9),
    dict(TELESCOPE_CFG, depths=[-2], cells_per_cube=2),
    dict(TELESCOPE_CFG, depths=[-2], cells_per_cube=2,
         u={"kind": "log_spike", "depth": 1.0, "t0": 1.0}),
]

# no ints: a drawn int could ask for a huge grid or sample count
_SCALARS = st.one_of(
    st.text(max_size=5), st.booleans(), st.none(), st.floats(allow_nan=True, allow_infinity=True)
)
_VALUES = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=5), _SCALARS, max_size=3),
)


def _field_paths(node, prefix=()):
    """The path of every value inside objects and lists, at any depth."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _field_paths(value, prefix + (key,))


# a drawn extreme value may overflow with a RuntimeWarning (a support box
# corner at -1.4e154 squares to inf in ConeGraph.gamma); that is not a
# crash, which is all this test checks, so it keeps numpy's default action
@pytest.mark.filterwarnings("default::RuntimeWarning")
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_config_field_never_crashes(data):
    base = data.draw(st.sampled_from(FUZZ_BASES), label="base")
    paths = [path for path in _field_paths(base) if path != ("command",)]
    path = data.draw(st.sampled_from(paths), label="field")
    cfg = copy.deepcopy(base)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(_VALUES, label="value")
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--config", str(cfg_path), "--out", str(Path(tmp) / "o")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def test_payload_tool_lists_each_config_once():
    # tools/payloads.py on this checkout: 26 runs, one per config, each
    # listed as one "run path value" line per leaf of its payload
    tool = Path(__file__).resolve().parents[1] / "tools" / "payloads.py"
    proc = subprocess.run([sys.executable, str(tool), str(tool.parents[1])],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split(" ", 2) for line in proc.stdout.splitlines()]
    assert all(len(line) == 3 for line in lines), lines
    runs = {run for run, _, _ in lines}
    assert len(runs) == 26
    commands = [run for run, path, _ in lines if path == "command"]
    assert sorted(commands) == sorted(runs)
    for run, path, value in lines:
        assert re.fullmatch(r"(command|results|series|verdicts)([.\[][^ ]*)?", path), (run, path)
        json.loads(value)
