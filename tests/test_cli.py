import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hardylab import cli
from hardylab import quadrature as quad
from hardylab.cli import ConfigError, ExperimentConfig


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

DEMO_CONFIGS = sorted((Path(__file__).parent.parent / "demos" / "configs").glob("*.json"))


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
    base = dict(SEMINORM_CFG, resolution=32)
    payloads = []
    for threads in (1, 2, 8):
        record = cli.run(ExperimentConfig.from_dict(dict(base, threads=threads)))
        payload = record.numeric_payload()
        payload.pop("config_digest")  # differs: threads is part of the config
        payloads.append(json.dumps(payload, sort_keys=True))
    assert payloads[0] == payloads[1] == payloads[2]


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


def test_main_gate_failure_exit_1(tmp_path: Path):
    cfg_path = tmp_path / "gate.json"
    cfg_path.write_text(json.dumps(dict(LEMMA_CFG, tolerance=-1.0)))
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1


def test_flag_overrides(tmp_path: Path):
    cfg_path = tmp_path / "sem.json"
    cfg_path.write_text(json.dumps(SEMINORM_CFG))
    out = tmp_path / "r"
    assert (
        cli.main(
            ["--config", str(cfg_path), "--out", str(out), "--resolution", "32", "--threads", "2"]
        )
        == 0
    )
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["resolution"] == 32


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
        (dict(PROBE_CFG, growth_threshold="x"), "growth_threshold"),
        (dict(PROBE_CFG, expect={"5": "bounded"}), "expect"),
        (dict(PROBE_CFG, expect={"-1": "huge"}), "expect"),
        (dict(ESTIMATE_CFG, family="x"), "family"),
        (dict(ESTIMATE_CFG, family={"kind": "log_spike", "level_range": [3, 12]}),
         "family.level_range"),
        (dict(ESTIMATE_CFG, family={"kind": "boundary_bump", "log2_h_range": [-2, -7]}),
         "family"),
        (dict(ESTIMATE_CFG, R=-1), "R"),
        (dict(HARDY_CFG, R="x"), "R"),
        (dict(HARDY_CFG, R=-1), "R"),
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
        # rejected while validating: no thread is started
        (dict(SEMINORM_CFG, threads=65), "threads"),
        (dict(TELESCOPE_CFG, domain={"kind": "slab", "n": 1, "d": 29916160961},
              frac={"d": 29916160961, "p": "2", "s": "1/2", "tau": "2"}), "depths"),
        # rejected before the d-dimensional bounding box is built
        (dict(ESTIMATE_CFG, case="1a", domain={"kind": "slab", "n": 1, "d": 29916160961},
              frac={"d": 29916160961, "p": "2", "s": "1/2", "tau": "2"}), "resolution"),
        (dict(SEMINORM_CFG, resolution=1024, support_box=[[0.0] * 3, [1.0] * 3]), "support_box"),
        (dict(SEMINORM_CFG, threads=True), "threads"),
    ],
)
def test_main_malformed_field_exit_2(tmp_path: Path, capsys, cfg, field):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"'{field}'" in err
    assert "Traceback" not in err


def test_probe_cells_per_block_limit():
    # the top level's grid has 101 blocks: the largest block that fits in
    # 2**20 cells passes, one cell more is rejected
    ExperimentConfig.from_dict(dict(PROBE_CFG, cells_per_block=2**20 // 101))
    with pytest.raises(ConfigError, match="cells_per_block"):
        ExperimentConfig.from_dict(dict(PROBE_CFG, cells_per_block=2**20 // 101 + 1))


def test_telescope_grid_limit():
    # the deepest seminorm's grid: layers m and m + 1 below layer -1, layer
    # -1 alone; in d = 1 each layer is one cube of cells_per_cube cells
    ExperimentConfig.from_dict(dict(TELESCOPE_CFG, depths=[-2], cells_per_cube=2**19))
    with pytest.raises(ConfigError, match="depths"):
        ExperimentConfig.from_dict(dict(TELESCOPE_CFG, depths=[-2], cells_per_cube=2**19 + 1))
    ExperimentConfig.from_dict(dict(TELESCOPE_CFG, depths=[-1], cells_per_cube=2**20))
    # d = 2, n = 1, 4 cells per cube: (2^{1-m} + 2^{-m}) * 16 cells
    slab2 = dict(TELESCOPE_CFG, domain={"kind": "slab", "n": 1, "d": 2},
                 frac={"d": 2, "p": "2", "s": "1/2", "tau": "2"})
    ExperimentConfig.from_dict(dict(slab2, depths=[-3, -14]))
    with pytest.raises(ConfigError, match="depths"):
        ExperimentConfig.from_dict(dict(slab2, depths=[-3, -15]))


def test_threads_reach_every_pair_sum(monkeypatch):
    # each command that sums cell pairs hands the config's thread count to
    # every call of the pair-sum map
    calls = []
    map_in_order = quad._map_in_order

    def recording(fn, items, threads):
        calls.append(threads)
        return map_in_order(fn, items, threads)

    monkeypatch.setattr(quad, "_map_in_order", recording)
    configs = [
        SEMINORM_CFG,
        HARDY_CFG,
        ESTIMATE_CFG,
        dict(PROBE_CFG, levels=[3, 4]),
        dict(TELESCOPE_CFG, depths=[-2]),
    ]
    for cfg in configs:
        calls.clear()
        cli.run(ExperimentConfig.from_dict(dict(cfg, threads=2)))
        assert calls and set(calls) == {2}, cfg["command"]


def test_package_has_no_global_statements():
    # module state that functions rebind is shared by every caller; pass
    # what a call needs as an argument instead
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        assigned = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Global)]
        assert not assigned, f"{path.name}: global statement at line(s) {assigned}"


@pytest.mark.parametrize("path", DEMO_CONFIGS, ids=lambda p: p.stem)
def test_demo_config_runs(tmp_path: Path, path: Path):
    assert cli.main(["--config", str(path), "--out", str(tmp_path)]) == 0


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


#: cheap, valid configs of every command; the fuzz test swaps one field,
#: top-level or one level inside an object field
FUZZ_BASES = [
    EXPONENTS_CFG,
    dict(SEMINORM_CFG, resolution=8, support_box=[[0.0], [1.0]]),
    dict(HARDY_CFG, resolution=8, R=None),
    dict(ESTIMATE_CFG, resolution=8, search={"starts": 1, "budget_per_start": 3},
         family={"kind": "boundary_bump"}, R=None),
    dict(PROBE_CFG, levels=[3, 4], cells_per_block=2, growth_threshold=1.15),
    dict(LEMMA_CFG, elementary_count=10, pair_count=2, tolerance=1e-9),
    dict(TELESCOPE_CFG, depths=[-2], cells_per_cube=2),
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


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_config_field_never_crashes(data):
    base = data.draw(st.sampled_from(FUZZ_BASES), label="base")
    paths = [(k,) for k in base if k != "command"]
    paths += [(k, sub) for k, v in base.items() if isinstance(v, dict) for sub in v]
    path = data.draw(st.sampled_from(sorted(paths)), label="field")
    value = data.draw(_VALUES, label="value")
    cfg = dict(base)
    if len(path) == 1:
        cfg[path[0]] = value
    else:
        cfg[path[0]] = dict(base[path[0]], **{path[1]: value})
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--config", str(cfg_path), "--out", str(Path(tmp) / "o")])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
