import json
from pathlib import Path

import pytest

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
    ],
)
def test_main_malformed_field_exit_2(tmp_path: Path, capsys, cfg, field):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"'{field}'" in err
    assert "Traceback" not in err


def test_run_restores_caller_thread_count():
    quad.set_num_threads(3)
    try:
        cli.run(ExperimentConfig.from_dict(dict(SEMINORM_CFG, threads=2)))
        assert quad.get_num_threads() == 3
    finally:
        quad.set_num_threads(1)
