"""Batch front door: parse experiment configs, dispatch, emit records.

A run is described by one JSON config (rationals like s, p, tau are given
as "num/den" strings so criticality is decided exactly).  Results land in
an output directory as one ``summary.json`` plus one CSV per series; the
numeric payload byte-reproduces for a fixed config and seed, independent
of the thread count.  Exit status is 0 when every gated verdict passes and
1 otherwise, so CI can gate on the lemma suites.

Commands: exponents, seminorm, hardy-check, estimate-constant,
blowup-probe, lemma-suite, telescope.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from . import experiments as exp
from . import geometry as geo
from . import hardy
from . import lemmas
from . import quadrature as quad
from .errors import HardyLabError, ParameterError

__all__ = ["ExperimentConfig", "ExperimentRecord", "run", "main", "COMMANDS"]

COMMANDS = (
    "exponents",
    "seminorm",
    "hardy-check",
    "estimate-constant",
    "blowup-probe",
    "lemma-suite",
    "telescope",
)


class ConfigError(ParameterError):
    """Invalid config, carrying the offending field path."""

    def __init__(self, field_path: str, message: str):
        super().__init__(f"config field '{field_path}': {message}")
        self.field_path = field_path


#: log2 of the largest grid a config may ask for; a lattice seminorm keeps a
#: few box-sized arrays, and the pair sum grows with the square of the cells
_MAX_GRID_LOG2 = 20

#: -log2 of the smallest telescope cell side: the row-block kernel squares
#: the side, and 2**-1022 is the smallest normal double
_MIN_CELL_SIDE_LOG2 = 511

#: positive-int fields: default and largest value.  A cell count is bounded
#: by the grid limit (the probe and telescope check their whole grid too);
#: the other bounds cap the work one config can ask for
_COUNT_DEFAULTS = {
    "cells_per_block": (8, 2**_MAX_GRID_LOG2),
    "elementary_count": (100_000, 2**20),
    "pair_count": (200, 2**16),
    "search.starts": (8, 2**10),
    "search.budget_per_start": (200, 2**14),
    "cells_per_cube": (4, 2**_MAX_GRID_LOG2),
}

#: most worker threads a config may ask for; the pair sum starts up to
#: min(threads, pieces) OS threads, and a 2**20-cell grid has 8192 row blocks
_MAX_THREADS = 64


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"{where}.{key}" if where else key, "missing")
    return cfg[key]


def _fraction_field(value, path: str) -> Fraction:
    if isinstance(value, bool):
        raise ConfigError(path, f"must be an int, a float or a 'num/den' string, got {value!r}")
    try:
        return quad._as_fraction(value)
    except (ParameterError, ValueError, ZeroDivisionError, OverflowError) as e:
        raise ConfigError(path, str(e)) from e


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (one command per run)."""

    command: str
    raw: dict = field(repr=False)

    @staticmethod
    def parse(text: str) -> "ExperimentConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError("<root>", f"not valid JSON: {e}") from e
        if not isinstance(data, dict):
            raise ConfigError("<root>", "config must be a JSON object")
        return ExperimentConfig.from_dict(data)

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        command = _require(data, "command", "")
        if command not in COMMANDS:
            raise ConfigError("command", f"unknown command {command!r}; choose from {COMMANDS}")
        cfg = ExperimentConfig(command=command, raw=dict(data))
        cfg.validate()
        return cfg

    # -- field accessors with validation ------------------------------------

    def validate(self) -> None:
        self.resolution  # noqa: B018 - property access runs the checks
        self.seed
        self.threads
        if not isinstance(self.raw.get("out", ""), str):
            raise ConfigError("out", f"must be a path string, got {self.raw['out']!r}")
        if self.command in ("seminorm", "hardy-check", "estimate-constant", "telescope"):
            self.frac_params()
        if self.command in ("exponents", "hardy-check", "estimate-constant", "blowup-probe"):
            self.case()
        if self.command in ("seminorm", "hardy-check", "estimate-constant",
                            "blowup-probe", "telescope"):
            d, frac_d = self.domain().d, self.frac_params().d
            if d != frac_d:
                raise ConfigError("domain.d", f"domain dimension {d} differs from frac.d {frac_d}")
        if self.command in ("seminorm", "hardy-check", "telescope"):
            self.test_function()
        if self.command in ("seminorm", "hardy-check", "estimate-constant"):
            _grid_for(self, self.domain())
        if self.command in ("hardy-check", "estimate-constant"):
            self.scale()
        if self.command == "estimate-constant":
            _family_from_config(self)
            self.search()
        if self.command == "blowup-probe":
            self.expect()  # reads and checks beta_offsets
            self.cells_per_block()
            self.number("growth_threshold", 1.15)
        if self.command == "lemma-suite":
            self.count("elementary_count")
            self.count("pair_count")
            self.number("tolerance", 1e-9)
        if self.command == "telescope":
            self.depths()
            self.count("cells_per_cube")

    def beta_offsets(self) -> list[int]:
        offsets = self.raw.get("beta_offsets", [-1, 0, 1])
        if not (isinstance(offsets, (list, tuple)) and offsets and all(_is_int(o) for o in offsets)):
            raise ConfigError("beta_offsets", f"must be a non-empty list of ints, got {offsets!r}")
        return offsets

    def expect(self) -> dict[str, str]:
        """Expected verdict per probed offset, keyed by the offset as a string."""
        expect = self.raw.get("expect", {})
        probed = [str(off) for off in self.beta_offsets()]
        if not (
            isinstance(expect, dict)
            and all(k in probed and v in ("diverging", "bounded") for k, v in expect.items())
        ):
            raise ConfigError("expect", f"must map offsets from {probed} to 'diverging' or"
                              f" 'bounded', got {expect!r}")
        return expect

    def probe_family(self) -> exp.LogSpikeFamily:
        return _log_spike_family(self.raw.get("levels", [3, 8]), "levels")

    def cells_per_block(self) -> int:
        """Cells per dyadic block; the top level's graded grid stays within
        the grid limit."""
        cells = self.count("cells_per_block")
        family = self.probe_family()
        blocks = family.grid_levels(family.level_range[1]) + 1
        if blocks * cells > 2**_MAX_GRID_LOG2:
            raise ConfigError("cells_per_block", f"{blocks} blocks of {cells} cells exceed the"
                              f" limit of 2**{_MAX_GRID_LOG2} cells")
        return cells

    def depths(self) -> list[int]:
        """Telescope depths; the deepest layer pair's grid stays within the
        grid limit, and the square of its cell side 2^m / cells_per_cube
        stays a normal double."""
        depths = self.raw.get("depths", [-4, -5, -6])
        if not (isinstance(depths, (list, tuple)) and depths
                and all(_is_int(m) and m <= -1 for m in depths)):
            raise ConfigError("depths", f"must be a non-empty list of ints <= -1, got {depths!r}")
        slab, cells = self.domain(), self.count("cells_per_cube")
        if not isinstance(slab, geo.Slab):
            raise ConfigError("domain", "the telescope runs on slab domains")
        # layer k has (n 2^{1-k})^{d-1} cubes of cells^d cells, and the
        # deepest seminorm joins layers m and m + 1 (layer -1 stands alone);
        # layer m alone is tested in log2 first, so a huge d costs nothing
        m, d = min(depths), slab.d
        if m < math.log2(cells) - _MIN_CELL_SIDE_LOG2:  # int against float: no big int
            raise ConfigError("depths", f"depth {m} with {cells} cells per cube makes cells of"
                              f" side below 2**-{_MIN_CELL_SIDE_LOG2}, whose square is subnormal")
        if ((d - 1) * (math.log2(slab.n) + 1 - m) + d * math.log2(cells) > _MAX_GRID_LOG2
                or sum(geo.DyadicLayer(k, slab.n, d).count for k in range(m, min(m + 2, 0)))
                * cells**d > 2**_MAX_GRID_LOG2):
            raise ConfigError("depths", f"the layers at depth {m} exceed the limit of"
                              f" 2**{_MAX_GRID_LOG2} cells")
        return depths

    def number(self, key: str, default: float) -> float:
        """Finite-number field."""
        value = self.raw.get(key, default)
        if not _is_finite(value):
            raise ConfigError(key, f"must be a finite number, got {value!r}")
        return float(value)

    def scale(self) -> float | None:
        """The weight scale R; None lets the weight pick its default."""
        R = self.raw.get("R")
        if R is not None and not (_is_finite(R) and R > 0):
            raise ConfigError("R", f"must be null or a positive finite number, got {R!r}")
        return R

    def count(self, path: str) -> int:
        """Positive-int field at ``path``: a key, or ``object.key``."""
        where, _, key = path.rpartition(".")
        spec = self.raw.get(where, {}) if where else self.raw
        if not isinstance(spec, dict):
            raise ConfigError(where, "must be an object")
        default, top = _COUNT_DEFAULTS[path]
        value = spec.get(key, default)
        if not _is_int(value) or not 1 <= value <= top:
            raise ConfigError(path, f"must be an int in [1, {top}], got {value!r}")
        return value

    def search(self) -> exp.SearchConfig:
        return exp.SearchConfig(
            starts=self.count("search.starts"),
            budget_per_start=self.count("search.budget_per_start"),
            seed=self.seed,
        )

    @property
    def resolution(self) -> int:
        res = self.raw.get("resolution", 64)
        if not _is_int(res) or res < 8 or not quad._is_power_of_two(res):
            raise ConfigError("resolution", f"must be a power-of-two int >= 8, got {res!r}")
        return res

    @property
    def seed(self) -> int:
        seed = self.raw.get("seed", 0)
        if not _is_int(seed) or seed < 0:
            raise ConfigError("seed", f"must be a nonnegative int, got {seed!r}")
        return seed

    @property
    def threads(self) -> int:
        t = self.raw.get("threads", 1)
        if not _is_int(t) or not 1 <= t <= _MAX_THREADS:
            raise ConfigError("threads", f"must be an int in [1, {_MAX_THREADS}], got {t!r}")
        return t

    def frac_params(self) -> quad.FracParams:
        spec = _require(self.raw, "frac", "")
        if not isinstance(spec, dict):
            raise ConfigError("frac", "must be an object")
        d = _require(spec, "d", "frac")
        if not _is_int(d) or d < 1:
            raise ConfigError("frac.d", f"must be a positive int, got {d!r}")
        try:
            return quad.FracParams(
                d=d,
                p=_fraction_field(_require(spec, "p", "frac"), "frac.p"),
                s=_fraction_field(_require(spec, "s", "frac"), "frac.s"),
                tau=_fraction_field(_require(spec, "tau", "frac"), "frac.tau"),
            )
        except ParameterError as e:
            if isinstance(e, ConfigError):
                raise
            raise ConfigError("frac", str(e)) from e

    def case(self) -> hardy.HardyCase | None:
        case_id = self.raw.get("case")
        if case_id is None:
            if self.command in ("exponents", "hardy-check", "estimate-constant", "blowup-probe"):
                raise ConfigError("case", "missing")
            return None
        try:
            return hardy.HardyCase(case_id, self.frac_params())
        except HardyLabError as e:
            raise ConfigError("case", str(e)) from e

    def domain(self) -> geo.Domain:
        spec = _require(self.raw, "domain", "")
        if not isinstance(spec, dict):
            raise ConfigError("domain", "must be an object")
        try:
            return geo.domain_from_dict(spec)
        except (HardyLabError, KeyError, TypeError, ValueError, OverflowError) as e:
            raise ConfigError("domain", str(e)) from e

    def test_function(self) -> quad.TestFunction:
        spec = _require(self.raw, "u", "")
        return _test_function_from_dict(spec)

    def to_dict(self) -> dict:
        return dict(self.raw)

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _numbers(value) -> tuple:
    """A non-empty list of finite numbers, as a tuple."""
    if not (isinstance(value, (list, tuple)) and value and all(map(_is_finite, value))):
        raise ValueError(f"need a non-empty list of finite numbers, got {value!r}")
    return tuple(value)


def _log_spike_family(lev, path: str) -> exp.LogSpikeFamily:
    """Log-spike family over the level range ``lev`` = [lo, hi]; the family
    bounds the levels by its depth cap."""
    if not (isinstance(lev, (list, tuple)) and len(lev) == 2 and all(_is_int(v) for v in lev)):
        raise ConfigError(path, f"must be [lo, hi] ints, got {lev!r}")
    try:
        return exp.LogSpikeFamily(level_range=(lev[0], lev[1]))
    except ParameterError as e:
        raise ConfigError(path, str(e)) from e


def _test_function_from_dict(spec: dict) -> quad.TestFunction:
    if not isinstance(spec, dict):
        raise ConfigError("u", "must be an object")
    kind = spec.get("kind")
    try:
        if kind == "tensor_bump":
            return quad.TensorBump(_numbers(spec["center"]), _numbers(spec["radius"]))
        if kind == "log_spike":
            transverse = None
            if "transverse" in spec:
                lo, hi = spec["transverse"]
                transverse = geo.Box(_numbers(lo), _numbers(hi))
            return quad.LogSpike(
                depth=float(spec["depth"]), t0=float(spec.get("t0", 1.5)), transverse=transverse
            )
        if kind == "polynomial":
            lo, hi = spec["support"]
            axis = spec.get("axis", 0)
            if not _is_int(axis):
                raise ValueError(f"axis must be an int, got {axis!r}")
            return quad.AxisPolynomial(
                _numbers(spec["coeffs"]), geo.Box(_numbers(lo), _numbers(hi)), axis
            )
        if kind == "constant":
            lo, hi = spec["support"]
            return quad.Constant(float(spec["value"]), geo.Box(_numbers(lo), _numbers(hi)))
    except (KeyError, TypeError, ValueError, OverflowError, HardyLabError) as e:
        raise ConfigError("u", f"bad {kind!r} spec: {e}") from e
    raise ConfigError("u.kind", f"unknown test function kind {kind!r}")


# ---------------------------------------------------------------------------
# records


@dataclass
class ExperimentRecord:
    """Results of one run: scalars, per-level series, verdicts, timing."""

    config_digest: str
    command: str
    results: dict
    series: dict  # name -> list of row dicts
    verdicts: dict  # name -> bool (gated: all must hold for exit 0)
    wall_time_s: float
    version: str = __version__

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def numeric_payload(self) -> dict:
        """Everything that must byte-reproduce (timing excluded)."""
        return {
            "config_digest": self.config_digest,
            "command": self.command,
            "results": self.results,
            "series": self.series,
            "verdicts": self.verdicts,
            "version": self.version,
        }

    def to_json(self) -> str:
        payload = self.numeric_payload()
        payload["timing"] = {"wall_time_s": self.wall_time_s}
        return json.dumps(payload, sort_keys=True, indent=2)

    def write(self, out_dir: str | Path) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        summary = out / "summary.json"
        summary.write_text(self.to_json() + "\n")
        for name, rows in self.series.items():
            if not rows:
                continue
            path = out / f"{name}.csv"
            with path.open("w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
                writer.writeheader()
                for row in rows:
                    writer.writerow({k: _csv_cell(v) for k, v in row.items()})
        return summary


def _csv_cell(v):
    if isinstance(v, float):
        return repr(v)
    return v


# ---------------------------------------------------------------------------
# command implementations


def _cmd_exponents(cfg: ExperimentConfig) -> tuple[dict, dict, dict]:
    case = cfg.case()
    w = hardy.critical_exponents(case)
    results = {
        "case": case.case_id,
        "alpha": str(w.alpha),
        "beta": str(w.beta),
        "alpha_float": float(w.alpha),
        "beta_float": float(w.beta),
        "rho_kind": w.rho_kind,
    }
    return results, {}, {}


def _cmd_seminorm(cfg: ExperimentConfig) -> tuple[dict, dict, dict]:
    fp = cfg.frac_params()
    domain = cfg.domain()
    u = cfg.test_function()
    spec = _grid_for(cfg, domain)
    value = quad.gagliardo_seminorm(u, domain, fp, spec, threads=cfg.threads)
    results = {
        "seminorm": value,
        "resolution": cfg.resolution,
        "truncation_box": [list(spec.support_box.lo), list(spec.support_box.hi)],
    }
    return results, {}, {}


def _grid_for(cfg: ExperimentConfig, domain: geo.Domain) -> quad.GridSpec:
    # the size comes first: a bounding box holds d coordinates per corner
    res, d = cfg.resolution, domain.d
    if d * math.log2(res) > _MAX_GRID_LOG2:
        raise ConfigError("resolution", f"a grid of {res}**{d} cells exceeds the limit"
                          f" of 2**{_MAX_GRID_LOG2} cells")
    box = cfg.raw.get("support_box")
    if box is not None:
        try:
            lo, hi = box
            box = geo.Box(_numbers(lo), _numbers(hi))
        except (TypeError, ValueError) as e:
            raise ConfigError("support_box", f"must be [lo, hi] number lists: {e}") from e
        if box.d != d:
            raise ConfigError("support_box", f"has dimension {box.d}, the domain {d}")
    else:
        box = domain.bounding_box()
        if box is None:
            raise ConfigError("support_box", "required for unbounded domains (truncation box)")
    return quad.GridSpec(res, box)


def _cmd_hardy_check(cfg: ExperimentConfig) -> tuple[dict, dict, dict]:
    case = cfg.case()
    domain = cfg.domain()
    u = cfg.test_function()
    spec = _grid_for(cfg, domain)
    w, lhs, denom = hardy.hardy_terms(u, domain, case, spec, cfg.scale(), cfg.threads)
    ratio = lhs / denom
    results = {
        "lhs": lhs,
        "norm": denom,
        "ratio": ratio,
        "alpha": str(w.alpha),
        "beta": str(w.beta),
        "rho_kind": w.rho_kind,
    }
    return results, {}, {"finite": bool(np.isfinite(ratio))}


def _family_from_config(cfg: ExperimentConfig) -> exp.FunctionFamily:
    spec = cfg.raw.get("family", {"kind": "boundary_bump"})
    if not isinstance(spec, dict):
        raise ConfigError("family", "must be an object")
    kind = spec.get("kind")
    if kind == "log_spike":
        return _log_spike_family(spec.get("level_range", [3, 8]), "family.level_range")
    if kind not in ("boundary_bump", "tensor_bump_grid"):
        raise ConfigError("family.kind", f"unknown family kind {kind!r}")
    try:
        if kind == "boundary_bump":
            rng = spec.get("log2_h_range", (-7.0, -2.0))
            family = exp.BoundaryBumpFamily(
                log2_h_range=(float(rng[0]), float(rng[1])),
                width=float(spec.get("width", 0.5)),
            )
        else:
            family = exp.TensorBumpGridFamily(
                center_bounds=tuple((float(a), float(b)) for a, b in spec["center_bounds"]),
                radius_bounds=tuple((float(a), float(b)) for a, b in spec["radius_bounds"]),
            )
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError("family", f"bad {kind!r} spec: {e}") from e
    if not all(lo <= hi for lo, hi in family.bounds):
        raise ConfigError("family", f"parameter bounds need lo <= hi, got {family.bounds}")
    return family


def _cmd_estimate_constant(cfg: ExperimentConfig) -> tuple[dict, dict, dict]:
    case = cfg.case()
    domain = cfg.domain()
    family = _family_from_config(cfg)
    spec = _grid_for(cfg, domain)
    res = exp.estimate_constant(family, case, domain, cfg.search(), spec, R=cfg.scale(),
                                threads=cfg.threads)
    results = {
        "best_ratio": res.best_ratio,
        "best_params": list(res.best_params),
        "best_start": res.best_start,
        "evaluations": res.evaluations,
        "budget_exhausted": res.budget_exhausted,
    }
    series = {
        "starts": [
            {"start": i, "ratio": r} for i, r in enumerate(res.start_ratios)
        ]
    }
    return results, series, {}


def _cmd_blowup_probe(cfg: ExperimentConfig) -> tuple[dict, dict, dict]:
    case = cfg.case()
    offsets = cfg.beta_offsets()
    probes = exp.blowup_probe(case, offsets, cfg.domain(), cfg.probe_family(),
                              cfg.cells_per_block(), cfg.number("growth_threshold", 1.15),
                              threads=cfg.threads)
    results = {"beta_table": str(hardy.critical_exponents(case).beta)}
    series = {}
    verdicts = {}
    expect = cfg.expect()
    for off, probe in zip(offsets, probes):
        key = f"offset_{off:+d}"
        results[key] = probe.verdict
        series[key] = [
            {"level": m, "ratio": r} for m, r in probe.levels
        ]
        if str(off) in expect:
            verdicts[key] = probe.verdict == expect[str(off)]
    return results, series, verdicts


def _cmd_lemma_suite(cfg: ExperimentConfig) -> tuple[dict, dict, dict]:
    seed = cfg.seed
    tolerance = cfg.number("tolerance", 1e-9)
    elementary_count = cfg.count("elementary_count")
    pair_count = cfg.count("pair_count")

    worst_elem, elem_info = lemmas.elementary_inequality_sweep(elementary_count, seed)
    worst_pair, pairs_run = lemmas.adjacent_pair_battery(pair_count, seed)

    rng = np.random.default_rng(seed)
    power_rows = []
    worst_power = np.inf
    for _ in range(200):
        values = rng.uniform(-5, 5, size=rng.integers(1, 10))
        beta = float(rng.uniform(1, 5))
        rep = lemmas.power_sum_slack(values, beta)
        worst_power = min(worst_power, rep.slack)
        power_rows.append({"n": len(values), "beta": beta, "slack": rep.slack})

    ident_ok = True
    for k in range(-40, -1):
        a, b = lemmas.telescoping_coefficient_parts(k)
        ident_ok = ident_ok and (a == b)

    results = {
        "elementary_min_slack": worst_elem,
        "elementary_count": elementary_count,
        "pair_min_slack": worst_pair,
        "pair_count": pairs_run,
        "power_sum_min_slack": float(worst_power),
        "telescoping_identity_exact": ident_ok,
    }
    series = {"power_sum": power_rows}
    verdicts = {
        "elementary": worst_elem >= -1e-12,
        "average_difference": worst_pair >= -tolerance,
        "power_sum": worst_power >= -tolerance,
        "telescoping_identity": ident_ok,
    }
    return results, series, verdicts


def _cmd_telescope(cfg: ExperimentConfig) -> tuple[dict, dict, dict]:
    fp = cfg.frac_params()
    domain = cfg.domain()
    u = cfg.test_function()
    reports = exp.telescoping_reconstruction(domain, u, fp, cfg.depths(),
                                             cfg.count("cells_per_cube"), cfg.threads)
    cs = [rep.minimal_c for rep in reports]
    rows = [
        {
            "m": rep.m,
            "minimal_c": rep.minimal_c,
            "lhs": rep.lhs,
            "top_term": rep.top_term,
            "skipped": len(rep.skipped_layers),
        }
        for rep in reports
    ]
    stable = max(cs) <= 1.5 * min(cs) + 1e-12
    results = {"minimal_c": cs, "stable_within_50pct": stable}
    return results, {"telescope": rows}, {"stable": stable}


_DISPATCH = {
    "exponents": _cmd_exponents,
    "seminorm": _cmd_seminorm,
    "hardy-check": _cmd_hardy_check,
    "estimate-constant": _cmd_estimate_constant,
    "blowup-probe": _cmd_blowup_probe,
    "lemma-suite": _cmd_lemma_suite,
    "telescope": _cmd_telescope,
}


def run(config: ExperimentConfig) -> ExperimentRecord:
    """Dispatch a validated config and collect the record."""
    start = time.perf_counter()
    results, series, verdicts = _DISPATCH[config.command](config)
    elapsed = time.perf_counter() - start
    return ExperimentRecord(
        config_digest=config.digest(),
        command=config.command,
        results=results,
        series=series,
        verdicts=verdicts,
        wall_time_s=elapsed,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hardylab",
        description="Batch experiments for critical boundary Hardy functionals",
    )
    parser.add_argument("--config", required=True, help="path to the JSON experiment config")
    parser.add_argument("--out", default=None, help="output directory (default: from config)")
    parser.add_argument("--threads", type=int, default=None, help="worker threads")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed override")
    parser.add_argument("--resolution", type=int, default=None, help="grid resolution override")
    args = parser.parse_args(argv)

    try:
        data = json.loads(Path(args.config).read_text())
    except OSError as e:
        print(f"cannot read config {args.config!r}: {e}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as e:
        print(f"config {args.config!r} is not valid JSON: {e}", file=sys.stderr)
        return 2

    for key in ("threads", "seed", "resolution"):
        val = getattr(args, key)
        if val is not None:
            data[key] = val
    try:
        config = ExperimentConfig.from_dict(data)
        record = run(config)
    except HardyLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OverflowError as e:  # exponents too large for double precision
        print(f"error: numeric overflow, the config is out of range: {e}", file=sys.stderr)
        return 2

    out_dir = args.out or data.get("out", "results")
    try:
        summary = record.write(out_dir)
    except OSError as e:
        print(f"cannot write results to {out_dir!r}: {e}", file=sys.stderr)
        return 2
    status = "pass" if record.passed else "FAIL"
    print(f"{record.command}: {status} ({summary})")
    return 0 if record.passed else 1


if __name__ == "__main__":
    sys.exit(main())
