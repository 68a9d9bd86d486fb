"""Batch front door: parse experiment configs, dispatch, emit records.

A run is described by one JSON config (rationals like s, p, tau are given
as "num/den" strings so criticality is decided exactly).  Results land in
an output directory as one ``summary.json`` plus one CSV per series; the
numeric payload byte-reproduces for a fixed config and seed, as the
chunking of the pair sum fixes its partials.  Exit status is 0 when
every gated verdict passes and 1 otherwise, so CI can gate on the lemma
suites; a malformed config exits 2 with the dotted path of the offending
field.  This module alone knows the config format.

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
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import __version__
from . import experiments as exp
from . import geometry as geo
from . import hardy
from . import quadrature as quad
from .errors import HardyLabError, ParameterError

__all__ = ["ExperimentConfig", "ExperimentRecord", "run", "main", "COMMANDS"]


class ConfigError(ParameterError):
    """Invalid config, carrying the offending field path."""

    def __init__(self, field_path: str, message: str):
        super().__init__(f"config field '{field_path}': {message}")
        self.field_path = field_path


#: log2 of the largest grid a config may ask for; a seminorm keeps a few
#: grid-sized arrays, and the pair sum grows with the square of the cells
_MAX_GRID_LOG2 = 20

#: default of a required field
_REQUIRED = object()


@contextmanager
def _field(path: str):
    """Report a constructor's rejection of the values read under ``path``,
    or a value out of double range, as a fault of that field."""
    try:
        yield
    except ConfigError:
        raise
    except (HardyLabError, OverflowError) as e:
        raise ConfigError(path, str(e)) from e


@dataclass(eq=False, repr=False)
class ExperimentConfig:
    """Experiment description (one command per run).

    Every field is read through the typed readers below, where its command
    uses it: each command reads all its fields before it starts its work,
    so running those reads once is the config's validation, and ``run``
    does the work they return.  A field its command does not read is
    unknown: ``seed`` is a field of estimate-constant and lemma-suite alone,
    and ``resolution`` of seminorm, hardy-check and estimate-constant
    (through ``grid``), whether the config or ``--seed``/``--resolution``
    sets it; ``R`` is a field of hardy-check and estimate-constant where
    the case's weight reads it (``scale``).  Every command reads ``threads`` (an int in [1, 64]) and uses
    it for nothing, only so that the benchmark's configs, which set it,
    stay valid.
    """

    command: str
    raw: dict
    #: the key paths of ``raw`` that ``get`` has read
    read: set = field(default_factory=set, init=False)
    #: the command's work, as its reads in ``validate`` returned it
    work: Work | None = field(default=None, init=False)

    @staticmethod
    def parse(text: str, overrides: dict | None = None) -> "ExperimentConfig":
        """The config in the JSON ``text``, with the fields in ``overrides``
        replaced."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError("<root>", f"not valid JSON: {e}") from e
        if not isinstance(data, dict):
            raise ConfigError("<root>", "config must be a JSON object")
        return ExperimentConfig.from_dict({**data, **(overrides or {})})

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        command = data.get("command")
        if command not in COMMANDS:
            raise ConfigError("command", f"unknown command {command!r}; choose from {COMMANDS}")
        cfg = ExperimentConfig(command=command, raw=dict(data))
        cfg.validate()
        return cfg

    def validate(self) -> None:
        """Run the command's reads (not its work) and keep the work they
        return; a field that none of them read is unknown."""
        # ``threads`` is read with its bounds so that the benchmark's configs,
        # which set it, stay valid (an unread field exits 2); nothing uses it
        self.integer("threads", 1, hi=64)
        if not isinstance(self.get("out", ""), str):
            raise ConfigError("out", f"must be a path string, got {self.raw['out']!r}")
        self.work = _DISPATCH[self.command](self)
        unread = next(_unread(self.raw, self.read | {("command",)}), None)
        if unread:
            raise ConfigError(".".join(unread), f"unknown field of a {self.command} config")

    # -- typed readers: a JSON boolean is never a number ---------------------

    def get(self, path: str, default=_REQUIRED):
        """The value at the dotted ``path``, or ``default`` when it is absent
        (a field without a default is required)."""
        parts = path.split(".")
        self.read.add(tuple(parts))
        node = self.raw
        for depth, key in enumerate(parts):
            if not isinstance(node, dict):
                raise ConfigError(".".join(parts[:depth]), "must be an object")
            if key not in node:
                if default is _REQUIRED:
                    raise ConfigError(".".join(parts[: depth + 1]), "missing")
                return default
            node = node[key]
        return node

    def integer(self, path: str, default=_REQUIRED, lo: int = 1, hi: int | None = None) -> int:
        """An int in [lo, hi], unbounded above when ``hi`` is None."""
        value = self.get(path, default)
        if not (_is_int(value) and lo <= value and (hi is None or value <= hi)):
            bounds = f"in [{lo}, {hi}]" if hi is not None else f">= {lo}"
            raise ConfigError(path, f"must be an int {bounds}, got {value!r}")
        return value

    def number(self, path: str, default=_REQUIRED) -> float:
        """A number as ``_is_finite`` takes it, as a float; ``default`` when absent."""
        value = self.get(path, default)
        if value is default:
            return value
        if not _is_finite(value):
            raise ConfigError(path, f"must be a number in [-2**500, 2**500], got {value!r}")
        return float(value)

    def numbers(self, path: str, default=_REQUIRED, length: int | None = None,
                ints: bool = False) -> tuple:
        """A non-empty list of numbers as ``number`` reads them (of ints if
        ``ints``), ``length`` long if given, as a tuple."""
        return _numbers(self.get(path, default), path, length, ints)

    def pairs(self, path: str) -> tuple[tuple[float, float], ...]:
        """A non-empty list of [a, b] number pairs, as float pairs."""
        rows = self.get(path)
        if not (isinstance(rows, (list, tuple)) and rows):
            raise ConfigError(path, f"must be a list of one or more number pairs, got {rows!r}")
        return tuple(tuple(map(float, _numbers(row, path, 2))) for row in rows)

    def box(self, path: str, default=_REQUIRED) -> geo.Box | None:
        """A box given as [lo, hi] number lists; ``default`` when absent."""
        value = self.get(path, default)
        if value is default:
            return value
        if not (isinstance(value, (list, tuple)) and len(value) == 2):
            raise ConfigError(path, f"must be [lo, hi] number lists, got {value!r}")
        with _field(path):
            return geo.Box(_numbers(value[0], path), _numbers(value[1], path))

    def fraction(self, path: str) -> Fraction:
        """An exact rational: an int, an integral float or a 'num/den' string."""
        value = self.get(path)
        if isinstance(value, bool):
            raise ConfigError(path, f"must be an int, a float or a 'num/den' string,"
                              f" got {value!r}")
        try:
            return quad._as_fraction(value)
        except (ParameterError, ValueError, ZeroDivisionError, OverflowError) as e:
            raise ConfigError(path, str(e)) from e

    # -- objects shared by several commands ----------------------------------

    def frac(self) -> quad.FracParams:
        d = self.integer("frac.d")
        p, s, tau = (self.fraction(f"frac.{k}") for k in ("p", "s", "tau"))
        with _field("frac"):
            return quad.FracParams(d=d, p=p, s=s, tau=tau)

    def case(self) -> hardy.HardyCase:
        fp = self.frac()
        case_id = self.get("case")
        with _field("case"):
            return hardy.HardyCase(case_id, fp)

    def case_domain(self) -> tuple[hardy.HardyCase, geo.Domain]:
        """The case and a domain of a kind and dimension it is stated for."""
        case = self.case()
        domain = self.domain(case.fp.d)
        with _field("domain"):
            hardy.check_case_domain(case, domain)
        return case, domain

    def domain(self, d: int) -> geo.Domain:
        """The domain, whose dimension must be ``d`` (frac.d)."""
        kind = self.get("domain.kind")
        with _field("domain"):
            if kind == "slab":
                domain = geo.Slab(n=self.integer("domain.n"), d=self.integer("domain.d"))
            elif kind == "exterior_ball":
                domain = geo.ExteriorBall(R=self.number("domain.R"), d=self.integer("domain.d"))
            elif kind == "box":
                box = geo.Box(self.numbers("domain.lo"), self.numbers("domain.hi"))
                domain = geo.BoxDomain(box)
            elif kind == "polygon":
                domain = geo.Polygon2D(self.pairs("domain.vertices"))
            elif kind == "epigraph":
                dim = self.integer("domain.d", lo=2)
                domain = geo.Epigraph(self._graph(dim), d=dim)
            else:
                raise ConfigError("domain.kind", f"unknown domain kind {kind!r}")
        if domain.d != d:
            raise ConfigError("domain.d", f"domain dimension {domain.d} differs from frac.d {d}")
        return domain

    def _graph(self, d: int) -> geo.LipschitzGraph:
        kind = self.get("domain.graph.kind")
        if kind == "flat":
            return geo.AffineGraph((0.0,) * (d - 1))
        if kind == "affine":
            return geo.AffineGraph(self.numbers("domain.graph.slope", length=d - 1),
                                   self.number("domain.graph.offset", 0.0))
        if kind == "cone":
            return geo.ConeGraph(self.number("domain.graph.slope"))
        if kind == "piecewise_linear":
            return geo.PiecewiseLinearGraph(self.pairs("domain.graph.breakpoints"))
        raise ConfigError("domain.graph.kind", f"unknown graph kind {kind!r}")

    def test_function(self, d: int) -> quad.TestFunction:
        """The member, a function on R^d (frac.d)."""
        kind = self.get("u.kind")
        with _field("u"):
            if kind == "tensor_bump":
                u = quad.TensorBump(self.numbers("u.center"), self.numbers("u.radius"))
            elif kind == "log_spike":
                u = quad.LogSpike(depth=self.number("u.depth"), t0=self.number("u.t0", 1.5),
                                  transverse=self.box("u.transverse", None))
            elif kind == "polynomial":
                support = self.box("u.support")
                u = quad.AxisPolynomial(self.numbers("u.coeffs"), support,
                                        self.integer("u.axis", 0, lo=0, hi=support.d - 1))
            elif kind == "constant":
                u = quad.AxisPolynomial((self.number("u.value"),), self.box("u.support"))
            else:
                raise ConfigError("u.kind", f"unknown test function kind {kind!r}")
            quad.check_member(u, d)
        return u

    def grid(self, domain: geo.Domain, fp: quad.FracParams) -> quad.GridSpec:
        """``resolution`` cells per axis on ``support_box``, by default the
        domain's bounding box, within the size and range rules for ``fp``
        and ``GridSpec``'s rule on the resolution."""
        # the size comes first: a bounding box holds d coordinates per corner
        res, d = self.integer("resolution", 64), domain.d
        _check_size("resolution", d * math.log2(res))
        given = self.box("support_box", None)
        box = given or domain.bounding_box()
        if box is None:
            raise ConfigError("support_box", "required for unbounded domains (truncation box)")
        if box.d != d:
            raise ConfigError("support_box", f"has dimension {box.d}, the domain {d}")
        with _field("support_box" if given else "domain"):
            sides = quad.grid_box(domain, box).sides()
            quad.check_cell_side(fp, max((math.log2(side) - math.log2(res)
                                          for side in sides), key=abs))
        with _field("resolution"):
            return quad.GridSpec(res, box)

    def scale(self, case: hardy.HardyCase, domain: geo.Domain) -> float | None:
        """The weight scale R; None lets the weight pick its default.  A
        weight that takes no scale (``hardy.weight_takes_scale``) leaves
        ``R`` unread, so it is unknown there."""
        if not hardy.weight_takes_scale(case, domain):
            return None
        R = self.number("R", None)
        if R is not None and R <= 0:
            raise ConfigError("R", f"must be null or a positive finite number, got {R!r}")
        return R

    def family(self, domain: geo.Domain, spec: quad.GridSpec) -> exp.BoundaryBumpFamily:
        """The family of a search on ``spec``'s grid on ``domain``.  A
        reversed range, or a ``hull`` outside the grid's box
        (``quad.check_support``), is a fault of ``family.log2_h_range``, the
        field that sets the members' extent."""
        kind = self.get("family.kind", "boundary_bump")
        if kind != "boundary_bump":
            raise ConfigError("family.kind", f"unknown family kind {kind!r}")
        if domain.d > 1:
            raise ConfigError("family.kind", f"{kind!r} is a family on (0, 1); d is {domain.d}")
        lo, hi = self.numbers("family.log2_h_range", (-7.0, -2.0), length=2)
        width = self.number("family.width", 0.5)
        if width <= 0:
            raise ConfigError("family.width", f"must be positive, got {width!r}")
        with _field("family.log2_h_range"):
            family = exp.BoundaryBumpFamily(log2_h_range=(float(lo), float(hi)), width=width)
            quad.check_support(family.hull(), domain, spec.support_box)
        return family

    def canonical_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]


def _check_size(path: str, log2_cells: float) -> None:
    """Reject a largest grid of 2**log2_cells cells, naming ``path``."""
    if log2_cells > _MAX_GRID_LOG2:
        raise ConfigError(path, f"the largest grid holds 2**{log2_cells:.4f} cells, above the"
                          f" limit of 2**{_MAX_GRID_LOG2}")


def _unread(node: dict, read: set, prefix: tuple = ()):
    """The key paths under ``node`` neither in ``read`` nor below a path in
    it; of an object none of whose fields was read, only its own path."""
    for key, value in node.items():
        path = prefix + (key,)
        if path in read:
            continue
        if isinstance(value, dict) and any(r[: len(path)] == path for r in read):
            yield from _unread(value, read, path)
        else:
            yield path


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A number, not a JSON boolean, of magnitude at most 2**500, so the
    square of the difference of two coordinates stays a finite double."""
    try:
        return not isinstance(value, bool) and abs(value) <= 2.0**500
    except TypeError:
        return False


def _numbers(value, path: str, length: int | None = None, ints: bool = False) -> tuple:
    """``value`` as a tuple, if it is a non-empty list of numbers that pass
    ``_is_finite`` (of ints if ``ints``), ``length`` long if given."""
    if not (isinstance(value, (list, tuple)) and value
            and (length is None or len(value) == length)
            and all(map(_is_int if ints else _is_finite, value))):
        raise ConfigError(path, f"must be a list of {length or 'one or more'}"
                          f" {'ints' if ints else 'numbers in [-2**500, 2**500]'}, got {value!r}")
    return tuple(value)


# ---------------------------------------------------------------------------
# records


@dataclass(eq=False, repr=False)
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


#: what a ``_cmd_*`` returns once it has read every field its command uses
#: (``validate`` runs only these reads): the work, giving (results, series,
#: verdicts)
Work = Callable[[], tuple[dict, dict, dict]]


def _cmd_exponents(cfg: ExperimentConfig) -> Work:
    case = cfg.case()
    w = hardy.critical_exponents(case)  # a table lookup
    results = {
        "case": case.case_id,
        "alpha": str(w.alpha),
        "beta": str(w.beta),
        "alpha_float": float(w.alpha),
        "beta_float": float(w.beta),
        "rho_kind": w.rho_kind,
    }
    return lambda: (results, {}, {})


def _cmd_seminorm(cfg: ExperimentConfig) -> Work:
    fp = cfg.frac()
    domain = cfg.domain(fp.d)
    spec = cfg.grid(domain, fp)
    u = cfg.test_function(fp.d)

    def work():
        value = quad.gagliardo_seminorm(u, domain, fp, spec)
        results = {
            "seminorm": value,
            "resolution": spec.resolution,
            "truncation_box": [list(spec.support_box.lo), list(spec.support_box.hi)],
        }
        return results, {}, {}

    return work


def _cmd_hardy_check(cfg: ExperimentConfig) -> Work:
    case, domain = cfg.case_domain()
    spec = cfg.grid(domain, case.fp)
    u = cfg.test_function(case.fp.d)
    with _field("u"):
        quad.check_support(u.support, domain, spec.support_box)
    R = cfg.scale(case, domain)

    def work():
        w, lhs, denom = hardy.HardyTables(domain, case, spec, R).terms(u)
        ratio = lhs / denom
        results = {
            "lhs": lhs,
            "norm": denom,
            "ratio": ratio,
            "alpha": str(w.alpha),
            "beta": str(w.beta),
            "rho_kind": w.rho_kind,
        }
        return results, {}, {"finite": math.isfinite(ratio)}

    return work


def _cmd_estimate_constant(cfg: ExperimentConfig) -> Work:
    case, domain = cfg.case_domain()
    spec = cfg.grid(domain, case.fp)
    R = cfg.scale(case, domain)
    family = cfg.family(domain, spec)
    search = exp.SearchConfig(
        starts=cfg.integer("search.starts", 8, hi=2**10),
        budget_per_start=cfg.integer("search.budget_per_start", 200, hi=2**14),
        seed=cfg.integer("seed", 0, lo=0),
    )

    def work():
        res = exp.estimate_constant(family, case, domain, search, spec, R=R)
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

    return work


def _cmd_blowup_probe(cfg: ExperimentConfig) -> Work:
    case, domain = cfg.case_domain()
    with _field("domain"):
        exp.check_probe_domain(domain)
    with _field("case"):
        exp.check_probe_case(case)
    offsets = cfg.numbers("beta_offsets", (-1, 0, 1), ints=True)
    if len(set(offsets)) != len(offsets):  # the record keys each probe by its offset
        raise ConfigError("beta_offsets", f"must not repeat an offset, got {list(offsets)}")
    # expected verdict per probed offset, keyed by the offset as a string
    expect = cfg.get("expect", {})
    probed = [str(off) for off in offsets]
    if not (isinstance(expect, dict) and all(k in probed and v in ("diverging", "bounded")
                                             for k, v in expect.items())):
        raise ConfigError("expect", f"must map offsets from {probed} to 'diverging' or"
                          f" 'bounded', got {expect!r}")
    with _field("levels"):
        family = exp.LogSpikeFamily(level_range=cfg.numbers("levels", (3, 8), length=2, ints=True))
    cells = cfg.integer("cells_per_block", 8, hi=2**_MAX_GRID_LOG2)
    # before the size rule: a level past 8 also has an oversized grid, and
    # the fault is the level's
    with _field("levels"):
        exp.check_probe_levels(family, case.fp, cells)
    if expect:
        with _field("expect"):
            exp.check_probe_expect(family)
    # the top level's grid
    _check_size("cells_per_block", family.grid_extent(family.level_range[1], cells)[0])

    def work():
        probes = exp.blowup_probe(case, offsets, domain, family, cells)
        results = {"beta_table": str(hardy.critical_exponents(case).beta)}
        series, verdicts = {}, {}
        for off, probe in zip(offsets, probes):
            key = f"offset_{off:+d}"
            results[key] = probe.verdict
            series[key] = [{"level": m, "ratio": r} for m, r in probe.levels]
            if str(off) in expect:
                verdicts[key] = probe.verdict == expect[str(off)]
        return results, series, verdicts

    return work


def _cmd_lemma_suite(cfg: ExperimentConfig) -> Work:
    from . import lemmas  # only this command needs it, and mpmath with it

    seed = cfg.integer("seed", 0, lo=0)
    tolerance = cfg.number("tolerance", lemmas.SLACK_TOLERANCE)
    elementary_count = cfg.integer("elementary_count", 100_000, hi=2**20)
    pair_count = cfg.integer("pair_count", 200, hi=2**16)

    def work():
        worst_elem, elem_info = lemmas.elementary_inequality_sweep(elementary_count, seed)
        worst_pair, pairs_run = lemmas.adjacent_pair_battery(pair_count, seed)
        worst_power, power_rows = lemmas.power_sum_battery(seed=seed)
        ident_ok = all(a == b for a, b in map(lemmas.telescoping_coefficient_parts,
                                              range(-40, -1)))

        results = {
            "elementary_min_slack": worst_elem,
            "elementary_count": elementary_count,
            "pair_min_slack": worst_pair,
            "pair_count": pairs_run,
            "power_sum_min_slack": worst_power,
            "telescoping_identity_exact": ident_ok,
        }
        series = {"power_sum": power_rows}
        verdicts = {
            "elementary": lemmas.SlackReport(worst_elem, lemmas.ELEMENTARY_TOLERANCE).passed,
            "average_difference": lemmas.SlackReport(worst_pair, tolerance).passed,
            "power_sum": lemmas.SlackReport(worst_power, tolerance).passed,
            "telescoping_identity": ident_ok,
        }
        return results, series, verdicts

    return work


def _cmd_telescope(cfg: ExperimentConfig) -> Work:
    fp = cfg.frac()
    slab = cfg.domain(fp.d)
    with _field("domain"):
        exp.check_telescope_domain(slab)
    depths = cfg.numbers("depths", (-4, -5, -6), ints=True)
    cells = cfg.integer("cells_per_cube", 4, hi=2**_MAX_GRID_LOG2)
    with _field("depths"):  # the deepest layer pair's grid
        exp.check_telescope_depths(depths)
        log2_cells, log2_side = exp.telescope_grid_extent(slab, min(depths), cells)
        _check_size("depths", log2_cells)
        quad.check_cell_side(fp, log2_side)
    with _field("frac"):
        exp.telescope_case(slab, fp)
    u = cfg.test_function(fp.d)

    def work():
        reports = exp.telescoping_reconstruction(slab, u, fp, depths, cells)
        rows = [{"m": rep.m, "minimal_c": rep.minimal_c, "lhs": rep.lhs,
                 "top_term": rep.top_term, "skipped": len(rep.skipped_layers)}
                for rep in reports]
        within, stable = exp.telescope_verdict(reports)
        results = {"minimal_c": [rep.minimal_c for rep in reports],
                   "stable_within_50pct": within}
        return results, {"telescope": rows}, {"stable": stable}

    return work


_DISPATCH = {
    "exponents": _cmd_exponents,
    "seminorm": _cmd_seminorm,
    "hardy-check": _cmd_hardy_check,
    "estimate-constant": _cmd_estimate_constant,
    "blowup-probe": _cmd_blowup_probe,
    "lemma-suite": _cmd_lemma_suite,
    "telescope": _cmd_telescope,
}

COMMANDS = tuple(_DISPATCH)


def run(config: ExperimentConfig) -> ExperimentRecord:
    """Do a validated config's work and collect the record."""
    start = time.perf_counter()
    results, series, verdicts = config.work()
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
    parser.add_argument("--seed", type=int, default=None, help="RNG seed override")
    parser.add_argument("--resolution", type=int, default=None, help="grid resolution override")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except (OSError, UnicodeDecodeError) as e:
        print(f"cannot read config {args.config!r}: {e}", file=sys.stderr)
        return 2

    overrides = {key: val for key in ("seed", "resolution")
                 if (val := getattr(args, key)) is not None}
    try:
        config = ExperimentConfig.parse(text, overrides)
        record = run(config)
    except HardyLabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OverflowError as e:  # exponents too large for double precision
        print(f"error: numeric overflow, the config is out of range: {e}", file=sys.stderr)
        return 2

    out_dir = args.out or config.get("out", "results")
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
