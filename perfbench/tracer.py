"""Spans around hardylab's public functions, installed from outside the package.

``Tracer.install`` replaces module attributes: every function in the
``__all__`` of the six modules, the ``__call__`` of each ``TestFunction``
subclass, ``ExperimentConfig.from_dict`` and ``ExperimentRecord.write``.
hardylab calls its own functions through module globals or module
attributes, so calls inside one module and across modules are both seen.
Nothing is changed inside ``src/``: private helpers (the pair-block loop,
the diagonal patch) stay in the self time of the public function that
calls them.

A span is ``[name, start, end, parent, pass_id, attrs]``.  Spans stay in
memory until the worker writes them out; ``layer_metrics`` turns the spans
of one pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import threading
import time
from pathlib import Path

MODULES = ("geometry", "quadrature", "hardy", "lemmas", "experiments", "cli")

GRID_BUILDS = frozenset(
    "quadrature." + f for f in ("uniform_grid", "masked_grid", "union_grid", "domain_grid")
)
TEST_FUNCTION = "quadrature.test_function"

#: per-layer metrics and their units, in report order
LAYER_METRICS = {
    "quadrature.gagliardo_seminorm.calls": "count",
    "quadrature.gagliardo_seminorm.self_s": "s",
    "quadrature.gagliardo_seminorm.cell_pairs": "count",
    "quadrature.gagliardo_seminorm.ns_per_pair": "ns",
    "quadrature.test_function.calls": "count",
    "quadrature.test_function.points": "count",
    "quadrature.test_function.self_s": "s",
    "quadrature.grid_build.calls": "count",
    "quadrature.grid_build.cells": "count",
    "quadrature.grid_build.self_s": "s",
    "quadrature.grid_build.distinct_ratio": "1",
    "quadrature.kahan_sum.calls": "count",
    "quadrature.kahan_sum.values": "count",
    "quadrature.kahan_sum.self_s": "s",
    "quadrature.lp_norm.self_s": "s",
    "hardy.hardy_denominator.calls": "count",
    "hardy.hardy_denominator.s": "s",
    "hardy.hardy_denominator.distinct_ratio": "1",
    "hardy.hardy_ratio.calls": "count",
    "hardy.hardy_lhs.self_s": "s",
    "hardy.weight_for.self_s": "s",
    "hardy.weight_value.self_s": "s",
    "hardy.weight_value.points": "count",
    "geometry.distance_to_boundary.calls": "count",
    "geometry.distance_to_boundary.points": "count",
    "geometry.distance_to_boundary.self_s": "s",
    "geometry.dyadic_layers.self_s": "s",
    "geometry.parent_cube.calls": "count",
    "lemmas.elementary_inequality_sweep.self_s": "s",
    "lemmas.adjacent_pair_battery.self_s": "s",
    "lemmas.power_sum_slack.self_s": "s",
    "lemmas.average_difference_slack.calls": "count",
    "lemmas.average_difference_slack.self_s": "s",
    "experiments.blowup_probe.self_s": "s",
    "experiments.slab_graded_grid.calls": "count",
    "experiments.slab_graded_grid.s": "s",
    "experiments.estimate_constant.self_s": "s",
    "experiments.estimate_constant.evaluations": "count",
    "experiments.estimate_constant.improving_ratio": "1",
    "experiments.telescoping_reconstruction.self_s": "s",
    "cli.run.calls": "count",
    "cli.run.self_s": "s",
    "cli.ExperimentConfig.from_dict.s": "s",
    "cli.ExperimentRecord.write.s": "s",
    "cli.output_bytes": "B",
}


# -- span attributes, computed after the span's end stamp ----------------------


def _rows(pts) -> int:
    """Points in an (M, d) array; a single point counts as one."""
    shape = getattr(pts, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _grid_key(grid) -> str:
    centers = getattr(grid, "centers", None)
    if centers is None:  # a GridSpec: the spec itself names the input
        return repr(grid)
    return f"{grid.ncells}:{hashlib.sha1(centers.tobytes()).hexdigest()}"


def _grid_attrs(args, kwargs, result):
    return {"cells": result.ncells, "key": _grid_key(result)}


def _denominator_attrs(args, kwargs, result):
    u, domain, fp, grid = args[:4]
    return {"key": f"{u!r}|{fp!r}|{domain!r}|{_grid_key(grid)}"}


def _write_attrs(args, kwargs, result):
    return {"bytes": sum(f.stat().st_size for f in Path(result).parent.iterdir())}


ATTRS = {
    "quadrature.as_grid": lambda a, k, r: {"cells": r.ncells},
    "quadrature.kahan_sum": lambda a, k, r: {"values": getattr(a[0], "size", None) or len(a[0])},
    "hardy.hardy_denominator": _denominator_attrs,
    "hardy.hardy_ratio": lambda a, k, r: {"value": float(r)},
    "hardy.weight_value": lambda a, k, r: {"points": _rows(a[2])},
    "geometry.distance_to_boundary": lambda a, k, r: {"points": _rows(a[1])},
    "experiments.estimate_constant": lambda a, k, r: {"evaluations": r.evaluations},
    TEST_FUNCTION: lambda a, k, r: {"points": _rows(a[1])},
    "cli.ExperimentRecord.write": _write_attrs,
    **{name: _grid_attrs for name in GRID_BUILDS},
}


class Tracer:
    """Records one span per call of each wrapped function (main thread only)."""

    def __init__(self, pass_id: int = 0):
        self.pass_id = pass_id
        self.spans: list[list] = []
        self._open: list[int] = []
        self._main = threading.main_thread()

    def wrap(self, name: str, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.current_thread() is not self._main:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.pass_id, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of the package's modules in place."""
        for mod_name in MODULES:
            module = getattr(package, mod_name)
            for name in module.__all__:
                obj = getattr(module, name)
                if inspect.isfunction(obj):
                    setattr(module, name, self.wrap(f"{mod_name}.{name}", obj))
        quad, cli = package.quadrature, package.cli
        for cls in dict.fromkeys(_subclasses(quad.TestFunction)):
            if "__call__" in vars(cls):
                cls.__call__ = self.wrap(TEST_FUNCTION, vars(cls)["__call__"])
        from_dict = vars(cli.ExperimentConfig)["from_dict"].__func__
        cli.ExperimentConfig.from_dict = staticmethod(
            self.wrap("cli.ExperimentConfig.from_dict", from_dict))
        cli.ExperimentRecord.write = self.wrap("cli.ExperimentRecord.write",
                                               cli.ExperimentRecord.write)


def _subclasses(cls) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


# -- aggregation -------------------------------------------------------------


def layer_metrics(spans: list[list], pass_s: float) -> dict[str, float]:
    """Per-layer metrics of one pass, plus the share of the pass time that
    the top-level spans cover."""
    child_time = [0.0] * len(spans)
    by_name: dict[str, list[int]] = {}
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
        if parent is not None:
            child_time[parent] += end - start

    def stats(name):
        picked = by_name.get(name, [])
        return (picked, sum(spans[i][2] - spans[i][1] - child_time[i] for i in picked),
                sum(spans[i][2] - spans[i][1] for i in picked))

    def attr_sum(picked, key):
        return sum(spans[i][5][key] for i in picked)

    def distinct_ratio(picked):
        return len({spans[i][5]["key"] for i in picked}) / len(picked) if picked else 1.0

    m: dict[str, float] = {}
    for name in (
        "quadrature.lp_norm", "hardy.hardy_lhs", "hardy.weight_for", "geometry.dyadic_layers",
        "lemmas.elementary_inequality_sweep", "lemmas.adjacent_pair_battery",
        "lemmas.power_sum_slack", "experiments.blowup_probe",
        "experiments.telescoping_reconstruction",
    ):
        m[f"{name}.self_s"] = stats(name)[1]

    semi, semi_self, _ = stats("quadrature.gagliardo_seminorm")
    pairs = 0
    for i in semi:
        cells = next(spans[j][5]["cells"] for j in range(i + 1, len(spans))
                     if spans[j][3] == i and spans[j][0] == "quadrature.as_grid")
        pairs += cells * (cells - 1) // 2
    m["quadrature.gagliardo_seminorm.calls"] = len(semi)
    m["quadrature.gagliardo_seminorm.self_s"] = semi_self
    m["quadrature.gagliardo_seminorm.cell_pairs"] = pairs
    m["quadrature.gagliardo_seminorm.ns_per_pair"] = semi_self / pairs * 1e9 if pairs else 0.0

    tf, tf_self, _ = stats(TEST_FUNCTION)
    m["quadrature.test_function.calls"] = len(tf)
    m["quadrature.test_function.points"] = attr_sum(tf, "points")
    m["quadrature.test_function.self_s"] = tf_self

    # a grid build nested in another (domain_grid -> uniform_grid) is one build
    builds = sorted(i for name in GRID_BUILDS for i in by_name.get(name, []))
    outer = [i for i in builds if spans[i][3] is None or spans[spans[i][3]][0] not in GRID_BUILDS]
    m["quadrature.grid_build.calls"] = len(outer)
    m["quadrature.grid_build.cells"] = attr_sum(outer, "cells")
    m["quadrature.grid_build.self_s"] = sum(
        spans[i][2] - spans[i][1] - child_time[i] for i in builds)
    m["quadrature.grid_build.distinct_ratio"] = distinct_ratio(outer)

    ks, ks_self, _ = stats("quadrature.kahan_sum")
    m["quadrature.kahan_sum.calls"] = len(ks)
    m["quadrature.kahan_sum.values"] = attr_sum(ks, "values")
    m["quadrature.kahan_sum.self_s"] = ks_self

    den, _, den_s = stats("hardy.hardy_denominator")
    m["hardy.hardy_denominator.calls"] = len(den)
    m["hardy.hardy_denominator.s"] = den_s
    m["hardy.hardy_denominator.distinct_ratio"] = distinct_ratio(den)
    m["hardy.hardy_ratio.calls"] = len(stats("hardy.hardy_ratio")[0])
    wv, wv_self, _ = stats("hardy.weight_value")
    m["hardy.weight_value.self_s"] = wv_self
    m["hardy.weight_value.points"] = attr_sum(wv, "points")

    dist, dist_self, _ = stats("geometry.distance_to_boundary")
    m["geometry.distance_to_boundary.calls"] = len(dist)
    m["geometry.distance_to_boundary.points"] = attr_sum(dist, "points")
    m["geometry.distance_to_boundary.self_s"] = dist_self
    m["geometry.parent_cube.calls"] = len(stats("geometry.parent_cube")[0])

    ads, ads_self, _ = stats("lemmas.average_difference_slack")
    m["lemmas.average_difference_slack.calls"] = len(ads)
    m["lemmas.average_difference_slack.self_s"] = ads_self

    sgg, _, sgg_s = stats("experiments.slab_graded_grid")
    m["experiments.slab_graded_grid.calls"] = len(sgg)
    m["experiments.slab_graded_grid.s"] = sgg_s
    est, est_self, _ = stats("experiments.estimate_constant")
    m["experiments.estimate_constant.self_s"] = est_self
    m["experiments.estimate_constant.evaluations"] = attr_sum(est, "evaluations")
    m["experiments.estimate_constant.improving_ratio"] = _improving_ratio(spans, est)

    run, run_self, _ = stats("cli.run")
    m["cli.run.calls"] = len(run)
    m["cli.run.self_s"] = run_self
    m["cli.ExperimentConfig.from_dict.s"] = stats("cli.ExperimentConfig.from_dict")[2]
    writes, _, write_s = stats("cli.ExperimentRecord.write")
    m["cli.ExperimentRecord.write.s"] = write_s
    m["cli.output_bytes"] = attr_sum(writes, "bytes")

    top = sum(end - start for _, start, end, parent, _, _ in spans if parent is None)
    m["trace.top_span_share"] = top / pass_s
    return m


def _improving_ratio(spans: list[list], estimates: list[int]) -> float:
    """Share of the objective evaluations (hardy_ratio calls under
    estimate_constant) that raise the running best ratio."""
    evaluations = improving = 0
    for root in estimates:
        best = float("-inf")
        for i in range(root + 1, len(spans)):
            if spans[i][1] >= spans[root][2]:
                break
            if spans[i][0] == "hardy.hardy_ratio":
                evaluations += 1
                if spans[i][5]["value"] > best:
                    best = spans[i][5]["value"]
                    improving += 1
    return improving / evaluations if evaluations else 0.0
