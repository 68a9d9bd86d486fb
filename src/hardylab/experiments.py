"""Scientific payloads: constant estimation, optimality probes, telescoping.

Three experiment drivers sit on top of the functionals:

* ``estimate_constant`` maximizes the Hardy ratio over a parametrized test
  function family (multi-start Nelder-Mead); the best ratio found is a
  certified lower bound on the best constant.
* ``blowup_probe`` drives a concentrating log-profile family toward the
  boundary and classifies candidate weight exponents beta' as bounded or
  diverging from the growth of the ratios across depths; each depth's
  member, grid, evaluation and norm are made once for all candidates.  At the
  tabulated beta the ratios stabilize; one unit below they grow
  geometrically (about sqrt(2) per level for the default family); one
  unit above they decay.  That three-point signature is the operational
  form of weight optimality.
* ``telescoping_reconstruction`` rebuilds the layer-by-layer transfer
  argument on a slab (cube averages, weighted layer sums, overlapping
  seminorms) and reports the smallest constant closing the chain at each
  depth; each layer's terms are computed once for all depths, from one
  evaluation of u on the grid of the layer and the layer above.

Deep log profiles cannot be resolved by a uniform grid at desk scale, so
the probe integrates on geometrically graded meshes: one fixed-size grid
per dyadic block of the slab height.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

import numpy as np
import numpy.random

from . import geometry as geo
from . import hardy
from . import quadrature as quad
from .errors import ParameterError, UnsupportedDomainError
from .hardy import HardyCase, WeightSpec
from .quadrature import FracParams, Grid, TestFunction

__all__ = [
    "FunctionFamily",
    "BoundaryBumpFamily",
    "LogSpikeFamily",
    "TensorBumpGridFamily",
    "SearchConfig",
    "EstimateResult",
    "estimate_constant",
    "ProbeResult",
    "blowup_probe",
    "three_point_signature",
    "slab_graded_grid",
    "TelescopeReport",
    "telescope_case",
    "telescoping_reconstruction",
]


# ---------------------------------------------------------------------------
# graded meshes for the slab


def slab_graded_grid(depth_levels: int, cells_per_block: int = 8) -> Grid:
    """Geometrically graded mesh of the height interval (0, 1).

    One uniform block per dyadic level [2^{-j-1}, 2^{-j}], j = 0..J with
    J = depth_levels; cells refine toward the bottom boundary at the same
    rate the dyadic blocks shrink.  Block j is block 0 = [1/2, 1] scaled
    by 2^{-j}: the blocks are the runs of ``quad.run_grid``, and the
    seminorm sums their pairs by block offset.
    """
    if depth_levels < 1:
        raise ParameterError("need at least one dyadic level")
    block = quad.union_grid([geo.Box((0.5,), (1.0,))], cells_per_block)
    return quad.run_grid(block, depth_levels + 1, scale=0.5)


# ---------------------------------------------------------------------------
# test function families


class FunctionFamily:
    """Parametrized family of admissible test functions."""

    #: inclusive parameter bounds, one (lo, hi) pair per coordinate
    bounds: tuple[tuple[float, float], ...]

    def make(self, params: np.ndarray) -> TestFunction:
        raise NotImplementedError

    def clip(self, params: np.ndarray) -> np.ndarray:
        lo, hi = np.array(self.bounds, dtype=float).T
        return np.clip(np.asarray(params, dtype=float), lo, hi)

    def initial_params(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(*np.array(self.bounds, dtype=float).T)


@dataclass(frozen=True)
class BoundaryBumpFamily(FunctionFamily):
    """Bumps of fixed width sliding toward the bottom boundary of (0, 1).

    The single parameter is log2 of the gap h between the support and the
    boundary; the member is a bump supported on [h, h + width].
    """

    log2_h_range: tuple[float, float] = (-7.0, -2.0)
    width: float = 0.5

    @property
    def bounds(self):  # type: ignore[override]
        return (self.log2_h_range,)

    def member(self, h: float) -> TestFunction:
        r = 0.5 * self.width
        return quad.TensorBump((h + r,), (r,))

    def make(self, params):
        params = self.clip(params)
        return self.member(2.0 ** float(params[0]))


@dataclass(frozen=True)
class LogSpikeFamily(FunctionFamily):
    """Concentrating log profiles with dyadically doubling depth.

    Level m maps to a profile whose ramps and plateau each span
    2^{m-1} dyadic levels of the slab height; each level doubles the
    concentration depth, which is what makes growth factors across levels
    scale-free.  Depths are capped at ``max_depth``, and the level range
    stops at the cap's level 1 + log2(max_depth): a level above would reuse
    the capped member, and its grid, with cells down to 2^-773 / cells per
    block, would break the seminorm's range rule ``quad.check_cell_side``.
    """

    level_range: tuple[int, int] = (3, 8)
    t0: float = 1.5
    max_depth: ClassVar[float] = 128.0

    def __post_init__(self):
        lo, hi = self.level_range
        top = 1 + int(math.log2(self.max_depth))
        if not 1 <= lo <= hi <= top:
            raise ParameterError(f"level range needs 1 <= lo <= hi <= {top},"
                                 f" got {self.level_range!r}")

    @property
    def bounds(self):  # type: ignore[override]
        return ((float(self.level_range[0]), float(self.level_range[1])),)

    def depth(self, level: float) -> float:
        return min(2.0 ** (float(level) - 1.0), self.max_depth)

    def member(self, level: float) -> quad.LogSpike:
        return quad.LogSpike(depth=self.depth(level), t0=self.t0)

    def grid_levels(self, level: float) -> int:
        """Dyadic levels J of the graded grid of ``level`` (J + 1 blocks)."""
        return math.ceil(self.t0 + 3.0 * self.depth(level)) + 2

    def grid(self, level: float, cells_per_block: int = 8) -> Grid:
        return slab_graded_grid(self.grid_levels(level), cells_per_block)

    def make(self, params):
        params = self.clip(params)
        return self.member(float(params[0]))


@dataclass(frozen=True)
class TensorBumpGridFamily(FunctionFamily):
    """Bumps with free center and radius inside a domain box (any d)."""

    center_bounds: tuple[tuple[float, float], ...]
    radius_bounds: tuple[tuple[float, float], ...]

    @property
    def bounds(self):  # type: ignore[override]
        return self.center_bounds + self.radius_bounds

    def make(self, params):
        params = self.clip(params)
        d = len(self.center_bounds)
        center = tuple(params[:d])
        radius = tuple(params[d:])
        return quad.TensorBump(center, radius)


# ---------------------------------------------------------------------------
# best-constant estimation


@dataclass(frozen=True)
class SearchConfig:
    """Multi-start Nelder-Mead budget; starts are seeded per index so that
    enlarging ``starts`` only appends new starts (monotone restarts)."""

    starts: int = 8
    budget_per_start: int = 200
    seed: int = 0


@dataclass(frozen=True)
class EstimateResult:
    best_params: tuple[float, ...]
    best_ratio: float
    best_start: int
    evaluations: int
    budget_exhausted: bool
    start_ratios: tuple[float, ...]


class _BudgetSpent(Exception):
    """Raised in place of an evaluation past ``_nelder_mead``'s budget."""


def _nelder_mead(f, x0, maxfev: int, xatol: float, fatol: float):
    """Minimize f from x0 in at most ``maxfev`` evaluations: scipy's
    ``minimize(f, x0, method="Nelder-Mead", options={"maxfev": maxfev,
    "xatol": xatol, "fatol": fatol})`` ported, the one branch it takes
    (non-adaptive, unbounded, the default initial simplex) with its
    arithmetic and order, so the two agree bit for bit.  Returns x, f(x),
    the evaluations and whether the budget was spent.
    """
    x0 = np.asarray(x0, dtype=float)
    N = len(x0)
    sim = np.empty((N + 1, N))
    sim[0] = x0
    for k in range(N):
        sim[k + 1] = x0
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    nfev = 0

    def call(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return f(np.copy(x))

    def by_value(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    fsim = np.full(N + 1, np.inf)
    try:
        for k in range(N + 1):
            fsim[k] = call(sim[k])
    except _BudgetSpent:
        pass
    sim, fsim = by_value(*by_value(sim, fsim))  # scipy sorts twice here
    while nfev < maxfev:
        try:
            if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / N
            xr = 2 * xbar - sim[-1]
            fxr = call(xr)
            if fxr < fsim[0]:  # expand
                xe = 3 * xbar - 2 * sim[-1]
                fxe = call(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:  # reflect
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # contract outside
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = call(xc)
                    keep = fxc <= fxr
                else:  # contract inside
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = call(xc)
                    keep = fxc < fsim[-1]
                if keep:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink toward the best vertex
                    for j in range(1, N + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = call(sim[j])
        except _BudgetSpent:  # what the iteration changed so far stands
            pass
        sim, fsim = by_value(sim, fsim)
    return sim[0], np.min(fsim), nfev, nfev >= maxfev


def estimate_constant(
    family: FunctionFamily,
    case: HardyCase,
    domain: geo.Domain,
    search: SearchConfig,
    grid,
    R: float | None = None,
    threads: int = 1,
) -> EstimateResult:
    """Maximize the Hardy ratio over the family; a lower bound on C.

    Derivative-free: quadrature noise makes finite-difference gradients
    unreliable, and the simplex tolerates the piecewise-smooth parameter
    dependence.  Each start runs ``_nelder_mead``, scipy's Nelder-Mead
    ported.  Deterministic for fixed seeds; ties broken by start index.
    ``evaluations`` counts the optimizer's calls; a call at a clipped point
    that an earlier call of this run reached (the box edge, mostly) reuses
    that member's ratio, so each distinct member is computed once.
    """
    tables = hardy.HardyTables(domain, case, grid, R)
    ratios: dict[bytes, float] = {}  # clipped point's bits -> -ratio

    def objective(params: np.ndarray) -> float:
        key = family.clip(params).tobytes()  # all that ``family.make`` reads
        if key not in ratios:
            ratios[key] = -tables.ratio(family.make(params), threads)
        return ratios[key]

    best_ratio = -math.inf
    best_params: np.ndarray | None = None
    best_start = -1
    evaluations = 0
    exhausted = False
    start_ratios = []
    for i in range(search.starts):
        rng = np.random.default_rng(search.seed + i)
        x0 = family.initial_params(rng)
        x, fun, nfev, spent = _nelder_mead(
            objective, x0, search.budget_per_start, xatol=1e-6, fatol=1e-10
        )
        evaluations += nfev
        exhausted |= spent
        ratio = -float(fun)
        start_ratios.append(ratio)
        if ratio > best_ratio:  # strict: first start wins ties
            best_ratio = ratio
            best_params = family.clip(x)
            best_start = i
    assert best_params is not None
    return EstimateResult(
        best_params=tuple(float(v) for v in best_params),
        best_ratio=best_ratio,
        best_start=best_start,
        evaluations=evaluations,
        budget_exhausted=exhausted,
        start_ratios=tuple(start_ratios),
    )


# ---------------------------------------------------------------------------
# weight-optimality probe

#: fewest evaluated levels a diverging verdict needs
_MIN_LEVELS = 4


@dataclass(frozen=True)
class ProbeResult:
    """Ratios of the concentrating family against one weight exponent.

    ``verdict`` is diverging iff every consecutive growth factor reaches
    the threshold and at least four levels (``_MIN_LEVELS``) were evaluated.
    """

    beta_used: float
    levels: tuple[tuple[int, float], ...]
    growth_factors: tuple[float, ...]
    verdict: str
    truncated: bool = False
    growth_threshold: float = 1.15


def blowup_probe(
    case: HardyCase,
    beta_offsets,
    domain: geo.Domain,
    family: LogSpikeFamily | None = None,
    cells_per_block: int = 8,
    growth_threshold: float = 1.15,
    threads: int = 1,
) -> tuple[ProbeResult, ...]:
    """Classify each weight exponent beta' = beta + offset as bounded or diverging.

    Evaluates the Hardy ratio of each family member with the weight's log
    exponent replaced by beta'; at the tabulated beta the theory guarantees
    bounded ratios, so geometric growth across all levels is the numerical
    signature of an inadmissible (too weak a log) exponent.  The member,
    grid, its evaluation and the norm do not depend on beta', so each level
    makes them once and every offset weighs the same |u|; a failure there
    truncates every offset, a non-finite or underflowed (zero) ratio only
    its own.  Returns one result per offset, in order.
    """
    if not isinstance(domain, geo.Slab) or domain.d != 1:
        raise UnsupportedDomainError("the log-spike probe runs on the d = 1 slab")
    family = family or LogSpikeFamily()
    w_table = hardy.critical_exponents(case)
    weights = [WeightSpec(w_table.alpha, w_table.beta + Fraction(off), "flat_slab")
               for off in beta_offsets]
    tau = float(case.fp.tau)

    levels: list[list[tuple[int, float]]] = [[] for _ in weights]
    truncated = [False] * len(weights)
    lo, hi = family.level_range
    for m in range(lo, hi + 1):
        if all(truncated):
            break
        try:
            g = family.grid(m, cells_per_block)
            tables = quad.SeminormTables(g, case.fp)
            vals, lips = tables.evaluate(family.member(m))
            denom = tables.norm(vals, lips, threads)
        except (ArithmeticError, FloatingPointError):
            truncated = [True] * len(weights)
            break
        mag = np.abs(vals)
        for i, w in enumerate(weights):
            if truncated[i]:
                continue
            try:
                lhs = hardy._weighted_power_integral(mag, domain, w, tau, g) ** (1.0 / tau)
                ratio = lhs / denom
                truncated[i] = not (math.isfinite(ratio) and ratio > 0)
            except (ArithmeticError, FloatingPointError):
                truncated[i] = True
            if not truncated[i]:
                levels[i].append((m, ratio))

    results = []
    for w, lev, trunc in zip(weights, levels, truncated):
        growth = tuple(b / a for (_, a), (_, b) in zip(lev, lev[1:]))
        diverging = (
            len(lev) >= _MIN_LEVELS
            and len(growth) > 0
            and all(f >= growth_threshold for f in growth)
        )
        results.append(ProbeResult(
            beta_used=float(w.beta),
            levels=tuple(lev),
            growth_factors=growth,
            verdict="diverging" if diverging else "bounded",
            truncated=trunc,
            growth_threshold=growth_threshold,
        ))
    return tuple(results)


def three_point_signature(
    case: HardyCase,
    domain: geo.Domain,
    family: LogSpikeFamily | None = None,
    cells_per_block: int = 8,
    growth_threshold: float = 1.15,
) -> dict[str, ProbeResult]:
    """Probes at beta - 1, beta, beta + 1 (the optimality signature)."""
    probes = blowup_probe(case, (-1, 0, 1), domain, family, cells_per_block, growth_threshold)
    return dict(zip(("below", "at", "above"), probes))


# ---------------------------------------------------------------------------
# telescoping reconstruction on the slab


@dataclass(frozen=True)
class TelescopeReport:
    """All intermediate quantities of the layer-transfer chain at depth m.

    The chain bounds the weighted layer sums

        sum_{k=m}^{-1} 2^{k(d-alpha)} (-k)^{-tau} a_k,
        a_k = sum over layer-k cubes of |cube average of u|^tau,

    by the top-layer term plus a constant times the overlapping seminorms
    sum_k [u]^tau over (layer k union layer k+1).  ``minimal_c`` is the
    smallest constant closing the inequality; the content mirrored here is
    that it stays bounded in the depth m and across test functions.  The
    layer terms do not depend on m: the reports of one
    ``telescoping_reconstruction`` call share them, computed once.  A
    skipped layer's a_k is 0, but its seminorm term is not 0 when the layer
    above meets the support of u.
    """

    m: int
    tau: float
    alpha: float
    layer_counts: tuple[int, ...]
    layer_sums: tuple[float, ...]  # a_k, k = m..-1
    seminorm_terms: tuple[float, ...]  # [u]^tau over layer unions
    lhs: float
    top_term: float
    minimal_c: float
    skipped_layers: tuple[int, ...]


def telescope_case(slab: geo.Slab, fp: FracParams) -> HardyCase:
    """The case of the telescope's chain: 1a for d > 1, 1b for d = 1."""
    return HardyCase("1a" if slab.d > 1 else "1b", fp)


def telescoping_reconstruction(
    slab: geo.Domain,
    u: TestFunction,
    fp: FracParams,
    depths,
    cells_per_cube: int = 4,
    threads: int = 1,
) -> tuple[TelescopeReport, ...]:
    """Reconstruct the dyadic transfer chain and its smallest constant at
    each depth m, one report per depth, in order.

    One pass computes each layer's average sum and overlapping seminorm
    for all depths, from one evaluation of u on the grid of the layer and
    the layer above; depth m's report takes the layers k >= m.  Layers
    whose heights miss the support of u have an average sum of exactly 0;
    they are recorded in ``skipped_layers``, and their cube averages are
    not computed.  A layer's seminorm term is computed when the heights of
    the layer and the layer above meet the support, and is exactly 0
    otherwise (no grid is built for it).  In d > 1 the grid of a layer
    pair is ``quad.run_grid`` of its first column of upper cubes along
    axis 0, with the cubes of layer k below each upper cube; only that
    column's cubes are listed.
    """
    if not isinstance(slab, geo.Slab):
        raise UnsupportedDomainError("telescoping runs on slab domains")
    depths = tuple(depths)
    if not depths or max(depths) > -1:
        raise ParameterError(f"depths must be a non-empty list of ints <= -1, got {depths!r}")
    case = telescope_case(slab, fp)
    alpha = float(hardy.critical_exponents(case).alpha)
    tau = float(fp.tau)
    d = slab.d

    deepest = min(depths)
    layers = geo.dyadic_layers(slab, deepest)
    support_lo = u.support.lo[-1]
    support_hi = u.support.hi[-1]

    layer_sums = []
    skipped = []
    semis = []
    for layer in layers:
        k = layer.k
        # u vanishes on a layer, or on the layer pair of layer k and the
        # layer above (heights (2^k, 2^{k+2}), layer -1 alone (1/2, 1)),
        # that misses its support: the term is exactly 0, not computed
        layer_meets = 2.0**k < support_hi and 2.0 ** (k + 1) > support_lo
        if not layer_meets:
            skipped.append(k)
            layer_sums.append(0.0)
        if not (2.0**k < support_hi and min(2.0 ** (k + 2), 1.0) > support_lo):
            semis.append(0.0)
            continue
        # overlapping seminorm, by columns of upper cubes along axis 0 (in
        # d = 1 one column): column 0 is the first cubes of layer k and of
        # the layer above, as axis 0 varies slowest, and column j is
        # column 0 moved j upper cube sides along axis 0
        top = geo.DyadicLayer(min(k + 1, -1), slab.n, d)
        runs = top.cubes_per_axis if d > 1 else 1
        low = layer.count // runs
        col = [layer.cube(i).box() for i in range(low)]
        if k < -1:
            col += [top.cube(i).box() for i in range(top.count // runs)]
        step = (2.0**top.k,) + (0.0,) * (d - 1)
        g = quad.run_grid(quad.union_grid(col, cells_per_cube), runs, step=step)
        tables = quad.SeminormTables(g, fp)
        vals, lips = tables.evaluate(u)
        semis.append(tables.seminorm(vals, lips, threads) ** tau)
        if not layer_meets:
            continue
        # uniform cells within each cube: the cube average is the plain
        # mean; the first cubes of each column, column by column, are
        # layer k's in its cube order
        avgs = vals.reshape(runs, len(col), -1).mean(axis=2)[:, :low].ravel()
        layer_sums.append(float(np.sum(np.abs(avgs) ** tau)))

    a_top = layer_sums[-1]  # layer -1 is last (layers run deepest..-1)
    top_term = ((2.0 / 3.0) ** (tau - 1.0) + 1.0) * 2.0 ** (alpha - d) * a_top
    reports = []
    for m in depths:
        tail = slice(m - deepest, None)  # layers k = m..-1
        lhs = 0.0
        for k, a_k in zip(range(m, 0), layer_sums[tail]):
            lhs += 2.0 ** (k * (d - alpha)) * (-k) ** (-tau) * a_k
        total_semi = float(np.sum(semis[tail]))
        if lhs <= top_term:
            minimal_c = 0.0
        elif total_semi == 0.0:
            minimal_c = math.inf
        else:
            minimal_c = (lhs - top_term) / total_semi
        reports.append(TelescopeReport(
            m=m,
            tau=tau,
            alpha=alpha,
            layer_counts=tuple(layer.count for layer in layers[tail]),
            layer_sums=tuple(layer_sums[tail]),
            seminorm_terms=tuple(float(s) for s in semis[tail]),
            lhs=lhs,
            top_term=top_term,
            minimal_c=minimal_c,
            skipped_layers=tuple(k for k in skipped if k >= m),
        ))
    return tuple(reports)
