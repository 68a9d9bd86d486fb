"""Critical-case boundary Hardy functionals with logarithmic weights.

The central object is the weighted integral

    lhs(u)^tau = int_D |u|^tau / (delta^alpha * ln^beta(rho))

where delta is the boundary distance and rho keeps the logarithm positive:

* ``flat_slab``: rho = 2 / x_d, with x_d itself in place of delta
  (slabs with the flat bottom as the active boundary),
* ``bounded``:  rho = 2 R / delta, for bounded domains with delta < R,
* ``exterior``: rho = max(2 R / delta, 2 delta / R), for complements of
  bounded obstacles, where delta can be both small and large.

``critical_exponents`` tabulates the exponent pairs (alpha, beta) for which
lhs(u) <= C ||u||_{W^{s,p}} holds on each domain class at the critical
couplings sp = 1 (boundary codimension) and sp = d (dimension), and
``hardy_ratio`` measures the empirical constant for a given test function.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import geometry as geo
from . import quadrature as quad
from .errors import (
    CaseDispatchError,
    DegenerateInputError,
    ParameterError,
    WeightDomainError,
)
from .quadrature import FracParams, Grid, GridSpec, TestFunction

__all__ = [
    "WeightSpec",
    "HardyCase",
    "critical_exponents",
    "weight_value",
    "weight_for",
    "hardy_lhs",
    "hardy_denominator",
    "hardy_terms",
    "hardy_ratio",
    "holder_interpolation_check",
    "divergence_ladder",
    "DivergenceLadder",
    "CASE_IDS",
]

CASE_IDS = ("1a", "1b", "1c", "2a", "2b", "3a", "3b", "3c")

#: domain kinds each case group is stated for
_CASE_DOMAIN_KINDS = {
    "1": ("slab", "box", "polygon"),
    "2": ("exterior_ball",),
    "3": ("epigraph", "slab"),
}


@dataclass(frozen=True)
class WeightSpec:
    """Weight 1 / (delta^alpha * ln^beta(rho)) with rho per ``rho_kind``."""

    alpha: Fraction
    beta: Fraction
    rho_kind: str  # flat_slab | bounded | exterior
    R: float | None = None

    def __post_init__(self):
        if self.rho_kind not in ("flat_slab", "bounded", "exterior"):
            raise ParameterError(f"unknown rho kind {self.rho_kind!r}")
        if self.R is not None and self.R <= 0:
            raise ParameterError("scale R must be positive")

    def with_scale(self, R: float) -> "WeightSpec":
        return replace(self, R=R)


@dataclass(frozen=True)
class HardyCase:
    """One branch of the critical exponent table, with validated parameters.

    Cases 1*/3* require sp = 1 (bounded / epigraph domains), cases 2*
    require sp = d (exterior domains).  The letter picks the tau regime:
    (a) tau in [p, p*] for d > 1, (b) tau >= p for d = 1, (c) tau < p.
    """

    case_id: str
    fp: FracParams

    def __post_init__(self):
        cid, fp = self.case_id, self.fp
        if cid not in CASE_IDS:
            raise CaseDispatchError(f"unknown case id {cid!r}")
        group, letter = cid[0], cid[1]
        if group == "2":
            if fp.sp != fp.d:
                raise CaseDispatchError(f"case {cid} needs s*p = d, got s*p = {fp.sp}")
            if letter == "a" and fp.tau < fp.p:
                raise CaseDispatchError(f"case {cid} needs tau >= p, got {fp.tau}")
            if letter == "b" and fp.tau >= fp.p:
                raise CaseDispatchError(f"case {cid} needs tau < p, got {fp.tau}")
            return
        if fp.sp != 1:
            raise CaseDispatchError(f"case {cid} needs s*p = 1, got {fp.sp}")
        if letter == "a":
            if fp.d <= 1:
                raise CaseDispatchError(f"case {cid} needs d > 1")
            if not (fp.p <= fp.tau <= fp.p_star):
                raise CaseDispatchError(
                    f"case {cid} needs tau in [p, p*] = [{fp.p}, {fp.p_star}], got {fp.tau}"
                )
        elif letter == "b":
            if fp.d != 1:
                raise CaseDispatchError(f"case {cid} needs d = 1")
            if fp.tau < fp.p:
                raise CaseDispatchError(f"case {cid} needs tau >= p, got {fp.tau}")
        else:  # letter == "c"
            if fp.tau >= fp.p:
                raise CaseDispatchError(f"case {cid} needs tau < p, got {fp.tau}")

    @property
    def group(self) -> str:
        return self.case_id[0]


def critical_exponents(case: HardyCase) -> WeightSpec:
    """Exponent pair (alpha, beta) of the case, as exact rationals.

    Group 1 and 3 (sp = 1):
        (a) alpha = d + (1-d) tau/p, beta = d p + (1-d) tau,
        (b) alpha = 1, beta = tau,
        (c) alpha = 1, beta = p.
    Group 2 (sp = d):
        (a) alpha = d, beta = tau,   (b) alpha = d, beta = p.
    """
    fp = case.fp
    d = Fraction(fp.d)
    letter = case.case_id[1]
    if case.group in ("1", "3"):
        # rho = 2R/delta; slabs switch to the flat form at evaluation time
        rho_kind = "bounded"
        if letter == "a":
            alpha = d + (1 - d) * fp.tau / fp.p
            beta = d * fp.p + (1 - d) * fp.tau
            if not (0 <= alpha <= 1):
                raise CaseDispatchError(f"alpha = {alpha} fell outside [0, 1]")
            if beta > fp.tau:
                raise CaseDispatchError(f"beta = {beta} exceeded tau = {fp.tau}")
        elif letter == "b":
            alpha, beta = Fraction(1), fp.tau
        else:
            alpha, beta = Fraction(1), fp.p
        return WeightSpec(alpha, beta, rho_kind)
    # group 2
    if letter == "a":
        return WeightSpec(d, fp.tau, "exterior")
    return WeightSpec(d, fp.p, "exterior")


# ---------------------------------------------------------------------------
# weight evaluation


def _rho(w: WeightSpec, domain: geo.Domain | None, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(delta-like factor, rho) at the given interior points."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if w.rho_kind == "flat_slab":
        xd = pts[:, -1]
        if np.any(xd <= 0):
            raise WeightDomainError("flat-slab weight needs x_d > 0")
        return xd, 2.0 / xd
    if domain is None:
        raise ParameterError("distance-based weights need a domain")
    if w.R is None:
        raise ParameterError("distance-based weights need the scale R")
    delta = geo.distance_to_boundary(domain, pts)
    delta = np.atleast_1d(delta)
    if w.rho_kind == "bounded":
        rho = 2.0 * w.R / delta
    else:
        rho = np.maximum(2.0 * w.R / delta, 2.0 * delta / w.R)
    return delta, rho


def weight_value(w: WeightSpec, domain: geo.Domain | None, x) -> float | np.ndarray:
    """delta^(-alpha) * ln^(-beta)(rho) at interior points.

    Raises WeightDomainError when rho <= 1 somewhere (the scale R is too
    small for the domain: the logarithm would vanish or change sign).
    """
    pts = np.asarray(x, dtype=float)
    scalar = pts.ndim == 1
    delta, rho = _rho(w, domain, pts)
    if np.any(rho <= 1.0):
        raise WeightDomainError(
            "log argument <= 1; choose a larger scale R for this domain"
        )
    vals = delta ** (-float(w.alpha)) * np.log(rho) ** (-float(w.beta))
    return float(vals[0]) if scalar else vals


# ---------------------------------------------------------------------------
# the functional


def _weighted_power_integral(u, domain, w: WeightSpec, tau: float, g: Grid) -> float:
    vals = np.abs(quad._evaluate(u, g))
    out = np.zeros(g.ncells)
    mask = vals > 0
    if np.any(mask):
        wt = weight_value(w, domain, g.centers[mask])
        out[mask] = vals[mask] ** tau * np.atleast_1d(wt)
    return quad.kahan_sum(out * g.weights)


def hardy_lhs(u, domain: geo.Domain | None, w: WeightSpec, tau, grid) -> float:
    """(int |u|^tau / (delta^alpha ln^beta rho))^(1/tau).

    The weight is evaluated only where u is nonzero, so compactly supported
    test functions never touch the boundary singularity.
    """
    tau = float(tau)
    if tau < 1:
        raise ParameterError("tau must be >= 1")
    g = quad.as_grid(grid, domain)
    total = _weighted_power_integral(u, domain, w, tau, g)
    return total ** (1.0 / tau)


def hardy_denominator(u, domain, fp: FracParams, grid, threads: int = 1) -> float:
    """Full norm (||u||_p^p + [u]_p^p)^{1/p} on the grid's region; the
    seminorm's pair sum runs on ``threads`` worker threads."""
    g = quad.as_grid(grid, domain)
    p = float(fp.p)
    lp = quad.lp_norm(u, None, p, g)
    semi = quad.gagliardo_seminorm(u, None, fp, g, threads)
    return (lp**p + semi**p) ** (1.0 / p)


def weight_for(
    case: HardyCase,
    domain: geo.Domain,
    grid=None,
    R: float | None = None,
) -> WeightSpec:
    """Weight spec for the case on the given domain.

    Slabs use the flat-slab form (rho = 2/x_d) stated for the model domain;
    other bounded domains use rho = 2R/delta with R defaulting to the
    largest interior distance seen on the grid; exterior domains use the
    two-sided form with R defaulting to the obstacle radius.
    """
    kind = getattr(domain, "kind", None)
    if kind not in _CASE_DOMAIN_KINDS[case.group]:
        raise CaseDispatchError(
            f"case {case.case_id} is stated for domains {_CASE_DOMAIN_KINDS[case.group]},"
            f" got {kind!r}"
        )
    w = critical_exponents(case)
    if isinstance(domain, geo.Slab) and case.group == "1":
        return replace(w, rho_kind="flat_slab")
    if isinstance(domain, geo.ExteriorBall):
        return w.with_scale(R if R is not None else domain.R)
    if R is None:
        if grid is None:
            raise ParameterError("need a grid or explicit R to scale the weight")
        g = quad.as_grid(grid, domain)
        R = float(np.max(geo.distance_to_boundary(domain, g.centers)))
    return w.with_scale(R)


def _check_strip_condition(u: TestFunction, domain: geo.Epigraph, R: float) -> None:
    # support must stay within height R above the graph (flattened height < R)
    box = u.support
    g_lo, _ = domain.graph.range_on_box(box.lo[:-1], box.hi[:-1])
    if box.hi[-1] - g_lo >= R:
        raise ParameterError(
            f"support reaches flattened height {box.hi[-1] - g_lo:.3g} >= R = {R:.3g};"
            " the strip condition needs supp(u) within height R of the graph"
        )


def hardy_terms(
    u: TestFunction,
    domain: geo.Domain,
    case: HardyCase,
    grid,
    R: float | None = None,
    threads: int = 1,
) -> tuple[WeightSpec, float, float]:
    """The case's weight, lhs(u) and ||u||_{W^{s,p}}, each evaluated once."""
    g = quad.as_grid(grid, domain)
    w = weight_for(case, domain, g, R)
    if case.group == "3" and isinstance(domain, geo.Epigraph):
        if w.R is None:
            raise ParameterError("case 3 needs the strip scale R")
        _check_strip_condition(u, domain, w.R)
    denom = hardy_denominator(u, domain, case.fp, g, threads=threads)
    if denom == 0.0:
        raise DegenerateInputError("test function vanishes on the grid")
    lhs = hardy_lhs(u, domain, w, case.fp.tau, g)
    return w, lhs, denom


def hardy_ratio(
    u: TestFunction,
    domain: geo.Domain,
    case: HardyCase,
    grid,
    R: float | None = None,
    threads: int = 1,
) -> float:
    """Empirical constant lhs(u) / ||u||_{W^{s,p}} for one test function.

    Both sides are 1-homogeneous in u, so the ratio is scale-free; the
    content of the inequality is that its supremum over admissible u is
    finite.
    """
    _, lhs, denom = hardy_terms(u, domain, case, grid, R, threads)
    return lhs / denom


# ---------------------------------------------------------------------------
# interpolation identity between the tau = p weight and the Sobolev endpoint


def holder_interpolation_check(u, fp: FracParams, theta: float, grid) -> float:
    """Slack of the two-factor interpolation bound on a slab.

    For tau = theta p + (1-theta) p* and weight exponents a = theta,
    b = theta p, the weighted tau-integral is dominated by
    (tau=p weighted integral)^theta * (int |u|^{p*})^{1-theta}.
    Returns RHS - LHS, which is nonnegative up to float rounding because
    the bound holds for the discrete quadrature measure as well.
    """
    if not 0.0 <= theta <= 1.0:
        raise ParameterError("theta must lie in [0, 1]")
    if fp.sp != 1 or fp.d <= fp.sp:
        raise ParameterError("interpolation check needs s*p = 1 < d")
    g = quad.as_grid(grid)
    p = float(fp.p)
    p_star = float(fp.p_star)
    vals = np.abs(quad._evaluate(u, g))
    xd = g.centers[:, -1]
    if np.any(xd <= 0):
        raise ParameterError("grid must sit in the upper half-space x_d > 0")
    logs = np.log(2.0 / xd)
    sobolev_part = quad.kahan_sum(vals**p_star * g.weights)
    if theta == 0.0:
        return 0.0  # both sides equal the Sobolev-endpoint integral
    tau = theta * p + (1.0 - theta) * p_star
    a = theta
    b = theta * p
    lhs = quad.kahan_sum(vals**tau / (xd**a * logs**b) * g.weights)
    base = quad.kahan_sum(vals**p / (xd * logs**p) * g.weights)
    rhs = base**theta * sobolev_part ** (1.0 - theta)
    return rhs - lhs


# ---------------------------------------------------------------------------
# refinement-ladder divergence verdicts


@dataclass(frozen=True)
class DivergenceLadder:
    """Weighted integrals along grid doublings and the growth verdict."""

    values: tuple[float, ...]
    growth_factors: tuple[float, ...]
    divergent: bool


def divergence_ladder(
    u,
    domain: geo.Domain | None,
    w: WeightSpec,
    tau,
    base_spec: GridSpec,
    doublings: int = 3,
    growth: float = 2.0,
) -> DivergenceLadder:
    """Evaluate the weighted integral on successively doubled grids.

    The verdict is ``divergent`` when every doubling grows the value by at
    least ``growth``; convergent integrals stabilize instead.
    """
    if doublings < 1:
        raise ParameterError("need at least one doubling")
    tau = float(tau)
    values = []
    spec = base_spec
    for _ in range(doublings + 1):
        g = quad.as_grid(spec, domain)
        values.append(_weighted_power_integral(u, domain, w, tau, g))
        spec = spec.refined()
    factors = tuple(b / a if a > 0 else np.inf for a, b in zip(values, values[1:]))
    divergent = all(f >= growth for f in factors)
    return DivergenceLadder(tuple(values), factors, divergent)
