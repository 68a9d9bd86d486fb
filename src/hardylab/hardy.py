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
from .errors import ParameterError
from .quadrature import FracParams, Grid, TestFunction

__all__ = [
    "WeightSpec",
    "HardyCase",
    "critical_exponents",
    "weight_value",
    "check_case_domain",
    "weight_takes_scale",
    "weight_for",
    "hardy_ratio",
    "HardyTables",
    "holder_interpolation_check",
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


@dataclass(frozen=True, eq=False, repr=False)
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
            raise ParameterError(f"unknown case id {cid!r}")
        group, letter = cid[0], cid[1]
        if group == "2":
            if fp.sp != fp.d:
                raise ParameterError(f"case {cid} needs s*p = d, got s*p = {fp.sp}")
            if letter == "a" and fp.tau < fp.p:
                raise ParameterError(f"case {cid} needs tau >= p, got {fp.tau}")
            if letter == "b" and fp.tau >= fp.p:
                raise ParameterError(f"case {cid} needs tau < p, got {fp.tau}")
            return
        if fp.sp != 1:
            raise ParameterError(f"case {cid} needs s*p = 1, got {fp.sp}")
        if letter == "a":
            if fp.d <= 1:
                raise ParameterError(f"case {cid} needs d > 1")
            if not (fp.p <= fp.tau <= fp.p_star):
                raise ParameterError(f"case {cid} needs tau in [p, p*] = [{fp.p}, {fp.p_star}],"
                                     f" got {fp.tau}")
        elif letter == "b":
            if fp.d != 1:
                raise ParameterError(f"case {cid} needs d = 1")
            if fp.tau < fp.p:
                raise ParameterError(f"case {cid} needs tau >= p, got {fp.tau}")
        else:  # letter == "c"
            if fp.tau >= fp.p:
                raise ParameterError(f"case {cid} needs tau < p, got {fp.tau}")

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
        if letter == "a":  # tau in [p, p*] puts alpha in [0, 1] and beta <= tau
            alpha = d + (1 - d) * fp.tau / fp.p
            beta = d * fp.p + (1 - d) * fp.tau
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
            raise ParameterError("flat-slab weight needs x_d > 0")
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

    Raises ParameterError when rho <= 1 somewhere (the scale R is too
    small for the domain: the logarithm would vanish or change sign).
    """
    pts = np.asarray(x, dtype=float)
    scalar = pts.ndim == 1
    delta, rho = _rho(w, domain, pts)
    if np.any(rho <= 1.0):
        raise ParameterError("log argument <= 1; choose a larger scale R for this domain")
    vals = delta ** (-float(w.alpha)) * np.log(rho) ** (-float(w.beta))
    return float(vals[0]) if scalar else vals


# ---------------------------------------------------------------------------
# the functional


def _weighted_power_integral(vals, domain, w: WeightSpec, tau: float, g: Grid) -> float:
    """int |u|^tau * weight over the grid, from |u| at its cell centres."""
    out = np.zeros(g.ncells)
    mask = vals > 0
    if np.any(mask):
        wt = weight_value(w, domain, g.centers[mask])
        out[mask] = vals[mask] ** tau * np.atleast_1d(wt)
    return quad.kahan_sum(out * g.weights)


def check_case_domain(case: HardyCase, domain: geo.Domain) -> None:
    """Raise ParameterError unless the case is stated for the domain's kind."""
    kinds, kind = _CASE_DOMAIN_KINDS[case.group], getattr(domain, "kind", None)
    if kind not in kinds:
        raise ParameterError(f"case {case.case_id} is stated for domains {kinds},"
                                f" got {kind!r}")


def weight_takes_scale(case: HardyCase, domain: geo.Domain) -> bool:
    """Whether the case's weight on the domain reads a scale R: all but the
    flat-slab weight (rho = 2/x_d), a group-1 case's on a slab."""
    return not (isinstance(domain, geo.Slab) and case.group == "1")


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
    check_case_domain(case, domain)
    w = critical_exponents(case)
    if not weight_takes_scale(case, domain):
        return replace(w, rho_kind="flat_slab")
    if isinstance(domain, geo.ExteriorBall):
        return replace(w, R=R if R is not None else domain.R)
    if R is None:
        if grid is None:
            raise ParameterError("need a grid or explicit R to scale the weight")
        g = quad.as_grid(grid, domain)
        R = float(np.max(geo.distance_to_boundary(domain, g.centers)))
    return replace(w, R=R)


def _check_strip_condition(u: TestFunction, domain: geo.Epigraph, R: float) -> None:
    # support must stay within height R above the graph (flattened height < R)
    box = u.support
    g_lo, _ = domain.graph.range_on_box(box.lo[:-1], box.hi[:-1])
    if box.hi[-1] - g_lo >= R:
        raise ParameterError(
            f"support reaches flattened height {box.hi[-1] - g_lo:.3g} >= R = {R:.3g};"
            " the strip condition needs supp(u) within height R of the graph"
        )


class HardyTables:
    """The member-independent work of the Hardy ratio on one grid for one
    case, done once: the case's weight and the grid's ``SeminormTables``.

    ``terms`` and ``ratio`` take both sides from one ``SeminormTables``
    evaluation (two calls of the member), so a sweep over members
    (``estimate_constant``) builds the tables once; ``hardy_ratio`` builds
    them for its one member.
    """

    def __init__(self, domain: geo.Domain, case: HardyCase, grid, R: float | None = None):
        g = quad.as_grid(grid, domain)
        self.domain, self.case = domain, case
        self.weight = weight_for(case, domain, g, R)
        self._strip = case.group == "3" and isinstance(domain, geo.Epigraph)
        self.tables = quad.SeminormTables(g, case.fp)

    def terms(self, u: TestFunction) -> tuple[WeightSpec, float, float]:
        """The case's weight, lhs(u) and ||u||_{W^{s,p}}, from one
        evaluation of u."""
        w, g = self.weight, self.tables.grid
        if self._strip:
            _check_strip_condition(u, self.domain, w.R)
        vals, lips = self.tables.evaluate(u)
        denom = self.tables.norm(vals, lips)
        if denom == 0.0:
            raise ParameterError("test function vanishes on the grid")
        tau = float(self.case.fp.tau)
        lhs = _weighted_power_integral(np.abs(vals), self.domain, w, tau, g) ** (1.0 / tau)
        return w, lhs, denom

    def ratio(self, u: TestFunction) -> float:
        """Empirical constant lhs(u) / ||u||_{W^{s,p}}."""
        _, lhs, denom = self.terms(u)
        return lhs / denom


def hardy_ratio(
    u: TestFunction,
    domain: geo.Domain,
    case: HardyCase,
    grid,
    R: float | None = None,
) -> float:
    """Empirical constant lhs(u) / ||u||_{W^{s,p}} for one test function.

    Both sides are 1-homogeneous in u, so the ratio is scale-free; the
    content of the inequality is that its supremum over admissible u is
    finite.
    """
    return HardyTables(domain, case, grid, R).ratio(u)


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
    vals = np.abs(quad._evaluate(u, g.centers))
    if np.any(g.centers[:, -1] <= 0):
        raise ParameterError("grid must sit in the upper half-space x_d > 0")
    if theta == 0.0:
        return 0.0  # both sides equal the Sobolev-endpoint integral
    tau = theta * p + (1.0 - theta) * p_star
    a = Fraction(theta)
    lhs = _weighted_power_integral(vals, None, WeightSpec(a, a * fp.p, "flat_slab"), tau, g)
    base = _weighted_power_integral(vals, None, WeightSpec(Fraction(1), fp.p, "flat_slab"), p, g)
    sobolev_part = quad.kahan_sum(vals**p_star * g.weights)
    rhs = base**theta * sobolev_part ** (1.0 - theta)
    return rhs - lhs
