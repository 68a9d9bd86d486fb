"""Supporting inequalities as executable slack checks.

Each lemma is packaged as a function returning a ``SlackReport`` whose
``slack`` is RHS - LHS of the inequality instance; the lemma "passes" when
the slack is not meaningfully negative.  Constants are pinned explicitly
(no unfalsifiable "there exists C"):

* the elementary bound (|a|+|b|)^t <= c|a|^t + (1-c^{-1/(t-1)})^{1-t} |b|^t
  for c > 1, with equality at the ratio a/b = x0 = 1/(c^{1/(t-1)} - 1),
* the average-difference bound
  |mean_E u - mean_F u|^t <= 2^t |EuF|/min(|E|,|F|) mean_{EuF}|u - mean|^t,
  whose constant 2^t comes from the convexity split plus Jensen,
* the power-sum bound sum |a_l|^b <= (sum |a_l|)^b for b >= 1,
* the scaled mean-oscillation bound: the ratio of
  (mean_{D_lam} |u_lam - mean|^t)^{1/t} to (lam^{sp-d} [u_lam]^p)^{1/p}
  does not depend on the dilation lam (that uniformity IS the content).

Borderline slacks from the float path are re-evaluated in high precision
(mpmath) so the verdict reflects the inequality, not accumulated rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath
import numpy as np

from . import geometry as geo
from . import quadrature as quad
from .errors import DegenerateInputError, ParameterError
from .quadrature import FracParams, Grid

__all__ = [
    "SlackReport",
    "elementary_inequality_slack",
    "elementary_inequality_sweep",
    "maximizer_x0",
    "maximum_value",
    "stationarity_residual",
    "average_difference_slack",
    "adjacent_pair_battery",
    "scaled_sobolev_ratio",
    "power_sum_slack",
    "telescoping_coefficient_parts",
    "telescoping_coefficient_identity",
    "coefficient_decay_ratio",
    "coefficient_decay_limit",
]


@dataclass(frozen=True)
class SlackReport:
    """Outcome of one inequality instance.

    ``slack`` is RHS - LHS; the verdict passes iff slack >= -tolerance.
    """

    lemma_id: str
    inputs: dict
    slack: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.slack >= -self.tolerance

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_dict(self) -> dict:
        return {
            "lemma_id": self.lemma_id,
            "inputs": self.inputs,
            "slack": self.slack,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
        }


# ---------------------------------------------------------------------------
# elementary two-term bound


def _elementary_terms(a: float, b: float, c: float, tau: float):
    coeff = (1.0 - c ** (-1.0 / (tau - 1.0))) ** (1.0 - tau)
    rhs = c * abs(a) ** tau + coeff * abs(b) ** tau
    lhs = (abs(a) + abs(b)) ** tau
    return lhs, rhs


def _elementary_slack_mp(a, b, c, tau) -> float:
    with mpmath.workdps(50):
        a, b, c, tau = map(mpmath.mpf, (abs(a), abs(b), c, tau))
        coeff = (1 - c ** (-1 / (tau - 1))) ** (1 - tau)
        return float(c * a**tau + coeff * b**tau - (a + b) ** tau)


def elementary_inequality_slack(a, b, c, tau, tolerance: float = 1e-12) -> SlackReport:
    """Slack of (|a|+|b|)^tau <= c |a|^tau + (1-c^{-1/(tau-1)})^{1-tau}|b|^tau."""
    if c <= 1:
        raise ParameterError("c must exceed 1")
    if tau <= 1:
        raise ParameterError("tau must exceed 1")
    lhs, rhs = _elementary_terms(a, b, c, tau)
    slack = rhs - lhs
    scale = max(abs(lhs), abs(rhs), 1.0)
    if slack < 1e-6 * scale:
        # near equality the float path loses digits; settle it at 50 digits
        slack = _elementary_slack_mp(a, b, c, tau)
    return SlackReport(
        "two_term_power_bound",
        {"a": float(a), "b": float(b), "c": float(c), "tau": float(tau)},
        float(slack),
        tolerance,
    )


def elementary_inequality_sweep(
    count: int = 100_000, seed: int = 0, tolerance: float = 1e-12
) -> tuple[float, dict]:
    """Vectorized randomized battery; returns (min slack, worst inputs).

    Draws a, b in [-10, 10], c in (1, 10], tau in (1, 6].  Borderline
    instances are re-evaluated in high precision before taking the min.
    """
    rng = np.random.default_rng(seed)
    a = rng.uniform(-10, 10, size=count)
    b = rng.uniform(-10, 10, size=count)
    c = rng.uniform(1.0 + 1e-6, 10.0, size=count)
    tau = rng.uniform(1.0 + 1e-3, 6.0, size=count)

    coeff = (1.0 - c ** (-1.0 / (tau - 1.0))) ** (1.0 - tau)
    rhs = c * np.abs(a) ** tau + coeff * np.abs(b) ** tau
    lhs = (np.abs(a) + np.abs(b)) ** tau
    slack = rhs - lhs
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
    borderline = np.flatnonzero(slack < 1e-6 * scale)
    for i in borderline:
        slack[i] = _elementary_slack_mp(a[i], b[i], c[i], tau[i])
    worst = int(np.argmin(slack))
    return float(slack[worst]), {
        "a": float(a[worst]),
        "b": float(b[worst]),
        "c": float(c[worst]),
        "tau": float(tau[worst]),
        "count": count,
        "seed": seed,
        "tolerance": tolerance,
    }


def maximizer_x0(c, tau) -> float:
    """Ratio x0 = 1/(c^{1/(tau-1)} - 1) where the two-term bound is tight."""
    if c <= 1:
        raise ParameterError("c must exceed 1")
    if tau <= 1:
        raise ParameterError("tau must exceed 1")
    return 1.0 / (c ** (1.0 / (tau - 1.0)) - 1.0)


def maximum_value(c, tau) -> float:
    """Max of f(x) = (1+x)^tau - c x^tau over x >= 0, = (1-c^{-1/(tau-1)})^{1-tau}."""
    return (1.0 - c ** (-1.0 / (tau - 1.0))) ** (1.0 - tau)


def stationarity_residual(c, tau, rel_step: float = 1e-10) -> float:
    """Central-difference derivative of f(x) = (1+x)^tau - c x^tau at x0.

    Evaluated at 60 digits so the residual reflects the truncation error of
    the difference quotient, not float cancellation; an independent check
    that x0 really is the stationary point.
    """
    x0 = maximizer_x0(c, tau)
    with mpmath.workdps(60):
        cm, tm, xm = mpmath.mpf(c), mpmath.mpf(tau), mpmath.mpf(x0)
        h = mpmath.mpf(rel_step) * (1 + xm)

        def f(x):
            return (1 + x) ** tm - cm * x**tm

        return float((f(xm + h) - f(xm - h)) / (2 * h))


# ---------------------------------------------------------------------------
# average-difference bound on disjoint regions


def _boxes_disjoint(e: geo.Box, f: geo.Box) -> bool:
    return e.intersect(f) is None


def average_difference_slack(
    u,
    E: geo.Box,
    F: geo.Box,
    tau: float,
    cells_per_axis: int = 16,
    tolerance: float = 1e-9,
) -> SlackReport:
    """Slack of |mean_E u - mean_F u|^tau <= 2^tau * |EuF|/min(|E|,|F|) * osc.

    ``osc`` is the mean of |u - mean_{EuF} u|^tau over E u F.  The constant
    2^tau is pinned: split the difference through the joint mean by
    convexity (factor 2^{tau-1} on each term), bound each term by Jensen,
    then enlarge both denominators to min(|E|, |F|).  The chain also holds
    for the discrete midpoint measure, so the slack is nonnegative at any
    resolution up to rounding.
    """
    if tau < 1:
        raise ParameterError("tau must be >= 1")
    if not _boxes_disjoint(E, F):
        raise ParameterError("regions must be disjoint")
    gE = quad.union_grid([E], cells_per_axis)
    gF = quad.union_grid([F], cells_per_axis)
    uE = np.asarray(u(gE.centers), dtype=float)
    uF = np.asarray(u(gF.centers), dtype=float)
    # measures from the quadrature weights themselves, so the Jensen chain
    # holds exactly for the discrete measure at any resolution
    wE, wF = gE.total_weight, gF.total_weight
    w_union = wE + wF
    mE = quad.kahan_sum(uE * gE.weights) / wE
    mF = quad.kahan_sum(uF * gF.weights) / wF
    m_union = (mE * wE + mF * wF) / w_union
    osc = (
        quad.kahan_sum(np.abs(uE - m_union) ** tau * gE.weights)
        + quad.kahan_sum(np.abs(uF - m_union) ** tau * gF.weights)
    ) / w_union
    lhs = abs(mE - mF) ** tau
    rhs = 2.0**tau * w_union / min(wE, wF) * osc
    return SlackReport(
        "average_difference_bound",
        {"tau": float(tau), "E": [list(E.lo), list(E.hi)], "F": [list(F.lo), list(F.hi)]},
        float(rhs - lhs),
        tolerance,
    )


def adjacent_pair_battery(
    count: int = 1000, seed: int = 0, cells_per_axis: int = 8, tolerance: float = 1e-9
) -> tuple[float, int]:
    """Randomized adjacent-dyadic-cube battery; returns (min slack, n run).

    Cases alternate between d = 1 and d = 2 slabs: pick a layer, pick a
    cube and a neighbor (sibling in the layer or the cube directly above),
    pick a random bump, check the pinned-constant bound.
    """
    rng = np.random.default_rng(seed)
    worst = math.inf
    ran = 0
    for trial in range(count):
        d = 1 if trial % 2 == 0 else 2
        k = int(rng.integers(-4, -1))  # layer in -4..-2 so a parent exists
        layer = geo.DyadicLayer(k, 1, d)
        i = int(rng.integers(0, layer.count))
        E = layer.cube(i).box()
        if layer.count == 1 or rng.random() < 0.5:
            parent = geo.DyadicLayer(k + 1, 1, d).cube(geo.parent_cube(layer, i))
            F = parent.box()
        else:
            j = int(rng.integers(0, layer.count))
            if j == i:
                j = (i + 1) % layer.count
            F = layer.cube(j).box()
        lo = tuple(min(a, b) for a, b in zip(E.lo, F.lo))
        hi = tuple(max(a, b) for a, b in zip(E.hi, F.hi))
        center = tuple(rng.uniform(a, b) for a, b in zip(lo, hi))
        radius = tuple(rng.uniform(0.2, 1.0) * s for s in E.sides())
        u = quad.TensorBump(center, radius)
        tau = float(rng.uniform(1.0, 4.0))
        rep = average_difference_slack(u, E, F, tau, cells_per_axis, tolerance)
        worst = min(worst, rep.slack)
        ran += 1
    return worst, ran


# ---------------------------------------------------------------------------
# scaled mean-oscillation vs seminorm


def scaled_sobolev_ratio(
    u: quad.TestFunction,
    lam: float,
    fp: FracParams,
    tau,
    resolution: int = 64,
    region=None,
) -> float:
    """LHS / RHS of the scale-normalized oscillation bound at dilation lam.

    ``u`` is a profile on a base region (default: its own support box);
    the dilated copy u(x/lam) is measured on the lam-scaled region:

        LHS = (mean |u_lam - mean u_lam|^tau)^{1/tau}
        RHS = (lam^{sp-d} [u_lam]^p)^{1/p}

    A lam-independent result is the testable content: the bound's constant
    does not degrade as the region shrinks.
    """
    if lam <= 0:
        raise ParameterError("lam must be positive")
    tau = float(tau)
    if tau < float(fp.p):
        raise ParameterError("tau must be >= p")
    if fp.sp < fp.d and tau > float(fp.p_star):
        raise ParameterError("tau must be <= p* when sp < d")
    base = region if region is not None else u.support
    if not isinstance(base, (geo.Box, geo.Annulus)):
        raise ParameterError("region must be a Box or an Annulus")
    g = quad._region_grid(base.scaled(lam), resolution)
    ul = u.dilated(lam)
    vals = np.asarray(ul(g.centers), dtype=float)
    mean = quad.kahan_sum(vals * g.weights) / g.total_weight
    osc = quad.kahan_sum(np.abs(vals - mean) ** tau * g.weights) / g.total_weight
    lhs = osc ** (1.0 / tau)
    if lhs == 0.0 and np.allclose(vals, vals[0]):
        return 0.0  # constant profile: zero oscillation, zero ratio
    semi = quad.gagliardo_seminorm(ul, None, fp, g)
    p = float(fp.p)
    rhs = (lam ** (float(fp.sp) - fp.d) * semi**p) ** (1.0 / p)
    if rhs == 0.0:
        raise DegenerateInputError("seminorm vanished for a non-constant profile")
    return lhs / rhs


# ---------------------------------------------------------------------------
# power-sum bound


def power_sum_slack(values: Sequence[float], beta: float, tolerance: float = 0.0) -> SlackReport:
    """Slack of sum |a_l|^beta <= (sum |a_l|)^beta for beta >= 1."""
    if beta < 1:
        raise ParameterError("beta must be >= 1")
    vals = np.abs(np.asarray(values, dtype=float))
    if vals.size == 0:
        raise ParameterError("need at least one value")
    lhs = float(np.sum(vals**beta))
    rhs = float(np.sum(vals)) ** beta
    return SlackReport(
        "power_sum_bound",
        {"n": int(vals.size), "beta": float(beta)},
        rhs - lhs,
        tolerance,
    )


# ---------------------------------------------------------------------------
# telescoping coefficients


def telescoping_coefficient_parts(k: int) -> tuple[Fraction, Fraction]:
    """Exact base of the tight two-term coefficient at layer k.

    With c = (j/(j - 1/2))^{tau-1} for j = -k, the quantity
    1 - c^{-1/(tau-1)} reduces to 1/(2j) exactly; the right-hand side of
    the closed-form identity is (1/2) * (1/j).  Returns both as exact
    rationals (they must be equal).
    """
    if k >= -1:
        raise ParameterError("telescoping runs over layers k <= -2")
    j = -k
    from_c = 1 - Fraction(2 * j - 1, 2 * j)
    direct = Fraction(1, 2) * Fraction(1, j)
    return from_c, direct


def telescoping_coefficient_identity(k: int, tau: float) -> tuple[float, float]:
    """Both sides of (1 - c^{-1/(tau-1)})^{1-tau} = 2^{tau-1} (-k)^{tau-1}.

    The bases agree as exact rationals, so the powered sides agree too;
    returned as floats for reporting.
    """
    base_from_c, base_direct = telescoping_coefficient_parts(k)
    lhs = float(base_from_c) ** (1.0 - tau)
    rhs = 2.0 ** (tau - 1.0) * float(-k) ** (tau - 1.0)
    return lhs, rhs


def coefficient_decay_ratio(k: int, tau: float) -> float:
    """Ratio of the telescoped coefficient decrement to its model 1/(-k)^tau.

    The decrement 1/(-k)^{tau-1} - 1/(-k + 1/2)^{tau-1} behaves like
    (tau-1)/2 * (-k)^{-tau} for deep layers.
    """
    if k >= -1:
        raise ParameterError("layers run over k <= -2")
    j = float(-k)
    decrement = j ** (1.0 - tau) - (j + 0.5) ** (1.0 - tau)
    return decrement * j**tau


def coefficient_decay_limit(tau: float) -> float:
    return (tau - 1.0) / 2.0
