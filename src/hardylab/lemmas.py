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
* the power-sum bound sum |a_l|^b <= (sum |a_l|)^b for b >= 1.

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
import numpy.random

from . import geometry as geo
from . import quadrature as quad
from .errors import ParameterError

__all__ = [
    "SlackReport",
    "elementary_inequality_slack",
    "elementary_inequality_sweep",
    "maximum_value",
    "average_difference_slack",
    "adjacent_pair_battery",
    "power_sum_slack",
    "power_sum_battery",
    "telescoping_coefficient_parts",
    "ELEMENTARY_TOLERANCE",
    "SLACK_TOLERANCE",
]

#: tolerance of the elementary bound, whose near-equal slacks are settled at 50 digits
ELEMENTARY_TOLERANCE = 1e-12
#: default tolerance of the average-difference and power-sum slacks
SLACK_TOLERANCE = 1e-9


@dataclass(frozen=True, eq=False, repr=False)
class SlackReport:
    """Outcome of one inequality instance.

    ``slack`` is RHS - LHS; the verdict passes iff slack >= -tolerance.
    """

    slack: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.slack >= -self.tolerance

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"


# ---------------------------------------------------------------------------
# elementary two-term bound


def _elementary_slacks(a, b, c, tau) -> np.ndarray:
    """RHS - LHS of the two-term bound for each instance of the arrays;
    near equality the float path loses digits, so those instances are
    settled at 50 digits."""
    a, b = np.abs(a), np.abs(b)
    lhs = (a + b) ** tau
    rhs = c * a**tau + maximum_value(c, tau) * b**tau
    slack = rhs - lhs
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0)
    for i in np.flatnonzero(slack < 1e-6 * scale):
        with mpmath.workdps(50):
            am, bm, cm, tm = (mpmath.mpf(x[i]) for x in (a, b, c, tau))
            coeff = (1 - cm ** (-1 / (tm - 1))) ** (1 - tm)
            slack[i] = float(cm * am**tm + coeff * bm**tm - (am + bm) ** tm)
    return slack


def elementary_inequality_slack(a, b, c, tau,
                                tolerance: float = ELEMENTARY_TOLERANCE) -> SlackReport:
    """Slack of (|a|+|b|)^tau <= c |a|^tau + (1-c^{-1/(tau-1)})^{1-tau}|b|^tau."""
    if c <= 1:
        raise ParameterError("c must exceed 1")
    if tau <= 1:
        raise ParameterError("tau must exceed 1")
    slack = _elementary_slacks(*np.array([[a], [b], [c], [tau]], dtype=float))[0]
    return SlackReport(float(slack), tolerance)


def elementary_inequality_sweep(count: int = 100_000, seed: int = 0) -> tuple[float, dict]:
    """Vectorized randomized battery; returns (min slack, worst inputs).

    Draws a, b in [-10, 10], c in (1, 10], tau in (1, 6].  Borderline
    instances are re-evaluated in high precision before taking the min.
    """
    rng = np.random.default_rng(seed)
    a = rng.uniform(-10, 10, size=count)
    b = rng.uniform(-10, 10, size=count)
    c = rng.uniform(1.0 + 1e-6, 10.0, size=count)
    tau = rng.uniform(1.0 + 1e-3, 6.0, size=count)
    slack = _elementary_slacks(a, b, c, tau)
    worst = int(np.argmin(slack))
    return float(slack[worst]), {
        "a": float(a[worst]),
        "b": float(b[worst]),
        "c": float(c[worst]),
        "tau": float(tau[worst]),
        "count": count,
        "seed": seed,
    }


def maximum_value(c, tau) -> float:
    """Max of f(x) = (1+x)^tau - c x^tau over x >= 0, = (1-c^{-1/(tau-1)})^{1-tau}."""
    return (1.0 - c ** (-1.0 / (tau - 1.0))) ** (1.0 - tau)


# ---------------------------------------------------------------------------
# average-difference bound on disjoint regions


def _average_difference(uE, weights_E, uF, weights_F, tau) -> list[float]:
    """RHS - LHS of the average-difference bound, one instance per row: the
    values and cell weights on E and on F as ``(n, cells)`` arrays, and one
    tau per row.  Each row gets one correctly rounded sum per sum and its
    scalar tail in Python floats, so a row's slack does not depend on the
    rows beside it."""

    def row_sums(a):
        return [math.fsum(row) for row in a.tolist()]

    # measures from the quadrature weights themselves, so the Jensen chain
    # holds exactly for the discrete measure at any resolution
    wEs, wFs = row_sums(weights_E), row_sums(weights_F)
    mEs = [s / w for s, w in zip(row_sums(uE * weights_E), wEs)]
    mFs = [s / w for s, w in zip(row_sums(uF * weights_F), wFs)]
    m_union = np.array([[(mE * wE + mF * wF) / (wE + wF)]
                        for mE, wE, mF, wF in zip(mEs, wEs, mFs, wFs)])

    def osc_sums(u, weights):
        # a scalar tau per row: numpy squares ``x ** 2.0``, where a tau
        # array would call pow, which can differ in the last bit
        dev = np.abs(u - m_union)
        return row_sums(np.stack([row**t for row, t in zip(dev, tau)]) * weights)

    rows = zip(tau, wEs, wFs, mEs, mFs, osc_sums(uE, weights_E), osc_sums(uF, weights_F))
    slacks = []
    for t, wE, wF, mE, mF, oscE, oscF in rows:
        w_union = wE + wF
        osc = (oscE + oscF) / w_union
        lhs = abs(mE - mF) ** t
        rhs = 2.0**t * w_union / min(wE, wF) * osc
        slacks.append(float(rhs - lhs))
    return slacks


def average_difference_slack(
    u,
    E: geo.Box,
    F: geo.Box,
    tau: float,
    cells_per_axis: int = 16,
    tolerance: float = SLACK_TOLERANCE,
) -> SlackReport:
    """Slack of |mean_E u - mean_F u|^tau <= 2^tau * |EuF|/min(|E|,|F|) * osc.

    ``osc`` is the mean of |u - mean_{EuF} u|^tau over E u F.  The constant
    2^tau is pinned: split the difference through the joint mean by
    convexity (factor 2^{tau-1} on each term), bound each term by Jensen,
    then enlarge both denominators to min(|E|, |F|).  The chain also holds
    for the discrete midpoint measure, so the slack is nonnegative at any
    resolution up to rounding.  A member that is not finite at a cell
    centre raises ``EvaluationError`` with that node.
    """
    if tau < 1:
        raise ParameterError("tau must be >= 1")
    if E.intersect(F) is not None:
        raise ParameterError("regions must be disjoint")
    g = quad.union_grid([E, F], cells_per_axis)
    vals = quad._evaluate(u, g.centers)
    v, w = vals.reshape(2, -1), g.weights.reshape(2, -1)  # E's cells, then F's
    (slack,) = _average_difference(v[:1], w[:1], v[1:], w[1:], [tau])
    return SlackReport(slack, tolerance)


def _adjacent_pair_trials(rng: np.random.Generator, dims: Sequence[int]) -> dict:
    """Trials of ``adjacent_pair_battery``, trial t in dimension ``dims[t]``,
    drawn in their RNG order: the layer k in -4..-2 (so a parent exists),
    the index of the cube E, the coin and the index of the neighbour F by
    scalar calls, and then the 2d + 1 uniforms of the bump's centre and
    radius and of tau by one ``random`` call.  After the draws, the cubes of
    each dimension are ``geo.dyadic_corners`` of the drawn indices on the
    layers of the slab of half-width 1, and ``geo.dyadic_parent`` of E
    where F is the cube above.

    Returns, per dimension d, the arrays ``(E_lo, E_hi, F_lo, F_hi, center,
    radius, tau)`` with a row per trial in draw order: the corners are
    exact (integers times 2^k), and each uniform x is mapped as numpy's
    ``uniform(low, high)`` maps its draw, to low + (high - low) x.
    """
    drawn = {d: ([], []) for d in dims}  # per d: (k, i, j), j = -1 if F is above E; uniforms
    for d in dims:
        k = int(rng.integers(-4, -1))
        count = 2 ** ((1 - k) * (d - 1))  # the layer's cubes, DyadicLayer(k, 1, d).count
        i = int(rng.integers(0, count))
        if count == 1 or rng.random() < 0.5:
            j = -1  # the cube above
        else:
            j = int(rng.integers(0, count))
            j = j if j != i else (i + 1) % count
        indices, uniforms = drawn[d]
        indices.append((k, i, j))
        uniforms.append(rng.random(2 * d + 1))

    def uniform(x, low, high):
        return low + (high - low) * x

    trials = {}
    for d, (indices, uniforms) in drawn.items():
        (k, i, j), x = np.array(indices).T, np.array(uniforms)
        sibling = j >= 0
        E = geo.dyadic_corners(k, i, 1, d)
        k_above, above = geo.dyadic_parent(k, E)
        F = np.where(sibling[:, None], geo.dyadic_corners(k, np.where(sibling, j, i), 1, d), above)
        kE, kF = k[:, None], np.where(sibling, k, k_above)[:, None]
        E_lo, E_hi = np.ldexp(E, kE), np.ldexp(E + 1, kE)
        F_lo, F_hi = np.ldexp(F, kF), np.ldexp(F + 1, kF)
        center = uniform(x[:, :d], np.minimum(E_lo, F_lo), np.maximum(E_hi, F_hi))
        radius = uniform(x[:, d : 2 * d], 0.2, 1.0) * (E_hi - E_lo)
        trials[d] = E_lo, E_hi, F_lo, F_hi, center, radius, uniform(x[:, -1], 1.0, 4.0)
    return trials


def _adjacent_pair_slacks(count: int, seed: int, cells_per_axis: int):
    """The trials of ``adjacent_pair_battery``, per dimension as
    ``_adjacent_pair_trials`` gives them, and their slacks in trial order.

    Trials alternate between d = 1 and d = 2.  Every cube has
    ``cells_per_axis`` cells per axis, so the trials of one dimension share
    one grid of their E cubes and one of their F cubes, built from the
    corner arrays by the arithmetic of ``union_grid``, and each grid
    evaluates all their bumps at once, with a centre and a radius per
    cell.  One ``_average_difference`` call per dimension then takes the
    trials as rows, so each slack is the one ``average_difference_slack``
    gives for its trial alone, bit for bit.
    """
    rng = np.random.default_rng(seed)
    trials = _adjacent_pair_trials(rng, [1 if t % 2 == 0 else 2 for t in range(count)])
    slacks = [0.0] * count
    for d, (E_lo, E_hi, F_lo, F_hi, center, radius, tau) in trials.items():
        cells = cells_per_axis**d
        center = np.repeat(center, cells, axis=0)
        radius = np.repeat(radius, cells, axis=0)
        gE = quad._box_cells(E_lo, E_hi, cells_per_axis)
        gF = quad._box_cells(F_lo, F_hi, cells_per_axis)
        uE = quad._tensor_profile((gE.centers - center) / radius)
        uF = quad._tensor_profile((gF.centers - center) / radius)
        rows = (len(tau), cells)
        slacks[d - 1::2] = _average_difference(uE.reshape(rows), gE.weights.reshape(rows),
                                               uF.reshape(rows), gF.weights.reshape(rows),
                                               tau.tolist())
    return trials, slacks


def adjacent_pair_battery(
    count: int = 1000, seed: int = 0, cells_per_axis: int = 8
) -> tuple[float, int]:
    """Randomized adjacent-dyadic-cube battery; returns (min slack, n run).

    Cases alternate between d = 1 and d = 2 slabs: pick a layer, pick a
    cube and a neighbor (sibling in the layer or the cube directly above),
    pick a random bump, check the pinned-constant bound.
    """
    _, slacks = _adjacent_pair_slacks(count, seed, cells_per_axis)
    return min(slacks, default=math.inf), len(slacks)


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
    return SlackReport(rhs - lhs, tolerance)


def power_sum_battery(count: int = 200, seed: int = 0) -> tuple[float, list[dict]]:
    """Randomized power-sum battery of 1 to 9 values in [-5, 5] and beta in
    [1, 5]; returns (min slack, one row of n, beta and slack per trial)."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(count):
        values = rng.uniform(-5, 5, size=rng.integers(1, 10))
        beta = float(rng.uniform(1, 5))
        rows.append({"n": len(values), "beta": beta,
                     "slack": power_sum_slack(values, beta).slack})
    return min((row["slack"] for row in rows), default=math.inf), rows


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
