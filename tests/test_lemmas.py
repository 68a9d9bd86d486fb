import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dyadic_oracle as oracle
from hardylab import geometry as geo
from hardylab import lemmas
from hardylab import quadrature as quad
from hardylab.errors import EvaluationError, ParameterError
from identities import Annulus, maximizer_x0, scaled_sobolev_ratio, telescoping_coefficient_identity
from payload_pins import assert_payload_equal, pinned_payload


def fp(d, p, s, tau="2"):
    return quad.FracParams(d=d, p=Fraction(p), s=Fraction(s), tau=Fraction(tau))


# ---------------------------------------------------------------------------
# elementary two-term bound


def test_elementary_equality_at_unit_ratio():
    # tau=2, c=2: x0 = 1/(c-1) = 1, so a = b = 1 is the tight point
    rep = lemmas.elementary_inequality_slack(1.0, 1.0, 2.0, 2.0)
    assert abs(rep.slack) <= 1e-12
    assert rep.passed


def test_elementary_zero_a_coefficient():
    c, tau, b = 3.0, 2.5, 4.0
    rep = lemmas.elementary_inequality_slack(0.0, b, c, tau)
    coeff = (1.0 - c ** (-1.0 / (tau - 1.0))) ** (1.0 - tau)
    assert rep.slack == pytest.approx((coeff - 1.0) * b**tau, rel=1e-9)
    assert rep.slack >= 0


def test_elementary_parameter_errors():
    with pytest.raises(ParameterError):
        lemmas.elementary_inequality_slack(1.0, 1.0, 1.0, 2.0)
    with pytest.raises(ParameterError):
        lemmas.elementary_inequality_slack(1.0, 1.0, 2.0, 1.0)


def test_elementary_sweep_nonnegative():
    worst, info = lemmas.elementary_inequality_sweep(count=100_000, seed=20240809)
    assert worst >= -1e-12, info


def test_elementary_equality_certified_at_maximizer():
    rng = np.random.default_rng(42)
    for _ in range(100):
        c = rng.uniform(1.05, 10.0)
        tau = rng.uniform(1.2, 6.0)
        x0 = maximizer_x0(c, tau)
        rep = lemmas.elementary_inequality_slack(x0, 1.0, c, tau)
        assert abs(rep.slack) <= 1e-9, (c, tau, rep.slack)


@settings(max_examples=300, deadline=None)
@given(
    a=st.floats(-10, 10),
    b=st.floats(-10, 10),
    c=st.floats(1.01, 10),
    tau=st.floats(1.05, 6),
)
def test_elementary_slack_property(a, b, c, tau):
    assert lemmas.elementary_inequality_slack(a, b, c, tau).slack >= -1e-12


# ---------------------------------------------------------------------------
# maximizer


def stationarity_residual(c, tau, rel_step: float = 1e-10) -> float:
    """Central-difference derivative of f(x) = (1+x)^tau - c x^tau at x0.

    Evaluated at 60 digits so the residual reflects the truncation error of
    the difference quotient, not float cancellation; an independent check
    that x0 really is the stationary point.
    """
    import mpmath

    x0 = maximizer_x0(c, tau)
    with mpmath.workdps(60):
        cm, tm, xm = mpmath.mpf(c), mpmath.mpf(tau), mpmath.mpf(x0)
        h = mpmath.mpf(rel_step) * (1 + xm)

        def f(x):
            return (1 + x) ** tm - cm * x**tm

        return float((f(xm + h) - f(xm - h)) / (2 * h))


def test_maximizer_values():
    assert maximizer_x0(2.0, 2.0) == pytest.approx(1.0)
    assert maximizer_x0(1e12, 2.0) == pytest.approx(1e-12, rel=1e-6)


def test_maximizer_is_stationary():
    # c bounded away from 1 keeps x0 (and hence the float quantization of
    # the stationary point) small enough for an absolute 1e-8 residual
    rng = np.random.default_rng(7)
    for _ in range(100):
        c = rng.uniform(1.25, 10.0)
        tau = rng.uniform(1.2, 6.0)
        assert abs(stationarity_residual(c, tau)) <= 1e-8


def test_maximizer_is_stationary_relative_to_term_scale():
    # wider range: normalize by the size of the two cancelling terms of f'
    rng = np.random.default_rng(8)
    for _ in range(100):
        c = rng.uniform(1.01, 10.0)
        tau = rng.uniform(1.2, 6.0)
        x0 = maximizer_x0(c, tau)
        scale = tau * (1 + x0) ** (tau - 1)
        assert abs(stationarity_residual(c, tau)) <= 1e-10 * scale


def test_maximum_value_matches_function_at_x0():
    for c, tau in [(2.0, 2.0), (3.0, 1.7), (8.5, 5.0)]:
        x0 = maximizer_x0(c, tau)
        f_at_x0 = (1 + x0) ** tau - c * x0**tau
        assert lemmas.maximum_value(c, tau) == pytest.approx(f_at_x0, rel=1e-12)


# ---------------------------------------------------------------------------
# average-difference bound


def test_average_difference_closed_form_case():
    # u(x) = x, E = (0, 1/2), F = (1/2, 1), tau = 2:
    # LHS = |1/4 - 3/4|^2 = 1/4; RHS = 4 * 2 * (1/12) * ... = 2/3; slack = 5/12
    u = quad.AxisPolynomial((0.0, 1.0), geo.Box((0.0,), (1.0,)))
    E = geo.Box((0.0,), (0.5,))
    F = geo.Box((0.5,), (1.0,))
    rep = lemmas.average_difference_slack(u, E, F, 2.0, cells_per_axis=256)
    assert rep.slack == pytest.approx(5.0 / 12.0, rel=1e-3)
    assert rep.passed


def test_average_difference_constant_has_zero_slack():
    u = quad.AxisPolynomial((3.0,), geo.Box((0.0,), (1.0,)))
    E = geo.Box((0.0,), (0.5,))
    F = geo.Box((0.5,), (1.0,))
    rep = lemmas.average_difference_slack(u, E, F, 2.0)
    assert rep.slack == pytest.approx(0.0, abs=1e-14)


def test_average_difference_non_finite_member_names_the_node():
    # a NaN slack would silently count as a fail; the member is at fault
    u = quad.AxisPolynomial((math.inf,), geo.Box((0.0,), (1.0,)))
    E = geo.Box((0.0,), (0.5,))
    F = geo.Box((0.5,), (1.0,))
    with pytest.raises(EvaluationError, match="not finite") as err:
        lemmas.average_difference_slack(u, E, F, 2.0, cells_per_axis=4)
    assert err.value.node is not None
    assert tuple(err.value.node) == (0.0625,)  # the first cell centre of E


def test_average_difference_rejects_overlap():
    u = quad.AxisPolynomial((1.0,), geo.Box((0.0,), (1.0,)))
    with pytest.raises(ParameterError):
        lemmas.average_difference_slack(
            u, geo.Box((0.0,), (0.6,)), geo.Box((0.5,), (1.0,)), 2.0
        )


def test_average_difference_rows_match_the_one_instance_formula():
    # one call takes many instances as rows; each row must be the formula
    # for that instance alone, bit for bit, also at tau = 2 (numpy squares
    # x ** 2.0 where pow can differ in the last bit) and at an int tau
    def one(uE, wE, uF, wF, tau):
        sE, sF = math.fsum(wE.tolist()), math.fsum(wF.tolist())
        mE = math.fsum((uE * wE).tolist()) / sE
        mF = math.fsum((uF * wF).tolist()) / sF
        m = (mE * sE + mF * sF) / (sE + sF)
        osc = (math.fsum((np.abs(uE - m) ** tau * wE).tolist())
               + math.fsum((np.abs(uF - m) ** tau * wF).tolist())) / (sE + sF)
        return 2.0**tau * (sE + sF) / min(sE, sF) * osc - abs(mE - mF) ** tau

    # (few cells per row, so a last bit of a power reaches the slack)
    rng = np.random.default_rng(5)
    n, cells = 90, 2
    uE, uF = rng.normal(size=(n, cells)), rng.normal(size=(n, cells))
    wE, wF = rng.uniform(0.5, 1.5, (2, n, cells)) / cells
    tau = [2.0] * 30 + [2, 1.0] * 15 + rng.uniform(1.0, 4.0, 30).tolist()
    rows = [one(uE[b], wE[b], uF[b], wF[b], tau[b]) for b in range(n)]
    assert lemmas._average_difference(uE, wE, uF, wF, tau) == rows


def test_adjacent_pair_battery_small():
    worst, ran = lemmas.adjacent_pair_battery(count=60, seed=3)
    assert ran == 60
    assert worst >= -1e-9


def trial_rows(trials, d):
    """The trials of dimension d as ``average_difference_slack`` takes them:
    boxes E and F built from the corner rows, the centre, radius and tau."""
    E_lo, E_hi, F_lo, F_hi, center, radius, tau = (a.tolist() for a in trials[d])
    for row in zip(E_lo, E_hi, F_lo, F_hi, center, radius, tau):
        yield (geo.Box(tuple(row[0]), tuple(row[1])), geo.Box(tuple(row[2]), tuple(row[3])),
               tuple(row[4]), tuple(row[5]), row[6])


@pytest.mark.parametrize("cells", [8, 16])
@pytest.mark.parametrize("seed", range(4))
def test_battery_slacks_match_one_pair_at_a_time(seed, cells):
    # the battery grids the cubes of all trials of one dimension at once
    # and evaluates all their bumps at once; each trial's slack must be
    # the one the public function gives for that trial alone, bit for bit
    trials, slacks = lemmas._adjacent_pair_slacks(1000, seed, cells)
    assert sorted(trials) == [1, 2] and len(slacks) == 1000
    for d in (1, 2):
        rows = list(trial_rows(trials, d))
        assert len(rows) == 500
        for (E, F, center, radius, tau), slack in zip(rows, slacks[d - 1::2]):
            rep = lemmas.average_difference_slack(quad.TensorBump(center, radius), E, F, tau, cells)
            assert slack == rep.slack
    assert lemmas.adjacent_pair_battery(1000, seed, cells) == (min(slacks), 1000)


def test_battery_builds_no_geometry_objects(monkeypatch):
    # the trials are integer corners and arrays: no layer or box is built
    # per trial
    calls = []
    for owner in (geo.DyadicLayer, geo.Box):
        def counting(self, _wrapped=owner.__post_init__, _name=owner.__name__):
            calls.append(_name)
            _wrapped(self)

        monkeypatch.setattr(owner, "__post_init__", counting)
    geo.Box((0.0,), (1.0,))  # the counters count
    geo.DyadicLayer(-1, 1, 1)
    assert calls == ["Box", "DyadicLayer"]
    calls.clear()
    lemmas._adjacent_pair_slacks(1000, 0, 8)
    assert calls == []


def scalar_pair_trial(rng, d):
    """Reference for ``_adjacent_pair_trials``: one scalar draw per number,
    cubes from the scalar lattice rule of ``dyadic_oracle``."""
    k = int(rng.integers(-4, -1))
    count = geo.DyadicLayer(k, 1, d).count
    i = int(rng.integers(0, count))
    E = oracle.corner(k, 1, d, i)
    if count == 1 or rng.random() < 0.5:
        F = oracle.above(k, E)
    else:
        j = int(rng.integers(0, count))
        if j == i:
            j = (i + 1) % count
        F = k, oracle.corner(k, 1, d, j)
    E, F = oracle.cube_box(k, E), oracle.cube_box(*F)
    lo = tuple(min(a, b) for a, b in zip(E.lo, F.lo))
    hi = tuple(max(a, b) for a, b in zip(E.hi, F.hi))
    center = tuple(rng.uniform(a, b) for a, b in zip(lo, hi))
    radius = tuple(rng.uniform(0.2, 1.0) * s for s in E.sides())
    tau = float(rng.uniform(1.0, 4.0))
    return E, F, center, radius, tau


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_battery_draws_match_the_scalar_draws(seed):
    # the 2d + 1 uniforms of a trial come from one call, the cubes from
    # integer corners: the trials of the scalar loop, in d = 1, 2 and 3
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    dims = [1 + t % 3 for t in range(300)]
    trials = lemmas._adjacent_pair_trials(rng, dims)
    assert sorted(trials) == [1, 2, 3]
    got = {d: trial_rows(trials, d) for d in trials}
    for d in dims:
        assert next(got[d]) == scalar_pair_trial(ref, d)
    assert all(next(rows, None) is None for rows in got.values())
    assert all(a.dtype == float for arrays in trials.values() for a in arrays)
    assert rng.random() == ref.random()


def test_battery_draws_pinned():
    # the trials are drawn in a fixed RNG order; the sum of the slacks at
    # seed 0 pins it (the minimum is 0.0 at every seed, see ROADMAP item 10)
    _, slacks = lemmas._adjacent_pair_slacks(1000, 0, 8)
    assert math.fsum(slacks) == 831.6175703055362
    assert sum(s == 0.0 for s in slacks) == 110


# ---------------------------------------------------------------------------
# scaled mean-oscillation ratio


def test_scaled_ratio_is_dilation_invariant_on_cubes():
    u = quad.TensorBump((0.5,), (0.4,))
    params = fp(1, "2", "1/2")
    base = geo.Box((0.0,), (1.0,))
    r_half = scaled_sobolev_ratio(u, 0.5, params, 2.0, resolution=128, region=base)
    r_quarter = scaled_sobolev_ratio(u, 0.25, params, 2.0, resolution=128, region=base)
    assert r_half / r_quarter == pytest.approx(1.0, abs=0.02)


def test_scaled_ratio_evaluates_the_member_once(monkeypatch):
    # one SeminormTables evaluation: the cell centres and the slope probes
    calls = []
    bump = quad.TensorBump.__call__

    def counting(self, pts):
        calls.append(len(pts))
        return bump(self, pts)

    monkeypatch.setattr(quad.TensorBump, "__call__", counting)
    u = quad.TensorBump((0.5,), (0.4,))
    assert scaled_sobolev_ratio(u, 0.5, fp(1, "2", "1/2"), 2.0, resolution=32) > 0
    assert calls == [32, 2 * 32]


def test_scaled_ratio_constant_profile_is_zero():
    u = quad.AxisPolynomial((2.0,), geo.Box((0.0,), (1.0,)))
    params = fp(1, "2", "1/2")
    assert scaled_sobolev_ratio(u, 0.5, params, 2.0, resolution=64) == 0.0


def test_scaled_ratio_annulus_variant():
    # dimension-critical coupling on rings: sp = d = 2
    params = fp(2, "4", "1/2", "4")
    ring = Annulus(1.0, 2.0, 2)
    u = quad.TensorBump((1.5, 0.0), (0.35, 0.35))
    vals = [
        scaled_sobolev_ratio(u, lam, params, 4.0, resolution=32, region=ring)
        for lam in (1.0, 0.5, 0.25)
    ]
    assert max(vals) / min(vals) <= 1.03


def test_scaled_ratio_tau_admissibility():
    u = quad.TensorBump((0.5,), (0.4,))
    with pytest.raises(ParameterError):
        scaled_sobolev_ratio(u, 0.5, fp(1, "2", "1/2"), 1.5)  # tau < p


# ---------------------------------------------------------------------------
# power-sum bound


def test_power_sum_single_element():
    rep = lemmas.power_sum_slack([3.7], 2.5)
    assert rep.slack == 0.0


def test_power_sum_pair():
    rep = lemmas.power_sum_slack([1.0, 1.0], 2.0)
    assert rep.slack == pytest.approx(2.0)


def test_power_sum_empty_rejected():
    with pytest.raises(ParameterError):
        lemmas.power_sum_slack([], 2.0)


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(st.floats(-5, 5), min_size=1, max_size=12),
    beta=st.floats(1.0, 5.0),
)
def test_power_sum_property(values, beta):
    assert lemmas.power_sum_slack(values, beta).slack >= -1e-9


# ---------------------------------------------------------------------------
# telescoping coefficients


def coefficient_decay_ratio(k: int, tau: float) -> float:
    """Ratio of the telescoped coefficient decrement to its model 1/(-k)^tau.

    The decrement 1/(-k)^{tau-1} - 1/(-k + 1/2)^{tau-1} behaves like
    (tau-1)/2 * (-k)^{-tau} for deep layers.
    """
    j = float(-k)
    decrement = j ** (1.0 - tau) - (j + 0.5) ** (1.0 - tau)
    return decrement * j**tau


def coefficient_decay_limit(tau: float) -> float:
    return (tau - 1.0) / 2.0


def test_telescoping_identity_exact():
    for k in range(-40, -1):
        base_from_c, base_direct = lemmas.telescoping_coefficient_parts(k)
        assert base_from_c == base_direct  # exact rationals
        for tau in (1.5, 2.0, 3.0):
            lhs, rhs = telescoping_coefficient_identity(k, tau)
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_coefficient_decay_ratio_range_and_limit():
    for tau in (1.5, 2.0, 3.0, 6.0):
        ratios = [coefficient_decay_ratio(k, tau) for k in range(-400, -3)]
        assert all(0.2 <= r <= 5.0 for r in ratios)
        deep = coefficient_decay_ratio(-400, tau)
        # the ratio approaches its limit at O(1/j); at j = 400, tau = 6 the
        # residual is about tau/(4j) = 0.4%
        assert deep == pytest.approx(coefficient_decay_limit(tau), rel=1e-2)
        # convergence: deeper layers sit closer to the limit
        shallow_gap = abs(coefficient_decay_ratio(-4, tau) - coefficient_decay_limit(tau))
        deep_gap = abs(deep - coefficient_decay_limit(tau))
        assert deep_gap < shallow_gap


def test_power_sum_battery_gives_the_demo_rows():
    # the lemma suite's battery at the demo config's seed 0
    want = pinned_payload("lemma_suite")
    worst, rows = lemmas.power_sum_battery(200, 0)
    # through JSON, as summary.json holds them
    got = json.loads(json.dumps({"worst": worst, "rows": rows}))
    assert_payload_equal(got, {"worst": want["results"]["power_sum_min_slack"],
                               "rows": want["series"]["power_sum"]}, "power_sum")
