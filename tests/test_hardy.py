import math
from fractions import Fraction

import numpy as np
import pytest

from hardylab import geometry as geo
from hardylab import hardy
from hardylab import quadrature as quad
from hardylab.errors import (
    CaseDispatchError,
    DegenerateInputError,
    ParameterError,
    WeightDomainError,
)


def fp(d, p, s, tau):
    return quad.FracParams(d=d, p=Fraction(p), s=Fraction(s), tau=Fraction(tau))


# ---------------------------------------------------------------------------
# exponent table


def test_exponents_case_1a_tau_p():
    case = hardy.HardyCase("1a", fp(2, "2", "1/2", "2"))
    w = hardy.critical_exponents(case)
    assert (w.alpha, w.beta) == (Fraction(1), Fraction(2))


def test_exponents_case_1a_tau_pstar():
    case = hardy.HardyCase("1a", fp(2, "2", "1/2", "4"))
    w = hardy.critical_exponents(case)
    assert (w.alpha, w.beta) == (Fraction(0), Fraction(0))


def test_exponents_case_2a():
    case = hardy.HardyCase("2a", fp(2, "4", "1/2", "5"))
    w = hardy.critical_exponents(case)
    assert (w.alpha, w.beta) == (Fraction(2), Fraction(5))
    assert w.rho_kind == "exterior"


def test_exponents_remaining_branches():
    w = hardy.critical_exponents(hardy.HardyCase("1b", fp(1, "2", "1/2", "3")))
    assert (w.alpha, w.beta) == (Fraction(1), Fraction(3))
    w = hardy.critical_exponents(hardy.HardyCase("1c", fp(2, "2", "1/2", "3/2")))
    assert (w.alpha, w.beta) == (Fraction(1), Fraction(2))
    w = hardy.critical_exponents(hardy.HardyCase("2b", fp(2, "4", "1/2", "3")))
    assert (w.alpha, w.beta) == (Fraction(2), Fraction(4))
    w = hardy.critical_exponents(hardy.HardyCase("3a", fp(3, "3", "1/3", "4")))
    # d=3, p=3, sp=1: alpha = 3 - 2*4/3 = 1/3, beta = 9 - 2*4 = 1
    assert (w.alpha, w.beta) == (Fraction(1, 3), Fraction(1))


def test_exponents_rational_grid_bounds():
    # remark bounds: alpha in [0,1], beta <= tau across tau in [p, p*]
    params = fp(2, "2", "1/2", "2")
    p, p_star = params.p, params.p_star
    for j in range(0, 33):
        tau = p + (p_star - p) * Fraction(j, 32)
        case = hardy.HardyCase("1a", fp(2, "2", "1/2", tau))
        w = hardy.critical_exponents(case)
        assert w.alpha == Fraction(2) + (1 - 2) * tau / p
        assert w.beta == Fraction(4) + (1 - 2) * tau
        assert 0 <= w.alpha <= 1
        assert w.beta <= tau


def test_case_dispatch_errors():
    with pytest.raises(CaseDispatchError):
        hardy.HardyCase("1a", fp(2, "2", "1/4", "2"))  # sp != 1
    with pytest.raises(CaseDispatchError):
        hardy.HardyCase("1a", fp(2, "2", "1/2", "5"))  # tau > p*
    with pytest.raises(CaseDispatchError):
        hardy.HardyCase("1b", fp(2, "2", "1/2", "2"))  # d != 1
    with pytest.raises(CaseDispatchError):
        hardy.HardyCase("2a", fp(2, "2", "1/2", "2"))  # sp != d
    with pytest.raises(CaseDispatchError):
        hardy.HardyCase("2b", fp(2, "4", "1/2", "4"))  # tau >= p
    with pytest.raises(CaseDispatchError):
        hardy.HardyCase("9z", fp(2, "2", "1/2", "2"))


# ---------------------------------------------------------------------------
# weight values


def test_weight_flat_slab_value():
    w = hardy.WeightSpec(Fraction(1), Fraction(2), "flat_slab")
    got = hardy.weight_value(w, None, np.array([0.5]))
    assert got == pytest.approx(2.0 / math.log(4.0) ** 2, rel=1e-14)


def test_weight_exterior_value():
    R = 1.0
    dom = geo.ExteriorBall(R=R, d=2)
    w = hardy.WeightSpec(Fraction(2), Fraction(3), "exterior", R=R)
    x = np.array([1.5, 0.0])  # delta = R/2, rho = max(4, 1) = 4
    got = hardy.weight_value(w, dom, x)
    assert got == pytest.approx((R / 2) ** (-2) * math.log(4.0) ** (-3), rel=1e-13)


def test_weight_trivial_when_exponents_vanish():
    w = hardy.WeightSpec(Fraction(0), Fraction(0), "flat_slab")
    pts = np.array([[0.1], [0.9]])
    assert np.allclose(hardy.weight_value(w, None, pts), 1.0)


def test_weight_domain_violation():
    dom = geo.BoxDomain(geo.Box((0.0, 0.0), (1.0, 1.0)))
    w = hardy.WeightSpec(Fraction(1), Fraction(2), "bounded", R=0.01)
    with pytest.raises(WeightDomainError):
        hardy.weight_value(w, dom, np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# the functional


def test_hardy_lhs_zero_function():
    dom = geo.Slab(n=1, d=1)
    w = hardy.WeightSpec(Fraction(1), Fraction(2), "flat_slab")
    u = quad.Constant(0.0, dom.box)
    assert hardy.hardy_lhs(u, dom, w, 2.0, quad.GridSpec(32, dom.box)) == 0.0


def test_hardy_lhs_unit_weight_is_lp_norm():
    dom = geo.Slab(n=1, d=1)
    w = hardy.WeightSpec(Fraction(0), Fraction(0), "flat_slab")
    u = quad.TensorBump((0.5,), (0.3,))
    spec = quad.GridSpec(64, dom.box)
    tau = 3.0
    assert hardy.hardy_lhs(u, dom, w, tau, spec) == pytest.approx(
        quad.lp_norm(u, dom, tau, spec), rel=1e-13
    )


def test_hardy_lhs_self_convergence():
    dom = geo.Slab(n=1, d=1)
    w = hardy.WeightSpec(Fraction(1), Fraction(2), "flat_slab")
    u = quad.TensorBump((0.5,), (0.25,))
    coarse = hardy.hardy_lhs(u, dom, w, 2.0, quad.GridSpec(64, dom.box))
    fine = hardy.hardy_lhs(u, dom, w, 2.0, quad.GridSpec(256, dom.box))
    assert abs(coarse - fine) / fine < 1e-3


def test_hardy_ratio_homogeneous():
    dom = geo.Slab(n=1, d=1)
    case = hardy.HardyCase("1b", fp(1, "2", "1/2", "2"))
    u = quad.TensorBump((0.5,), (0.25,))
    spec = quad.GridSpec(64, dom.box)
    base = hardy.hardy_ratio(u, dom, case, spec)
    for c in (3.0, -0.125, 1e6):
        got = hardy.hardy_ratio(u.scaled_by(c), dom, case, spec)
        assert got == pytest.approx(base, rel=1e-12)


def test_hardy_terms_match_ratio():
    dom = geo.Slab(n=1, d=2)
    case = hardy.HardyCase("1a", fp(2, "2", "1/2", "2"))
    u = quad.TensorBump((0.0, 0.5), (0.5, 0.3))
    spec = quad.GridSpec(16, dom.box)
    w, lhs, norm = hardy.hardy_terms(u, dom, case, spec)
    assert w == hardy.weight_for(case, dom, spec)
    assert lhs == hardy.hardy_lhs(u, dom, w, case.fp.tau, spec)
    assert norm == hardy.hardy_denominator(u, dom, case.fp, spec)
    assert lhs / norm == hardy.hardy_ratio(u, dom, case, spec)


def test_hardy_ratio_degenerate_input():
    dom = geo.Slab(n=1, d=1)
    case = hardy.HardyCase("1b", fp(1, "2", "1/2", "2"))
    u = quad.Constant(0.0, dom.box)
    with pytest.raises(DegenerateInputError):
        hardy.hardy_ratio(u, dom, case, quad.GridSpec(32, dom.box))


def test_hardy_lhs_monotone_in_beta():
    # support kept below 2/e so rho >= e and a larger beta weakens the weight
    dom = geo.Slab(n=1, d=1)
    u = quad.TensorBump((0.35,), (0.3,))
    spec = quad.GridSpec(128, dom.box)
    vals = []
    for beta in (1, 2, 3):
        w = hardy.WeightSpec(Fraction(1), Fraction(beta), "flat_slab")
        vals.append(hardy.hardy_lhs(u, dom, w, 2.0, spec))
    assert vals[0] >= vals[1] >= vals[2]


def test_hardy_ratio_case_1a_slab_finite():
    dom = geo.Slab(n=1, d=2)
    case = hardy.HardyCase("1a", fp(2, "2", "1/2", "2"))
    u = quad.TensorBump((0.0, 0.5), (0.5, 0.3))
    ratio = hardy.hardy_ratio(u, dom, case, quad.GridSpec(32, dom.box))
    assert np.isfinite(ratio) and ratio > 0


def test_hardy_ratio_bump_sweep_bounded():
    # shrinking distance-to-boundary bumps: the ratios stay within a decade
    dom = geo.Slab(n=1, d=1)
    case = hardy.HardyCase("1b", fp(1, "2", "1/2", "2"))
    spec = quad.GridSpec(128, dom.box)
    ratios = []
    for k in range(2, 8):
        h = 2.0**-k
        u = quad.TensorBump((h + 0.25,), (0.25,))
        ratios.append(hardy.hardy_ratio(u, dom, case, spec))
    assert max(ratios) / min(ratios) <= 10.0


def test_hardy_ratio_polygon_bounded_case():
    square = geo.Polygon2D(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
    case = hardy.HardyCase("1a", fp(2, "2", "1/2", "2"))
    u = quad.TensorBump((0.5, 0.5), (0.3, 0.3))
    spec = quad.GridSpec(32, square.bounding_box())
    ratio = hardy.hardy_ratio(u, square, case, spec)
    assert np.isfinite(ratio) and ratio > 0


def test_case_domain_mismatch():
    dom = geo.Slab(n=1, d=2)
    case = hardy.HardyCase("2a", fp(2, "4", "1/2", "4"))
    u = quad.TensorBump((0.0, 0.5), (0.4, 0.3))
    with pytest.raises(CaseDispatchError):
        hardy.hardy_ratio(u, dom, case, quad.GridSpec(16, dom.box))


def test_strip_condition_enforced():
    dom = geo.Epigraph(geo.ConeGraph(1.0), d=2)
    case = hardy.HardyCase("3a", fp(2, "2", "1/2", "2"))
    u = quad.TensorBump((0.0, 2.0), (0.5, 0.5))
    spec = quad.GridSpec(32, geo.Box((-1.0, 0.5), (1.0, 3.5)))
    with pytest.raises(ParameterError):
        hardy.hardy_ratio(u, dom, case, spec, R=1.0)
    ratio = hardy.hardy_ratio(u, dom, case, spec, R=5.0)
    assert np.isfinite(ratio) and ratio > 0


def test_hardy_ratio_exterior_case_2a():
    dom = geo.ExteriorBall(R=1.0, d=2)
    case = hardy.HardyCase("2a", fp(2, "4", "1/2", "4"))
    u = quad.TensorBump((2.0, 0.0), (0.5, 0.5))
    spec = quad.GridSpec(64, geo.Box((-4.0, -4.0), (4.0, 4.0)))
    ratio = hardy.hardy_ratio(u, dom, case, spec)
    assert np.isfinite(ratio) and ratio > 0


def test_tau_below_p_weight_measure_is_finite():
    # the tau < p branches reuse the (1, p) weight; the reduction behind
    # them needs the weight measure itself to be finite on the slab:
    # int_0^1 dx / (x ln^p(2/x)) = ln(2)^(1-p) / (p-1)
    p = 2.0
    closed_form = math.log(2.0) ** (1.0 - p) / (p - 1.0)
    dom = geo.Slab(n=1, d=1)
    one = quad.Constant(1.0, dom.box)
    w = hardy.WeightSpec(Fraction(1), Fraction(int(p)), "flat_slab")
    # graded mesh: the truncated tail below level J holds ~1/(J ln 2) of the
    # mass, so ~200 dyadic levels are needed for 1% agreement
    from hardylab.experiments import slab_graded_grid

    g = slab_graded_grid(200, cells_per_block=32)
    total = hardy.hardy_lhs(one, dom, w, 1.0, g)
    assert total == pytest.approx(closed_form, rel=1e-2)
    assert total < closed_form  # truncation only ever loses mass
    # and the refinement ladder agrees that the integral does not diverge
    ladder = hardy.divergence_ladder(one, dom, w, 1.0, quad.GridSpec(32, dom.box))
    assert not ladder.divergent


# ---------------------------------------------------------------------------
# interpolation slack


def test_interpolation_theta_endpoints():
    params = fp(2, "2", "1/2", "2")
    dom = geo.Slab(n=1, d=2)
    u = quad.TensorBump((0.0, 0.4), (0.5, 0.3))
    spec = quad.GridSpec(32, dom.box)
    assert hardy.holder_interpolation_check(u, params, 1.0, spec) == pytest.approx(
        0.0, abs=1e-12
    )
    assert hardy.holder_interpolation_check(u, params, 0.0, spec) == 0.0


def test_interpolation_theta_half_nonnegative():
    params = fp(2, "2", "1/2", "2")
    dom = geo.Slab(n=1, d=2)
    u = quad.TensorBump((0.0, 0.4), (0.5, 0.3))
    spec = quad.GridSpec(64, dom.box)
    slack = hardy.holder_interpolation_check(u, params, 0.5, spec)
    assert slack >= -1e-9


def test_interpolation_theta_out_of_range():
    params = fp(2, "2", "1/2", "2")
    u = quad.TensorBump((0.0, 0.4), (0.5, 0.3))
    with pytest.raises(ParameterError):
        hardy.holder_interpolation_check(u, params, 1.5, quad.GridSpec(16, geo.Slab(1, 2).box))


# ---------------------------------------------------------------------------
# divergence ladder


def test_divergence_ladder_flags_power_blowup():
    dom = geo.Slab(n=1, d=1)
    u = quad.Constant(1.0, dom.box)
    w = hardy.WeightSpec(Fraction(2), Fraction(0), "flat_slab")
    ladder = hardy.divergence_ladder(u, dom, w, 2.0, quad.GridSpec(16, dom.box))
    assert ladder.divergent
    assert all(f >= 2.0 for f in ladder.growth_factors)


def test_divergence_ladder_converges_for_bumps():
    dom = geo.Slab(n=1, d=1)
    u = quad.TensorBump((0.5,), (0.25,))
    w = hardy.WeightSpec(Fraction(1), Fraction(2), "flat_slab")
    ladder = hardy.divergence_ladder(u, dom, w, 2.0, quad.GridSpec(16, dom.box))
    assert not ladder.divergent
