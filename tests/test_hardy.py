import math
from fractions import Fraction

import numpy as np
import pytest

from hardylab import geometry as geo
from hardylab import hardy
from hardylab import quadrature as quad
from hardylab.errors import ParameterError


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
    with pytest.raises(ParameterError, match=r"case 1a needs s\*p = 1, got 1/2"):
        hardy.HardyCase("1a", fp(2, "2", "1/4", "2"))  # sp != 1
    with pytest.raises(ParameterError, match=r"case 1a needs tau in \[p, p\*\] = \[2, 4\], got 5"):
        hardy.HardyCase("1a", fp(2, "2", "1/2", "5"))  # tau > p*
    with pytest.raises(ParameterError, match="case 1b needs d = 1"):
        hardy.HardyCase("1b", fp(2, "2", "1/2", "2"))  # d != 1
    with pytest.raises(ParameterError, match=r"case 2a needs s\*p = d, got s\*p = 1"):
        hardy.HardyCase("2a", fp(2, "2", "1/2", "2"))  # sp != d
    with pytest.raises(ParameterError, match="case 2b needs tau < p, got 4"):
        hardy.HardyCase("2b", fp(2, "4", "1/2", "4"))  # tau >= p
    with pytest.raises(ParameterError, match="unknown case id '9z'"):
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


def test_weight_takes_scale_where_the_weight_keeps_r():
    # the flat-slab weight of a group-1 case on a slab drops R; every
    # other weight keeps it, case 3b's on the same slab included
    slab, box = geo.Slab(n=1, d=1), geo.BoxDomain(geo.Box((0.0,), (1.0,)))
    for case_id, domain, takes in [("1b", slab, False), ("3b", slab, True), ("1b", box, True),
                                   ("2a", geo.ExteriorBall(R=1.0, d=1), True)]:
        case = hardy.HardyCase(case_id, fp(1, "2", "1/2", "2"))  # sp = d = 1
        assert hardy.weight_takes_scale(case, domain) is takes, case_id
        assert hardy.weight_for(case, domain, R=7.0).R == (7.0 if takes else None), case_id


def test_weight_domain_violation():
    dom = geo.BoxDomain(geo.Box((0.0, 0.0), (1.0, 1.0)))
    w = hardy.WeightSpec(Fraction(1), Fraction(2), "bounded", R=0.01)
    with pytest.raises(ParameterError, match="log argument <= 1; choose a larger scale R"):
        hardy.weight_value(w, dom, np.array([0.5, 0.5]))


# ---------------------------------------------------------------------------
# the functional


def midpoint_lhs(u, domain, w: hardy.WeightSpec, tau, grid) -> float:
    """(int |u|^tau x_d^-alpha ln^-beta(2 / x_d))^(1/tau), the Hardy side
    under a flat-slab weight: the midpoint rule over the cells where u is
    nonzero, summed with math.fsum.  Written apart from the package's sum,
    as an oracle for it."""
    assert w.rho_kind == "flat_slab"
    g = quad.as_grid(grid, domain)
    vals = np.abs(u(g.centers))
    live = vals > 0
    x = g.centers[live, -1]
    terms = vals[live] ** tau * x ** -float(w.alpha) * np.log(2.0 / x) ** -float(w.beta)
    return math.fsum((terms * g.weights[live]).tolist()) ** (1.0 / tau)


#: the weight 1: ``midpoint_lhs`` under it is the L^tau norm
UNIT_WEIGHT = hardy.WeightSpec(Fraction(0), Fraction(0), "flat_slab")


def test_hardy_lhs_zero_function():
    dom = geo.Slab(n=1, d=1)
    w = hardy.WeightSpec(Fraction(1), Fraction(2), "flat_slab")
    u = quad.AxisPolynomial((0.0,), dom.box)
    assert midpoint_lhs(u, dom, w, 2.0, quad.GridSpec(32, dom.box)) == 0.0


def test_hardy_lhs_unit_weight_is_lp_norm():
    dom = geo.Slab(n=1, d=1)
    u = quad.TensorBump((0.5,), (0.3,))
    spec = quad.GridSpec(64, dom.box)
    tau = 3.0
    assert midpoint_lhs(u, dom, UNIT_WEIGHT, tau, spec) == pytest.approx(
        quad.integrate(lambda x: np.abs(u(x)) ** tau, spec, dom) ** (1.0 / tau), rel=1e-13
    )


def test_hardy_lhs_self_convergence():
    dom = geo.Slab(n=1, d=1)
    w = hardy.WeightSpec(Fraction(1), Fraction(2), "flat_slab")
    u = quad.TensorBump((0.5,), (0.25,))
    coarse = midpoint_lhs(u, dom, w, 2.0, quad.GridSpec(64, dom.box))
    fine = midpoint_lhs(u, dom, w, 2.0, quad.GridSpec(256, dom.box))
    assert abs(coarse - fine) / fine < 1e-3


class Scaled(quad.TestFunction):
    """``factor`` times ``base``, on the support of ``base``."""

    def __init__(self, base: quad.TestFunction, factor: float):
        self.base, self.factor, self.support = base, factor, base.support

    def __call__(self, pts):
        return self.factor * self.base(pts)


def test_hardy_ratio_homogeneous():
    dom = geo.Slab(n=1, d=1)
    case = hardy.HardyCase("1b", fp(1, "2", "1/2", "2"))
    u = quad.TensorBump((0.5,), (0.25,))
    spec = quad.GridSpec(64, dom.box)
    base = hardy.hardy_ratio(u, dom, case, spec)
    for c in (3.0, -0.125, 1e6):
        got = hardy.hardy_ratio(Scaled(u, c), dom, case, spec)
        assert got == pytest.approx(base, rel=1e-12)


def test_hardy_terms_match_ratio():
    dom = geo.Slab(n=1, d=2)
    case = hardy.HardyCase("1a", fp(2, "2", "1/2", "2"))
    u = quad.TensorBump((0.0, 0.5), (0.5, 0.3))
    spec = quad.GridSpec(16, dom.box)
    w, lhs, norm = hardy.HardyTables(dom, case, spec).terms(u)
    assert w == hardy.weight_for(case, dom, spec)
    assert lhs == pytest.approx(midpoint_lhs(u, dom, w, float(case.fp.tau), spec), rel=1e-13)
    # the full norm from the L^p norm and the one-member seminorm
    p = float(case.fp.p)
    lp = midpoint_lhs(u, dom, UNIT_WEIGHT, p, spec)
    semi = quad.gagliardo_seminorm(u, dom, case.fp, spec)
    assert norm == pytest.approx((lp**p + semi**p) ** (1.0 / p), rel=1e-13)
    assert lhs / norm == hardy.hardy_ratio(u, dom, case, spec)


def test_hardy_ratio_calls_the_member_twice():
    # once on the cell centres, once on the probe points of every axis
    dom = geo.Slab(n=1, d=2)
    case = hardy.HardyCase("1a", fp(2, "2", "1/2", "2"))
    bump = quad.TensorBump((0.0, 0.5), (0.5, 0.3))
    calls = []

    class Counting(quad.TestFunction):
        support = bump.support

        def __call__(self, pts):
            calls.append(len(pts))
            return bump(pts)

    hardy.hardy_ratio(Counting(), dom, case, quad.GridSpec(16, dom.box))
    assert calls == [256, 4 * 256]


def test_hardy_ratio_degenerate_input():
    dom = geo.Slab(n=1, d=1)
    case = hardy.HardyCase("1b", fp(1, "2", "1/2", "2"))
    u = quad.AxisPolynomial((0.0,), dom.box)
    with pytest.raises(ParameterError, match="test function vanishes on the grid"):
        hardy.hardy_ratio(u, dom, case, quad.GridSpec(32, dom.box))


def test_hardy_lhs_monotone_in_beta():
    # support kept below 2/e so rho >= e and a larger beta weakens the weight
    dom = geo.Slab(n=1, d=1)
    u = quad.TensorBump((0.35,), (0.3,))
    spec = quad.GridSpec(128, dom.box)
    vals = []
    for beta in (1, 2, 3):
        w = hardy.WeightSpec(Fraction(1), Fraction(beta), "flat_slab")
        vals.append(midpoint_lhs(u, dom, w, 2.0, spec))
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
    with pytest.raises(ParameterError, match="case 2a is stated for domains .*, got 'slab'"):
        hardy.hardy_ratio(u, dom, case, quad.GridSpec(16, dom.box))


def test_strip_condition_enforced():
    dom = geo.Epigraph(geo.ConeGraph(1.0), d=2)
    case = hardy.HardyCase("3a", fp(2, "2", "1/2", "2"))
    spec = quad.GridSpec(32, geo.Box((-1.0, 0.5), (1.0, 3.5)))
    # flattened heights 2.5 and 1.5 against R = 1, and 1.5 against R = 1.5:
    # a height between R and 2R, or equal to R, is refused (the strip is open)
    for top, R in ((2.5, 1.0), (1.5, 1.0), (1.5, 1.5)):
        u = quad.TensorBump((0.0, top - 0.5), (0.5, 0.5))
        with pytest.raises(ParameterError, match=f"support reaches flattened height {top}"):
            hardy.hardy_ratio(u, dom, case, spec, R=R)
    u = quad.TensorBump((0.0, 2.0), (0.5, 0.5))
    ratio = hardy.hardy_ratio(u, dom, case, spec, R=5.0)
    assert np.isfinite(ratio) and ratio > 0


@pytest.mark.parametrize("graph", [geo.AffineGraph((0.5,)), geo.ConeGraph(1.0),
                                   geo.PiecewiseLinearGraph(((-1.0, 0.0), (0.0, 0.5), (1.0, 0.0)))])
@pytest.mark.parametrize("tau", ["2", "3/2"])  # cases 3a and 3c
def test_case_3_tables_always_hold_the_strip_scale(graph, tau):
    # weight_for sets R on every epigraph weight: the given R, or else the
    # largest boundary distance on the grid, so the strip check has its R
    dom = geo.Epigraph(graph, d=2)
    case = hardy.HardyCase("3a" if tau == "2" else "3c", fp(2, "2", "1/2", tau))
    spec = quad.GridSpec(8, geo.Box((-1.0, 2.0), (1.0, 3.0)))
    g = quad.as_grid(spec, dom)
    assert hardy.HardyTables(dom, case, spec).weight.R == np.max(
        geo.distance_to_boundary(dom, g.centers))
    assert hardy.HardyTables(dom, case, spec, R=5.0).weight.R == 5.0


@pytest.mark.parametrize("d,tau,n,letter,lhs,norm", [
    (2, "3", 64, "a", 0.4095581555962286, 2.313623107710149),
    (3, "3", 16, "a", 0.2774699816343531, 2.223613323903036),
    (3, "5/2", 16, "a", 0.23775127837012283, 2.223613323903036),
    (2, "3/2", 64, "c", 0.25487178603631355, 2.313623107710149),
])
def test_flat_epigraph_reduces_to_the_slab_bit_for_bit(d, tau, n, letter, lhs, norm):
    # on the epigraph of the zero-slope affine graph, delta = x_d, and with
    # R = 1 the bounded weight's rho = 2R/delta is the slab's 2/x_d: case 3
    # there gives case 1's lhs and norm on the slab's box, to the last bit.
    # At tau = p* (d = 3, tau = 3) the weight is 1, so that row pins the
    # grids and the norm alone; tau = 5/2 pins the weight in d = 3
    params = fp(d, "2", "1/2", tau)
    slab = geo.Slab(n=1, d=d)
    flat = geo.Epigraph(geo.AffineGraph((0.0,) * (d - 1)), d=d)
    u = quad.TensorBump((0.1,) * (d - 1) + (0.45,), (0.5,) * (d - 1) + (0.35,))
    spec = quad.GridSpec(n, slab.box)
    _, slab_lhs, slab_norm = hardy.HardyTables(slab, hardy.HardyCase("1" + letter, params),
                                               spec).terms(u)
    _, flat_lhs, flat_norm = hardy.HardyTables(flat, hardy.HardyCase("3" + letter, params),
                                               spec, R=1.0).terms(u)
    assert (flat_lhs, flat_norm) == (slab_lhs, slab_norm) == (lhs, norm)


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
    one = quad.AxisPolynomial((1.0,), dom.box)
    w = hardy.WeightSpec(Fraction(1), Fraction(int(p)), "flat_slab")
    # graded mesh: the truncated tail below level J holds ~1/(J ln 2) of the
    # mass, so ~200 dyadic levels are needed for 1% agreement
    from hardylab.experiments import slab_graded_grid

    g = slab_graded_grid(200, cells_per_block=32)
    total = midpoint_lhs(one, dom, w, 1.0, g)
    assert total == pytest.approx(closed_form, rel=1e-2)
    assert total < closed_form  # truncation only ever loses mass
    # and doubling the uniform grid does not double the integral each time,
    # as a divergent one would
    values = [midpoint_lhs(one, dom, w, 1.0, quad.GridSpec(32 * 2**j, dom.box))
              for j in range(4)]
    assert not all(b >= 2.0 * a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# interpolation slack


def holder_interpolation_check(u, params, theta: float, grid) -> float:
    """Slack of the two-factor interpolation bound on a slab.

    For tau = theta p + (1-theta) p* and weight exponents a = theta,
    b = theta p, the weighted tau-integral is dominated by
    (tau=p weighted integral)^theta * (int |u|^{p*})^{1-theta}.
    Returns RHS - LHS, which is nonnegative up to float rounding because
    the bound is Holder's inequality for the discrete quadrature measure.
    """
    if not 0.0 <= theta <= 1.0:
        raise ParameterError("theta must lie in [0, 1]")
    if params.sp != 1 or params.d <= params.sp:
        raise ParameterError("interpolation check needs s*p = 1 < d")
    g = quad.as_grid(grid)
    p = float(params.p)
    p_star = float(params.p_star)
    vals = np.abs(quad._evaluate(u, g.centers))
    if np.any(g.centers[:, -1] <= 0):
        raise ParameterError("grid must sit in the upper half-space x_d > 0")
    if theta == 0.0:
        return 0.0  # both sides equal the Sobolev-endpoint integral
    tau = theta * p + (1.0 - theta) * p_star
    a = Fraction(theta)
    weighted = hardy._weighted_power_integral
    lhs = weighted(vals, None, hardy.WeightSpec(a, a * params.p, "flat_slab"), tau, g)
    base = weighted(vals, None, hardy.WeightSpec(Fraction(1), params.p, "flat_slab"), p, g)
    sobolev_part = quad.kahan_sum(vals**p_star * g.weights)
    rhs = base**theta * sobolev_part ** (1.0 - theta)
    return rhs - lhs


def test_interpolation_theta_endpoints():
    params = fp(2, "2", "1/2", "2")
    dom = geo.Slab(n=1, d=2)
    u = quad.TensorBump((0.0, 0.4), (0.5, 0.3))
    spec = quad.GridSpec(32, dom.box)
    assert holder_interpolation_check(u, params, 1.0, spec) == pytest.approx(
        0.0, abs=1e-12
    )
    assert holder_interpolation_check(u, params, 0.0, spec) == 0.0


def test_interpolation_theta_half_nonnegative():
    params = fp(2, "2", "1/2", "2")
    dom = geo.Slab(n=1, d=2)
    u = quad.TensorBump((0.0, 0.4), (0.5, 0.3))
    spec = quad.GridSpec(64, dom.box)
    slack = holder_interpolation_check(u, params, 0.5, spec)
    assert slack >= -1e-9


def test_interpolation_theta_out_of_range():
    params = fp(2, "2", "1/2", "2")
    u = quad.TensorBump((0.0, 0.4), (0.5, 0.3))
    with pytest.raises(ParameterError):
        holder_interpolation_check(u, params, 1.5, quad.GridSpec(16, geo.Slab(1, 2).box))
