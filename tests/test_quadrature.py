import math
from fractions import Fraction

import numpy as np
import pytest

from hardylab import geometry as geo
from hardylab import quadrature as quad
from hardylab.errors import EvaluationError, ParameterError


UNIT = geo.Box((0.0,), (1.0,))
SQUARE = geo.Box((0.0, 0.0), (1.0, 1.0))


def spec1d(res=64, box=UNIT):
    return quad.GridSpec(res, box)


# ---------------------------------------------------------------------------
# integrate


def test_integrate_constant_exact():
    for res in (8, 32, 128):
        val = quad.integrate(lambda p: np.ones(len(p)), quad.GridSpec(res, SQUARE))
        assert val == pytest.approx(1.0, abs=1e-14)


def test_integrate_linear_midpoint_exact():
    val = quad.integrate(lambda p: p[:, 0], spec1d(64))
    assert val == pytest.approx(0.5, abs=1e-12)


def test_integrate_quadratic_richardson_slope():
    # closed-form oracle: int_0^1 x^2 = 1/3; midpoint error should be O(N^-2)
    errors = []
    for res in (32, 64, 128):
        val = quad.integrate(lambda p: p[:, 0] ** 2, spec1d(res))
        errors.append(abs(val - 1.0 / 3.0))
    slope1 = math.log2(errors[0] / errors[1])
    slope2 = math.log2(errors[1] / errors[2])
    assert slope1 == pytest.approx(2.0, abs=0.1)
    assert slope2 == pytest.approx(2.0, abs=0.1)


def test_integrate_rejects_non_finite():
    def bad(p):
        vals = np.ones(len(p))
        vals[len(p) // 2] = np.nan
        return vals

    with pytest.raises(EvaluationError) as err:
        quad.integrate(bad, spec1d(8))
    assert err.value.node is not None


def test_grid_spec_validation():
    with pytest.raises(ParameterError):
        quad.GridSpec(7, UNIT)
    with pytest.raises(ParameterError):
        quad.GridSpec(48, UNIT)  # not a power of two


def test_kahan_sum_correctly_rounded_any_order():
    # reference: the exact rational sum, rounded once
    rng = np.random.default_rng(4)
    spread = rng.standard_normal(200) * 10.0 ** rng.integers(-8, 9, 200)
    vals = np.concatenate([[1e100, 1.0, -1e100], spread])
    exact = float(sum(Fraction(v) for v in vals.tolist()))
    assert quad.kahan_sum(vals) == exact
    assert quad.kahan_sum(rng.permutation(vals)) == exact


# ---------------------------------------------------------------------------
# lp_norm and average


def test_lp_norm_constant():
    dom = geo.BoxDomain(geo.Box((0.0, 0.0), (2.0, 1.0)))
    u = quad.Constant(3.0, dom.box)
    for p in (1.0, 2.0, 3.5):
        got = quad.lp_norm(u, dom, p, quad.GridSpec(16, dom.box))
        assert got == pytest.approx(3.0 * 2.0 ** (1.0 / p), rel=1e-12)
    zero = quad.Constant(0.0, dom.box)
    assert quad.lp_norm(zero, dom, 2.0, quad.GridSpec(16, dom.box)) == 0.0


def test_lp_norm_bump_self_convergence():
    u = quad.TensorBump((0.5,), (0.4,))
    dom = geo.Slab(n=1, d=1)
    coarse = quad.lp_norm(u, dom, 2.0, spec1d(64))
    fine = quad.lp_norm(u, dom, 2.0, spec1d(256))
    assert abs(coarse - fine) / fine < 1e-3


@pytest.mark.parametrize(
    "dom", [geo.Slab(n=1, d=2), geo.BoxDomain(geo.Box((-1.0, 0.0), (1.0, 1.0)))]
)
def test_domain_grid_clips_box_domains(dom):
    # box domains clip the support box and re-mesh it uniformly; keeping the
    # cells of the wide box whose centres lie inside would give other cells
    spec = quad.GridSpec(16, geo.Box((-2.0, -0.5), (2.0, 1.5)))
    got = quad.domain_grid(dom, spec)
    want = quad.uniform_grid(quad.GridSpec(16, geo.Box((-1.0, 0.0), (1.0, 1.0))))
    assert np.array_equal(got.centers, want.centers)
    assert np.array_equal(got.weights, want.weights)


def test_average_closed_forms():
    box = geo.Box((0.0,), (1.0,))
    assert quad.average(quad.Constant(2.5, box), box) == pytest.approx(2.5, abs=1e-14)
    assert quad.average(lambda p: p[:, 0], box, 64) == pytest.approx(0.5, abs=1e-13)
    a, b = 0.25, 0.75
    seg = geo.Box((a,), (b,))
    expected = (b**3 - a**3) / (3 * (b - a))
    assert quad.average(lambda p: p[:, 0] ** 2, seg, 512) == pytest.approx(expected, rel=1e-5)


def test_average_union_of_boxes():
    left = geo.Box((0.0,), (0.5,))
    right = geo.Box((0.5,), (1.0,))
    got = quad.average(lambda p: p[:, 0], [left, right], 32)
    assert got == pytest.approx(0.5, abs=1e-13)


# ---------------------------------------------------------------------------
# Gagliardo seminorm


def fp(d, p, s, tau="2"):
    return quad.FracParams(d=d, p=Fraction(p), s=Fraction(s), tau=Fraction(tau))


def test_seminorm_vanishes_on_constants():
    dom = geo.Slab(n=1, d=1)
    u = quad.Constant(4.0, dom.box)
    val = quad.gagliardo_seminorm(u, dom, fp(1, "2", "1/2"), spec1d(32, dom.box))
    assert val == 0.0


def test_seminorm_linear_critical_exact():
    # u(x) = x on (0,1), s = 1/2, p = 2: the integrand is identically one,
    # so the seminorm squared equals the area of the unit square
    dom = geo.Slab(n=1, d=1)
    u = quad.AxisPolynomial((0.0, 1.0), dom.box)
    val = quad.gagliardo_seminorm(u, dom, fp(1, "2", "1/2"), spec1d(128, dom.box))
    assert val == pytest.approx(1.0, rel=1e-10)


def test_seminorm_independent_of_cell_order():
    """Every unordered cell pair is counted exactly once whatever the node
    order.  The graded grid takes the block-offset sweep; reversed, it is a
    plain union of cells and takes the row blocks, where a mask that also
    kept part of the lower triangle would change the value."""
    from hardylab.experiments import slab_graded_grid

    g = slab_graded_grid(10, 16)
    assert g.dyadic is not None
    rev = quad.Grid(g.centers[::-1].copy(), g.sides[::-1].copy(), g.weights[::-1].copy())
    u = quad.LogSpike(depth=2.0)
    params = fp(1, "2", "1/2")
    a = quad.gagliardo_seminorm(u, None, params, g)
    b = quad.gagliardo_seminorm(u, None, params, rev)
    assert b == pytest.approx(a, rel=1e-12)


@pytest.mark.parametrize(
    "d,p,s,box",
    [
        (1, "2", "1/2", UNIT),  # sp = 1
        (2, "2", "1/2", SQUARE),  # sp = 1 < d
        (2, "4", "1/2", SQUARE),  # sp = 2 = d
    ],
)
def test_seminorm_dilation_law(d, p, s, box):
    params = fp(d, p, s)
    center = (0.5,) * d
    radius = (0.35,) * d
    u = quad.TensorBump(center, radius)
    res = 64 if d == 2 else 128
    base = quad.gagliardo_seminorm(u, None, params, quad.GridSpec(res, box))
    d_minus_sp = d - float(params.sp)
    for lam in (0.5, 0.25):
        ul = u.dilated(lam)
        val = quad.gagliardo_seminorm(
            ul, None, params, quad.GridSpec(res, box.scaled(lam))
        )
        ratio = val ** float(params.p) / base ** float(params.p)
        assert ratio == pytest.approx(lam**d_minus_sp, rel=0.02)


def test_seminorm_self_convergence_first_order():
    dom = geo.Slab(n=1, d=1)
    u = quad.TensorBump((0.5,), (0.3,))
    params = fp(1, "2", "1/2")
    vals = [
        quad.gagliardo_seminorm(u, dom, params, spec1d(res, dom.box))
        for res in (32, 64, 128)
    ]
    d1 = abs(vals[1] - vals[0])
    d2 = abs(vals[2] - vals[1])
    assert d2 < d1 / 1.7  # successive refinements shrink at order >= 1


L_SHAPE = geo.Polygon2D(((0, 0), (1, 0), (1, 0.5), (0.5, 0.5), (0.5, 1), (0, 1)))
CUBE = geo.Box((0.0,) * 3, (1.0,) * 3)


def test_seminorm_threads_bit_identical():
    from hardylab.experiments import slab_graded_grid

    slab2, slab3 = geo.Slab(n=1, d=2), geo.Slab(n=1, d=3)
    graded = slab_graded_grid(6, 16)
    reversed_graded = quad.Grid(graded.centers[::-1].copy(), graded.sides[::-1].copy(),
                                graded.weights[::-1].copy())
    layers = geo.DyadicLayer(-3, 1, 2).region_boxes() + geo.DyadicLayer(-2, 1, 2).region_boxes()
    cases = [
        # uniform lattice, masked lattice, 3-D lattice, a graded grid (block
        # offsets), then the row blocks: the graded grid reversed and a
        # telescope layer pair
        (quad.TensorBump((0.0, 0.5), (0.5, 0.3)), slab2, fp(2, "2", "1/2"),
         quad.GridSpec(16, slab2.box)),
        (quad.TensorBump((0.3, 0.3), (0.18, 0.18)), L_SHAPE, fp(2, "2", "1/2"),
         quad.GridSpec(32, SQUARE)),
        (quad.TensorBump((0.0, 0.0, 0.5), (0.5, 0.5, 0.3)), slab3, fp(3, "3", "1/3"),
         quad.GridSpec(8, slab3.box)),
        (quad.LogSpike(depth=2.0), None, fp(1, "2", "1/2"), graded),
        (quad.LogSpike(depth=2.0), None, fp(1, "2", "1/2"), reversed_graded),
        (quad.LogSpike(depth=1.0, t0=1.0, transverse=geo.Box((-0.6,), (0.6,))), None,
         fp(2, "2", "1/2"), quad.union_grid(layers, 4)),
    ]
    for u, dom, params, grid in cases:
        results = [quad.gagliardo_seminorm(u, dom, params, grid, threads=n) for n in (1, 2, 8)]
        assert results[0] == results[1] == results[2]
    with pytest.raises(ParameterError, match="thread count"):
        quad.gagliardo_seminorm(u, dom, params, grid, threads=0)


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
@pytest.mark.parametrize(
    "grid",
    [
        quad.uniform_grid(quad.GridSpec(128, UNIT)),
        quad.uniform_grid(quad.GridSpec(32, SQUARE)),
        # clipped to (-0.7, 0.9) x (0, 1): a different h on each axis
        quad.domain_grid(geo.Slab(n=1, d=2), quad.GridSpec(32, geo.Box((-0.7, -0.5), (0.9, 1.5)))),
        quad.domain_grid(L_SHAPE, quad.GridSpec(32, SQUARE)),
        quad.domain_grid(geo.ExteriorBall(1.0, 2), quad.GridSpec(32, geo.Box((-2.5,) * 2, (2.5,) * 2))),
        quad.uniform_grid(quad.GridSpec(8, CUBE)),
        quad.union_grid([SQUARE], 32),
    ],
    ids=["1d-128", "2d-32", "2d-clipped", "l-shape", "exterior-ball", "3d-8", "union-one-box"],
)
def test_lattice_sum_matches_pair_blocks(grid, p, monkeypatch):
    # the offset sweep and the row-block sum see the same Grid and must
    # count the same pairs with the same kernel; a small chunk splits each
    # plane into several row chunks
    assert grid.lattice is not None
    vals = np.random.default_rng(7).standard_normal(grid.ncells)
    kernel_expo = grid.d + p / 3
    blocks = quad.kahan_sum(quad._pair_block_sums(vals, grid, p, kernel_expo, 1))
    for chunk in (quad._LATTICE_CHUNK, 256):
        monkeypatch.setattr(quad, "_LATTICE_CHUNK", chunk)
        lattice = quad.kahan_sum(quad._lattice_pair_sums(vals, grid, p, kernel_expo, 1))
        assert lattice == pytest.approx(blocks, rel=1e-12)


@pytest.mark.parametrize("p,sp", [(2, 1.0), (3, 1.5), (2, 0.5), (4, 2.0)])
@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("levels", [6, 52, 100])
def test_graded_sum_matches_pair_blocks(levels, n, p, sp, monkeypatch):
    # the block-offset sweep and the row-block sum see the same graded grid
    # and must count the same pairs with the same kernel and weights; a
    # chunk of 3n splits each block into row chunks of 3 and sums T one
    # block at a time
    from hardylab.experiments import slab_graded_grid

    grid = slab_graded_grid(levels, n)
    assert grid.dyadic == quad.DyadicBlocks(levels + 1, n)
    vals = np.random.default_rng(11).standard_normal(grid.ncells)
    blocks = quad.kahan_sum(quad._pair_block_sums(vals, grid, float(p), 1 + sp, 1))
    for chunk in (quad._LATTICE_CHUNK, 3 * n):
        monkeypatch.setattr(quad, "_LATTICE_CHUNK", chunk)
        graded = quad.kahan_sum(quad._dyadic_pair_sums(vals, grid, float(p), 1 + sp, 1))
        assert graded == pytest.approx(blocks, rel=1e-12)


@pytest.mark.parametrize("p,s", [(2, Fraction(1, 2)), (3, Fraction(1, 3))])
def test_seminorm_power_law_oracle(p, s):
    # u = x^2 on (0, 1).  Homogeneity reduces the double integral to
    # [u]^p = 2 / (2p - sp + 1) * int_0^1 |1 - r^2|^p (1 - r)^(-1 - sp) dr,
    # evaluated here by mpmath (7/6 in closed form at p = 2, s = 1/2).
    # With the diagonal patch the midpoint seminorm converges at order 2.
    import mpmath

    sp = float(p * s)
    integral = mpmath.quad(lambda r: abs(1 - r**2) ** p * (1 - r) ** (-1 - sp), [0, 1])
    exact = 2 / (2 * p - sp + 1) * float(integral)
    if p == 2:
        assert exact == pytest.approx(7 / 6, rel=1e-14)
    u = quad.AxisPolynomial((0.0, 0.0, 1.0), UNIT)
    params = quad.FracParams(d=1, p=p, s=s, tau=2)
    errors = [
        abs(quad.gagliardo_seminorm(u, None, params, spec1d(res)) ** p - exact)
        for res in (256, 512, 1024)
    ]
    for coarse, fine in zip(errors, errors[1:]):
        assert math.log2(coarse / fine) == pytest.approx(2.0, abs=0.1)
    assert errors[-1] < 1e-6 * exact


def test_pullback_integral_invariance():
    # the shear has unit Jacobian: int u = int (u o G) over the sheared image
    graph = geo.ConeGraph(1.0)
    dom = geo.Epigraph(graph, d=2)
    support = geo.Box((-0.5, 1.2), (0.5, 2.2))
    assert bool(np.all(dom.contains(support.corners())))
    u = quad.TensorBump(support.center, (0.5, 0.5))

    direct = quad.integrate(u, quad.GridSpec(256, support))
    g_lo, g_hi = graph.range_on_box(support.lo[:-1], support.hi[:-1])
    image = geo.Box(
        support.lo[:-1] + (support.lo[-1] - g_hi,),
        support.hi[:-1] + (support.hi[-1] - g_lo,),
    )
    pulled = quad.integrate(geo.pullback(u, graph), quad.GridSpec(256, image))
    assert pulled == pytest.approx(direct, rel=1e-3)


def test_union_grid_matches_uniform_on_split_box():
    left = geo.Box((0.0,), (0.5,))
    right = geo.Box((0.5,), (1.0,))
    g = quad.union_grid([left, right], 32)
    val = quad.integrate(lambda p: p[:, 0] ** 2, g)
    assert val == pytest.approx(1.0 / 3.0, abs=1e-4)


def test_masked_grid_annulus_area():
    ring = geo.Annulus(1.0, 2.0, 2)
    spec = quad.GridSpec(256, ring.bounding_box())
    g = quad.masked_grid(spec, ring.contains)
    assert g.total_weight == pytest.approx(ring.measure, rel=2e-3)


def test_bump_vanishes_outside_support_and_is_continuous():
    u = quad.TensorBump((0.5, 0.5), (0.25, 0.25))
    box = u.support
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 2, size=(2000, 2))
    outside = ~box.contains(pts)
    assert np.all(u(pts[outside]) == 0.0)
    # continuity across the support edge: values shrink toward the boundary
    edge = np.column_stack([np.full(50, 0.75 - 1e-9), np.linspace(0.3, 0.7, 50)])
    assert np.max(u(edge)) < 1e-6


def test_log_spike_support_and_profile():
    u = quad.LogSpike(depth=4.0)
    lo, hi = u.support.lo[0], u.support.hi[0]
    assert hi == pytest.approx(2.0**-0.5)
    assert lo == pytest.approx(2.0 ** (1 - 1.5 - 12))
    # plateau value 1 in the middle band, 0 outside the support
    mid = 2.0 ** (1 - 1.5 - 6)  # t = t0 + 1.5 * depth
    assert u(np.array([[mid]]))[0] == 1.0
    assert u(np.array([[hi * 1.01]]))[0] == 0.0
    assert u(np.array([[lo * 0.99]]))[0] == 0.0


def test_log_spike_2d_transverse_bump():
    u = quad.LogSpike(depth=2.0, transverse=geo.Box((-0.5,), (0.5,)))
    assert u.d == 2
    mid = 2.0 ** (1 - 1.5 - 3)
    assert u(np.array([[0.0, mid]]))[0] == 1.0
    assert u(np.array([[0.6, mid]]))[0] == 0.0  # outside transverse box


# ---------------------------------------------------------------------------
# FracParams


def test_fracparams_criticality_tags():
    assert fp(2, "2", "1/2").criticality == "sp_eq_1"
    assert fp(2, "4", "1/2").criticality == "sp_eq_d"
    assert fp(2, "3", "1/10").criticality == "subcritical"
    assert fp(1, "2", "1/2").criticality == "sp_eq_1"  # sp = 1 = d


def test_fracparams_p_star():
    params = fp(2, "2", "1/2")
    assert params.p_star == Fraction(4)
    with pytest.raises(ParameterError):
        _ = fp(2, "4", "1/2").p_star  # sp = d


def test_fracparams_rejects_inexact_floats():
    with pytest.raises(ParameterError):
        quad.FracParams(d=1, p=2.5, s=Fraction(1, 2), tau=Fraction(2))
