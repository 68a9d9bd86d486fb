import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from hardylab import experiments as exp
from hardylab import geometry as geo
from hardylab import hardy
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


#: rows per block of the row-block oracle
_PAIR_BLOCK = 128


def row_block_sums(vals, grid, p, kernel_expo):
    """Oracle for the plane sweeps: partial sums of the pair sum over the
    cell pairs i < j, one per block of rows.

    Block [i0, i1) pairs its rows with the columns i0..M, cell by cell and
    in any node order; the strict upper triangle of that rectangle holds
    exactly the pairs with i < j.
    """
    M = len(vals)
    centers, weights = grid.centers, grid.weights

    def one_block(i0):
        i1 = min(i0 + _PAIR_BLOCK, M)
        d2 = sum((x[: i1 - i0, None] - x[None, :]) ** 2 for x in centers[i0:].T)
        du = np.abs(vals[i0:i1, None] - vals[None, i0:])
        with np.errstate(divide="ignore", invalid="ignore"):
            contrib = du**p / d2 ** (0.5 * kernel_expo) * (
                weights[i0:i1, None] * weights[None, i0:]
            )
        return float(np.sum(np.triu(contrib, 1)))

    return [one_block(i0) for i0 in range(0, M, _PAIR_BLOCK)]


def telescope_grids(d, depth, cells_per_cube):
    """The grids the telescope hands to the seminorm at one depth on the
    n = 1 slab: each layer pair from the deepest up, then layer -1 alone."""
    grids = []

    class Capturing(quad.SeminormTables):
        def __init__(self, grid, params):
            grids.append(grid)
            super().__init__(grid, params)

    # support over the whole slab height: no layer is skipped
    u = quad.TensorBump((0.0,) * (d - 1) + (0.5,), (1.2,) * (d - 1) + (0.6,))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quad, "SeminormTables", Capturing)
        exp.telescoping_reconstruction(geo.Slab(n=1, d=d), u, fp(d, "2", "1/2"), [depth],
                                       cells_per_cube)
    assert len(grids) == -depth
    return grids


def reversed_grid(grid):
    """The grid's cells in reverse order, as one run."""
    return quad.Grid(grid.centers[::-1].copy(), grid.sides[::-1].copy(),
                     grid.weights[::-1].copy())


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
    order.  The graded grid is swept by block offset, its blocks being its
    runs; reversed, it is one run of cells, whose chunks would change the
    value if they also kept part of the lower triangle."""
    g = exp.slab_graded_grid(10, 16)
    assert g.planes == 11
    rev = reversed_grid(g)
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
    slab2, slab3 = geo.Slab(n=1, d=2), geo.Slab(n=1, d=3)
    graded = exp.slab_graded_grid(6, 16)
    reversed_graded = reversed_grid(graded)
    layers = geo.DyadicLayer(-3, 1, 2).region_boxes() + geo.DyadicLayer(-2, 1, 2).region_boxes()
    layer_pair = telescope_grids(2, -3, 4)[0]
    assert layer_pair.planes > 1
    cases = [
        # uniform lattice, masked lattice, 3-D lattice, then runs: a graded
        # grid (its blocks), the graded grid reversed and a union of two
        # layers as one run each, and the telescope's layer pair as 8 runs
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
        (quad.LogSpike(depth=1.0, t0=1.0, transverse=geo.Box((-0.6,), (0.6,))), None,
         fp(2, "2", "1/2"), layer_pair),
    ]
    for u, dom, params, grid in cases:
        results = [quad.gagliardo_seminorm(u, dom, params, grid, threads=n) for n in (1, 2, 8)]
        assert results[0] == results[1] == results[2]
    with pytest.raises(ParameterError, match="thread count"):
        quad.gagliardo_seminorm(u, dom, params, grid, threads=0)


def reuse_cases():
    """Grids with one domain, case and sweep of members each: the 1-D
    lattice, the masked L-shape, a graded grid and a telescope layer pair."""
    slab1, slab2 = geo.Slab(n=1, d=1), geo.Slab(n=1, d=2)
    fp1, fp2 = fp(1, "2", "1/2"), fp(2, "2", "1/2")
    layer_pair = telescope_grids(2, -3, 4)[0]
    assert layer_pair.planes > 1
    transverse = geo.Box((-0.6,), (0.6,))
    return {
        "1d-lattice": (slab1, "1b", fp1, quad.domain_grid(slab1, spec1d(128, slab1.box)),
                       [quad.TensorBump((h + 0.25,), (0.25,)) for h in 2.0 ** -np.arange(2, 8)]),
        "l-shape": (L_SHAPE, "1a", fp2, quad.domain_grid(L_SHAPE, quad.GridSpec(32, SQUARE)),
                    [quad.TensorBump((c, 0.3), (0.18, 0.18)) for c in (0.2, 0.3, 0.5, 0.7)]),
        "graded": (slab1, "1b", fp1, exp.slab_graded_grid(6, 16),
                   [quad.LogSpike(depth=x) for x in (1.0, 1.5, 2.0)]
                   + [quad.TensorBump((0.3,), (0.25,))]),
        "layer-pair": (slab2, "1a", fp2, layer_pair,
                       [quad.LogSpike(depth=x, t0=1.0, transverse=transverse) for x in (1.0, 2.0)]
                       + [quad.TensorBump((0.0, 0.4), (0.5, 0.3))]),
    }


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", ["1d-lattice", "l-shape", "graded", "layer-pair"])
def test_tables_built_once_match_fresh_calls(name, threads):
    # one set of tables applied to a sweep of members gives the bits of a
    # fresh gagliardo_seminorm or hardy_ratio per member
    domain, case_id, params, grid, members = reuse_cases()[name]
    case = hardy.HardyCase(case_id, params)
    tables = quad.SeminormTables(grid, params)
    hardy_tables = hardy.HardyTables(domain, case, grid)
    for u in members:
        semi = tables.seminorm(*tables.evaluate(u), threads)
        assert semi > 0
        assert semi == quad.gagliardo_seminorm(u, None, params, grid, threads)
        assert hardy_tables.ratio(u, threads) == hardy.hardy_ratio(u, domain, case, grid,
                                                                   threads=threads)


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
    blocks = quad.kahan_sum(row_block_sums(vals, grid, p, kernel_expo))
    for chunk in (quad._LATTICE_CHUNK, 256):
        monkeypatch.setattr(quad, "_LATTICE_CHUNK", chunk)
        lattice = quad.kahan_sum(quad._lattice_pair_sums(grid, p, kernel_expo)(vals, 1))
        assert lattice == pytest.approx(blocks, rel=1e-12)


@pytest.mark.parametrize("p,sp", [(2, 1.0), (3, 1.5), (2, 0.5), (4, 2.0)])
@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("levels", [6, 52, 100])
def test_graded_sum_matches_pair_blocks(levels, n, p, sp, monkeypatch):
    # the run-offset sweep over the blocks of a graded grid and the
    # row-block sum see the same grid and must count the same pairs with
    # the same kernel and weights; a chunk of 3n splits each block into row
    # chunks of 3 and sums T one block at a time
    grid = exp.slab_graded_grid(levels, n)
    assert (grid.planes, grid.ncells) == (levels + 1, (levels + 1) * n)
    vals = np.random.default_rng(11).standard_normal(grid.ncells)
    blocks = quad.kahan_sum(row_block_sums(vals, grid, float(p), 1 + sp))
    for chunk in (quad._LATTICE_CHUNK, 3 * n):
        monkeypatch.setattr(quad, "_LATTICE_CHUNK", chunk)
        graded = quad.kahan_sum(quad._shifted_pair_sums(grid, float(p), 1 + sp)(vals, 1))
        assert graded == pytest.approx(blocks, rel=1e-12)


SHIFTED_GRIDS = {
    # every layer pair the telescope builds, deepest first, and layer -1 alone
    **{f"telescope-{d}d-{i}": g for d, depth, cells in ((1, -3, 4), (2, -4, 4), (3, -3, 2))
       for i, g in enumerate(telescope_grids(d, depth, cells))},
    "two-boxes": quad.union_grid([SQUARE, geo.Box((1.0, 0.25), (1.5, 0.75))], 8),
    "reversed-graded": reversed_grid(exp.slab_graded_grid(10, 16)),
    # the boxes 2^{-j} [1/2, 1]^2: run j is run 0 scaled by 2^{-j} in d = 2,
    # so each run's rows are scaled by 2^{-j (2d - e)}
    "similar-2d": replace(quad.union_grid([geo.Box((0.5, 0.5), (1.0, 1.0)).scaled(0.5**j)
                                           for j in range(6)], 4), planes=6),
}


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("name", list(SHIFTED_GRIDS))
def test_shifted_sum_matches_pair_blocks(name, p, monkeypatch):
    # the run-offset sweep and the row-block sum see the same Grid and must
    # count the same pairs with the same kernel and weights; a chunk of 3
    # rows of a run splits each run into row chunks and sums T one run at
    # a time
    grid = SHIFTED_GRIDS[name]
    runs = name == "similar-2d" or (name.startswith("telescope") and grid.d > 1)
    assert (grid.planes > 1) == runs
    vals = np.random.default_rng(5).standard_normal(grid.ncells)
    kernel_expo = grid.d + p / 3
    blocks = quad.kahan_sum(row_block_sums(vals, grid, p, kernel_expo))
    for chunk in (quad._LATTICE_CHUNK, 3 * grid.ncells // grid.planes):
        monkeypatch.setattr(quad, "_LATTICE_CHUNK", chunk)
        shifted = quad.kahan_sum(quad._shifted_pair_sums(grid, p, kernel_expo)(vals, 1))
        assert shifted == pytest.approx(blocks, rel=1e-12)


def test_grid_planes_divide_cells():
    grid = quad.union_grid([SQUARE, SQUARE.scaled(2.0)], 4)  # 32 cells
    assert grid.planes == 1
    assert replace(grid, planes=8).planes == 8
    for planes in (0, 3, 64):
        with pytest.raises(ParameterError, match="runs"):
            replace(grid, planes=planes)


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
