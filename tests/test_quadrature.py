import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
# the L^p norm and means over regions


def test_lp_norm_constant():
    # the L^p term of SeminormTables.norm: a constant has seminorm 0 on its
    # support's grid, so the norm is |value| * area^(1/p)
    dom = geo.BoxDomain(geo.Box((0.0, 0.0), (2.0, 1.0)))
    for p in ("3/2", "2", "7/2"):
        tables = quad.SeminormTables(quad.as_grid(quad.GridSpec(16, dom.box), dom), fp(2, p, "1/4"))
        for value in (3.0, -3.0):
            vals, lips = tables.evaluate(quad.AxisPolynomial((value,), dom.box))
            assert tables.seminorm(vals, lips) == 0.0
            assert tables.norm(vals, lips) == pytest.approx(3.0 * 2.0 ** (1.0 / float(Fraction(p))),
                                                            rel=1e-12)
        assert tables.norm(*tables.evaluate(quad.AxisPolynomial((0.0,), dom.box))) == 0.0


def test_lp_norm_bump_self_convergence():
    u = quad.TensorBump((0.5,), (0.4,))
    dom = geo.Slab(n=1, d=1)
    coarse, fine = (quad.integrate(lambda x: u(x) ** 2, spec1d(res), dom) ** 0.5
                    for res in (64, 256))
    assert abs(coarse - fine) / fine < 1e-3


@pytest.mark.parametrize(
    "dom", [geo.Slab(n=1, d=2), geo.BoxDomain(geo.Box((-1.0, 0.0), (1.0, 1.0)))]
)
def test_domain_grid_clips_box_domains(dom):
    # box domains clip the support box and re-mesh it uniformly; keeping the
    # cells of the wide box whose centres lie inside would give other cells
    spec = quad.GridSpec(16, geo.Box((-2.0, -0.5), (2.0, 1.5)))
    got = quad.as_grid(spec, dom)
    want = quad.as_grid(quad.GridSpec(16, geo.Box((-1.0, 0.0), (1.0, 1.0))))
    assert np.array_equal(got.centers, want.centers)
    assert np.array_equal(got.weights, want.weights)


def region_mean(u, region, cells: int = 16) -> float:
    """Mean of u over a box or a union of boxes, meshed ``cells`` per axis."""
    g = quad.union_grid(region if isinstance(region, list) else [region], cells)
    return quad.integrate(u, g) / g.total_weight


def test_average_closed_forms():
    box = geo.Box((0.0,), (1.0,))
    assert region_mean(quad.AxisPolynomial((2.5,), box), box) == pytest.approx(2.5, abs=1e-14)
    assert region_mean(lambda p: p[:, 0], box, 64) == pytest.approx(0.5, abs=1e-13)
    a, b = 0.25, 0.75
    seg = geo.Box((a,), (b,))
    expected = (b**3 - a**3) / (3 * (b - a))
    assert region_mean(lambda p: p[:, 0] ** 2, seg, 512) == pytest.approx(expected, rel=1e-5)


def test_average_union_of_boxes():
    left = geo.Box((0.0,), (0.5,))
    right = geo.Box((0.5,), (1.0,))
    got = region_mean(lambda p: p[:, 0], [left, right], 32)
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


def cube_boxes(layer) -> list:
    """The boxes of a dyadic layer's cubes, in index order."""
    return [cube.box() for cube in layer.cubes()]


def sorted_cube_union(d, k, cells_per_cube):
    """Reference for the telescope's grid of layer k and the layer above on
    the n = 1 slab: every cube box of both layers, stably sorted by column
    of upper cubes along axis 0, one uniform box mesh each."""
    layer = geo.DyadicLayer(k, 1, d)
    top = geo.DyadicLayer(min(k + 1, -1), 1, d)
    boxes = cube_boxes(layer) + (cube_boxes(top) if k < -1 else [])
    boxes.sort(key=lambda box: box.lo[0] // 2.0**top.k)
    return quad.union_grid(boxes, cells_per_cube)


@pytest.mark.parametrize("cells", [2, 3, 4])
@pytest.mark.parametrize("d,depth", [(1, -3), (2, -4), (3, -3)])
def test_telescope_run_grids_match_sorted_cube_union(d, depth, cells):
    # run j of a layer pair is its first column moved j upper cube sides:
    # the same cells as the sorted union of every cube, exactly when the
    # cell side is a dyadic rational and within an ulp of the unit slab
    # otherwise; in d = 1 one run.  The telescope reads layer k's cube
    # averages as the first cubes of each run, run by run, which must be
    # layer k's cubes in cubes() order
    def same(a, b):
        return np.allclose(a, b, rtol=0, atol=np.spacing(1.0) if cells == 3 else 0.0)

    for k, grid in enumerate(telescope_grids(d, depth, cells), start=depth):
        layer = geo.DyadicLayer(k, 1, d)
        runs = geo.DyadicLayer(min(k + 1, -1), 1, d).cubes_per_axis if d > 1 else 1
        ref = sorted_cube_union(d, k, cells)
        assert grid.planes == runs
        assert np.array_equal(grid.sides, ref.sides)
        assert np.array_equal(grid.weights, ref.weights)
        assert same(grid.centers, ref.centers)
        first = grid.centers.reshape(runs, -1, cells**d, d)[:, : layer.count // runs]
        assert same(first.reshape(-1, d),
                    quad.union_grid([c.box() for c in layer.cubes()], cells).centers)


def reversed_grid(grid):
    """The grid's cells in reverse order, as one run."""
    return quad.Grid(grid.centers[::-1].copy(), grid.sides[::-1].copy(),
                     grid.weights[::-1].copy())


@pytest.mark.parametrize("u", [quad.TensorBump((0.5,), (0.25,)),
                               quad.TensorBump((0.5,) * 3, (0.25,) * 3),
                               quad.AxisPolynomial((1.0,), geo.Box((0.0,) * 3, (0.5,) * 3))],
                         ids=["1-D bump", "3-D bump", "3-D constant"])
def test_a_member_of_another_dimension_is_rejected(u):
    # a member on R^1 would broadcast as u(c, c), one on R^3 would not
    # broadcast: every evaluation of a member on a grid rejects both
    spec = quad.GridSpec(8, SQUARE)
    with pytest.raises(ParameterError, match=r"function on R\^\d, not on R\^2"):
        quad.gagliardo_seminorm(u, None, fp(2, "2", "1/2"), spec)
    with pytest.raises(ParameterError, match=r"function on R\^\d, not on R\^2"):
        quad.integrate(u, spec)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_seminorm_rejects_non_finite_slope_probe(bad):
    # finite at the 8 centres, not finite at the slope probe a quarter side
    # above the first centre (0.0625 + 0.03125): the probe values are
    # checked like the centre values and the error names the node
    def u(pts):
        x = pts[:, 0]
        return np.where(x == 0.09375, bad, x)

    grid = quad.as_grid(spec1d(8))
    assert np.all(np.isfinite(u(grid.centers)))
    with pytest.raises(EvaluationError, match="0.09375") as err:
        quad.gagliardo_seminorm(u, None, fp(1, "2", "1/2"), grid)
    assert tuple(err.value.node) == (0.09375,)


def test_seminorm_vanishes_on_constants():
    dom = geo.Slab(n=1, d=1)
    u = quad.AxisPolynomial((4.0,), dom.box)
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


def reuse_cases():
    """Grids with one domain, case and sweep of members each: the 1-D
    box, the masked L-shape, a graded grid and a telescope layer pair."""
    slab1, slab2 = geo.Slab(n=1, d=1), geo.Slab(n=1, d=2)
    fp1, fp2 = fp(1, "2", "1/2"), fp(2, "2", "1/2")
    layer_pair = telescope_grids(2, -3, 4)[0]
    assert layer_pair.planes > 1
    transverse = geo.Box((-0.6,), (0.6,))
    return {
        "1d-lattice": (slab1, "1b", fp1, quad.as_grid(spec1d(128, slab1.box), slab1),
                       [quad.TensorBump((h + 0.25,), (0.25,)) for h in 2.0 ** -np.arange(2, 8)]),
        "l-shape": (L_SHAPE, "1a", fp2, quad.as_grid(quad.GridSpec(32, SQUARE), L_SHAPE),
                    [quad.TensorBump((c, 0.3), (0.18, 0.18)) for c in (0.2, 0.3, 0.5, 0.7)]),
        "graded": (slab1, "1b", fp1, exp.slab_graded_grid(6, 16),
                   [quad.LogSpike(depth=x) for x in (1.0, 1.5, 2.0)]
                   + [quad.TensorBump((0.3,), (0.25,))]),
        "layer-pair": (slab2, "1a", fp2, layer_pair,
                       [quad.LogSpike(depth=x, t0=1.0, transverse=transverse) for x in (1.0, 2.0)]
                       + [quad.TensorBump((0.0, 0.4), (0.5, 0.3))]),
    }


@pytest.mark.parametrize("passes", [1, 2])
@pytest.mark.parametrize("name", ["1d-lattice", "l-shape", "graded", "layer-pair"])
def test_tables_built_once_match_fresh_calls(name, passes):
    # one set of tables applied to a sweep of members, once or twice over,
    # gives the bits of a fresh gagliardo_seminorm or hardy_ratio per member
    domain, case_id, params, grid, members = reuse_cases()[name]
    case = hardy.HardyCase(case_id, params)
    tables = quad.SeminormTables(grid, params)
    hardy_tables = hardy.HardyTables(domain, case, grid)
    for u in members * passes:
        semi = tables.seminorm(*tables.evaluate(u))
        assert semi > 0
        assert semi == quad.gagliardo_seminorm(u, None, params, grid)
        assert hardy_tables.ratio(u) == hardy.hardy_ratio(u, domain, case, grid)


@pytest.mark.parametrize("p,sp", [(2, 1.0), (3, 1.5), (2, 0.5), (4, 2.0)])
@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("levels", [6, 52, 100])
def test_graded_sum_matches_pair_blocks(levels, n, p, sp, monkeypatch):
    # the run-offset sweep over the blocks of a graded grid and the
    # row-block sum see the same grid and must count the same pairs with
    # the same kernel and weights; a chunk of 3n splits each block into row
    # chunks of 3 and sums T one block at a time.  At sp != 1 the blocks'
    # pairs do not weigh as those of block 0 (2d != e), so the grid is
    # summed as one run, split into row chunks by the same budget
    grid = exp.slab_graded_grid(levels, n)
    assert (grid.planes, grid.ncells) == (levels + 1, (levels + 1) * n)
    vals = np.random.default_rng(11).standard_normal(grid.ncells)
    blocks = quad.kahan_sum(row_block_sums(vals, grid, float(p), 1 + sp))
    for chunk in (quad._PAIR_CHUNK, 3 * n):
        monkeypatch.setattr(quad, "_PAIR_CHUNK", chunk)
        graded = quad.kahan_sum(quad._pair_sums(grid, float(p), 1 + sp)(vals))
        assert graded == pytest.approx(blocks, rel=1e-12)


def swept_offsets(monkeypatch):
    """The run offsets each later ``_plane_sweep`` call hands its kernel,
    one set per call."""
    calls = []
    sweep = quad._plane_sweep

    def recording(U, p, kernel, *rest):
        calls.append(set())

        def kernel_seen(k0, *args):
            calls[-1].add(k0)
            return kernel(k0, *args)

        return sweep(U, p, kernel_seen, *rest)

    monkeypatch.setattr(quad, "_plane_sweep", recording)
    return calls


def cut_and_full(grid, p, kernel_expo, vals, monkeypatch):
    """The pair sum of the sweep with its tail cut and with the cut off (a
    share of 0 keeps every offset), and the offsets each swept."""
    calls = swept_offsets(monkeypatch)
    cut = quad.kahan_sum(quad._pair_sums(grid, p, kernel_expo)(vals))
    monkeypatch.setattr(quad, "_TAIL_CUT", 0.0)
    full = quad.kahan_sum(quad._pair_sums(grid, p, kernel_expo)(vals))
    monkeypatch.undo()
    return cut, full, calls


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("n", [8, 16])
def test_tail_cut_on_the_probe_grid(n, p, monkeypatch):
    # the level-8 probe grid has 389 blocks; at sp = 1 the pair weight of
    # blocks k apart decays like 2^-k, so the bounded tail falls below half
    # an ulp of the sum within 80 offsets, and the sum moves by at most its
    # rounding
    family = exp.LogSpikeFamily()
    grid = family.grid(8, n)
    assert grid.planes == 389
    vals = family.member(8)(grid.centers)
    cut, full, calls = cut_and_full(grid, p, 2.0, vals, monkeypatch)
    assert cut == pytest.approx(full, rel=2.0**-52, abs=0)
    assert len(calls) == 2
    assert calls[0] == set(range(len(calls[0]))) and 63 <= len(calls[0]) <= 80
    assert calls[1] == set(range(389))


@pytest.mark.parametrize("support", ["random", "deep-run"])
def test_shrinking_runs_off_the_critical_line_are_one_run(support, monkeypatch):
    # d = 1, p = 2, s = 1/4: e = 1.5 != 2d, so the pairs of blocks k apart
    # do not weigh as those of block 0 and block k, and the 101 blocks are
    # summed as one run: one sweep of the one offset 0.  Values on one deep
    # block or everywhere, the sum matches the row-block oracle
    grid = exp.slab_graded_grid(100, 8)
    assert grid.planes == 101
    rng = np.random.default_rng(3)
    if support == "random":
        vals = rng.standard_normal(grid.ncells)
    else:
        vals = np.zeros(grid.ncells)
        vals[60 * 8 : 61 * 8] = rng.standard_normal(8)
    calls = swept_offsets(monkeypatch)
    got = quad.kahan_sum(quad._pair_sums(grid, 2.0, 1.5)(vals))
    assert calls == [{0}]
    assert got == pytest.approx(quad.kahan_sum(row_block_sums(vals, grid, 2.0, 1.5)), rel=1e-12)


@pytest.mark.parametrize("p", ["2", "3"])
@pytest.mark.parametrize("case_id", ["1b", "1c"])
def test_probe_grids_keep_runs_and_tail_cut(case_id, p, monkeypatch):
    # every case the probe accepts has d = 1 and sp = 1, so e = 2d: its
    # graded grids are swept by block offset with the tail cut, never as
    # one run.  The level-6 grid has 101 blocks
    tau = "3/2" if case_id == "1c" else p
    case = hardy.HardyCase(case_id, fp(1, p, Fraction(1, int(p)), tau))
    runs, offsets = [], swept_offsets(monkeypatch)
    sweep = quad._plane_sweep
    monkeypatch.setattr(quad, "_plane_sweep",
                        lambda U, *rest: runs.append(len(U)) or sweep(U, *rest))
    (result,) = exp.blowup_probe(case, (0,), geo.Slab(n=1, d=1),
                                 exp.LogSpikeFamily(level_range=(6, 6)))
    assert len(result.levels) == 1
    assert runs == [101]
    assert offsets[0] == set(range(len(offsets[0]))) and len(offsets[0]) < 101


def test_tail_cut_only_on_shrinking_runs(monkeypatch):
    # runs moved by a step (lambda = 1) keep every offset: their kernels
    # decay only polynomially, and they get no bound
    grid = SHIFTED_GRIDS["gapped-2d"]
    calls = swept_offsets(monkeypatch)
    quad._pair_sums(grid, 3.0, 2.5)(np.random.default_rng(2).standard_normal(grid.ncells))
    assert calls == [set(range(grid.planes))]


def full_block_sweep(U, p, kernel, m=None):
    """Reference for ``_plane_sweep`` without a tail: every difference of
    every (k0, row chunk) block, a step of planes at a time."""
    n0, n_rest = U.shape
    rows = max(1, quad._PAIR_CHUNK // n_rest)

    def one_chunk(k0, a0):
        a1 = min(a0 + rows, n_rest)
        c0 = a0 if k0 == 0 else 0
        T = np.zeros((a1 - a0, n_rest - c0))
        step = max(1, quad._PAIR_CHUNK // T.size)
        for x0 in range(0, n0 - k0, step):
            x1 = min(x0 + step, n0 - k0)
            diff = U[x0:x1, a0:a1, None] - U[x0 + k0 : x1 + k0, None, c0:]
            quad._abs_pow(diff, p)
            if m is not None:
                diff *= m[x0:x1, a0:a1, None]
                diff *= m[x0 + k0 : x1 + k0, None, c0:]
            T += diff.sum(axis=0)
        TK = T * kernel(k0, a0, a1, c0)
        if k0 == 0:
            return 0.5 * float(np.sum(TK[:, : a1 - a0])) + float(np.sum(TK[:, a1 - a0 :]))
        return float(np.sum(TK))

    return [one_chunk(k0, a0) for k0 in range(n0) for a0 in range(0, n_rest, rows)]


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("p", [2.0, 3.0, 2.5])
def test_sweep_of_live_cells_keeps_the_full_block_bits(p, masked, monkeypatch):
    # values 0 on whole places of the plane (dead rows and columns), on
    # whole planes and, under a mask, masked out: the sweep forms the
    # differences of live places and stand-ins only and gives each partial
    # of the full block's loop bit for bit, at any row chunk (one row per
    # chunk and one plane per step, up to whole blocks)
    rng = np.random.default_rng(int(4 * p) + masked)
    for n0, n in [(1, 7), (3, 1), (12, 1), (16, 5), (17, 19), (13, 6), (9, 40), (20, 25)]:
        U = rng.standard_normal((n0, n)) * 10.0 ** rng.integers(-3, 3, (n0, n))
        U[:, rng.random(n) < 0.5] = 0.0
        if n == 5:  # one live place: blocks of a stand-in and that place
            U[:, [0, 1, 3]] = 0.0
        U[rng.random(n0) < 0.3] = 0.0
        m = None
        if masked:
            m = (rng.random((n0, n)) < 0.7).astype(float)
            m[:, rng.random(n) < 0.3] = 1.0
            m[:, rng.random(n) < 0.2] = 0.0
            U *= m
        K = rng.random((n0, n, n))

        def kernel(k0, a0, a1, c0):
            return K[k0, a0:a1, c0:]

        for chunk in (quad._PAIR_CHUNK, 1, 2 * n + 1, 3 * n * n):
            monkeypatch.setattr(quad, "_PAIR_CHUNK", chunk)
            want = full_block_sweep(U, p, kernel, m)
            assert quad._plane_sweep(U, p, kernel, m) == want, (n0, n, chunk)
            monkeypatch.undo()


def formed_shapes(monkeypatch):
    """The shape of each array of differences that later sweeps raise to
    the power p."""
    shapes = []
    abs_pow = quad._abs_pow
    monkeypatch.setattr(quad, "_abs_pow", lambda x, p: shapes.append(x.shape) or abs_pow(x, p))
    return shapes


def test_sweep_of_the_3d_box_forms_few_differences(monkeypatch):
    # the 16^3 slab box of the 3-D hardy-check: 86 % of its cells are 0,
    # and the sweep forms differences of its live places and a stand-in
    # only (8,912,896 in the full blocks).  Only its planes 4-11 hold
    # values, so the chunks of offsets 12-15 pair zero planes alone: they
    # sum nothing and ask for no kernel table
    formed, offsets = formed_shapes(monkeypatch), swept_offsets(monkeypatch)
    slab = geo.Slab(n=1, d=3)
    grid = quad.as_grid(quad.GridSpec(16, slab.box), slab)
    tables = quad.SeminormTables(grid, fp(3, "3", "1/3"))
    semi = tables.seminorm(*tables.evaluate(quad.TensorBump((0.0, 0.0, 0.5), (0.5, 0.5, 0.3))))
    assert semi > 0
    assert 0 < sum(map(math.prod, formed)) <= 700_000
    assert offsets == [set(range(12))]


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("p", [2.0, 3.0, 2.5])
def test_contiguous_sweep_keeps_the_full_block_bits(p, masked, monkeypatch):
    # every place holds a value in plane 0, so no place is dead and no
    # chunk gathers.  A block of more than one plane within one chunk (the
    # probe's blocks of 8 and 16 cells, a telescope-like 8 runs of 48, 32
    # runs of 64 at the bound) takes each offset's differences as one 2-D
    # subtraction of the repeated and tiled operands; 33 runs of 64, one
    # plane and a chunk of 1 or of n0 n^2 - 1 keep the broadcast block (a
    # chunk of 1 only below the bound, where its row-by-row loop is quick).
    # Each partial keeps the full block loop's bits at any chunk
    rng = np.random.default_rng(int(4 * p) + masked)
    formed = formed_shapes(monkeypatch)
    for n0, n in [(17, 8), (53, 16), (8, 48), (32, 64), (33, 64), (12, 1), (1, 7)]:
        U = rng.standard_normal((n0, n)) * 10.0 ** rng.integers(-3, 3, (n0, n))
        U[1:][rng.random(n0 - 1) < 0.3] = 0.0
        m = None
        if masked:
            m = (rng.random((n0, n)) < 0.7).astype(float)
            m[0] = 1.0
            U *= m
        assert np.all(U[0] != 0)
        K = rng.random((n0, n, n))

        def kernel(k0, a0, a1, c0):
            return K[k0, a0:a1, c0:]

        bound = quad._PAIR_CHUNK
        ones = (1,) if n0 * n * n < bound else ()
        for chunk in (bound, *ones, n0 * n * n - 1):
            monkeypatch.setattr(quad, "_PAIR_CHUNK", chunk)
            want = full_block_sweep(U, p, kernel, m)
            formed.clear()
            assert quad._plane_sweep(U, p, kernel, m) == want, (n0, n, chunk)
            flat = n0 > 1 and n0 * n * n <= chunk
            assert {len(s) for s in formed} == {2 if flat else 3}, (n0, n, chunk)
            monkeypatch.setattr(quad, "_PAIR_CHUNK", bound)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_tail_cut_probe_partials_keep_the_broadcast_bits(p, monkeypatch):
    # the level-6 probe grid takes the tail cut and, its 101 blocks of 8
    # cells within one chunk, the repeated and tiled operands: its partials
    # are the first of the full block loop's, bit for bit
    family = exp.LogSpikeFamily()
    grid = family.grid(6, 8)
    vals = family.member(6)(grid.centers)
    seen = []
    sweep = quad._plane_sweep

    def recording(U, p, kernel, *rest):
        seen.append((U, kernel))
        return sweep(U, p, kernel, *rest)

    monkeypatch.setattr(quad, "_plane_sweep", recording)
    got = quad._pair_sums(grid, p, 2.0)(vals)
    ((U, kernel),) = seen
    assert len(got) < grid.planes
    assert got == full_block_sweep(U, p, kernel)[: len(got)]


@pytest.mark.parametrize("n", [8, 16])
def test_probe_sweep_subtracts_contiguous_planes(n, monkeypatch):
    # the level-6 probe grid's 101 blocks of n cells fit one chunk, so
    # each offset's differences are one 2-D array of n^2 columns, and no
    # 3-D broadcast block is formed
    shapes = formed_shapes(monkeypatch)
    case = hardy.HardyCase("1b", fp(1, "2", "1/2", "2"))
    (result,) = exp.blowup_probe(case, (0,), geo.Slab(n=1, d=1),
                                 exp.LogSpikeFamily(level_range=(6, 6)), cells_per_block=n)
    assert len(result.levels) == 1
    assert shapes and all(len(s) == 2 and s[1] == n * n for s in shapes)


def loop_run_grid(base, runs, scale=1.0, step=0.0):
    """Centres and sides of ``run_grid``, one run at a time."""
    centers, sides = [base.centers], [base.sides]
    for _ in range(runs - 1):
        centers.append(scale * centers[-1] + step)
        sides.append(scale * sides[-1])
    return np.concatenate(centers), np.concatenate(sides)


def test_run_grid_accumulates_like_the_loop():
    # the level-8 probe grid's blocks (a scale), a box's axis-0 planes and
    # a telescope layer pair's columns (a step): one accumulate gives the
    # bits of the loop over the runs
    for grid, kw in [(exp.LogSpikeFamily().grid(8, 16), {"scale": 0.5}),
                     (quad.union_grid([SQUARE], 32), {"step": (1 / 32, 0.0)}),
                     (telescope_grids(2, -3, 4)[0], {"step": (0.25, 0.0)})]:
        centers, sides = loop_run_grid(first_run(grid), grid.planes, **kw)
        assert np.array_equal(grid.centers, centers) and np.array_equal(grid.sides, sides)
        assert np.array_equal(grid.weights, np.prod(sides, axis=-1))
    with pytest.raises(ParameterError, match="scale or a step"):
        quad.run_grid(first_run(grid), 4, scale=0.5, step=(0.25, 0.0))
    with pytest.raises(ParameterError, match="positive"):
        quad.run_grid(first_run(grid), 4, scale=-0.5)


def first_run(grid):
    """Run 0 of a run grid, as a grid of one run."""
    n = grid.ncells // grid.planes
    return quad.Grid(grid.centers[:n], grid.sides[:n], grid.weights[:n])


SHIFTED_GRIDS = {
    # single boxes, whole, clipped to (-0.7, 0.9) x (0, 1) (a different h
    # on each axis) and masked
    "1d-128": quad.as_grid(quad.GridSpec(128, UNIT)),
    "2d-32": quad.as_grid(quad.GridSpec(32, SQUARE)),
    "2d-clipped": quad.as_grid(quad.GridSpec(32, geo.Box((-0.7, -0.5), (0.9, 1.5))),
                               geo.Slab(n=1, d=2)),
    "l-shape": quad.as_grid(quad.GridSpec(32, SQUARE), L_SHAPE),
    "exterior-ball": quad.as_grid(quad.GridSpec(32, geo.Box((-2.5,) * 2, (2.5,) * 2)),
                                  geo.ExteriorBall(1.0, 2)),
    "3d-8": quad.as_grid(quad.GridSpec(8, CUBE)),
    "union-one-box": quad.union_grid([SQUARE], 32),
    # every layer pair the telescope builds, deepest first, and layer -1 alone
    **{f"telescope-{d}d-{i}": g for d, depth, cells in ((1, -3, 4), (2, -4, 4), (3, -3, 2))
       for i, g in enumerate(telescope_grids(d, depth, cells))},
    "two-boxes": quad.union_grid([SQUARE, geo.Box((1.0, 0.25), (1.5, 0.75))], 8),
    "reversed-graded": reversed_grid(exp.slab_graded_grid(10, 16)),
    # the boxes 2^{-j} [1/2, 1]^2: run j is run 0 scaled by 2^{-j} in d = 2,
    # so the pairs of runs x0 and x0 + j would weigh 2^{-x0 (2d - e)} times
    # those of runs 0 and j; at e != 2d = 4 the grid is summed as one run
    "similar-2d": quad.run_grid(quad.union_grid([geo.Box((0.5, 0.5), (1.0, 1.0))], 4), 6,
                                scale=0.5),
    # the first axis-0 plane of the 32^2 box in 32 runs two cell sides
    # apart: 32^2 cells of one size, but not a box
    "gapped-2d": quad.run_grid(first_run(quad.union_grid([SQUARE], 32)), 32, step=(2 / 32, 0.0)),
}

#: the cells per axis of each single box, whole or masked
BOX_CELLS = {"1d-128": 128, "2d-32": 32, "2d-clipped": 32, "l-shape": 32, "exterior-ball": 32,
             "3d-8": 8, "union-one-box": 32}


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
@pytest.mark.parametrize("name", list(SHIFTED_GRIDS))
def test_shifted_sum_matches_pair_blocks(name, p, monkeypatch):
    # the run-offset sweep and the row-block sum see the same cells and
    # must count the same pairs with the same kernel and weights; a chunk
    # of 256 elements or of 3 rows of a run splits each run into row chunks
    # and sums T one run at a time.  A single box in d >= 2 is the runs of
    # its axis-0 planes, and a masked box is swept as its whole box with
    # its values scattered and the other cells masked out
    grid = SHIFTED_GRIDS[name]
    box, kept = grid.within or (grid, None)
    assert (kept is not None) == (name in ("l-shape", "exterior-ball"))
    if name in BOX_CELLS:
        n = BOX_CELLS[name]
        assert (box.ncells, box.planes) == (n**grid.d, n if grid.d > 1 else 1)
    else:
        runs = name in ("similar-2d", "gapped-2d") or (name.startswith("telescope")
                                                       and grid.d > 1)
        assert (grid.planes > 1) == runs
    # a box in d >= 2 sums by FFT at an even p and gathers its sweep tables
    # from its offset powers; the gapped runs have a box's cell count, but
    # are not marked as one
    lattice = name in BOX_CELLS and grid.d > 1
    assert (box.planes**box.d == box.ncells) == (lattice or name == "gapped-2d")
    assert box.lattice == lattice
    sweeps = []
    sweep = quad._plane_sweep
    monkeypatch.setattr(quad, "_plane_sweep", lambda *args: sweeps.append(1) or sweep(*args))
    vals = np.random.default_rng(5).standard_normal(grid.ncells)
    kernel_expo = grid.d + p / 3
    blocks = quad.kahan_sum(row_block_sums(vals, grid, p, kernel_expo))
    for chunk in (quad._PAIR_CHUNK, 256, 3 * box.ncells // box.planes):
        monkeypatch.setattr(quad, "_PAIR_CHUNK", chunk)
        shifted = quad.kahan_sum(quad._pair_sums(box, p, kernel_expo, kept)(vals))
        assert shifted == pytest.approx(blocks, rel=1e-12)
    assert len(sweeps) == (0 if lattice and p != 3 else 3)


@pytest.mark.parametrize("bound,sweeps", [(None, None), (math.inf, 0), (1.0, 1)])
def test_fft_cancellation_falls_back_to_sweep(bound, sweeps, monkeypatch):
    # u = 1 + 1e-3 bump at p = 4: the FFT sums the values less their
    # median, whose differences are those of u, and either matches the
    # row-block oracle to 1e-12 or leaves the pairs to the sweep.  A bound
    # of infinity forces the FFT, and one of 1 the sweep (the positive
    # terms of a nonzero sum exceed it)
    if bound is not None:
        monkeypatch.setattr(quad, "_FFT_CANCELLATION", bound)
    calls = []
    sweep = quad._plane_sweep
    monkeypatch.setattr(quad, "_plane_sweep", lambda *args: calls.append(1) or sweep(*args))
    grid = quad.as_grid(quad.GridSpec(64, SQUARE))
    bump = quad.TensorBump((0.5, 0.5), (0.3, 0.3))
    vals = 1.0 + 1e-3 * bump(grid.centers)
    kernel_expo = 2 + 4 / 2
    got = quad.kahan_sum(quad._pair_sums(grid, 4.0, kernel_expo)(vals))
    assert got == pytest.approx(quad.kahan_sum(row_block_sums(vals, grid, 4.0, kernel_expo)),
                                rel=1e-12)
    assert len(calls) in ((0, 1) if sweeps is None else (sweeps,))


#: the telescope's layer pairs of more than one run, of up to 768 cells
TELESCOPE_RUNS = [grid for name, grid in SHIFTED_GRIDS.items()
                  if name.startswith("telescope") and grid.planes > 1 and grid.ncells <= 768]


def drawn_grid(data):
    """A drawn grid of at most 16 cells per axis: a box in d <= 3, whole
    or masked, a telescope layer pair of more than one run or a graded
    grid.  A masked grid comes with its mask, one row per run of its box."""
    kind = data.draw(st.sampled_from(["box-1d", "box", "masked", "telescope", "graded"]),
                     label="kind")
    if kind == "telescope":
        return data.draw(st.sampled_from(TELESCOPE_RUNS), label="grid"), None
    if kind == "graded":  # deep enough, at e = 2d, for the tail cut to drop offsets
        levels = data.draw(st.one_of(st.integers(1, 24), st.integers(64, 100)), label="levels")
        cells = data.draw(st.integers(2, 16 if levels <= 24 else 8), label="cells")
        return exp.slab_graded_grid(levels, cells), None
    if kind == "box-1d":
        d = 1
    else:  # hypothesis draws the first values most: those of the most paths first
        d = data.draw(st.sampled_from([2, 3, 1] if kind == "masked" else [2, 3]), label="d")
    box = geo.Box((0.0,) * d, tuple(data.draw(st.sampled_from([0.5, 1.0, 1.6]), label="side")
                                    for _ in range(d)))
    if kind != "masked":
        return quad.union_grid([box], data.draw(st.integers(2, 16 if d < 3 else 8),
                                                label="cells")), None
    n = data.draw(st.sampled_from([8, 16] if d < 3 else [8]), label="cells")
    runs = n if d > 1 else 1
    # a mask per place of a run, the same in every run but at the drawn
    # flips, so that places of either mask value can be dead
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="mask seed"))
    mask = np.tile(rng.random(n**d // runs) < 0.6, (runs, 1))
    mask ^= rng.random(mask.shape) < data.draw(st.sampled_from([0.0, 0.1]), label="flips")
    mask.flat[0] = True
    return quad.masked_grid(quad.GridSpec(n, box), lambda centers: mask.ravel()), mask


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_drawn_pair_sums_match_row_blocks(data):
    # every path of the pair sum against the row-block oracle, which has no
    # runs, offsets or chunks: the FFT and its fallback on a box in d >= 2,
    # and the sweep's gathered, contiguous and broadcast operands, with and
    # without the tail cut, at the default chunk or one of three rows.
    # Values of a drawn size per run, 0 on drawn places of every run (dead
    # places) and on whole runs
    grid, mask = drawn_grid(data)
    box, kept = grid.within or (grid, None)
    p = data.draw(st.sampled_from([3.0, 2.5, 4.0, 2.0]), label="p")  # the sweep's p first
    shrinking = grid.planes > 1 and grid.sides[-1, 0] < grid.sides[0, 0]
    critical = shrinking and data.draw(st.booleans(), label="sp = 1")  # the tail cut's e = 2d
    kernel_expo = grid.d + (1.0 if critical else data.draw(st.sampled_from([0.5, 1.0, 1.5]),
                                                              label="sp"))
    n0 = box.planes
    n = box.ncells // n0
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    U = rng.standard_normal((n0, n)) * 10.0 ** rng.integers(-2, 3, (n0, 1))
    U[:, rng.random(n) < data.draw(st.sampled_from([0.0, 0.5, 0.9]), label="dead")] = 0.0
    U[rng.random(n0) < data.draw(st.sampled_from([0.0, 0.3, 0.7]), label="zero runs")] = 0.0
    vals = U.ravel() if kept is None else U[mask]
    small = [3 * n] if box.ncells <= 512 else []  # rows of 3, and a step of one run
    chunk = data.draw(st.sampled_from([quad._PAIR_CHUNK, *small]), label="chunk")
    want = math.fsum(row_block_sums(vals, grid, p, kernel_expo))

    sweeps, ffts = [], []
    sweep, fft = quad._plane_sweep, quad._fft_pair_sum

    def fft_recording(*args):
        pair_sum = fft(*args)
        return lambda U: ffts.append(pair_sum(U)) or ffts[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quad, "_PAIR_CHUNK", chunk)
        mp.setattr(quad, "_plane_sweep", lambda *args: sweeps.append(1) or sweep(*args))
        mp.setattr(quad, "_fft_pair_sum", fft_recording)
        got = math.fsum(quad._pair_sums(box, p, kernel_expo, kept)(vals))
        mp.setattr(quad, "_TAIL_CUT", 0.0)
        full = math.fsum(quad._pair_sums(box, p, kernel_expo, kept)(vals))
    assert bool(ffts) == (box.lattice and p in (2.0, 4.0))
    if ffts and not sweeps:
        # the FFT's rounding scales with its positive terms (64 ulp of
        # them), the oracle's with the sum
        positive = 0.5 * box.weights[0] ** 2 * ffts[-1][1]
        assert abs(got - want) <= 64 * 2.0**-52 * positive + 1e-12 * want
        return
    # the sweep matches to rounding.  The tail cut, on shrinking runs at
    # e = 2d, drops offsets whose bounded sum is at most 2^-53 of the sum
    # it keeps; nothing else drops any
    assert full == pytest.approx(want, rel=1e-12, abs=0)
    assert got <= full <= got + 2.0**-53 * got + math.ulp(full)
    if not (shrinking and kernel_expo == 2 * grid.d):
        assert got == full


@pytest.mark.parametrize("n,d,builds", [(128, 1, 1), (64, 2, 48 + 56)])
def test_pair_tables_kept_within_one_chunk(n, d, builds, monkeypatch):
    # the 128 cells of a 1-D box are one run of one row chunk: its one
    # kernel table serves a whole sweep of members at p = 2.  The 64 runs
    # of a 64^2 box hold 64^3 table entries, more than one chunk: each of
    # two members builds its tables anew at p = 3 (at an even p a box in
    # d >= 2 is summed by FFT, without the sweep), one per offset that
    # pairs a run holding values: the first member is 0 off runs 16-47
    # (offsets 0-47), the second off runs 8-39 (offsets 0-55).  Every table
    # the sweep is handed is held here, so two distinct tables never share
    # an id
    handed = []
    sweep = quad._plane_sweep

    def recording(U, p, kernel, *rest):
        def kernel_seen(*args):
            handed.append(kernel(*args))
            return handed[-1]

        return sweep(U, p, kernel_seen, *rest)

    monkeypatch.setattr(quad, "_plane_sweep", recording)
    box = geo.Box((0.0,) * d, (1.0,) * d)
    tables = quad.SeminormTables(quad.as_grid(quad.GridSpec(n, box)),
                                 fp(d, "2" if d == 1 else "3", "1/2"))
    members = [quad.TensorBump((h + 0.25,) * d, (0.25,) * d) for h in 2.0 ** -np.arange(2, 8)]
    for u in members[: 6 if d == 1 else 2]:
        assert tables.seminorm(*tables.evaluate(u)) > 0
    assert len({id(K) for K in handed}) == builds


def test_grid_planes_divide_cells():
    # only run_grid sets the runs: a grid whose halves are not one run
    # moved cannot be declared as 8 runs, and a run grid passed through
    # replace is one run, whose pair sum is right for any cells.  Only
    # union_grid marks a box: its grid of one box in d >= 2, whole, clipped
    # to a box-shaped domain or kept whole under a mask, and no other grid
    grid = quad.union_grid([SQUARE, SQUARE.scaled(2.0)], 4)  # 32 cells
    assert grid.planes == 1
    for planes in (0, 3, 8, 64):
        with pytest.raises(ValueError, match="planes"):
            replace(grid, planes=planes)
    with pytest.raises(TypeError):
        quad.Grid(grid.centers, grid.sides, grid.weights, planes=8)
    runs = quad.run_grid(quad.union_grid([SQUARE], 4), 8, step=(1.0, 0.0))
    assert (runs.planes, replace(runs).planes) == (8, 1)
    u, params = quad.TensorBump((0.8, 0.8), (0.7, 0.7)), fp(2, "2", "1/2")
    assert quad.gagliardo_seminorm(u, None, params, grid) == pytest.approx(4.597, abs=1e-3)
    assert (quad.gagliardo_seminorm(u, None, params, replace(runs))
            == pytest.approx(quad.gagliardo_seminorm(u, None, params, runs), rel=1e-12))
    with pytest.raises(ParameterError, match="run"):
        quad.run_grid(grid, 0)

    box = quad.as_grid(quad.GridSpec(16, SQUARE))
    clipped = quad.as_grid(quad.GridSpec(16, geo.Box((-1, -1), (1, 1))), geo.Slab(n=1, d=2))
    masked = quad.as_grid(quad.GridSpec(16, SQUARE), L_SHAPE)
    for marked in (box, clipped, masked.within[0], quad.union_grid([CUBE], 8)):
        assert marked.lattice
    for unmarked in (quad.union_grid([UNIT], 16), grid, masked, *telescope_grids(2, -2, 4),
                     exp.slab_graded_grid(6), SHIFTED_GRIDS["gapped-2d"], runs):
        assert not unmarked.lattice
    with pytest.raises(TypeError):
        quad.Grid(box.centers, box.sides, box.weights, lattice=True)
    with pytest.raises(ValueError, match="lattice"):
        replace(box, lattice=True)
    assert (replace(box).planes, replace(box).lattice) == (1, False)
    for p in ("2", "3"):
        params = fp(2, p, "1/3")
        assert (quad.gagliardo_seminorm(u, None, params, replace(box))
                == pytest.approx(quad.gagliardo_seminorm(u, None, params, box), rel=1e-12))


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


def ground_state_ratio(s: Fraction, R: int, cells: int) -> float:
    """lhs / [u] on (0, inf) at p = 2, alpha = 2s, for the member
    u = x^{(alpha - 1)/2} g(log2(1/x)), g a trapezoid that rises over R
    levels, stays 1 over 2R and falls over R: lhs^2 = int u^2 x^-alpha,
    and [u]^2 is the seminorm on ``slab_graded_grid(4R + 3, cells)`` plus
    the pairs with one point above 1, 2 int u^2 (1 - x)^-alpha / alpha."""
    alpha = 2 * float(s)

    def u(pts):
        x = pts[:, 0]
        t = -np.log2(x)
        return x ** ((alpha - 1) / 2) * np.clip(np.minimum(t, 4 * R - t) / R, 0.0, 1.0)

    grid = exp.slab_graded_grid(4 * R + 3, cells)
    tables = quad.SeminormTables(grid, fp(1, 2, s))
    vals, lips = tables.evaluate(u)
    x, w = grid.centers[:, 0], grid.weights
    above = quad.kahan_sum(2 / alpha * vals**2 * (1 - x) ** -alpha * w)
    lhs = quad.kahan_sum(vals**2 * x**-alpha * w)
    return math.sqrt(lhs / (tables.seminorm(vals, lips) ** 2 + above))


@pytest.mark.parametrize("s", [Fraction(1, 4), Fraction(2, 5)])
def test_subcritical_half_line_constant_oracle(s, monkeypatch):
    # Bogdan & Dyda (Math. Nachr. 284, 2011): on the half-line at p = 2 and
    # alpha = 2s < 1, [u]^2 >= 2 kappa int u^2 x^-alpha with the sharp
    # kappa = (B((1 + alpha)/2, (2 - alpha)/2) - 2^alpha) / (alpha 2^alpha),
    # the ground-state integral of x^{(alpha - 1)/2}, here folded onto
    # (0, 1) by y -> 1/y and evaluated by mpmath.  The members' ratio
    # approaches the sharp (2 kappa)^{-1/2} from below as R grows; the gap
    # between 8 and 16 cells per block is its error bar.  At e = 1 + alpha
    # != 2d the graded grid's blocks are summed as one run
    import mpmath

    alpha = 2 * float(s)
    kappa = ((math.gamma((1 + alpha) / 2) * math.gamma((2 - alpha) / 2) / math.gamma(1.5)
              - 2**alpha) / (alpha * 2**alpha))
    with mpmath.workdps(30):
        a = 2 * mpmath.mpf(s.numerator) / s.denominator
        integral = mpmath.quad(lambda z: (1 - z ** ((a - 1) / 2)) ** 2 / (1 - z) ** (1 + a),
                               [0, 1])
    assert kappa == pytest.approx(float(integral), rel=1e-12)
    sharp = (2 * kappa) ** -0.5
    calls = swept_offsets(monkeypatch)
    for R in (16, 64):
        coarse, fine = (ground_state_ratio(s, R, cells) for cells in (8, 16))
        assert abs(coarse - fine) <= 1e-3
        assert max(coarse, fine) <= sharp + abs(coarse - fine)
    if s == Fraction(1, 4):
        assert coarse >= 0.995 * sharp
    assert calls == [{0}] * 4


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


@pytest.mark.parametrize("boxes", [
    [geo.Box((0.0,), (0.5,)), geo.Box((0.5,), (0.75,)), geo.Box((-3.0,), (0.1,))],
    [geo.Box((0.0, 0.25), (0.5, 0.5)), geo.Box((1.0, -2.0), (1.125, 2.0)),
     geo.Box((-0.3, 0.7), (0.9, 0.8))],
], ids=["1-D", "2-D"])
def test_box_cells_are_the_union_grid(boxes):
    # the battery grids its corner arrays with union_grid's own arithmetic
    lo = np.array([b.lo for b in boxes])
    hi = np.array([b.hi for b in boxes])
    for n in (1, 4, 8):
        got, want = quad._box_cells(lo, hi, n), quad.union_grid(boxes, n)
        for name in ("centers", "sides", "weights"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


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


def three_mask_profile(u: quad.LogSpike, xd: np.ndarray) -> np.ndarray:
    """The log spike's profile one piece at a time: the rising ramp, the
    plateau and the falling ramp each on its own mask, 0 elsewhere."""
    vals, pos = np.zeros_like(xd), xd > 0
    t = np.full_like(xd, np.inf)
    t[pos] = np.log2(2.0 / xd[pos])
    t0, D = u.t0, u.depth
    up = (t > t0) & (t < t0 + D)
    flat = (t >= t0 + D) & (t <= t0 + 2 * D)
    down = (t > t0 + 2 * D) & (t < t0 + 3 * D)
    vals[up] = (t[up] - t0) / D
    vals[flat] = 1.0
    vals[down] = (t0 + 3 * D - t[down]) / D
    return vals


@pytest.mark.parametrize("depth,t0", [(1.0, 1.5), (4.0, 1.5), (32.0, 1.5), (128.0, 1.5),
                                      (2.0, 1.0)])
def test_log_spike_profile_keeps_its_bits(depth, t0):
    # the probe's members (t0 = 1.5, depths 2^{m-1}) and the telescope
    # demo's: exact equality, the sign of a zero included, at the ramp and
    # plateau joints x_d = 2^(1 - t0 - k depth) and the support ends, each
    # with the four doubles either side, at heights <= 0, -0.0 included,
    # and on a log-uniform sample
    u = quad.LogSpike(depth=depth, t0=t0)
    marks = [2.0 ** (1.0 - t0 - k * depth) for k in range(4)] + [*u.support.lo, *u.support.hi]
    near = [x + k * np.spacing(x) for x in marks for k in range(-4, 5)]
    sample = 2.0 ** np.random.default_rng(0).uniform(-2.0 - t0 - 3 * depth, 1.0, 10_000)
    xd = np.concatenate([near, [0.0, -0.0, -1.0, -np.inf, 1.0, 4.0], sample])
    assert u.axis_profile(xd).tobytes() == three_mask_profile(u, xd).tobytes()


def test_log_spike_2d_transverse_bump():
    u = quad.LogSpike(depth=2.0, transverse=geo.Box((-0.5,), (0.5,)))
    assert u.d == 2
    mid = 2.0 ** (1 - 1.5 - 3)
    assert u(np.array([[0.0, mid]]))[0] == 1.0
    assert u(np.array([[0.6, mid]]))[0] == 0.0  # outside transverse box


# ---------------------------------------------------------------------------
# FracParams


def test_fracparams_p_star():
    params = fp(2, "2", "1/2")
    assert params.p_star == Fraction(4)
    with pytest.raises(ParameterError):
        _ = fp(2, "4", "1/2").p_star  # sp = d


def test_fracparams_rejects_inexact_floats():
    with pytest.raises(ParameterError):
        quad.FracParams(d=1, p=2.5, s=Fraction(1, 2), tau=Fraction(2))
