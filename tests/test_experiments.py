import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import dyadic_oracle as oracle
from hardylab import cli
from hardylab import experiments as exp
from hardylab import geometry as geo
from hardylab import hardy
from hardylab import quadrature as quad
from hardylab.errors import ParameterError
from payload_pins import assert_payload_equal, pinned_payload


def fp(d, p, s, tau):
    return quad.FracParams(d=d, p=Fraction(p), s=Fraction(s), tau=Fraction(tau))


CASE_1B = hardy.HardyCase("1b", fp(1, "2", "1/2", "2"))
SLAB_1D = geo.Slab(n=1, d=1)
DEMOS = Path(__file__).resolve().parents[1] / "demos"


# ---------------------------------------------------------------------------
# constant estimation


FAMILIES = [
    exp.BoundaryBumpFamily(),
    exp.BoundaryBumpFamily(log2_h_range=(-3.0, -0.5), width=0.25),
]


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: type(f).__name__)
def test_family_hull_holds_every_member(family):
    # hull() is read off the members at the corners of the parameter box;
    # members at sampled parameters, inside the box and clipped to it from
    # outside, lie in it
    hull = family.hull()
    lo, hi = np.array(family.bounds).T
    rng = np.random.default_rng(0)
    for params in rng.uniform(lo - (hi - lo) - 1, hi + (hi - lo) + 1, (300, len(lo))):
        support = family.make(params).support
        assert all(a <= b for a, b in zip(hull.lo, support.lo)), (params, support)
        assert all(b <= a for a, b in zip(hull.hi, support.hi)), (params, support)


def test_family_hull_is_the_members_extent():
    assert exp.BoundaryBumpFamily().hull() == geo.Box((2.0**-7,), (0.75,))


def test_family_needs_an_ordered_range():
    # a reversed range once reached the search and failed in numpy's
    # rng.uniform ("high - low < 0"), not as a ParameterError
    exp.BoundaryBumpFamily(log2_h_range=(-3.0, -3.0))
    with pytest.raises(ParameterError, match="lo <= hi"):
        exp.BoundaryBumpFamily(log2_h_range=(-2.0, -7.0))


def test_single_member_family_returns_its_ratio():
    family = exp.BoundaryBumpFamily(log2_h_range=(-3.0, -3.0))
    grid = quad.GridSpec(64, SLAB_1D.box)
    search = exp.SearchConfig(starts=2, budget_per_start=20, seed=0)
    res = exp.estimate_constant(family, CASE_1B, SLAB_1D, search, grid)
    direct = hardy.hardy_ratio(family.member(2.0**-3), SLAB_1D, CASE_1B, grid)
    assert res.best_ratio == pytest.approx(direct, rel=1e-12)


def test_estimate_constant_deterministic_and_monotone():
    family = exp.BoundaryBumpFamily()
    grid = quad.GridSpec(64, SLAB_1D.box)
    small = exp.SearchConfig(starts=2, budget_per_start=40, seed=11)
    large = exp.SearchConfig(starts=4, budget_per_start=40, seed=11)
    r1 = exp.estimate_constant(family, CASE_1B, SLAB_1D, small, grid)
    r2 = exp.estimate_constant(family, CASE_1B, SLAB_1D, small, grid)
    r4 = exp.estimate_constant(family, CASE_1B, SLAB_1D, large, grid)
    # exact: the ratios a run reuses must not make it depend on call history
    assert (r1.best_ratio, r1.best_params, r1.evaluations) == (
        r2.best_ratio, r2.best_params, r2.evaluations)
    assert r4.best_ratio >= r1.best_ratio  # superset of starts
    assert np.isfinite(r1.best_ratio) and r1.best_ratio > 0


def test_estimate_constant_computes_each_clipped_point_once(monkeypatch):
    # the demo search makes 369 of its calls at h = 2^-7 and 116 at
    # h = 2^-2, the box's edges; every optimizer call counts, but a
    # clipped point is computed once: 50 inside the box and the 2 edges
    points, ratios = [], []
    nelder_mead, ratio = exp._nelder_mead, hardy.HardyTables.ratio

    def recording(f, x0, *args, **kwargs):
        def f_logged(x):
            points.append(tuple(np.clip(x, -7.0, -2.0)))
            return f(x)

        return nelder_mead(f_logged, x0, *args, **kwargs)

    def counting(self, u):
        ratios.append(u)
        return ratio(self, u)

    monkeypatch.setattr(exp, "_nelder_mead", recording)
    monkeypatch.setattr(hardy.HardyTables, "ratio", counting)
    config = DEMOS / "configs" / "estimate_constant.json"
    payload = json.loads(json.dumps(cli.run(cli.ExperimentConfig.parse(config.read_text()))
                                    .numeric_payload()))
    assert len(points) == payload["results"]["evaluations"] == 535
    assert len(ratios) == len(set(points)) == 52
    want = pinned_payload("estimate_constant")
    assert_payload_equal({key: payload[key] for key in want}, want, "estimate_constant")


@pytest.mark.parametrize("counts", [{"starts": 0}, {"budget_per_start": 0},
                                    {"starts": -1, "budget_per_start": 5}])
def test_search_config_needs_one_start_and_one_evaluation(counts):
    exp.SearchConfig(starts=1, budget_per_start=1)
    with pytest.raises(ParameterError, match="starts and budget_per_start"):
        exp.SearchConfig(**counts)


def test_budget_exhaustion_flag_not_error():
    family = exp.BoundaryBumpFamily()
    grid = quad.GridSpec(64, SLAB_1D.box)
    res = exp.estimate_constant(
        family, CASE_1B, SLAB_1D, exp.SearchConfig(starts=1, budget_per_start=3, seed=0), grid
    )
    assert res.budget_exhausted
    assert np.isfinite(res.best_ratio)


def _rosen(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _bowl(x):
    return float(np.sum((x - 0.3) ** 2))


@pytest.mark.parametrize("f, x0, budgets", [
    (_bowl, [1.7], [1, 2, 5, 17, 10_000]),  # 1-D
    (_rosen, [-1.2, 1.0], range(1, 90)),  # every budget: ends in each kind of step
    (_rosen, [0.0, 0.5, 0.0], range(1, 90)),  # zero coordinates step to 0.00025
    (lambda x: 1.0, [0.4, -0.8, 1.1, 2.0], range(1, 40)),  # every step shrinks: ends mid-shrink
    (_bowl, [0.9, 0.0, -0.4, 0.2], [10_000]),  # 4-D, stops on xatol and fatol
], ids=["1d", "rosen-2d", "zero-start-3d", "flat-4d", "bowl-4d"])
def test_nelder_mead_is_scipys_bit_for_bit(f, x0, budgets):
    optimize = pytest.importorskip("scipy.optimize")

    def bits(v):
        return np.asarray(v, dtype=float).tobytes()

    for maxfev in budgets:
        for xatol, fatol in [(1e-6, 1e-10), (1e-2, 1e-2)]:
            want = optimize.minimize(f, np.array(x0), method="Nelder-Mead",
                                     options={"maxfev": maxfev, "xatol": xatol, "fatol": fatol})
            x, fun, nfev, spent = exp._nelder_mead(f, np.array(x0), maxfev, xatol, fatol)
            assert (bits(x), bits(fun), nfev, spent) == \
                (bits(want.x), bits(want.fun), want.nfev, want.status == 1), (maxfev, xatol)
            if maxfev == 10_000:  # the tolerances stop these runs
                assert not spent
            elif xatol == 1e-6:  # and no smaller budget reaches them
                assert spent


# ---------------------------------------------------------------------------
# blow-up probe


@pytest.fixture(scope="module")
def signature():
    family = exp.LogSpikeFamily(level_range=(3, 8))
    return exp.three_point_signature(CASE_1B, SLAB_1D, family)


def test_probe_control_is_bounded(signature):
    assert signature["at"].verdict == "bounded"
    assert not signature["at"].truncated


def test_probe_below_diverges(signature):
    res = signature["below"]
    assert res.verdict == "diverging"
    assert len(res.levels) >= 4
    assert all(f >= 1.15 for f in res.growth_factors)


def test_probe_above_bounded_decreasing(signature):
    res = signature["above"]
    assert res.verdict == "bounded"
    ratios = [r for _, r in res.levels]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))


def test_probe_requires_1d_slab():
    case = hardy.HardyCase("1a", fp(2, "2", "1/2", "2"))
    with pytest.raises(ParameterError, match="the log-spike probe runs on the d = 1 slab"):
        exp.blowup_probe(case, (-1, 0), geo.Slab(n=1, d=2))


@pytest.mark.parametrize("p", ["2", "3"])
@pytest.mark.parametrize("case_id", ["2a", "2b", "3b", "3c"])
def test_probe_runs_group_1_cases_only(case_id, p):
    # on the d = 1 slab; 2a and 2b are stated for the exterior ball, and
    # 3b and 3c weigh the slab with the bounded weight, not the flat one
    tau = "3/2" if case_id in ("2b", "3c") else p
    case = hardy.HardyCase(case_id, fp(1, p, Fraction(1, int(p)), tau))
    with pytest.raises(ParameterError,
                       match=f"the log-spike probe runs group-1 cases, got {case_id}"):
        exp.blowup_probe(case, (-1, 0), SLAB_1D)


def test_probe_builds_each_level_norm_once(monkeypatch):
    norms, calls = [], []
    norm, spike = quad.SeminormTables.norm, quad.LogSpike.__call__

    def counting_norm(self, *args, **kwargs):
        norms.append(self.grid.ncells)
        return norm(self, *args, **kwargs)

    def counting_spike(self, pts):
        calls.append(len(pts))
        return spike(self, pts)

    monkeypatch.setattr(quad.SeminormTables, "norm", counting_norm)
    monkeypatch.setattr(quad.LogSpike, "__call__", counting_spike)
    exp.three_point_signature(CASE_1B, SLAB_1D, exp.LogSpikeFamily(level_range=(3, 5)))
    assert len(norms) == 3  # one per level, shared by the three offsets
    # two member calls per level: the cell centres and the slope probes
    assert len(calls) == 2 * 3


def test_joint_probe_matches_single_offset_probes():
    family = exp.LogSpikeFamily(level_range=(3, 6))
    joint = exp.blowup_probe(CASE_1B, (-1, 0, 1), SLAB_1D, family)
    for off, res in zip((-1, 0, 1), joint):
        (alone,) = exp.blowup_probe(CASE_1B, (off,), SLAB_1D, family)
        assert res.levels == alone.levels
        assert res.verdict == alone.verdict
        assert res.beta_used == float(2 + off)  # tabulated beta of case 1b is tau = 2


@pytest.mark.parametrize("bad_lhs", [np.inf, np.nan, 0.0])
def test_probe_truncation_shared_and_per_offset(monkeypatch, bad_lhs):
    # the per-offset lhs and the shared norm, from level 5 on: the levels
    # are told apart by their graded grids, whose block count grows
    family = exp.LogSpikeFamily(level_range=(3, 6))
    from_level_5 = family.grid_levels(5) + 1
    integral, norm = hardy._weighted_power_integral, quad.SeminormTables.norm

    def lhs_bad_at_beta_from_level_5(vals, domain, w, tau, g):
        if w.beta == 2 and g.planes >= from_level_5:
            return bad_lhs
        return integral(vals, domain, w, tau, g)

    monkeypatch.setattr(hardy, "_weighted_power_integral", lhs_bad_at_beta_from_level_5)
    below, at = exp.blowup_probe(CASE_1B, (-1, 0), SLAB_1D, family)
    assert [m for m, _ in at.levels] == [3, 4] and at.truncated
    assert [m for m, _ in below.levels] == [3, 4, 5, 6] and not below.truncated

    def norm_fails_at_level_5(self, vals, lips):
        if self.grid.planes >= from_level_5:
            raise FloatingPointError("overflow")
        return norm(self, vals, lips)

    monkeypatch.setattr(quad.SeminormTables, "norm", norm_fails_at_level_5)
    for res in exp.blowup_probe(CASE_1B, (-1, 0), SLAB_1D, family):
        assert [m for m, _ in res.levels] == [3, 4] and res.truncated


@pytest.mark.parametrize("p, s", [("3", "1/3"), ("4", "1/4"), ("8", "1/8")],
                         ids=["p3", "p4", "p8"])
def test_probe_keeps_its_deepest_level(p, s):
    # case 1b at tau = p: the slopes of the level-8 member reach about 2^388
    # on the deepest cells, so L^p alone overflows while the same-cell term
    # is in range.  Levels 3-8 are kept, with no offset truncated and no
    # overflow or 0 * inf warning (RuntimeWarnings are errors)
    case = hardy.HardyCase("1b", fp(1, p, s, p))
    results = exp.blowup_probe(case, (-1, 0, 1), SLAB_1D)
    for res in results:
        assert not res.truncated
        assert [m for m, _ in res.levels] == [3, 4, 5, 6, 7, 8]
    if p == "3":
        for res, ratio in zip(results, (1.476, 0.355, 0.106)):
            assert res.levels[-1][1] == pytest.approx(ratio, abs=5e-4)


def test_probe_patch_matches_its_log2_sum():
    # the level-8 member at (p, s, tau) = (3, 1/3, 3): its diagonal patch,
    # L^p w d w_1 r^{p-sp} / (p - sp) = L^3 w (w / 2)^2 per cell (d = 1,
    # w_1 = 2, r = w / 2), summed from the terms' log2.  [u]^p less twice
    # the pair sum matches it up to the rounding of the p-th root and power
    # of [u] (the patch is about 1.5e-4 of [u]^p); the patch alone, as
    # [.]^p of the same slopes at values with no differences, to 1e-12
    family = exp.LogSpikeFamily()
    g = family.grid(8)
    tables = quad.SeminormTables(g, fp(1, "3", "1/3", "3"))
    vals, lips = tables.evaluate(family.member(8))
    log2_w, slope = np.log2(g.weights), lips > 0
    log2_terms = 3 * np.log2(lips[slope]) + log2_w[slope] + 2 * (log2_w[slope] - 1)
    patch = math.fsum(np.exp2(log2_terms).tolist())
    pairs = quad.kahan_sum(np.asarray(tables._pair_sums(vals)))
    assert tables.seminorm(vals, lips) ** 3 - 2 * pairs == pytest.approx(patch, rel=1e-10)
    assert tables.seminorm(np.zeros_like(vals), lips) ** 3 == pytest.approx(patch, rel=1e-12)


def test_probe_records_growth_threshold(signature):
    assert signature["below"].growth_threshold == 1.15


# ---------------------------------------------------------------------------
# telescoping reconstruction


@dataclass(frozen=True)
class BandPlateau(quad.TestFunction):
    """1 on a band of slab heights, linear ramps to 0; constant in x'."""

    lo: float
    hi: float
    ramp: float

    @property
    def support(self):  # type: ignore[override]
        return geo.Box((-1.0, self.lo - self.ramp), (1.0, self.hi + self.ramp))

    def __call__(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        xd = pts[:, -1]
        up = np.clip((xd - (self.lo - self.ramp)) / self.ramp, 0.0, 1.0)
        down = np.clip(((self.hi + self.ramp) - xd) / self.ramp, 0.0, 1.0)
        return np.minimum(up, down)


def test_telescope_layer_counts_match_geometry():
    slab = geo.Slab(n=1, d=2)
    u = quad.TensorBump((0.0, 0.5), (0.6, 0.35))
    (rep,) = exp.telescoping_reconstruction(slab, u, fp(2, "2", "1/2", "2"), [-4])
    expected = tuple(
        layer.count for layer in geo.dyadic_layers(slab, -4)
    )
    assert rep.layer_counts == expected == (32, 16, 8, 4)


def test_telescope_minimal_c_stable_across_depths():
    slab = geo.Slab(n=1, d=2)
    params = fp(2, "2", "1/2", "2")
    battery = [
        quad.TensorBump((0.0, 0.5), (0.6, 0.35)),
        quad.TensorBump((0.0, 0.28), (0.5, 0.25)),
        quad.TensorBump((0.2, 0.4), (0.7, 0.37)),
    ]
    for u in battery:
        reports = exp.telescoping_reconstruction(slab, u, params, (-4, -5, -6))
        cs = [rep.minimal_c for rep in reports]
        assert max(cs) <= 1.5 * min(cs) + 1e-12  # within +-50%
        # uniformity in depth: deeper reconstructions do not inflate C
        assert cs[2] <= cs[0] * 1.5 + 1e-12


def cube_average(u, box, cells: int) -> float:
    """Mean of u over ``box`` on a grid of ``cells`` per axis."""
    g = quad.union_grid([box], cells)
    return quad.integrate(u, g) / g.total_weight


def test_telescope_constant_band_structure():
    # u constant across the deep layers: all cube averages in a buried
    # layer coincide and the deep seminorm terms are exactly zero
    slab = geo.Slab(n=1, d=2)
    u = BandPlateau(lo=2.0**-4, hi=0.75, ramp=2.0**-5)
    params = fp(2, "2", "1/2", "2")
    (rep,) = exp.telescoping_reconstruction(slab, u, params, [-3], cells_per_cube=4)
    layer = geo.DyadicLayer(-3, 1, 2)  # heights [1/8, 1/4): u = 1 there
    avgs = [cube_average(u, box, 4) for box in oracle.layer_boxes(layer)]
    assert np.allclose(avgs, 1.0)
    assert rep.layer_sums[0] == pytest.approx(layer.count, rel=1e-12)
    assert np.isfinite(rep.minimal_c)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_telescope_layer_sums_match_cube_averages(d):
    # the layer sums read from the layer pair grids, whose boxes run by
    # columns in d > 1, equal the sums of separately computed cube
    # averages; the spike is lopsided across x' so a cube read from the
    # wrong place changes the sum
    slab = geo.Slab(n=1, d=d)
    transverse = geo.Box((-0.7,) * (d - 1), (0.3,) * (d - 1)) if d > 1 else None
    u = quad.LogSpike(depth=1.5, t0=1.0, transverse=transverse)
    params = fp(d, "2", "1/2", "2")
    depth = -4 if d < 3 else -3
    (rep,) = exp.telescoping_reconstruction(slab, u, params, [depth], cells_per_cube=2)
    assert rep.skipped_layers == ()
    for layer, a_k in zip(geo.dyadic_layers(slab, depth), rep.layer_sums):
        avgs = np.array([cube_average(u, box, 2) for box in oracle.layer_boxes(layer)])
        assert a_k > 0
        assert a_k == pytest.approx(float(np.sum(np.abs(avgs) ** 2)), rel=1e-12)


def test_telescope_skips_layers_outside_support():
    slab = geo.Slab(n=1, d=2)
    u = quad.TensorBump((0.0, 0.5), (0.6, 0.35))  # support heights [0.15, 0.85]
    (rep,) = exp.telescoping_reconstruction(slab, u, fp(2, "2", "1/2", "2"), [-6])
    assert set(rep.skipped_layers) == {-6, -5, -4}
    for k, a in zip(range(-6, 0), rep.layer_sums):
        if k in rep.skipped_layers:
            assert a == 0.0


# support heights [0.04, 0.2]: layers -6 and -2, -1 miss it, and the pairs
# of layers -2 and -1 miss it too
LOW_BUMP = quad.TensorBump((0.0, 0.12), (0.5, 0.08))


def test_telescope_builds_no_grid_for_pairs_off_the_support(monkeypatch):
    tables, calls = [], []
    init, bump = quad.SeminormTables.__init__, quad.TensorBump.__call__

    def counting_init(self, grid, params):
        tables.append(grid.ncells)
        init(self, grid, params)

    def counting_bump(self, pts):
        calls.append(len(pts))
        return bump(self, pts)

    monkeypatch.setattr(quad.SeminormTables, "__init__", counting_init)
    monkeypatch.setattr(quad.TensorBump, "__call__", counting_bump)
    reports = exp.telescoping_reconstruction(geo.Slab(n=1, d=2), LOW_BUMP, fp(2, "2", "1/2", "2"),
                                             (-4, -5, -6))
    # the pairs of layers -6, -5, -4 and -3, two member calls each
    assert len(tables) == 4
    assert len(calls) == 2 * 4
    for rep in reports:
        assert rep.seminorm_terms[-2:] == (0.0, 0.0)
        assert rep.skipped_layers[-2:] == (-2, -1)


def test_telescope_seminorm_below_the_support():
    # layer -6 misses the support but the layer above meets it: its pair
    # seminorm is the layer pair's, and the deeper chain lowers C
    slab = geo.Slab(n=1, d=2)
    params = fp(2, "2", "1/2", "2")
    rep5, rep6 = exp.telescoping_reconstruction(slab, LOW_BUMP, params, (-5, -6))
    assert rep6.skipped_layers == (-6, -2, -1)
    pair = [box for k in (-6, -5) for box in oracle.layer_boxes(geo.DyadicLayer(k, 1, 2))]
    semi = quad.gagliardo_seminorm(LOW_BUMP, None, params, quad.union_grid(pair, 4))
    assert rep6.seminorm_terms[0] == pytest.approx(semi**2, rel=1e-12)
    assert rep6.seminorm_terms[0] > 0
    assert rep6.minimal_c < rep5.minimal_c


def test_telescope_deep_pair_obeys_the_dilation_law():
    # at d = sp = 1 and tau = p a layer pair's [u]^tau is dilation
    # invariant: for a log spike reaching 2^-600, the pair (-505, -504)
    # with cells of side 2^-507 is the pair (-5, -4) of u dilated by 2^500.
    # Its steep cells keep their diagonal patch (L^p alone overflows there)
    params = fp(1, "3", "1/3", "3")
    u = quad.LogSpike(depth=200, t0=1)
    deep, = exp.telescoping_reconstruction(SLAB_1D, u, params, [-505])
    high, = exp.telescoping_reconstruction(SLAB_1D, u.dilated(2.0**500), params, [-5])
    assert deep.seminorm_terms[0] > 0
    assert deep.seminorm_terms[0] == pytest.approx(high.seminorm_terms[0], rel=1e-12)


def test_telescope_rejects_non_slab():
    with pytest.raises(ParameterError, match="telescoping runs on slab domains"):
        exp.telescoping_reconstruction(
            geo.ExteriorBall(1.0, 2),
            quad.TensorBump((2.0, 2.0), (0.3, 0.3)),
            fp(2, "2", "1/2", "2"),
            [-4],
        )


def test_telescope_one_pass_matches_one_depth_calls():
    # the benchmark's 2-D log spike has mass in every layer: the shared
    # layer pass gives each depth the report of a call at that depth alone
    slab = geo.Slab(n=1, d=2)
    u = quad.LogSpike(depth=2.0, t0=1.0, transverse=geo.Box((-0.6,), (0.6,)))
    params = fp(2, "2", "1/2", "2")
    reports = exp.telescoping_reconstruction(slab, u, params, (-4, -5, -6))
    singles = tuple(exp.telescoping_reconstruction(slab, u, params, (m,))[0]
                    for m in (-4, -5, -6))
    assert [rep.m for rep in reports] == [-4, -5, -6]
    assert reports == singles


@pytest.mark.parametrize("depths", [(), (-3, 0), [-1, 2]])
def test_telescope_rejects_bad_depths(depths):
    with pytest.raises(ParameterError):
        exp.telescoping_reconstruction(
            geo.Slab(n=1, d=1), quad.TensorBump((0.3,), (0.25,)), fp(1, "2", "1/2", "2"), depths
        )


@pytest.mark.parametrize("d, depth", [(1, -4), (2, -3), (2, -1), (3, -2)])
def test_telescope_grid_extent_is_the_deepest_grid_built(monkeypatch, d, depth):
    # the closed form sizes the grid of the deepest layer pair, the first
    # that telescoping_reconstruction builds for a member that meets it
    built = []

    class Recording(quad.SeminormTables):
        def __init__(self, grid, params):
            built.append(grid)
            super().__init__(grid, params)

    monkeypatch.setattr(quad, "SeminormTables", Recording)
    slab = geo.Slab(n=1, d=d)
    u = quad.TensorBump((0.0,) * (d - 1) + (0.5,), (0.9,) * (d - 1) + (0.5,))
    exp.telescoping_reconstruction(slab, u, fp(d, "2", "1/2", "2"), [depth], 2)
    g = built[0]
    assert exp.telescope_grid_extent(slab, depth, 2) == pytest.approx(
        (math.log2(g.ncells), math.log2(g.sides.min())), rel=1e-12)


# ---------------------------------------------------------------------------
# graded grids


@pytest.mark.parametrize("level, cells", [(1, 8), (3, 2), (5, 3)])
def test_log_spike_grid_extent_is_the_grid_built(level, cells):
    family = exp.LogSpikeFamily()
    g = family.grid(level, cells)
    assert family.grid_extent(level, cells) == pytest.approx(
        (math.log2(g.ncells), math.log2(g.sides.min())), rel=1e-12)


def test_slab_graded_grid_covers_unit_height():
    g = exp.slab_graded_grid(6, cells_per_block=8)
    assert g.total_weight == pytest.approx(1.0 - 2.0**-7, rel=1e-12)
    assert g.centers[:, -1].max() < 1.0
    assert g.centers[:, -1].min() > 0.0


def test_log_spike_family_depth_doubles():
    family = exp.LogSpikeFamily()
    for level, depth in [(1, 1.0), (3, 4.0), (4, 8.0), (8, 128.0), (9, 256.0)]:
        assert family.depth(level) == depth
        member = family.member(level)
        assert (member.depth, member.t0) == (depth, quad.LogSpike.t0)
    assert family.grid_levels(8) == math.ceil(1.5 + 3 * 128) + 2


@pytest.mark.parametrize("levels", [(3, 9), (3, 10), (0, 4), (5, 4), (3, 1100)])
def test_log_spike_family_rejects_levels_past_the_cap(levels):
    # the seminorm's range rule caps the levels at 8 at every
    # cells_per_block (level 9's cells have side 2^-773 / cells_per_block),
    # and a range needs 1 <= lo <= hi
    for cells in (1, 2**20):
        exp.check_probe_levels(exp.LogSpikeFamily(level_range=(1, 8)), CASE_1B.fp, cells)
    with pytest.raises(ParameterError, match="range"):
        exp.check_probe_levels(exp.LogSpikeFamily(level_range=levels), CASE_1B.fp, 1)


def test_probe_checks_its_levels_before_it_builds_one(monkeypatch):
    built = []
    monkeypatch.setattr(exp, "slab_graded_grid", lambda *args: built.append(args))
    with pytest.raises(ParameterError, match="range"):
        exp.blowup_probe(CASE_1B, (0,), SLAB_1D, exp.LogSpikeFamily(level_range=(3, 9)))
    assert built == []
