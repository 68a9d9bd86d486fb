from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from hardylab import experiments as exp
from hardylab import geometry as geo
from hardylab import hardy
from hardylab import quadrature as quad
from hardylab.errors import ParameterError, UnsupportedDomainError


def fp(d, p, s, tau):
    return quad.FracParams(d=d, p=Fraction(p), s=Fraction(s), tau=Fraction(tau))


CASE_1B = hardy.HardyCase("1b", fp(1, "2", "1/2", "2"))
SLAB_1D = geo.Slab(n=1, d=1)


# ---------------------------------------------------------------------------
# constant estimation


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
    assert r1.best_ratio == pytest.approx(r2.best_ratio, abs=1e-10)
    assert r4.best_ratio >= r1.best_ratio  # superset of starts
    assert np.isfinite(r1.best_ratio) and r1.best_ratio > 0


def test_budget_exhaustion_flag_not_error():
    family = exp.BoundaryBumpFamily()
    grid = quad.GridSpec(64, SLAB_1D.box)
    res = exp.estimate_constant(
        family, CASE_1B, SLAB_1D, exp.SearchConfig(starts=1, budget_per_start=3, seed=0), grid
    )
    assert res.budget_exhausted
    assert np.isfinite(res.best_ratio)


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
    with pytest.raises(UnsupportedDomainError):
        exp.blowup_probe(case, (-1, 0), geo.Slab(n=1, d=2))


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

    def norm_fails_at_level_5(self, vals, lips, threads=1):
        if self.grid.planes >= from_level_5:
            raise FloatingPointError("overflow")
        return norm(self, vals, lips, threads)

    monkeypatch.setattr(quad.SeminormTables, "norm", norm_fails_at_level_5)
    for res in exp.blowup_probe(CASE_1B, (-1, 0), SLAB_1D, family):
        assert [m for m, _ in res.levels] == [3, 4] and res.truncated


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


def test_telescope_constant_band_structure():
    # u constant across the deep layers: all cube averages in a buried
    # layer coincide and the deep seminorm terms are exactly zero
    slab = geo.Slab(n=1, d=2)
    u = BandPlateau(lo=2.0**-4, hi=0.75, ramp=2.0**-5)
    params = fp(2, "2", "1/2", "2")
    (rep,) = exp.telescoping_reconstruction(slab, u, params, [-3], cells_per_cube=4)
    layer = geo.DyadicLayer(-3, 1, 2)  # heights [1/8, 1/4): u = 1 there
    avgs = [quad.average(u, box, 4) for box in layer.region_boxes()]
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
        avgs = np.array([quad.average(u, box, 2) for box in layer.region_boxes()])
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
    pair = geo.DyadicLayer(-6, 1, 2).region_boxes() + geo.DyadicLayer(-5, 1, 2).region_boxes()
    semi = quad.gagliardo_seminorm(LOW_BUMP, None, params, quad.union_grid(pair, 4))
    assert rep6.seminorm_terms[0] == pytest.approx(semi**2, rel=1e-12)
    assert rep6.seminorm_terms[0] > 0
    assert rep6.minimal_c < rep5.minimal_c


def test_telescope_rejects_non_slab():
    with pytest.raises(UnsupportedDomainError):
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


# ---------------------------------------------------------------------------
# graded grids


def test_slab_graded_grid_covers_unit_height():
    g = exp.slab_graded_grid(6, cells_per_block=8)
    assert g.total_weight == pytest.approx(1.0 - 2.0**-7, rel=1e-12)
    assert g.centers[:, -1].max() < 1.0
    assert g.centers[:, -1].min() > 0.0


def test_log_spike_family_depth_doubles_then_caps():
    family = exp.LogSpikeFamily()
    assert family.depth(3) == 4.0
    assert family.depth(4) == 8.0
    assert family.depth(8) == 128.0
    assert family.depth(9) == 128.0  # capped


@pytest.mark.parametrize("levels", [(3, 9), (3, 10), (0, 4), (5, 4)])
def test_log_spike_family_rejects_levels_past_the_cap(levels):
    # 1 + log2(max_depth) = 8 is the last level with a member of its own; a
    # deeper level would reuse the level-8 member
    exp.LogSpikeFamily(level_range=(1, 8))
    with pytest.raises(ParameterError, match="level range"):
        exp.LogSpikeFamily(level_range=levels)
