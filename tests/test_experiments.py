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
    calls = []
    denominator = hardy.hardy_denominator

    def counting(*args, **kwargs):
        calls.append(args)
        return denominator(*args, **kwargs)

    monkeypatch.setattr(hardy, "hardy_denominator", counting)
    exp.three_point_signature(CASE_1B, SLAB_1D, exp.LogSpikeFamily(level_range=(3, 5)))
    assert len(calls) == 3  # one per level, shared by the three offsets


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
    family = exp.LogSpikeFamily(level_range=(3, 6))
    lhs, denominator = hardy.hardy_lhs, hardy.hardy_denominator

    def lhs_bad_at_beta_from_level_5(u, domain, w, tau, g):
        return bad_lhs if w.beta == 2 and u.depth >= 16 else lhs(u, domain, w, tau, g)

    monkeypatch.setattr(hardy, "hardy_lhs", lhs_bad_at_beta_from_level_5)
    below, at = exp.blowup_probe(CASE_1B, (-1, 0), SLAB_1D, family)
    assert [m for m, _ in at.levels] == [3, 4] and at.truncated
    assert [m for m, _ in below.levels] == [3, 4, 5, 6] and not below.truncated

    def denominator_fails_at_level_5(u, domain, fp, g, threads=1):
        if u.depth >= 16:
            raise FloatingPointError("overflow")
        return denominator(u, domain, fp, g, threads=threads)

    monkeypatch.setattr(hardy, "hardy_denominator", denominator_fails_at_level_5)
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
    rep = exp.telescoping_reconstruction(slab, u, fp(2, "2", "1/2", "2"), -4)
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
        cs = [
            exp.telescoping_reconstruction(slab, u, params, m).minimal_c
            for m in (-4, -5, -6)
        ]
        assert max(cs) <= 1.5 * min(cs) + 1e-12  # within +-50%
        # uniformity in depth: deeper reconstructions do not inflate C
        assert cs[2] <= cs[0] * 1.5 + 1e-12


def test_telescope_constant_band_structure():
    # u constant across the deep layers: all cube averages in a buried
    # layer coincide and the deep seminorm terms are exactly zero
    slab = geo.Slab(n=1, d=2)
    u = BandPlateau(lo=2.0**-4, hi=0.75, ramp=2.0**-5)
    params = fp(2, "2", "1/2", "2")
    rep = exp.telescoping_reconstruction(slab, u, params, -3, cells_per_cube=4)
    layer = geo.DyadicLayer(-3, 1, 2)  # heights [1/8, 1/4): u = 1 there
    avgs = exp._cube_averages(u, layer, 4)
    assert np.allclose(avgs, 1.0)
    assert rep.layer_sums[0] == pytest.approx(layer.count, rel=1e-12)
    assert np.isfinite(rep.minimal_c)


def test_telescope_skips_layers_outside_support():
    slab = geo.Slab(n=1, d=2)
    u = quad.TensorBump((0.0, 0.5), (0.6, 0.35))  # support heights [0.15, 0.85]
    rep = exp.telescoping_reconstruction(slab, u, fp(2, "2", "1/2", "2"), -6)
    assert set(rep.skipped_layers) == {-6, -5, -4}
    for k, a in zip(range(-6, 0), rep.layer_sums):
        if k in rep.skipped_layers:
            assert a == 0.0


def test_telescope_rejects_non_slab():
    with pytest.raises(UnsupportedDomainError):
        exp.telescoping_reconstruction(
            geo.ExteriorBall(1.0, 2),
            quad.TensorBump((2.0, 2.0), (0.3, 0.3)),
            fp(2, "2", "1/2", "2"),
            -4,
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
