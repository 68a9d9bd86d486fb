"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from hardylab import cli, experiments as exp, geometry as geo, hardy, lemmas
from hardylab import quadrature as quad
from identities import Annulus, maximizer_x0, scaled_sobolev_ratio, telescoping_coefficient_identity


def report(num: int, ok: bool, label: str, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d} [{status}] {label}{extra}")
    assert ok, f"criterion {num}: {label}{extra}"


def fp(d, p, s, tau):
    return quad.FracParams(d=d, p=Fraction(p), s=Fraction(s), tau=Fraction(tau))


# 1 ---------------------------------------------------------------------


def test_criterion_1_exponent_table():
    ok = True
    # every branch, exact rational arithmetic, zero tolerance
    checks = [
        ("1a", fp(2, "2", "1/2", "2"), Fraction(1), Fraction(2)),
        ("1a", fp(2, "2", "1/2", "4"), Fraction(0), Fraction(0)),
        ("1a", fp(3, "3", "1/3", "4"), Fraction(1, 3), Fraction(1)),
        ("1b", fp(1, "2", "1/2", "3"), Fraction(1), Fraction(3)),
        ("1c", fp(2, "2", "1/2", "3/2"), Fraction(1), Fraction(2)),
        ("2a", fp(2, "4", "1/2", "5"), Fraction(2), Fraction(5)),
        ("2b", fp(2, "4", "1/2", "3"), Fraction(2), Fraction(4)),
        ("3a", fp(2, "2", "1/2", "3"), Fraction(1, 2), Fraction(1)),
        ("3b", fp(1, "2", "1/2", "2"), Fraction(1), Fraction(2)),
        ("3c", fp(3, "3", "1/3", "2"), Fraction(1), Fraction(3)),
    ]
    for cid, params, alpha, beta in checks:
        w = hardy.critical_exponents(hardy.HardyCase(cid, params))
        ok = ok and w.alpha == alpha and w.beta == beta
    # remark bounds on a rational grid of tau in [p, p*]
    for d, p, s in [(2, "2", "1/2"), (3, "3", "1/3")]:
        base = fp(d, p, s, p)
        for j in range(0, 25):
            tau = base.p + (base.p_star - base.p) * Fraction(j, 24)
            w = hardy.critical_exponents(hardy.HardyCase("1a", fp(d, p, s, tau)))
            expect_alpha = Fraction(d) + (1 - d) * tau / base.p
            expect_beta = d * base.p + (1 - d) * tau
            ok = ok and w.alpha == expect_alpha and w.beta == expect_beta
            ok = ok and 0 <= w.alpha <= 1 and w.beta <= tau
    report(1, ok, "exponent table reproduces every branch exactly")


# 2 ---------------------------------------------------------------------


def test_criterion_2_elementary_inequality_sweep():
    worst, info = lemmas.elementary_inequality_sweep(count=100_000, seed=20240809)
    sweep_ok = worst >= -1e-12
    rng = np.random.default_rng(20240809)
    eq_ok = True
    worst_eq = 0.0
    for _ in range(200):
        c = float(rng.uniform(1.05, 10.0))
        tau = float(rng.uniform(1.2, 6.0))
        x0 = maximizer_x0(c, tau)
        slack = lemmas.elementary_inequality_slack(x0, 1.0, c, tau).slack
        worst_eq = max(worst_eq, abs(slack))
        eq_ok = eq_ok and abs(slack) <= 1e-9
    report(
        2,
        sweep_ok and eq_ok,
        "two-term bound: 1e5 draws slack >= -1e-12, equality at x0 to 1e-9",
        f"min slack {worst:.2e}, max |slack at x0| {worst_eq:.2e}",
    )


# 3 ---------------------------------------------------------------------


def test_criterion_3_average_difference_battery():
    worst, ran = lemmas.adjacent_pair_battery(count=1000, seed=7, cells_per_axis=8)
    report(
        3,
        ran == 1000 and worst >= -1e-9,
        "average-difference bound with pinned C = 2^tau over 1000 dyadic pairs",
        f"min slack {worst:.2e}",
    )


# 4 ---------------------------------------------------------------------


def test_criterion_4_seminorm_oracle():
    dom = geo.Slab(n=1, d=1)
    u = quad.AxisPolynomial((0.0, 1.0), dom.box)
    val = quad.gagliardo_seminorm(
        u, dom, fp(1, "2", "1/2", "2"), quad.GridSpec(128, dom.box)
    )
    report(
        4,
        abs(val - 1.0) <= 0.01,
        "critical seminorm of u(x) = x on (0,1) equals 1 within 1%",
        f"got {val:.12f}",
    )


# 5 ---------------------------------------------------------------------


def test_criterion_5_dilation_law():
    ok = True
    details = []
    cases = [
        (1, "2", "1/2", geo.Box((0.0,), (1.0,)), 128),  # d=1, sp=1
        (2, "2", "1/2", geo.Box((0.0, 0.0), (1.0, 1.0)), 64),  # d=2, sp=1
        (2, "4", "1/2", geo.Box((0.0, 0.0), (1.0, 1.0)), 64),  # d=2, sp=2
    ]
    for d, p, s, box, res in cases:
        params = fp(d, p, s, "2")
        u = quad.TensorBump((0.5,) * d, (0.35,) * d)
        base = quad.gagliardo_seminorm(u, None, params, quad.GridSpec(res, box))
        for lam in (0.5, 0.25):
            val = quad.gagliardo_seminorm(
                u.dilated(lam), None, params, quad.GridSpec(res, box.scaled(lam))
            )
            ratio = val ** float(params.p) / base ** float(params.p)
            target = lam ** (d - float(params.sp))
            ok = ok and abs(ratio / target - 1.0) <= 0.02
            details.append(f"d={d} sp={params.sp} lam={lam}: {ratio/target:.6f}")
    report(5, ok, "dilation law within 2% for lam in {1/2, 1/4}", "; ".join(details[:2]))


# 6 ---------------------------------------------------------------------


def test_criterion_6_scaled_oscillation_uniformity():
    ok = True
    details = []
    # cube profile, d = 1, sp = 1
    u1 = quad.TensorBump((0.5,), (0.4,))
    vals = [
        scaled_sobolev_ratio(
            u1, lam, fp(1, "2", "1/2", "2"), 2.0, resolution=64,
            region=geo.Box((0.0,), (1.0,)),
        )
        for lam in (1.0, 0.5, 0.25, 0.125)
    ]
    spread = max(vals) / min(vals) - 1.0
    ok = ok and spread <= 0.03
    details.append(f"cube spread {spread:.2e}")
    # annulus profile, d = 2, sp = 2
    u2 = quad.TensorBump((1.5, 0.0), (0.35, 0.35))
    ring = Annulus(1.0, 2.0, 2)
    vals = [
        scaled_sobolev_ratio(
            u2, lam, fp(2, "4", "1/2", "4"), 4.0, resolution=32, region=ring
        )
        for lam in (1.0, 0.5, 0.25, 0.125)
    ]
    spread = max(vals) / min(vals) - 1.0
    ok = ok and spread <= 0.03
    details.append(f"annulus spread {spread:.2e}")
    report(6, ok, "scaled oscillation/seminorm ratio varies <= 3% across lam", "; ".join(details))


# 7 ---------------------------------------------------------------------


def test_criterion_7_hardy_boundedness_signature():
    dom = geo.Slab(n=1, d=1)
    case = hardy.HardyCase("1b", fp(1, "2", "1/2", "2"))
    spec = quad.GridSpec(128, dom.box)
    ratios = []
    for k in range(2, 8):
        u = quad.TensorBump((2.0**-k + 0.25,), (0.25,))
        ratios.append(hardy.hardy_ratio(u, dom, case, spec))
    spread = max(ratios) / min(ratios)
    report(
        7,
        spread <= 10.0,
        "boundary-bump sweep ratios bounded (max/min <= 10)",
        f"max/min = {spread:.3f}",
    )


# 8 ---------------------------------------------------------------------


def test_criterion_8_optimality_three_point_signature():
    dom = geo.Slab(n=1, d=1)
    case = hardy.HardyCase("1b", fp(1, "2", "1/2", "2"))
    sig = exp.three_point_signature(case, dom, exp.LogSpikeFamily(level_range=(3, 8)))
    ok = (
        sig["at"].verdict == "bounded"
        and sig["below"].verdict == "diverging"
        and sig["above"].verdict == "bounded"
        and len(sig["below"].levels) >= 4
        and sig["below"].growth_threshold == 1.15
    )
    detail = ", ".join(
        f"{k}: {v.verdict}" for k, v in (("below", sig["below"]), ("at", sig["at"]), ("above", sig["above"]))
    )
    report(8, ok, "weight optimality signature (bounded / diverging / bounded)", detail)


# 9 ---------------------------------------------------------------------


def test_criterion_9_telescoping_reconstruction():
    slab = geo.Slab(n=1, d=2)
    params = fp(2, "2", "1/2", "2")
    battery = [
        quad.TensorBump((0.0, 0.5), (0.6, 0.35)),
        quad.TensorBump((0.0, 0.28), (0.5, 0.25)),
        quad.TensorBump((0.2, 0.4), (0.7, 0.37)),
    ]
    ok = True
    spreads = []
    for u in battery:
        reports = exp.telescoping_reconstruction(slab, u, params, (-4, -5, -6))
        cs = [rep.minimal_c for rep in reports]
        spread = max(cs) / min(cs)
        spreads.append(spread)
        ok = ok and spread <= 1.5
    # closed-form coefficient identity, exact for k = -2..-40
    for k in range(-40, -1):
        a, b = lemmas.telescoping_coefficient_parts(k)
        ok = ok and a == b
        lhs, rhs = telescoping_coefficient_identity(k, 2.0)
        ok = ok and lhs == rhs
    report(
        9,
        ok,
        "telescoping minimal C stable within +-50%; coefficient identity exact",
        f"spreads {['%.3f' % s for s in spreads]}",
    )


# 10 --------------------------------------------------------------------


def test_criterion_10_flattening_checks():
    rng = np.random.default_rng(2024)
    ok = True
    worst = 0.0
    for graph in [
        geo.AffineGraph((0.0,)),
        geo.AffineGraph((0.75,)),
        geo.ConeGraph(1.0),
        geo.PiecewiseLinearGraph(((-2.0, 0.5), (0.0, -0.5), (1.0, 0.75))),
    ]:
        x = rng.uniform(-4, 4, size=(100_000, 2))
        y = rng.uniform(-4, 4, size=(100_000, 2))
        num = np.linalg.norm(geo.flatten(graph, x) - geo.flatten(graph, y), axis=1)
        den = np.linalg.norm(x - y, axis=1)
        keep = den > 1e-12
        ratio = float(np.max(num[keep] / den[keep]))
        bound = geo.bilipschitz_bound(graph.M)
        worst = max(worst, ratio / bound)
        ok = ok and ratio <= bound + 1e-12
    # unit-Jacobian pullback: integral invariance within 1e-3 relative
    graph = geo.ConeGraph(1.0)
    support = geo.Box((-0.5, 1.2), (0.5, 2.2))
    u = quad.TensorBump(support.center, (0.5, 0.5))
    direct = quad.integrate(u, quad.GridSpec(256, support))
    g_lo, g_hi = graph.range_on_box(support.lo[:-1], support.hi[:-1])
    image = geo.Box(
        support.lo[:-1] + (support.lo[-1] - g_hi,),
        support.hi[:-1] + (support.hi[-1] - g_lo,),
    )
    pulled = quad.integrate(geo.pullback(u, graph), quad.GridSpec(256, image))
    rel = abs(pulled - direct) / direct
    ok = ok and rel <= 1e-3
    report(
        10,
        ok,
        "bilipschitz bound dominates 1e5 sampled pairs; pullback invariant to 1e-3",
        f"max ratio/bound {worst:.4f}, pullback rel err {rel:.2e}",
    )


# 11 --------------------------------------------------------------------


def test_criterion_11_determinism_across_threads():
    slab1 = {"kind": "slab", "n": 1, "d": 1}
    frac1 = {"d": 1, "p": "2", "s": "1/2", "tau": "2"}
    bump1 = {"kind": "tensor_bump", "center": [0.3], "radius": [0.25]}
    suites = [
        {"command": "exponents", "case": "1a",
         "frac": {"d": 2, "p": "2", "s": "1/2", "tau": "2"}},
        {
            "command": "seminorm",
            "domain": {"kind": "slab", "n": 1, "d": 2},
            "frac": {"d": 2, "p": "2", "s": "1/2", "tau": "2"},
            "u": {"kind": "tensor_bump", "center": [0.0, 0.5], "radius": [0.5, 0.3]},
            "resolution": 32,
        },
        {"command": "hardy-check", "domain": slab1, "frac": frac1, "case": "1b",
         "u": bump1, "resolution": 64},
        {"command": "estimate-constant", "domain": slab1, "frac": frac1, "case": "1b",
         "search": {"starts": 2, "budget_per_start": 15}, "resolution": 32, "seed": 3},
        {"command": "lemma-suite", "seed": 5, "elementary_count": 5000, "pair_count": 50},
        {
            "command": "blowup-probe",
            "domain": slab1,
            "frac": frac1,
            "case": "1b",
            "levels": [3, 6],
            "beta_offsets": [-1, 0, 1],
        },
        {
            "command": "telescope",
            "domain": {"kind": "slab", "n": 1, "d": 2},
            "frac": {"d": 2, "p": "2", "s": "1/2", "tau": "2"},
            "u": {"kind": "tensor_bump", "center": [0.0, 0.5], "radius": [0.6, 0.35]},
            "depths": [-4, -5],
        },
    ]
    # ``threads`` is still read and bounded, and no thread is started: the
    # payload is the same at every value of the field
    ok = True
    for suite in suites:
        payloads = set()
        for threads in (1, 2, 8):
            cfg = cli.ExperimentConfig.from_dict(dict(suite, threads=threads))
            record = cli.run(cfg)
            payload = record.numeric_payload()
            payload.pop("config_digest")
            payloads.add(json.dumps(payload, sort_keys=True))
        ok = ok and len(payloads) == 1
    report(11, ok, "numeric outputs byte-identical at threads = 1, 2, 8")
