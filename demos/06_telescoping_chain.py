"""
Reconstructing the dyadic telescoping chain on a slab
=====================================================

The slab estimate moves weighted cube averages from each dyadic layer to
the one above it, paying a seminorm toll per transfer.  This demo rebuilds
every intermediate quantity at several depths: the per-layer sums a_k of
|cube average|^tau, the overlapping seminorm terms, and the smallest
constant C that closes the chain

    sum_k 2^{k(d-alpha)} (-k)^{-tau} a_k  <=  top term + C * seminorm toll.

The scientific content is uniformity: C must not grow as the chain deepens.
"""

from fractions import Fraction

from hardylab import experiments as exp
from hardylab import geometry as geo
from hardylab import quadrature as quad

slab = geo.Slab(n=1, d=2)
fp = quad.FracParams(d=2, p=Fraction(2), s=Fraction(1, 2), tau=Fraction(2))

battery = {
    "mid-height bump": quad.TensorBump((0.0, 0.5), (0.6, 0.35)),
    "deep bump": quad.TensorBump((0.0, 0.28), (0.5, 0.25)),
    "wide deep bump": quad.TensorBump((0.2, 0.4), (0.7, 0.37)),
}

depths = (-4, -5, -6)
reports = {}
for name, u in battery.items():
    # one call walks the layers once and reports every depth
    reports[name] = exp.telescoping_reconstruction(slab, u, fp, depths, cells_per_cube=4)
    print(f"{name}:")
    for rep in reports[name]:
        print(
            f"  depth m={rep.m}: minimal C = {rep.minimal_c:.6f}, "
            f"lhs = {rep.lhs:.6f}, top term = {rep.top_term:.6f}, "
            f"skipped layers = {list(rep.skipped_layers)}"
        )
    # the CLI's `stable` gate: constants within 50 % at two or more depths,
    # none of which skips its deepest layer
    within, stable = exp.telescope_verdict(reports[name])
    print(f"  within 50 %: {within}, stable: {stable}")
    print()

# one full report in detail
rep = reports["deep bump"][depths.index(-5)]
print("layer-by-layer at m = -5 (k, cubes, a_k, seminorm^tau term):")
for k, count, a_k, s_k in zip(
    range(-5, 0), rep.layer_counts, rep.layer_sums, rep.seminorm_terms
):
    print(f"  k={k}: {count:3d} cubes   a_k = {a_k:.6e}   toll = {s_k:.6e}")
