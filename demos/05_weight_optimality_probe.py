"""
Probing the optimality of the logarithmic weight exponent
=========================================================

Is the tabulated log exponent beta the right one?  Drive a family of
concentrating log profiles toward the boundary and watch the Hardy ratio:

* at beta the ratios stabilize (the inequality holds),
* at beta - 1 they grow by ~sqrt(2) per level (the weight is too strong:
  no constant works),
* at beta + 1 they decay (the weight is weaker than necessary).

The profiles are trapezoids in log2(2/x): a logarithmic ramp up, a unit
plateau spanning `depth` dyadic levels, and a mirrored ramp down, with the
depth doubling per level.  They are integrated on geometrically graded
meshes (a fixed-size grid per dyadic block), which uniform grids at desk
resolution cannot do.
"""

from fractions import Fraction

from hardylab import experiments as exp
from hardylab import geometry as geo
from hardylab import hardy
from hardylab import quadrature as quad

slab = geo.Slab(n=1, d=1)
fp = quad.FracParams(d=1, p=Fraction(2), s=Fraction(1, 2), tau=Fraction(2))
case = hardy.HardyCase("1b", fp)
beta = hardy.critical_exponents(case).beta
print(f"case 1b: alpha = 1, beta = {beta}\n")

family = exp.LogSpikeFamily(level_range=(3, 8))
signature = exp.three_point_signature(case, slab, family)

for name, probe in (("beta - 1", signature["below"]),
                    ("beta    ", signature["at"]),
                    ("beta + 1", signature["above"])):
    ratios = "  ".join(f"{r:.4f}" for _, r in probe.levels)
    growth = "  ".join(f"{g:.3f}" for g in probe.growth_factors)
    print(f"{name}: verdict = {probe.verdict}")
    print(f"  ratios per level: {ratios}")
    print(f"  growth factors:   {growth}  (threshold {probe.growth_threshold})\n")

print("three-point signature:",
      signature["below"].verdict, "/", signature["at"].verdict, "/",
      signature["above"].verdict)

# best-constant estimation over the sliding-bump family: derivative-free
# simplex search from several seeded starts; the best ratio found is the
# largest midpoint-rule ratio among the members evaluated, not a bound on
# the constant
search = exp.SearchConfig(starts=4, budget_per_start=60, seed=0)
result = exp.estimate_constant(
    exp.BoundaryBumpFamily(), case, slab, search, quad.GridSpec(128, slab.box)
)
print(f"\nbest ratio over the bump family: {result.best_ratio:.6f} "
      f"at log2(h) = {result.best_params[0]:.3f} "
      f"({result.evaluations} evaluations, exhausted={result.budget_exhausted})")
