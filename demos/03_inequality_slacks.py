"""
Supporting inequalities as slack checks
=======================================

Every auxiliary inequality is executable: evaluate both sides, report the
slack RHS - LHS, and pass iff it is not meaningfully negative.  Constants
are pinned (2^tau for the average-difference bound), and tight spots are
certified: the two-term bound holds with equality at the ratio x0.
"""

from hardylab import geometry as geo
from hardylab import lemmas
from hardylab import quadrature as quad

# the two-term bound (|a|+|b|)^tau <= c|a|^tau + (1-c^{-1/(tau-1)})^{1-tau}|b|^tau
rep = lemmas.elementary_inequality_slack(2.0, 3.0, 2.0, 2.5)
print(f"two-term bound at (a,b,c,tau)=(2,3,2,2.5): slack = {rep.slack:.6f} [{rep.verdict}]")

# equality holds exactly at a/b = x0 = 1/(c^{1/(tau-1)} - 1)
c, tau = 2.0, 2.0
x0 = 1.0 / (c ** (1.0 / (tau - 1.0)) - 1.0)
rep = lemmas.elementary_inequality_slack(x0, 1.0, c, tau)
print(f"at the maximizer x0 = {x0}: slack = {rep.slack:.2e} (tight)")

# a seeded hundred-thousand-draw battery
worst, info = lemmas.elementary_inequality_sweep(count=100_000, seed=1)
print(f"random sweep of 1e5 draws: min slack = {worst:.3e}")

# average-difference bound on adjacent halves of (0, 1) with u(x) = x:
# means 1/4 and 3/4, joint oscillation 1/12, pinned constant 2^2 = 4
u = quad.AxisPolynomial((0.0, 1.0), geo.Box((0.0,), (1.0,)))
rep = lemmas.average_difference_slack(
    u, geo.Box((0.0,), (0.5,)), geo.Box((0.5,), (1.0,)), 2.0, cells_per_axis=128
)
print(f"\naverage-difference slack for split linear profile: {rep.slack:.6f} (exact 5/12)")

worst, ran = lemmas.adjacent_pair_battery(count=200, seed=0)
print(f"dyadic adjacent-pair battery ({ran} cases): min slack = {worst:.3e}")

# power-sum bound
rep = lemmas.power_sum_slack([1.0, 1.0], 2.0)
print(f"\npower-sum slack for (1,1), beta=2: {rep.slack} (= 4 - 2)")

# telescoping coefficient bookkeeping: at layer k the base of the tight
# constant, 1 - c^{-1/(tau-1)}, is exactly 1/(2(-k))
for k in (-2, -10, -40):
    from_c, direct = lemmas.telescoping_coefficient_parts(k)
    print(f"k={k}: coefficient base {from_c} == {direct}")
