"""
Critical exponent tables and empirical Hardy ratios
===================================================

At the critical couplings s*p = 1 (bounded and graph domains) and
s*p = d (exterior domains) the plain boundary Hardy inequality fails; a
logarithmic weight with tabulated exponents (alpha, beta) restores it.
This demo prints the exponent table and measures the empirical constant
lhs(u) / ||u|| for concrete test functions.
"""

from fractions import Fraction

from hardylab import geometry as geo
from hardylab import hardy
from hardylab import quadrature as quad


def params(d, p, s, tau):
    return quad.FracParams(d=d, p=Fraction(p), s=Fraction(s), tau=Fraction(tau))


print("case | d  p    s    tau  -> alpha, beta")
table = [
    ("1a", params(2, "2", "1/2", "2")),
    ("1a", params(2, "2", "1/2", "3")),
    ("1a", params(2, "2", "1/2", "4")),
    ("1b", params(1, "2", "1/2", "2")),
    ("1c", params(2, "2", "1/2", "3/2")),
    ("2a", params(2, "4", "1/2", "5")),
    ("2b", params(2, "4", "1/2", "3")),
    ("3a", params(3, "3", "1/3", "4")),
]
for cid, fp in table:
    w = hardy.critical_exponents(hardy.HardyCase(cid, fp))
    print(f" {cid}  | {fp.d}  {fp.p}  {fp.s}  {fp.tau}   -> {w.alpha}, {w.beta}  ({w.rho_kind})")

# the weight itself: 1 / (x_d^alpha * ln^beta(2/x_d)) on a slab
w = hardy.WeightSpec(Fraction(1), Fraction(2), "flat_slab")
print("\nweight at height 1/2:", hardy.weight_value(w, None, [0.5]), "= 2/ln^2(4)")

# empirical constants: bumps sliding toward the boundary keep a bounded
# ratio exactly because the weight's log exponent is right
slab = geo.Slab(n=1, d=1)
case = hardy.HardyCase("1b", params(1, "2", "1/2", "2"))
spec = quad.GridSpec(128, slab.box)
print("\ngap h    hardy ratio")
for k in range(2, 8):
    h = 2.0**-k
    u = quad.TensorBump((h + 0.25,), (0.25,))
    print(f"2^-{k}   {hardy.hardy_ratio(u, slab, case, spec):.6f}")

# a bounded polygonal domain runs the same functional with rho = 2R/delta
square = geo.Polygon2D(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
case2d = hardy.HardyCase("1a", params(2, "2", "1/2", "2"))
u3 = quad.TensorBump((0.5, 0.5), (0.3, 0.3))
ratio = hardy.hardy_ratio(u3, square, case2d, quad.GridSpec(32, square.bounding_box()))
print(f"\nunit-square polygon, case 1a ratio: {ratio:.6f}")
