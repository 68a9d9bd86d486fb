"""
Domains, boundary distance, and graph flattening
================================================

The domain catalog keeps the distance to the boundary exact: slabs and
boxes measure the gap to the nearest face, the exterior of a ball is
radial, epigraphs of the closed-form graph catalog have closed-form
distances, and polygons minimize over their edges.
"""

from fractions import Fraction

import numpy as np

from hardylab import geometry as geo

# a slab (-1, 1) x (0, 1): the nearest face wins
slab = geo.Slab(n=1, d=2)
for x in [(0.0, 0.1), (0.95, 0.5), (-0.2, 0.85)]:
    print(f"slab distance at {x}: {geo.distance_to_boundary(slab, np.array(x)):.4f}")

# exterior of the unit ball: distance is |x| - R
ball = geo.ExteriorBall(R=1.0, d=2)
print("exterior distance at (2, 0):", geo.distance_to_boundary(ball, np.array([2.0, 0.0])))

# the set above the cone gamma(x') = |x'| and its flattening shear
cone = geo.ConeGraph(1.0)
dom = geo.Epigraph(cone, d=2)
x = np.array([3.0, 5.0])
xi = geo.flatten(cone, x)
print("flatten (3, 5) over the cone:", xi)  # (3, 2)
print("round trip:", geo.unflatten(cone, xi))

# the flattened height brackets the true distance within the closed-form
# distortion bound sqrt(2 M^2 + 2)
C = geo.bilipschitz_bound(cone.M)
delta = geo.distance_to_boundary(dom, x)
print(f"distance {delta:.4f} vs height/C {xi[-1]/C:.4f} and C*height {C*xi[-1]:.4f}")

# sampled pairs never exceed the distortion bound
rng = np.random.default_rng(0)
a = rng.uniform(-4, 4, size=(50_000, 2))
b = rng.uniform(-4, 4, size=(50_000, 2))
ratio = np.linalg.norm(geo.flatten(cone, a) - geo.flatten(cone, b), axis=1)
ratio /= np.linalg.norm(a - b, axis=1)
print(f"max sampled distortion {ratio.max():.4f} <= bound {C:.4f}")

# dyadic layers of the slab: layer k holds 2^{(-k+1)(d-1)} n^{d-1} cubes
for layer in geo.dyadic_layers(slab, -3):
    # distinct integer corners: disjoint cubes, each of measure 2^{kd}
    distinct = len({tuple(c) for c in layer.corners().tolist()})
    total = distinct * Fraction(1, 2 ** (-layer.k * layer.d))
    print(f"layer k={layer.k}: {layer.count} cubes of side 2^{layer.k}, "
          f"tiling measure {total} (exact rational)")

# each cube of layer k sits below a unique parent in layer k+1
layer = geo.DyadicLayer(-2, 1, 2)
fibers = {}
for i in range(layer.count):
    fibers.setdefault(geo.parent_cube(layer, i), []).append(i)
print("parent fibers (all of size 2^{d-1} = 2):", {k: len(v) for k, v in fibers.items()})
