"""Domain geometry: boundary distance, graph flattening, dyadic decompositions.

The domain catalog is small and fully explicit so that the distance to the
boundary is exact (closed form, or exact point-segment minimization), not
approximated from a mesh.  ``Domain.distance`` is each domain's one
statement of its boundary: the distance at the points of the closed domain
and NaN at the points off it, which ``distance_to_boundary`` rejects:

* ``Slab(n, d)``        -- the box (-n, n)^{d-1} x (0, 1),
* ``ExteriorBall(R, d)`` -- the complement of the closed ball of radius R,
* ``Epigraph(graph, d)`` -- the set above the graph of a Lipschitz function,
* ``BoxDomain(box)``     -- an axis-aligned box,
* ``Polygon2D(vertices)`` -- a simple polygon in the plane.

The slab's dyadic lattice (its layers split into congruent cubes, and the
cube of layer k + 1 directly above each cube of layer k) is stated once, as
integer corner arrays: ``dyadic_corners`` maps cube indices to lower
corners in units of 2^k and ``dyadic_parent`` gives the corners above, so
tiling and parent checks are integer arithmetic, and a cube's box, its
corners times 2^k, is exact in floats.

All objects are immutable values; every operation is a pure function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import ParameterError

__all__ = [
    "Box",
    "LipschitzGraph",
    "AffineGraph",
    "ConeGraph",
    "PiecewiseLinearGraph",
    "Domain",
    "BoxShaped",
    "Slab",
    "ExteriorBall",
    "Epigraph",
    "BoxDomain",
    "Polygon2D",
    "DyadicLayer",
    "Annulus",
    "distance_to_boundary",
    "flatten",
    "unflatten",
    "pullback",
    "bilipschitz_bound",
    "dyadic_corners",
    "dyadic_parent",
    "dyadic_layers",
    "parent_cube",
    "unit_ball_volume",
]


# ---------------------------------------------------------------------------
# boxes


@dataclass(frozen=True)
class Box:
    """Axis-aligned box, the shared region/support value type."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ParameterError("box corners must have equal dimension")
        if not all(a < b for a, b in zip(self.lo, self.hi)):
            raise ParameterError(f"box must have positive extent: {self.lo} .. {self.hi}")

    @property
    def d(self) -> int:
        return len(self.lo)

    @property
    def center(self) -> tuple[float, ...]:
        return tuple(0.5 * (a + b) for a, b in zip(self.lo, self.hi))

    def sides(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in zip(self.lo, self.hi))

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """True for points of the closed box."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((pts >= lo) & (pts <= hi), axis=-1)

    def scaled(self, factor: float) -> "Box":
        return Box(tuple(factor * a for a in self.lo), tuple(factor * b for b in self.hi))

    def intersect(self, other: "Box") -> "Box | None":
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        if any(a >= b for a, b in zip(lo, hi)):
            return None
        return Box(lo, hi)

    def corners(self) -> np.ndarray:
        grids = np.meshgrid(*[(a, b) for a, b in zip(self.lo, self.hi)], indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)


def unit_ball_volume(d: int) -> float:
    """Volume of the unit Euclidean ball in R^d."""
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


# ---------------------------------------------------------------------------
# Lipschitz graph catalog

# The catalog is closed-form only: the Lipschitz constant M is known exactly,
# which the flattening/distance-equivalence assertions require.


class LipschitzGraph:
    """A function gamma: R^{d-1} -> R with a known Lipschitz constant."""

    #: exact Lipschitz constant
    M: float
    #: the dimension d of the epigraphs the graph is stated for; None for any
    d: int | None = None

    def gamma(self, xp: np.ndarray) -> np.ndarray:
        """Evaluate gamma on points xp of shape (..., d-1)."""
        raise NotImplementedError

    def range_on_box(self, lo: Sequence[float], hi: Sequence[float]) -> tuple[float, float]:
        """Exact (min, max) of gamma over the box lo..hi in R^{d-1}."""
        raise NotImplementedError

    def distance(self, pts: np.ndarray) -> np.ndarray:
        """Exact distance to the graph of (N, d) points on or above it."""
        raise NotImplementedError


@dataclass(frozen=True)
class AffineGraph(LipschitzGraph):
    """gamma(x') = slope . x' + offset, stated for d = len(slope) + 1.  A zero
    slope and offset is the flat graph: its epigraph is the upper half-space."""

    slope: tuple[float, ...]
    offset: float = 0.0

    @property
    def d(self) -> int:  # type: ignore[override]
        return len(self.slope) + 1

    @property
    def M(self) -> float:
        return float(np.linalg.norm(self.slope))

    def gamma(self, xp):
        xp = np.asarray(xp, dtype=float)
        return xp @ np.asarray(self.slope) + self.offset

    def range_on_box(self, lo, hi):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        s = np.asarray(self.slope, dtype=float)
        low = float(np.sum(np.where(s >= 0, s * lo, s * hi)) + self.offset)
        high = float(np.sum(np.where(s >= 0, s * hi, s * lo)) + self.offset)
        return (low, high)

    def distance(self, pts):
        # rounding can take a point on the graph a hair below it; it is at 0
        a = np.asarray(self.slope, dtype=float)
        dist = (pts[..., -1] - pts[..., :-1] @ a - self.offset) / math.sqrt(1.0 + float(a @ a))
        return np.maximum(dist, 0.0)


@dataclass(frozen=True)
class ConeGraph(LipschitzGraph):
    """gamma(x') = slope * |x'| (Euclidean norm), slope >= 0."""

    slope: float = 1.0

    def __post_init__(self):
        if self.slope < 0:
            raise ParameterError("cone slope must be >= 0")

    @property
    def M(self) -> float:
        return float(self.slope)

    def gamma(self, xp):
        xp = np.asarray(xp, dtype=float)
        return self.slope * np.linalg.norm(xp, axis=-1)

    def range_on_box(self, lo, hi):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        # nearest / farthest point of the box from the origin, per axis
        near = np.where(lo > 0, lo, np.where(hi < 0, hi, 0.0))
        far = np.where(np.abs(lo) > np.abs(hi), lo, hi)
        return (
            float(self.slope * np.linalg.norm(near)),
            float(self.slope * np.linalg.norm(far)),
        )

    def distance(self, pts):
        # reduce to the (r, z) half-plane: the boundary trace is the ray
        # {(t, slope*t): t >= 0}, whose projection parameter is always
        # nonnegative here, so the ray distance is the line distance
        r = np.linalg.norm(pts[..., :-1], axis=-1)
        return (pts[..., -1] - self.slope * r) / math.sqrt(1.0 + self.slope**2)


@dataclass(frozen=True)
class PiecewiseLinearGraph(LipschitzGraph):
    """Piecewise-linear gamma over R (so d = 2 epigraphs only).

    ``breakpoints`` are (t, y) pairs with strictly increasing t; the graph is
    extended beyond the first/last breakpoint with the end segment slopes.
    """

    breakpoints: tuple[tuple[float, float], ...]
    d = 2

    def __post_init__(self):
        if len(self.breakpoints) < 2:
            raise ParameterError("need at least two breakpoints")
        ts = [t for t, _ in self.breakpoints]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ParameterError("breakpoint abscissae must be strictly increasing")

    def _slopes(self) -> np.ndarray:
        pts = np.asarray(self.breakpoints, dtype=float)
        return np.diff(pts[:, 1]) / np.diff(pts[:, 0])

    @property
    def M(self) -> float:
        return float(np.max(np.abs(self._slopes())))

    def gamma(self, xp):
        xp = np.asarray(xp, dtype=float)
        t = xp[..., 0]
        pts = np.asarray(self.breakpoints, dtype=float)
        ts, ys = pts[:, 0], pts[:, 1]
        slopes = self._slopes()
        idx = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(slopes) - 1)
        return ys[idx] + slopes[idx] * (t - ts[idx])

    def range_on_box(self, lo, hi):
        a, b = float(lo[0]), float(hi[0])
        cand = [a, b] + [t for t, _ in self.breakpoints if a < t < b]
        vals = self.gamma(np.asarray(cand, dtype=float)[:, None])
        return (float(np.min(vals)), float(np.max(vals)))

    def distance(self, pts):
        bp = np.asarray(self.breakpoints, dtype=float)
        slopes = self._slopes()
        # finite segments between consecutive breakpoints
        best = np.full(pts.shape[0], np.inf)
        for i in range(len(bp) - 1):
            best = np.minimum(best, _point_segment_distance(pts, bp[i], bp[i + 1]))
        # infinite end rays, parametrized away from the extreme breakpoints
        for corner, slope, direction in (
            (bp[0], slopes[0], -1.0),
            (bp[-1], slopes[-1], 1.0),
        ):
            ray = np.array([direction, direction * slope])
            ray /= np.linalg.norm(ray)
            rel = pts - corner
            t = np.maximum(rel @ ray, 0.0)
            foot = corner + t[:, None] * ray
            best = np.minimum(best, np.linalg.norm(pts - foot, axis=-1))
        return best


def _point_segment_distance(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact Euclidean distance from each point to the segment [a, b]."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ab = b - a
    denom = float(ab @ ab)
    t = np.clip((pts - a) @ ab / denom, 0.0, 1.0)
    foot = a + t[:, None] * ab
    return np.linalg.norm(pts - foot, axis=-1)


def flatten(graph: LipschitzGraph, x: np.ndarray) -> np.ndarray:
    """Shear x = (x', x_d) to (x', x_d - gamma(x')).

    Maps the epigraph of ``graph`` onto the upper half-space; the last
    coordinate of the image is comparable to the boundary distance.
    """
    x = np.asarray(x, dtype=float)
    out = np.array(x, dtype=float, copy=True)
    out[..., -1] = x[..., -1] - graph.gamma(x[..., :-1])
    return out


def unflatten(graph: LipschitzGraph, xi: np.ndarray) -> np.ndarray:
    """Inverse shear: (xi', xi_d) -> (xi', xi_d + gamma(xi'))."""
    xi = np.asarray(xi, dtype=float)
    out = np.array(xi, dtype=float, copy=True)
    out[..., -1] = xi[..., -1] + graph.gamma(xi[..., :-1])
    return out


def pullback(u: Callable[[np.ndarray], np.ndarray], graph: LipschitzGraph):
    """Compose u with the inverse shear: xi -> u(xi', xi_d + gamma(xi')).

    The shear has unit Jacobian, so integrals of ``u`` over a set equal
    integrals of the pullback over the sheared image of the set.
    """

    def composed(xi: np.ndarray) -> np.ndarray:
        return np.asarray(u(unflatten(graph, xi)))

    return composed


def bilipschitz_bound(M: float) -> float:
    """Upper bound sqrt(2 M^2 + 2) for the shear's bilipschitz distortion.

    Both the shear and its inverse expand distances by at most this factor,
    so the last flattened coordinate brackets the boundary distance within
    this factor on either side.
    """
    if M < 0:
        raise ParameterError("Lipschitz constant must be >= 0")
    return math.sqrt(2.0 * M * M + 2.0)


# ---------------------------------------------------------------------------
# domains


class Domain:
    """Base class of the domain catalog."""

    d: int
    kind: str

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """True for points of the open domain: by default, at distance > 0."""
        pts, _ = _as_points(pts, self.d)
        return self.distance(pts) > 0

    def distance(self, pts: np.ndarray) -> np.ndarray:
        """Distance to the boundary of each of the (N, d) points, NaN off
        the closed domain: lo <= x <= hi for a box, |x| >= R for the
        exterior ball, x_d >= gamma(x') for an epigraph, and for a polygon
        its inside and the points within 1e-12 of an edge."""
        raise NotImplementedError

    def bounding_box(self) -> Box | None:
        """Bounding box for bounded domains, None otherwise."""
        return None

    def holds(self, box: Box) -> bool:
        """Whether the closed box lies in the closed domain, by the test this
        domain states beside its geometry.  A domain that states none holds
        every box: a box-shaped domain's grid box is already clipped to the
        domain, and a polygon keeps the truncation-box rule alone."""
        return True


def _as_points(x, d: int) -> tuple[np.ndarray, bool]:
    pts = np.asarray(x, dtype=float)
    scalar = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[-1] != d:
        raise ParameterError(f"expected points in R^{d}, got shape {pts.shape}")
    return pts, scalar


class BoxShaped(Domain):
    """Open axis-aligned box domain; subclasses provide ``box``."""

    box: Box

    def distance(self, pts):
        box = self.box
        gaps = np.minimum(pts - np.asarray(box.lo), np.asarray(box.hi) - pts)
        dist = np.min(gaps, axis=-1)  # exactly >= 0 where lo <= x <= hi
        return np.where(dist >= 0, dist, np.nan)

    def bounding_box(self) -> Box:
        return self.box


@dataclass(frozen=True)
class Slab(BoxShaped):
    """The box (-n, n)^{d-1} x (0, 1); for d = 1 just the interval (0, 1)."""

    n: int
    d: int
    kind = "slab"

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ParameterError("slab needs n >= 1 and d >= 1")

    @property
    def box(self) -> Box:
        lo = (-float(self.n),) * (self.d - 1) + (0.0,)
        hi = (float(self.n),) * (self.d - 1) + (1.0,)
        return Box(lo, hi)


@dataclass(frozen=True)
class ExteriorBall(Domain):
    """Complement of the closed ball of radius R about the origin."""

    R: float
    d: int
    kind = "exterior_ball"

    def __post_init__(self):
        if self.R <= 0:
            raise ParameterError("ball radius must be positive")
        if self.d < 1:
            raise ParameterError("dimension must be >= 1")

    def distance(self, pts):
        dist = np.linalg.norm(pts, axis=-1) - self.R  # exactly >= 0 where |x| >= R
        return np.where(dist >= 0, dist, np.nan)

    def holds(self, box: Box) -> bool:
        """The box's nearest point to the centre lies at distance >= R."""
        nearest = np.clip(0.0, box.lo, box.hi)
        return bool(np.linalg.norm(nearest) >= self.R)


@dataclass(frozen=True)
class Epigraph(Domain):
    """Points strictly above the graph of a Lipschitz function."""

    graph: LipschitzGraph
    d: int
    kind = "epigraph"

    def __post_init__(self):
        if self.d < 2:
            raise ParameterError("epigraph domains need d >= 2")
        if self.graph.d not in (None, self.d):
            raise ParameterError(f"{type(self.graph).__name__} is stated for d = {self.graph.d}")

    def contains(self, pts):
        pts, _ = _as_points(pts, self.d)
        return pts[..., -1] > self.graph.gamma(pts[..., :-1])

    def distance(self, pts):
        # not the sign of the distance: an affine graph's is 0 on both sides
        # of the graph within rounding
        on_or_above = pts[..., -1] >= self.graph.gamma(pts[..., :-1])
        return np.where(on_or_above, self.graph.distance(pts), np.nan)

    def holds(self, box: Box) -> bool:
        """The box's lower face lies on or above the graph's maximum over
        the box's shadow."""
        return box.lo[-1] >= self.graph.range_on_box(box.lo[:-1], box.hi[:-1])[1]


@dataclass(frozen=True)
class BoxDomain(BoxShaped):
    """An open axis-aligned box."""

    box: Box
    kind = "box"

    @property
    def d(self) -> int:
        return self.box.d


@dataclass(frozen=True)
class Polygon2D(Domain):
    """Open simple polygon given by its vertex loop (counter- or clockwise)."""

    vertices: tuple[tuple[float, float], ...]
    kind = "polygon"
    d = 2

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise ParameterError("polygon needs at least three vertices")
        if self._self_intersects():
            raise ParameterError("polygon must be simple (non-self-intersecting)")

    def _edges(self) -> np.ndarray:
        v = np.asarray(self.vertices, dtype=float)
        return np.stack([v, np.roll(v, -1, axis=0)], axis=1)  # (m, 2, 2)

    def _self_intersects(self) -> bool:
        edges = self._edges()
        m = len(edges)

        def orient(p, q, r):
            return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

        for i in range(m):
            for j in range(i + 1, m):
                if j == i or (i + 1) % m == j or (j + 1) % m == i:
                    continue  # adjacent edges share a vertex
                p1, p2 = edges[i]
                q1, q2 = edges[j]
                d1 = orient(p1, p2, q1)
                d2 = orient(p1, p2, q2)
                d3 = orient(q1, q2, p1)
                d4 = orient(q1, q2, p2)
                if (d1 * d2 < 0) and (d3 * d4 < 0):
                    return True
        return False

    def contains(self, pts):
        pts, _ = _as_points(pts, 2)
        x, y = pts[:, 0], pts[:, 1]
        inside = np.zeros(len(pts), dtype=bool)
        for (x1, y1), (x2, y2) in self._edges():
            crosses = (y1 > y) != (y2 > y)
            with np.errstate(divide="ignore", invalid="ignore"):
                xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            inside ^= crosses & (x < np.where(crosses, xint, np.inf))
        return inside

    def distance(self, pts):
        best = np.full(len(pts), np.inf)
        for a, b in self._edges():
            best = np.minimum(best, _point_segment_distance(pts, a, b))
        return np.where(self.contains(pts) | (best <= 1e-12), best, np.nan)

    def bounding_box(self) -> Box:
        v = np.asarray(self.vertices, dtype=float)
        return Box(tuple(v.min(axis=0)), tuple(v.max(axis=0)))


def distance_to_boundary(domain: Domain, x) -> float | np.ndarray:
    """Exact Euclidean distance from x to the domain boundary.

    Raises ParameterError if any point lies outside the closed domain.
    """
    pts, scalar = _as_points(x, domain.d)
    dist = domain.distance(pts)
    off = np.isnan(dist)
    if np.any(off):
        raise ParameterError(f"point {tuple(pts[off][0].tolist())} lies outside the closed domain")
    return float(dist[0]) if scalar else dist


# ---------------------------------------------------------------------------
# dyadic decomposition of the slab


def dyadic_corners(k, index, n: int, d: int) -> np.ndarray:
    """Lower corners, in units of 2^k, of the cubes at the flat ``index`` of
    layer k of the slab (-n, n)^{d-1} x (0, 1): the transverse axes in
    lexicographic order, the first varying slowest, shifted to start at
    -n 2^{-k}, and the x_d index 1 (heights 2^k to 2^{k+1}).  ``k`` and
    ``index`` broadcast; the corners are an integer array with a last axis
    of length d, and the cube is ldexp(corner, k) to ldexp(corner + 1, k),
    exactly."""
    k, rem = np.asarray(k), np.asarray(index)
    corners = np.ones(np.broadcast(k, rem).shape + (d,), dtype=np.int64)
    if d > 1:  # no transverse axis in d = 1, whose layers go far below 2^-63
        if np.any(n * np.exp2(-k) >= 2.0**62):
            raise ParameterError("the layer's transverse corners overflow int64")
        half = n * 2 ** -k
        for axis in range(d - 2, -1, -1):
            rem, pos = np.divmod(rem, 2 * half)
            corners[..., axis] = pos - half
    return corners


def dyadic_parent(k, corners: np.ndarray) -> tuple:
    """Layer and corners of the cube of layer k + 1 directly above each cube
    of layer k: the one whose transverse shadow contains the cube's."""
    above = np.array(corners)
    above[..., :-1] //= 2
    return k + 1, above


@dataclass(frozen=True, eq=False, repr=False)
class DyadicLayer:
    """Horizontal layer 2^k <= x_d < 2^{k+1} of a slab, tiled by cubes.

    The layer over (-n, n)^{d-1} splits into exactly
    2^{(-k+1)(d-1)} n^{d-1} congruent cubes of side 2^k, indexed as
    ``dyadic_corners`` lists them.
    """

    k: int
    n: int
    d: int

    def __post_init__(self):
        if self.k > -1:
            raise ParameterError("layer index must be <= -1")

    @property
    def cubes_per_axis(self) -> int:
        # number of side-2^k cubes covering (-n, n) in one transverse axis
        return self.n * 2 ** (-self.k + 1)

    @property
    def count(self) -> int:
        return self.cubes_per_axis ** (self.d - 1)

    @property
    def measure(self) -> Fraction:
        """Exact measure of the layer, 2^{d-1} n^{d-1} 2^k."""
        s = Fraction(1, 2 ** (-self.k))
        return (2 * self.n) ** (self.d - 1) * s

    def corners(self, index=None) -> np.ndarray:
        """``dyadic_corners`` of the cubes at ``index``, of all cubes in
        index order by default."""
        index = np.arange(self.count) if index is None else np.asarray(index)
        if np.any((index < 0) | (index >= self.count)):
            raise ParameterError(f"cube index out of range 0..{self.count - 1}")
        return dyadic_corners(self.k, index, self.n, self.d)

    def boxes(self, index) -> list[Box]:
        """The boxes of the cubes at ``index``, one per index, in order."""
        corners = self.corners(index)
        lo, hi = np.ldexp(corners, self.k).tolist(), np.ldexp(corners + 1, self.k).tolist()
        return [Box(tuple(a), tuple(b)) for a, b in zip(lo, hi)]


def dyadic_layers(slab: Domain, m: int) -> list[DyadicLayer]:
    """Layers k = m..-1 of a slab, each tiled into its dyadic cubes."""
    if not isinstance(slab, Slab):
        raise ParameterError("dyadic layers are defined for slab domains only")
    if m > -1:
        raise ParameterError("deepest layer index m must be <= -1")
    return [DyadicLayer(k, slab.n, slab.d) for k in range(m, 0)]


def parent_cube(layer: DyadicLayer, child_index: int) -> int:
    """Index in layer k+1 of the cube directly above the given child cube.

    Exactly 2^{d-1} cubes of layer k sit below each cube of layer k+1; the
    parent is the unique cube whose transverse shadow contains the child's.
    """
    if layer.k == -1:
        raise ParameterError("layer -1 has no parent layer")
    k, corner = dyadic_parent(layer.k, layer.corners(child_index))
    parents = DyadicLayer(k, layer.n, layer.d).corners()
    return int(np.flatnonzero(np.all(parents == corner, axis=-1))[0])


# ---------------------------------------------------------------------------
# annuli around a ball


@dataclass(frozen=True, eq=False, repr=False)
class Annulus:
    """Spherical shell inner < |x| <= outer."""

    inner: float
    outer: float
    d: int

    def __post_init__(self):
        if not 0 < self.inner < self.outer:
            raise ParameterError("need 0 < inner < outer")

    @property
    def measure(self) -> float:
        w = unit_ball_volume(self.d)
        return w * (self.outer**self.d - self.inner**self.d)

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        r = np.linalg.norm(pts, axis=-1)
        return (r > self.inner) & (r <= self.outer)

    def bounding_box(self) -> Box:
        return Box((-self.outer,) * self.d, (self.outer,) * self.d)

    def scaled(self, factor: float) -> "Annulus":
        return Annulus(self.inner * factor, self.outer * factor, self.d)
