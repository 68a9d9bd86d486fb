import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab import geometry as geo
from hardylab import quadrature as quad
from hardylab.errors import ParameterError


# ---------------------------------------------------------------------------
# boundary distance


def brute_force_slab_distance(slab: geo.Slab, x, samples=40001):
    """Independent oracle: minimize |x - y| over densely sampled boundary points."""
    box = slab.box
    x = np.asarray(x, dtype=float)
    best = np.inf
    for axis in range(slab.d):
        for val in (box.lo[axis], box.hi[axis]):
            pts = np.empty((samples, slab.d))
            for a in range(slab.d):
                if a == axis:
                    pts[:, a] = val
                else:
                    pts[:, a] = np.linspace(box.lo[a], box.hi[a], samples)
            if slab.d > 2:  # sample faces with a coarse grid instead of a line
                grids = [
                    np.linspace(box.lo[a], box.hi[a], 201) for a in range(slab.d) if a != axis
                ]
                mesh = np.meshgrid(*grids, indexing="ij")
                pts = np.empty((mesh[0].size, slab.d))
                j = 0
                for a in range(slab.d):
                    if a == axis:
                        pts[:, a] = val
                    else:
                        pts[:, a] = mesh[j].ravel()
                        j += 1
            best = min(best, float(np.min(np.linalg.norm(pts - x, axis=1))))
    return best


def test_exterior_ball_distance_radial():
    dom = geo.ExteriorBall(R=1.0, d=2)
    assert geo.distance_to_boundary(dom, np.array([2.0, 0.0])) == pytest.approx(1.0)
    assert geo.distance_to_boundary(dom, np.array([0.0, 3.0])) == pytest.approx(2.0)


def test_flat_epigraph_distance_is_height():
    dom = geo.Epigraph(geo.AffineGraph((0.0,)), d=2)
    assert geo.distance_to_boundary(dom, np.array([5.0, 0.3])) == 0.3


def test_domains_hold_the_boxes_in_their_closure():
    # a box that touches the boundary lies in the closed domain; one that
    # crosses it does not.  A polygon states no test
    ball = geo.ExteriorBall(R=1.0, d=2)
    assert ball.holds(geo.Box((1.0, -0.5), (2.0, 0.5)))
    assert ball.holds(geo.Box((0.8, 0.8), (1.0, 1.0)))  # nearest point |(0.8, 0.8)| > 1
    assert not ball.holds(geo.Box((0.5, 0.5), (1.0, 1.0)))
    assert not ball.holds(geo.Box((-2.0, -2.0), (2.0, 2.0)))  # holds the centre
    cone = geo.Epigraph(geo.ConeGraph(slope=0.5), d=2)
    assert cone.holds(geo.Box((-0.5, 0.25), (0.5, 1.0)))
    assert not cone.holds(geo.Box((-0.5, 0.2), (0.5, 1.0)))
    assert L_SHAPE.holds(geo.Box((1.5, 1.5), (3.0, 3.0)))


def test_slab_distance_matches_brute_force():
    slab = geo.Slab(n=1, d=2)
    for x, expected in [((0.0, 0.1), 0.1), ((0.95, 0.5), 0.05)]:
        d = geo.distance_to_boundary(slab, np.array(x))
        assert d == pytest.approx(expected, abs=1e-12)
        assert d == pytest.approx(brute_force_slab_distance(slab, x), abs=1e-6)


def test_slab_distance_random_points_brute_force():
    rng = np.random.default_rng(7)
    slab = geo.Slab(n=2, d=2)
    pts = np.column_stack(
        [rng.uniform(-1.9, 1.9, size=20), rng.uniform(0.05, 0.95, size=20)]
    )
    for x in pts:
        d = geo.distance_to_boundary(slab, x)
        assert d == pytest.approx(brute_force_slab_distance(slab, x), abs=1e-6)


def test_distance_outside_domain_raises():
    slab = geo.Slab(n=1, d=2)
    # the point is quoted as plain floats, not numpy scalars
    with pytest.raises(ParameterError, match=r"point \(0\.0, 1\.5\) lies outside"):
        geo.distance_to_boundary(slab, np.array([0.0, 1.5]))
    ball = geo.ExteriorBall(R=1.0, d=2)
    with pytest.raises(ParameterError, match=r"point \(0\.5, 0\.0\) lies outside"):
        geo.distance_to_boundary(ball, np.array([0.5, 0.0]))


def test_interior_points_have_positive_distance():
    rng = np.random.default_rng(3)
    domains = [
        geo.Slab(n=1, d=2),
        geo.ExteriorBall(R=1.0, d=2),
        geo.Epigraph(geo.ConeGraph(1.0), d=2),
        geo.BoxDomain(geo.Box((0.0, 0.0), (2.0, 1.0))),
        geo.Polygon2D(((0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0))),
    ]
    for dom in domains:
        pts = rng.uniform(-3, 3, size=(500, 2))
        inside = dom.contains(pts)
        if np.any(inside):
            assert np.all(dom.distance(pts[inside]) > 0)


def test_cone_distance_against_sampled_boundary():
    dom = geo.Epigraph(geo.ConeGraph(1.0), d=2)
    x = np.array([0.5, 2.0])
    t = np.linspace(-20, 20, 400001)
    boundary = np.column_stack([t, np.abs(t)])
    oracle = float(np.min(np.linalg.norm(boundary - x, axis=1)))
    assert geo.distance_to_boundary(dom, x) == pytest.approx(oracle, abs=1e-6)


def test_polygon_distance_square():
    square = geo.Polygon2D(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
    assert geo.distance_to_boundary(square, np.array([0.5, 0.5])) == pytest.approx(0.5)
    assert geo.distance_to_boundary(square, np.array([0.1, 0.4])) == pytest.approx(0.1)


def test_polygon_l_shape_reentrant_corner():
    lshape = geo.Polygon2D(
        ((0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0), (1.0, 2.0), (0.0, 2.0))
    )
    # nearest boundary feature of (0.7, 1.4) is the reentrant corner (1, 1)... via edge x=1
    assert geo.distance_to_boundary(lshape, np.array([0.7, 1.4])) == pytest.approx(0.3)
    assert lshape.contains(np.array([[1.5, 1.5]]))[0] == False  # noqa: E712


def test_polygon_rejects_self_intersection():
    with pytest.raises(ParameterError):
        geo.Polygon2D(((0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)))


L_SHAPE = geo.Polygon2D(((0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0), (1.0, 2.0), (0.0, 2.0)))


def accepted(dom, pts):
    """Which points, one call each, ``distance_to_boundary`` accepts."""
    ok = []
    for x in pts:
        try:
            geo.distance_to_boundary(dom, x)
            ok.append(True)
        except ParameterError as e:
            assert "lies outside the closed domain" in str(e)
            ok.append(False)
    return ok


def test_distance_to_boundary_accepts_the_closed_domain():
    # each kind's closed domain: lo <= x <= hi, |x| >= R, x_d >= gamma(x'),
    # and a polygon with the points within 1e-12 of an edge; points on the
    # boundary, and one ulp out of and into the domain along the normal
    def step(pts, direction):
        """Each coordinate one ulp in the sign of ``direction`` (0: kept)."""
        pts = np.asarray(pts, dtype=float)
        return np.nextafter(pts, pts + direction)

    def check(dom, on, outward, out_ok=False):
        assert accepted(dom, on) == [True] * len(on), dom
        assert accepted(dom, step(on, -outward)) == [True] * len(on), dom
        assert accepted(dom, step(on, outward)) == [out_ok] * len(on), dom

    box = geo.BoxDomain(geo.Box((-1.0, 0.0), (2.0, 1.0)))
    check(box, [[0.5, 0.0], [1.3, 0.0]], np.array([0.0, -1.0]))
    check(box, [[0.5, 1.0], [-0.7, 1.0]], np.array([0.0, 1.0]))
    check(box, [[-1.0, 0.3], [-1.0, 0.6]], np.array([-1.0, 0.0]))
    check(box, [[2.0, 0.3], [2.0, 0.6]], np.array([1.0, 0.0]))
    sphere = np.array([[1.5, 0.0], [-1.5, 0.0], [0.0, 1.5], [0.0, -1.5]])
    check(geo.ExteriorBall(1.5, 2), sphere, -sphere)

    rng = np.random.default_rng(19)
    for graph in [geo.AffineGraph((0.0,)), geo.AffineGraph((0.37,), 0.11), geo.ConeGraph(0.7),
                  geo.PiecewiseLinearGraph(((-1.0, 0.0), (0.3, 0.9), (2.0, -0.4)))]:
        xp = rng.uniform(-3.0, 3.0, size=(200, 1))
        on = np.column_stack([xp[:, 0], graph.gamma(xp)])
        check(geo.Epigraph(graph, d=2), on, np.array([0.0, -1.0]))

    # the edge y = 1, 1 < x < 2, has the polygon below it
    edge = np.array([[1.25, 1.0], [1.5, 1.0], [1.75, 1.0]])
    check(L_SHAPE, edge, np.array([0.0, 1.0]), out_ok=True)
    assert accepted(L_SHAPE, edge + [0.0, 0.5e-12]) == [True] * 3
    assert accepted(L_SHAPE, edge + [0.0, 2e-12]) == [False] * 3


def test_affine_graph_distance_is_not_negative_on_the_graph():
    # x_d - slope . x' - offset rounds to either side of 0 on the graph;
    # the distance is 0 there, never below it
    graph = geo.AffineGraph((0.37,), 0.11)
    xp = np.random.default_rng(0).uniform(-3.0, 3.0, size=(1000, 1))
    on = np.column_stack([xp[:, 0], graph.gamma(xp)])
    dist = geo.distance_to_boundary(geo.Epigraph(graph, d=2), on)
    assert np.min(dist) == 0.0 and np.max(dist) < 1e-15


def test_l_shape_distance_visits_each_edge_once(monkeypatch):
    calls = []
    segment_distance = geo._point_segment_distance

    def counting(pts, a, b):
        calls.append((tuple(a), tuple(b)))
        return segment_distance(pts, a, b)

    monkeypatch.setattr(geo, "_point_segment_distance", counting)
    dist = geo.distance_to_boundary(L_SHAPE, np.array([[0.5, 0.5], [1.5, 0.25], [0.5, 1.75]]))
    assert np.allclose(dist, [0.5, 0.25, 0.25])
    assert sorted(calls) == sorted(set(calls)) and len(calls) == 6


class ShiftedFlatGraph(geo.LipschitzGraph):
    """gamma = c: a graph the geometry module does not know."""

    M = 0.0

    def __init__(self, c: float):
        self.c = c

    def gamma(self, xp):
        return np.full(np.shape(xp)[:-1], self.c)

    def range_on_box(self, lo, hi):
        return (self.c, self.c)

    def distance(self, pts):
        return pts[..., -1] - self.c


def test_piecewise_linear_graph_needs_d_2():
    graph = geo.PiecewiseLinearGraph(((-1.0, 0.0), (1.0, 1.0)))
    assert geo.Epigraph(graph, d=2).d == 2
    with pytest.raises(ParameterError):
        geo.Epigraph(graph, d=3)


def test_affine_graph_is_stated_for_its_dimension():
    # d = len(slope) + 1: a slope of the wrong length is refused when the
    # epigraph is built, not inside numpy at its first point or grid
    for d in (2, 3):
        flat = geo.AffineGraph((0.0,) * (d - 1))
        assert flat.d == d and geo.Epigraph(flat, d=d).d == d
        for wrong in ((1.0,) * d, (1.0,) * (d - 2)):
            stated = f"AffineGraph is stated for d = {len(wrong) + 1}"
            with pytest.raises(ParameterError, match=stated):
                geo.Epigraph(geo.AffineGraph(wrong), d=d)


def test_epigraph_over_a_new_graph_class():
    dom = geo.Epigraph(ShiftedFlatGraph(0.25), d=2)
    dist = geo.distance_to_boundary(dom, np.array([[0.0, 1.0], [3.0, 0.25]]))
    assert dist.tolist() == [0.75, 0.0]
    with pytest.raises(ParameterError, match="lies outside the closed domain"):
        geo.distance_to_boundary(dom, np.array([0.0, 0.2]))
    grid = quad.masked_grid(quad.GridSpec(8, geo.Box((0.0, 0.0), (1.0, 1.0))), dom.contains)
    assert grid.ncells == 48  # the rows of centres 2.5/8 .. 7.5/8
    assert np.all(geo.distance_to_boundary(dom, grid.centers) > 0)


# ---------------------------------------------------------------------------
# flattening


def test_flatten_examples():
    flat = geo.AffineGraph((0.0,))
    assert np.allclose(geo.flatten(flat, np.array([1.0, 2.0])), [1.0, 2.0])
    cone = geo.ConeGraph(1.0)
    assert np.allclose(geo.flatten(cone, np.array([3.0, 5.0])), [3.0, 2.0])


def test_flatten_roundtrip_random():
    rng = np.random.default_rng(11)
    graphs = [
        geo.AffineGraph((0.0,)),
        geo.AffineGraph((0.5,), offset=-1.0),
        geo.ConeGraph(2.0),
        geo.PiecewiseLinearGraph(((-1.0, 0.0), (0.0, 1.0), (2.0, -0.5))),
    ]
    pts = rng.uniform(-10, 10, size=(10_000, 2))
    for g in graphs:
        round_trip = geo.unflatten(g, geo.flatten(g, pts))
        assert np.max(np.abs(round_trip - pts)) < 1e-12 * max(1.0, np.max(np.abs(pts)))


def test_flatten_maps_epigraph_to_upper_half_space():
    g = geo.ConeGraph(1.5)
    dom = geo.Epigraph(g, d=2)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-4, 4, size=(2000, 2))
    inside = dom.contains(pts)
    xi = geo.flatten(g, pts[inside])
    assert np.all(xi[:, -1] > 0)


def test_bilipschitz_bound_values():
    assert geo.bilipschitz_bound(0.0) == pytest.approx(math.sqrt(2.0))
    assert geo.bilipschitz_bound(1.0) == pytest.approx(2.0)
    with pytest.raises(ParameterError):
        geo.bilipschitz_bound(-0.5)


def _empirical_distortion(graph, rng, n_pairs=100_000, box=4.0, d=2):
    x = rng.uniform(-box, box, size=(n_pairs, d))
    y = rng.uniform(-box, box, size=(n_pairs, d))
    num = np.linalg.norm(geo.flatten(graph, x) - geo.flatten(graph, y), axis=1)
    den = np.linalg.norm(x - y, axis=1)
    keep = den > 1e-12
    return float(np.max(num[keep] / den[keep]))


def test_bilipschitz_bound_dominates_sampled_pairs():
    rng = np.random.default_rng(2024)
    for graph in [
        geo.AffineGraph((0.0,)),
        geo.AffineGraph((0.75,)),
        geo.ConeGraph(1.0),
        geo.PiecewiseLinearGraph(((-2.0, 0.5), (0.0, -0.5), (1.0, 0.75))),
    ]:
        assert _empirical_distortion(graph, rng) <= geo.bilipschitz_bound(graph.M) + 1e-12


def test_flattened_height_brackets_distance():
    # xi_d / C <= dist <= C * xi_d with C from the closed-form bound
    rng = np.random.default_rng(77)
    for graph in [
        geo.AffineGraph((0.5,), offset=0.25),
        geo.ConeGraph(1.0),
        geo.PiecewiseLinearGraph(((-1.0, 0.0), (0.5, 0.8), (2.0, 0.2))),
    ]:
        dom = geo.Epigraph(graph, d=2)
        C = geo.bilipschitz_bound(graph.M)
        pts = rng.uniform(-3, 3, size=(5000, 2))
        pts = pts[dom.contains(pts)]
        xi_d = geo.flatten(graph, pts)[:, -1]
        dist = dom.distance(pts)
        assert np.all(dist <= C * xi_d + 1e-12)
        assert np.all(dist >= xi_d / C - 1e-12)


@settings(max_examples=200, deadline=None)
@given(
    t1=st.floats(-5, 5),
    t2=st.floats(-5, 5),
)
def test_catalog_graphs_are_lipschitz(t1, t2):
    for graph in [
        geo.AffineGraph((0.5,), offset=1.0),
        geo.ConeGraph(1.25),
        geo.PiecewiseLinearGraph(((-1.0, 0.0), (0.0, 1.0), (2.0, -0.5))),
    ]:
        g1 = float(graph.gamma(np.array([[t1]]))[0])
        g2 = float(graph.gamma(np.array([[t2]]))[0])
        assert abs(g1 - g2) <= graph.M * abs(t1 - t2) + 1e-12


def test_graph_range_on_box():
    g = geo.ConeGraph(2.0)
    assert g.range_on_box((-1.0,), (3.0,)) == (0.0, 6.0)
    assert g.range_on_box((1.0,), (3.0,)) == (2.0, 6.0)
    a = geo.AffineGraph((-1.0, 2.0), offset=1.0)
    lo, hi = a.range_on_box((0.0, 0.0), (1.0, 1.0))
    assert lo == pytest.approx(0.0)
    assert hi == pytest.approx(3.0)
    assert geo.AffineGraph((0.0, 0.0)).range_on_box((-2.0, -1.0), (3.0, 4.0)) == (0.0, 0.0)
    tent = geo.PiecewiseLinearGraph(((-1.0, 0.0), (0.0, 0.5), (1.0, 0.0)))
    assert tent.range_on_box((-0.5,), (0.5,)) == (0.25, 0.5)  # the apex inside
    assert tent.range_on_box((0.2,), (0.6,)) == (0.2, 0.4)
    assert tent.range_on_box((-3.0,), (-2.0,)) == (-1.0, -0.5)  # on the extended end ray


# ---------------------------------------------------------------------------
# dyadic layers


def test_layer_counts_d2():
    slab = geo.Slab(n=1, d=2)
    layers = geo.dyadic_layers(slab, -2)
    by_k = {layer.k: layer for layer in layers}
    assert by_k[-1].count == 4
    assert by_k[-2].count == 8
    c = by_k[-1].cubes()
    assert len(c) == 4
    assert all(cube.side == Fraction(1, 2) for cube in c)


def test_layer_d1_single_interval():
    slab = geo.Slab(n=1, d=1)
    for layer in geo.dyadic_layers(slab, -5):
        assert layer.count == 1
        cube = layer.cube(0)
        assert cube.lo() == (Fraction(1, 2 ** (-layer.k)),)
        assert cube.hi() == (Fraction(2, 2 ** (-layer.k)),)


def test_layer_cubes_tile_exactly():
    for n, d in [(1, 2), (2, 2), (1, 3)]:
        slab = geo.Slab(n=n, d=d)
        for layer in geo.dyadic_layers(slab, -3):
            cubes = layer.cubes()
            total = sum(c.measure for c in cubes)
            assert total == layer.measure  # exact rational identity
            # pairwise disjoint: integer corner indices are distinct
            assert len({c.idx for c in cubes}) == len(cubes)
            # union covers the layer: every cube inside the slab bounds
            for c in cubes:
                assert all(-n <= lo and hi <= n for lo, hi in zip(c.lo()[:-1], c.hi()[:-1]))
                assert c.lo()[-1] == Fraction(1, 2 ** (-layer.k))
                # the float box is the exact corners rounded
                assert c.box() == geo.Box(tuple(map(float, c.lo())), tuple(map(float, c.hi())))


def test_parent_cube_fibers():
    for n, d in [(1, 2), (2, 2), (1, 3), (2, 3)]:
        slab = geo.Slab(n=n, d=d)
        layers = geo.dyadic_layers(slab, -3)
        for layer in layers:
            if layer.k == -1:
                continue
            parent_layer = geo.DyadicLayer(layer.k + 1, n, d)
            fibers = {}
            for i in range(layer.count):
                p = geo.parent_cube(layer, i)
                fibers.setdefault(p, []).append(i)
                # the child's transverse shadow sits inside the parent's
                child = layer.cube(i)
                parent = parent_layer.cube(p)
                for lo_c, hi_c, lo_p, hi_p in zip(
                    child.lo()[:-1], child.hi()[:-1], parent.lo()[:-1], parent.hi()[:-1]
                ):
                    assert lo_p <= lo_c and hi_c <= hi_p
                # the child sits directly below the parent
                assert child.hi()[-1] == parent.lo()[-1]
                assert child.above() == parent
            assert set(fibers) == set(range(parent_layer.count))  # surjective
            assert all(len(v) == 2 ** (d - 1) for v in fibers.values())


def test_parent_cube_d1_constant_map():
    slab = geo.Slab(n=1, d=1)
    layer = geo.DyadicLayer(-3, 1, 1)
    assert geo.parent_cube(layer, 0) == 0
    assert slab.d == 1


def test_parent_of_top_layer_raises():
    layer = geo.DyadicLayer(-1, 1, 2)
    with pytest.raises(ParameterError):
        geo.parent_cube(layer, 0)


def test_dyadic_layers_requires_slab():
    with pytest.raises(ParameterError, match="dyadic layers are defined for slab domains only"):
        geo.dyadic_layers(geo.ExteriorBall(1.0, 2), -2)


# ---------------------------------------------------------------------------
# annuli


def dyadic_shells(R: float, m: int, d: int = 2) -> list:
    """The shells 2^k R < |x| <= 2^{k+1} R for k = 0..m."""
    return [geo.Annulus(2**k * R, 2 ** (k + 1) * R, d) for k in range(m + 1)]


def test_annuli_disjoint_union():
    # half-open shells: consecutive ones tile their union with no overlap
    rings = dyadic_shells(0.5, 3)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-10, 10, size=(5000, 2))
    r = np.linalg.norm(pts, axis=1)
    member = np.stack([ring.contains(pts) for ring in rings]).sum(axis=0)
    in_union = (r > 0.5) & (r <= 0.5 * 2**4)
    assert np.array_equal(member >= 1, in_union)
    assert np.max(member) <= 1


def test_annulus_measure_2d():
    R = 1.5
    for k, ring in enumerate(dyadic_shells(R, 2)):
        expected = math.pi * (4 ** (k + 1) - 4**k) * R * R
        assert ring.measure == pytest.approx(expected, rel=1e-12)
