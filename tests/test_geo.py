import math
import random
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from trajmatch.geo import (
    GeoPoint,
    InvalidCoordinateError,
    InvalidPolylineError,
    PlanarPoint,
    Polylines,
    Projection,
    haversine_lat_lon,
    index_build,
    polylines,
    project_onto_polyline,
)
from trajmatch.io import RoadNetwork
from trajmatch.matcher import _measure
from oracles import bearing, heading_error, law_of_cosines_distance, sampled_segment_distance


def batch(chains):
    """The `polylines` batch of one chain through each list of points."""
    return polylines([x for points in chains for x, _ in points],
                     [y for points in chains for _, y in points],
                     [len(points) for points in chains])


def polyline(points):
    """The batch of one chain through points, checked by `polylines`."""
    return batch([points])


def chain_bearings(lines, i):
    """The compass bearing of each segment of chain i of lines, from its
    vertices."""
    a, b = lines.start[i], lines.start[i + 1]
    points = list(map(PlanarPoint, lines.x[a:b].tolist(), lines.y[a:b].tolist()))
    return [bearing(u, v) for u, v in zip(points, points[1:])]


def test_geopoint_range_validation():
    with pytest.raises(InvalidCoordinateError):
        GeoPoint(91.0, 0.0)
    with pytest.raises(InvalidCoordinateError):
        GeoPoint(0.0, 181.0)
    with pytest.raises(InvalidCoordinateError):
        GeoPoint(float("nan"), 0.0)


def test_project_identity():
    o = GeoPoint(47.0, -122.0)
    p = Projection(o).project(o)
    assert p == PlanarPoint(0.0, 0.0)


def test_project_one_meter_north():
    o = GeoPoint(47.0, -122.0)
    p = GeoPoint(47.0 + 1 / 111194.93, -122.0)
    planar = Projection(o).project(p)
    assert planar.x == 0.0
    assert planar.y == pytest.approx(1.0, rel=1e-3)
    # haversine oracle agrees within 0.1%
    assert planar.y == pytest.approx(haversine_lat_lon(o.lat, o.lon, p.lat, p.lon), rel=1e-3)


def test_project_equator_east():
    o = GeoPoint(0.0, 0.0)
    p = GeoPoint(0.0, 0.001)
    planar = Projection(o).project(p)
    assert planar.y == 0.0
    assert planar.x == pytest.approx(111.19, abs=0.05)
    assert planar.x == pytest.approx(haversine_lat_lon(o.lat, o.lon, p.lat, p.lon), rel=1e-3)


def test_project_unproject_roundtrip():
    rng = random.Random(1)
    origin = GeoPoint(47.6, -122.3)
    proj = Projection(origin)
    for _ in range(1000):
        g = GeoPoint(origin.lat + rng.uniform(-1, 1), origin.lon + rng.uniform(-1, 1))
        back = proj.unproject(proj.project(g))
        assert abs(back.lat - g.lat) < 1e-9
        assert abs(back.lon - g.lon) < 1e-9


def test_haversine_identity_and_antipodal():
    p = GeoPoint(12.3, 45.6)
    assert haversine_lat_lon(p.lat, p.lon, p.lat, p.lon) == 0.0
    half = haversine_lat_lon(0, 0, 0, 180)
    assert half == pytest.approx(math.pi * 6_371_000, rel=1e-12)


def test_haversine_against_law_of_cosines():
    a = GeoPoint(47.6, -122.3)
    b = GeoPoint(47.7, -122.3)
    oracle = law_of_cosines_distance(a.lat, a.lon, b.lat, b.lon)
    assert haversine_lat_lon(a.lat, a.lon, b.lat, b.lon) == pytest.approx(oracle, rel=5e-3)


def test_haversine_symmetric():
    rng = random.Random(2)
    for _ in range(100):
        a = GeoPoint(rng.uniform(-80, 80), rng.uniform(-179, 179))
        b = GeoPoint(rng.uniform(-80, 80), rng.uniform(-179, 179))
        d = haversine_lat_lon(a.lat, a.lon, b.lat, b.lon)
        assert d == haversine_lat_lon(b.lat, b.lon, a.lat, a.lon)
        assert d >= 0.0


def test_bearing_cardinals():
    o = PlanarPoint(0, 0)
    assert bearing(o, PlanarPoint(0, 1)) == 0.0
    assert bearing(o, PlanarPoint(1, 0)) == 90.0
    assert bearing(o, PlanarPoint(-1, -1)) == 225.0
    with pytest.raises(ValueError):
        bearing(o, o)


def test_heading_error_examples():
    assert heading_error(42.0, 42.0) == 0.0
    assert heading_error(350.0, 10.0) == 20.0
    assert heading_error(0.0, 180.0) == 180.0


def test_heading_error_properties():
    rng = random.Random(3)
    for _ in range(1000):
        h1, h2 = rng.uniform(0, 360), rng.uniform(0, 360)
        e = heading_error(h1, h2)
        assert 0.0 <= e <= 180.0
        assert e == heading_error(h2, h1)
        assert heading_error(h1 + 720.0, h2) == pytest.approx(e, abs=1e-9)


def test_segment_rejects_zero_length():
    with pytest.raises(InvalidPolylineError, match="consecutive duplicate vertex"):
        polyline([PlanarPoint(1, 1), PlanarPoint(1, 1)])


def test_point_segment_distance_examples():
    s = polyline([PlanarPoint(0, 0), PlanarPoint(2, 0)])
    d, foot, seg, off = project_onto_polyline(PlanarPoint(1, 0), s, 0)
    assert d == 0.0 and foot == PlanarPoint(1, 0) and seg == 0

    d, foot, _, off = project_onto_polyline(PlanarPoint(1, 1), s, 0)
    assert d == pytest.approx(1.0)
    assert foot == PlanarPoint(1, 0)
    assert off == pytest.approx(1.0)

    # beyond the end: the foot clamps to the last vertex
    d, foot, _, off = project_onto_polyline(PlanarPoint(5, 1), s, 0)
    assert d == pytest.approx(math.sqrt(10))
    assert foot == PlanarPoint(2, 0)
    assert off == 2.0


def test_point_segment_distance_vs_sampling():
    rng = random.Random(4)
    for _ in range(1000):
        ax, ay, bx, by = (rng.uniform(-50, 50) for _ in range(4))
        if (ax, ay) == (bx, by):
            continue
        px, py = rng.uniform(-60, 60), rng.uniform(-60, 60)
        d, _, _, _ = project_onto_polyline(PlanarPoint(px, py), polyline([(ax, ay), (bx, by)]), 0)
        ref = sampled_segment_distance(px, py, ax, ay, bx, by)
        # sampling overestimates by at most the sample spacing
        assert d <= ref + 1e-9
        assert ref - d <= math.hypot(bx - ax, by - ay) / 1000 / 2 + 1e-6


def test_polyline_validation():
    with pytest.raises(InvalidPolylineError, match="at least 2 vertices"):
        polyline([PlanarPoint(0, 0)])
    with pytest.raises(InvalidPolylineError, match="consecutive duplicate vertex"):
        polyline([PlanarPoint(0, 0), PlanarPoint(1, 0), PlanarPoint(1, 0)])
    # vertices 1e-170 apart: the squared length a projection divides by is 0
    with pytest.raises(InvalidPolylineError, match="consecutive duplicate vertex"):
        polyline([PlanarPoint(0, 0), PlanarPoint(0, 1e-170)])
    # the error names the first bad chain of a batch
    with pytest.raises(InvalidPolylineError) as err:
        polylines([0, 1, 5, 0, 0], [0, 0, 5, 0, 0], [2, 1, 2])
    assert err.value.index == 1


def test_project_onto_polyline_vertex():
    pl = polyline([PlanarPoint(0, 0), PlanarPoint(2, 0), PlanarPoint(2, 2)])
    d, foot, seg, off = project_onto_polyline(PlanarPoint(2, 0), pl, 0)
    assert d == 0.0 and foot == PlanarPoint(2, 0) and off == pytest.approx(2.0)


def test_project_onto_polyline_tiebreak():
    pl = polyline([PlanarPoint(0, 0), PlanarPoint(2, 0), PlanarPoint(2, 2)])
    d, foot, seg, off = project_onto_polyline(PlanarPoint(1, 1), pl, 0)
    assert d == pytest.approx(1.0)
    assert seg == 0  # tie with segment 1 broken toward lower index
    assert foot == PlanarPoint(1, 0)
    assert off == pytest.approx(1.0)


def test_project_onto_polyline_vs_bruteforce():
    rng = random.Random(5)
    for _ in range(1000):
        pts = [PlanarPoint(rng.uniform(-100, 100), rng.uniform(-100, 100))
               for _ in range(rng.randint(2, 8))]
        dedup = [pts[0]]
        for p in pts[1:]:
            if p != dedup[-1]:
                dedup.append(p)
        if len(dedup) < 2:
            continue
        pl = polyline(dedup)
        p = PlanarPoint(rng.uniform(-120, 120), rng.uniform(-120, 120))
        d, _, _, _ = project_onto_polyline(p, pl, 0)
        segments = list(zip(pl.x, pl.y, pl.x[1:], pl.y[1:]))
        brute = min(sampled_segment_distance(p.x, p.y, *s) for s in segments)
        # sampling overestimates by at most half the longest sample spacing
        assert d <= brute + 1e-9
        assert brute - d <= max(math.hypot(bx - ax, by - ay)
                                for ax, ay, bx, by in segments) / 1000 / 2 + 1e-6


def _random_polyline(rng, span=1000.0):
    pts = []
    x, y = rng.uniform(0, span), rng.uniform(0, span)
    for _ in range(rng.randint(2, 5)):
        pts.append(PlanarPoint(x, y))
        x += rng.uniform(-80, 80)
        y += rng.uniform(-80, 80)
    dedup = [pts[0]]
    for p in pts[1:]:
        if p != dedup[-1]:
            dedup.append(p)
    if len(dedup) < 2:
        dedup.append(PlanarPoint(dedup[-1].x + 1.0, dedup[-1].y))
    return dedup


def test_index_single_edge():
    pl = polyline([PlanarPoint(10, 10), PlanarPoint(20, 10)])
    idx = index_build(pl, ["e1"])
    assert idx.query(PlanarPoint(15, 12), 5.0) == {"e1"}


def test_index_edge_spanning_cells():
    pl = polyline([PlanarPoint(5, 5), PlanarPoint(250, 5)])
    idx = index_build(pl, ["e1"])
    for x in (10, 150, 240):
        assert "e1" in idx.query(PlanarPoint(x, 5), 1.0)


def test_index_empty():
    idx = index_build(batch([]), [])
    assert idx.query(PlanarPoint(0, 0), 10.0) == set()


def test_index_superset_property():
    rng = random.Random(6)
    lines = batch([_random_polyline(rng) for _ in range(500)])
    ids = [f"e{i}" for i in range(500)]
    idx = index_build(lines, ids)
    for _ in range(1000):
        p = PlanarPoint(rng.uniform(-100, 1100), rng.uniform(-100, 1100))
        radius = rng.uniform(1.0, 200.0)
        truth = {eid for i, eid in enumerate(ids)
                 if project_onto_polyline(p, lines, i)[0] <= radius}
        assert truth <= idx.query(p, radius)


@pytest.mark.parametrize("bends", [0, 5])
def test_index_superset_on_one_degree_diagonal(bends):
    # 1 degree of latitude and longitude, as one segment or zigzagging
    # through 5 bends; points on it and up to 300 m beside it
    proj = Projection(GeoPoint(0.5, 0.5))
    pl = polyline([proj.project(GeoPoint(k / (bends + 1), k / (bends + 1) + 0.01 * (k % 2)))
                   for k in range(bends + 2)])
    idx = index_build(pl, ["long"])
    rng = random.Random(bends)
    for _ in range(500):
        seg = rng.randrange(len(pl.x) - 1)
        u = PlanarPoint(pl.x[seg], pl.y[seg])
        v = PlanarPoint(pl.x[seg + 1], pl.y[seg + 1])
        t, off = rng.random(), rng.choice([0.0, rng.uniform(-300.0, 300.0)])
        norm = math.hypot(v.x - u.x, v.y - u.y)
        p = PlanarPoint(u.x + t * (v.x - u.x) - off * (v.y - u.y) / norm,
                        u.y + t * (v.y - u.y) + off * (v.x - u.x) / norm)
        radius = project_onto_polyline(p, pl, 0)[0] + rng.uniform(1e-9, 5.0)
        assert idx.query(p, radius) == {"long"}
        assert idx.nearest(p) == {"long"}


def test_index_nearest_holds_every_nearest_edge():
    rng = random.Random(7)
    chains = [_random_polyline(rng) for _ in range(200)]
    # shared endpoints give exact ties
    chains += [[PlanarPoint(500, 500), PlanarPoint(600, 500)],
               [PlanarPoint(500, 500), PlanarPoint(500, 600)]]
    ids = [f"e{i}" for i in range(200)] + ["t1", "t2"]
    lines = batch(chains)
    idx = index_build(lines, ids)
    points = [PlanarPoint(500, 500), PlanarPoint(-3000, -3000)]
    points += [PlanarPoint(rng.uniform(-5000, 6000), rng.uniform(-5000, 6000))
               for _ in range(300)]
    for p in points:
        dist = {eid: project_onto_polyline(p, lines, i)[0] for i, eid in enumerate(ids)}
        nearest = min(dist.values())
        assert {eid for eid, d in dist.items() if d == nearest} <= idx.nearest(p)
    assert index_build(batch([]), []).nearest(PlanarPoint(0, 0)) == set()


def test_index_sample_at_last_vertex_is_that_vertex():
    # a segment's first sample is a + 0.0, which turns -0.0 into 0.0; a
    # polyline's last vertex is taken as it is
    pl = polyline([PlanarPoint(-0.0, 250.0), PlanarPoint(-0.0, -0.0)])
    last = index_build(pl, ["e1"])._tree.data[-1]
    assert [math.copysign(1.0, v) for v in last] == [-1.0, -1.0]


COORD = st.one_of(st.floats(-1000, 1000), st.integers(-3, 3).map(float))


@st.composite
def vertex_chains(draw):
    """2-6 points with no consecutive repeat."""
    points = [(draw(COORD), draw(COORD))]
    for _ in range(draw(st.integers(1, 5))):
        x, y = draw(COORD), draw(COORD)
        x0, y0 = points[-1]
        if (x - x0) * (x - x0) + (y - y0) * (y - y0) == 0:  # polylines rejects it
            x = x0 + 1.0
        points.append((x, y))
    return points


def hexes(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("sizes", [
    [2] * 128,  # many chains of one size
    [2] * 127,
    [40] * 128 + [41, 500, 3],  # one large group and three chains alone
    [2 + (7 * i) % 60 for i in range(3 * 128)],  # chains of many sizes
    [2 + i // 3 + i * i // 50 for i in range(150)],  # many distinct sizes in a long tail
    [2] * 500 + [5000] + [2] * 500,  # one long chain among many short ones
])
def test_arc_lengths_equal_each_chain_summed_alone(sizes):
    rng = random.Random(len(sizes))
    chains = [[(rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4)) for _ in range(n)]
              for n in sizes]
    expected = [total for points in chains for total in accumulate(
        (math.hypot(bx - ax, by - ay) for (ax, ay), (bx, by) in zip(points, points[1:])),
        initial=0.0)]
    assert hexes(batch(chains).cumlen) == hexes(expected)


@settings(max_examples=100, deadline=None)
@given(batched=st.lists(vertex_chains(), min_size=1, max_size=6),
       p=st.tuples(COORD, COORD), heading=st.floats(0, 360, exclude_max=True))
def test_batch_chain_equals_the_chain_alone(batched, p, heading):
    lines = batch(batched)
    ids = [f"e{i}" for i in range(len(batched))]
    net = RoadNetwork(ids, ids, ids, (), (), lines, Projection(GeoPoint(0.0, 0.0)))
    p = PlanarPoint(*p)
    for i, points in enumerate(batched):
        alone = polyline(points)
        a, b = lines.start[i], lines.start[i + 1]
        assert hexes(lines.cumlen[a:b]) == hexes(alone.cumlen)
        assert hexes(chain_bearings(lines, i)) == hexes(chain_bearings(alone, 0))
        assert [hexes(s) for s in lines.segments[i]] == [hexes(s) for s in alone.segments[0]]
        d, foot, seg, arc = project_onto_polyline(p, lines, i)
        d0, foot0, seg0, arc0 = project_onto_polyline(p, alone, 0)
        assert hexes([d, *foot, arc]) == hexes([d0, *foot0, arc0]) and seg == seg0
        # the link bearing is taken on the chosen segment of chain i
        link = bearing(PlanarPoint(*points[seg]), PlanarPoint(*points[seg + 1]))
        want = min(heading_error(heading, link), heading_error(heading, (link + 180.0) % 360.0))
        assert _measure(net, ids[i], p, heading)[1].hex() == want.hex()


@st.composite
def northward_chains(draw):
    """Chains with a segment from x = 0 a hair west of due north, whose
    bearing, degrees(atan2(-tiny, dy)) % 360.0, rounds to 360.0."""
    y = draw(COORD)
    points = [(draw(COORD), y), (0.0, y + 1.0),
              (-draw(st.sampled_from([1e-300, 1e-20, 1e-14, 1e-9])),
               y + 1.0 + draw(st.floats(1.0, 1000.0)))]
    return points[draw(st.integers(0, 1)):]


@settings(max_examples=100, deadline=None)
@given(batched=st.lists(st.one_of(vertex_chains(), northward_chains()), min_size=1, max_size=6),
       p=st.tuples(COORD, COORD), heading=st.floats(0, 360, exclude_max=True))
def test_segment_constants_equal_the_columns(batched, p, heading):
    lines = batch(batched)
    ids = [f"e{i}" for i in range(len(batched))]
    net = RoadNetwork(ids, ids, ids, (), (), lines, Projection(GeoPoint(0.0, 0.0)))
    p = PlanarPoint(*p)
    x, y, cum = lines.x.tolist(), lines.y.tolist(), lines.cumlen.tolist()
    for i in range(len(batched)):
        want = []
        for j, b in enumerate(chain_bearings(lines, i), lines.start[i]):
            dx, dy = x[j + 1] - x[j], y[j + 1] - y[j]
            want.append(hexes([x[j], y[j], dx, dy, dx * dx + dy * dy, cum[j], cum[j + 1],
                               b % 360.0, (b + 180.0) % 360.0 % 360.0]))
        assert [hexes(s) for s in lines.segments[i]] == want
        # he against both directions of the segment holding the foot
        seg = project_onto_polyline(p, lines, i)[2]
        b = chain_bearings(lines, i)[seg]
        he = min(heading_error(heading, b), heading_error(heading, (b + 180.0) % 360.0))
        assert _measure(net, ids[i], p, heading)[1].hex() == he.hex()


def test_segment_constants_of_a_bearing_that_rounds_to_360():
    lines = polyline([(0.0, 0.0), (-1e-14, 500.0)])
    assert chain_bearings(lines, 0) == [360.0]
    assert lines.segments[0][0][7:] == (0.0, 180.0)
    assert math.copysign(1.0, lines.segments[0][0][7]) == 1.0


def test_segment_constants_are_built_on_first_read():
    lines = polyline([(0.0, 0.0), (3.0, 4.0), (3.0, 10.0)])
    with pytest.raises(AttributeError):  # the unset slot, read past __getattr__
        Polylines.segments.__get__(lines)
    assert lines.segments is lines.segments
    assert len(lines.segments) == 1 and len(lines.segments[0]) == 2
    with pytest.raises(AttributeError, match="no attribute 'other'"):
        lines.other
