import math
import random

import pytest

from trajmatch.geo import (
    GeoPoint,
    InvalidCoordinateError,
    PlanarPoint,
    Polyline,
    Projection,
    Segment,
    UndefinedBearingError,
    bearing,
    haversine_distance,
    heading_error,
    index_build,
    point_segment_distance,
    project_onto_polyline,
)
from oracles import law_of_cosines_distance, sampled_segment_distance


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
    assert planar.y == pytest.approx(haversine_distance(o, p), rel=1e-3)


def test_project_equator_east():
    o = GeoPoint(0.0, 0.0)
    p = GeoPoint(0.0, 0.001)
    planar = Projection(o).project(p)
    assert planar.y == 0.0
    assert planar.x == pytest.approx(111.19, abs=0.05)
    assert planar.x == pytest.approx(haversine_distance(o, p), rel=1e-3)


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
    assert haversine_distance(p, p) == 0.0
    half = haversine_distance(GeoPoint(0, 0), GeoPoint(0, 180))
    assert half == pytest.approx(math.pi * 6_371_000, rel=1e-12)


def test_haversine_against_law_of_cosines():
    a = GeoPoint(47.6, -122.3)
    b = GeoPoint(47.7, -122.3)
    oracle = law_of_cosines_distance(a.lat, a.lon, b.lat, b.lon)
    assert haversine_distance(a, b) == pytest.approx(oracle, rel=5e-3)


def test_haversine_symmetric():
    rng = random.Random(2)
    for _ in range(100):
        a = GeoPoint(rng.uniform(-80, 80), rng.uniform(-179, 179))
        b = GeoPoint(rng.uniform(-80, 80), rng.uniform(-179, 179))
        assert haversine_distance(a, b) == haversine_distance(b, a)
        assert haversine_distance(a, b) >= 0.0


def test_bearing_cardinals():
    o = PlanarPoint(0, 0)
    assert bearing(o, PlanarPoint(0, 1)) == 0.0
    assert bearing(o, PlanarPoint(1, 0)) == 90.0
    assert bearing(o, PlanarPoint(-1, -1)) == 225.0
    with pytest.raises(UndefinedBearingError):
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
    with pytest.raises(ValueError):
        Segment(PlanarPoint(1, 1), PlanarPoint(1, 1))


def test_point_segment_distance_examples():
    s = Segment(PlanarPoint(0, 0), PlanarPoint(2, 0))
    d, foot, t = point_segment_distance(PlanarPoint(1, 0), s)
    assert d == 0.0 and foot == PlanarPoint(1, 0)

    d, foot, t = point_segment_distance(PlanarPoint(1, 1), s)
    assert d == pytest.approx(1.0)
    assert foot == PlanarPoint(1, 0)
    assert t == pytest.approx(0.5)

    d, foot, t = point_segment_distance(PlanarPoint(5, 1), s)
    assert d == pytest.approx(math.sqrt(10))
    assert foot == PlanarPoint(2, 0)
    assert t == 1.0


def test_point_segment_distance_vs_sampling():
    rng = random.Random(4)
    for _ in range(1000):
        ax, ay, bx, by = (rng.uniform(-50, 50) for _ in range(4))
        if (ax, ay) == (bx, by):
            continue
        px, py = rng.uniform(-60, 60), rng.uniform(-60, 60)
        d, _, _ = point_segment_distance(PlanarPoint(px, py),
                                         Segment(PlanarPoint(ax, ay), PlanarPoint(bx, by)))
        ref = sampled_segment_distance(px, py, ax, ay, bx, by)
        # sampling overestimates by at most the sample spacing
        assert d <= ref + 1e-9
        assert ref - d <= math.hypot(bx - ax, by - ay) / 1000 / 2 + 1e-6


def test_polyline_validation():
    with pytest.raises(ValueError):
        Polyline([PlanarPoint(0, 0)])
    with pytest.raises(ValueError):
        Polyline([PlanarPoint(0, 0), PlanarPoint(0, 0)])


def test_project_onto_polyline_vertex():
    pl = Polyline([PlanarPoint(0, 0), PlanarPoint(2, 0), PlanarPoint(2, 2)])
    d, foot, seg, off = project_onto_polyline(PlanarPoint(2, 0), pl)
    assert d == 0.0 and foot == PlanarPoint(2, 0) and off == pytest.approx(2.0)


def test_project_onto_polyline_tiebreak():
    pl = Polyline([PlanarPoint(0, 0), PlanarPoint(2, 0), PlanarPoint(2, 2)])
    d, foot, seg, off = project_onto_polyline(PlanarPoint(1, 1), pl)
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
        pl = Polyline(dedup)
        p = PlanarPoint(rng.uniform(-120, 120), rng.uniform(-120, 120))
        d, _, _, _ = project_onto_polyline(p, pl)
        brute = min(point_segment_distance(p, Segment(u, v))[0]
                    for u, v in zip(pl.vertices, pl.vertices[1:]))
        assert d == pytest.approx(brute, abs=1e-9)


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
    return Polyline(dedup)


def test_index_single_edge():
    pl = Polyline([PlanarPoint(10, 10), PlanarPoint(20, 10)])
    idx = index_build([("e1", pl)], cell_size=100.0)
    assert idx.query(PlanarPoint(15, 12), 5.0) == {"e1"}


def test_index_edge_spanning_cells():
    pl = Polyline([PlanarPoint(5, 5), PlanarPoint(250, 5)])
    idx = index_build([("e1", pl)], cell_size=100.0)
    for x in (10, 150, 240):
        assert "e1" in idx.query(PlanarPoint(x, 5), 1.0)


def test_index_empty():
    idx = index_build([], cell_size=100.0)
    assert idx.query(PlanarPoint(0, 0), 10.0) == set()


def test_index_superset_property():
    rng = random.Random(6)
    edges = [(f"e{i}", _random_polyline(rng)) for i in range(500)]
    idx = index_build(edges, cell_size=100.0)
    for _ in range(1000):
        p = PlanarPoint(rng.uniform(-100, 1100), rng.uniform(-100, 1100))
        radius = rng.uniform(1.0, 200.0)
        truth = {eid for eid, pl in edges
                 if project_onto_polyline(p, pl)[0] <= radius}
        assert truth <= idx.query(p, radius)
