"""The columnar network assembly against a per-vertex reference.

Multi-vertex networks, read from a CSV file and built in memory, must
reproduce `oracles.network_geometry` bit for bit: the projection origin,
every projected vertex, arc length and segment bearing, the spatial index's
samples and owners, and `project_onto_polyline` on each edge.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from trajmatch.geo import SAMPLE_SPACING, GeoPoint, PlanarPoint, project_onto_polyline
from trajmatch.io import ParseError, build_network, parse_road_network, write_csv
from oracles import network_geometry, polyline_projection


def uniform(lo, hi):
    """Floats in [lo, hi] with full random mantissas: last-bit differences
    between two ways of rounding show on a share of such inputs only."""
    return st.integers(0, 2**53).map(lambda n: lo + (hi - lo) * (n / 2**53))


# a step between consecutive vertices, in degrees: from a repeat through
# less than a sample spacing to several kilometres
STEP = st.one_of(uniform(-0.03, 0.03), uniform(-0.0015, 0.0015),
                 st.sampled_from([0.0, 1e-12, -1e-9, 0.0009, -0.0009, 0.0018]))


@st.composite
def networks(draw):
    """1-5 edges of 2-6 vertices; an edge may start where the previous ends."""
    edges = []
    for _ in range(draw(st.integers(1, 5))):
        if edges and draw(st.booleans()):
            lon, lat = edges[-1][0][-1], edges[-1][1][-1]
        else:
            lon, lat = draw(uniform(-122.5, -122.0)), draw(uniform(47.4, 47.8))
        lons, lats = [lon], [lat]
        for _ in range(draw(st.integers(1, 5))):
            lons.append(lons[-1] + draw(STEP))
            lats.append(lats[-1] + draw(STEP))
        edges.append((lons, lats))
    return edges


def hexes(values):
    return [float(v).hex() for v in values]


def load_both(edges):
    """The network parsed from a CSV file and built in memory."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "network.csv"
        write_csv(path, ["edge_id", "node_from", "node_to", "wkt"],
                  ([f"e{i}", f"a{i}", f"b{i}", "LINESTRING (" + ", ".join(
                      f"{lon!r} {lat!r}" for lon, lat in zip(lons, lats)) + ")"]
                   for i, (lons, lats) in enumerate(edges)))
        parsed = parse_road_network(path)
    built = build_network([(f"e{i}", f"a{i}", f"b{i}", list(map(GeoPoint, lats, lons)))
                           for i, (lons, lats) in enumerate(edges)])
    return parsed, built


@settings(max_examples=150, deadline=None)
@given(edges=networks(),
       points=st.lists(st.tuples(uniform(-4000, 4000), uniform(-4000, 4000)), max_size=5))
def test_network_matches_per_vertex_reference(edges, points):
    ref = network_geometry(edges, SAMPLE_SPACING)
    if ref is None:
        with pytest.raises(ParseError, match="consecutive duplicate vertex"):
            load_both(edges)
        return
    (lat0, lon0), lines, samples, owners = ref
    for net in load_both(edges):
        origin = net.projection.origin
        assert hexes([origin.lat, origin.lon]) == hexes([lat0, lon0])
        for i, (xs, ys, cumlen, bearings) in enumerate(lines):
            pl = net.edges[f"e{i}"].geometry
            assert hexes(pl.xs) == hexes(xs) and hexes(pl.ys) == hexes(ys)
            assert hexes(pl.cumlen) == hexes(cumlen)
            assert hexes(pl.bearings) == hexes(bearings)
            for px, py in points + [(xs[0], ys[0]), (xs[-1] + 0.5, ys[-1])]:
                d, foot, seg, arc = project_onto_polyline(PlanarPoint(px, py), pl)
                rd, rfx, rfy, rseg, rarc = polyline_projection(px, py, xs, ys, cumlen)
                assert hexes([d, foot.x, foot.y, arc]) == hexes([rd, rfx, rfy, rarc])
                assert seg == rseg
        data = net.index._tree.data
        assert hexes(data[:, 0]) == hexes(x for x, _ in samples)
        assert hexes(data[:, 1]) == hexes(y for _, y in samples)
        assert net.index._owners == [f"e{pos}" for pos in owners]
