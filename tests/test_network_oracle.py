"""The columnar network assembly against a per-vertex reference.

Multi-vertex networks, read from a CSV file and built in memory, with short
and long edges together, must reproduce `oracles.network_geometry` bit for bit: the projection origin,
every projected vertex, arc length and segment bearing, the spatial index's
samples and owners, and `project_onto_polyline` on each edge.
"""

import csv
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from trajmatch.geo import SAMPLE_SPACING, GeoPoint, PlanarPoint, project_onto_polyline
from trajmatch.io import (
    ParseError,
    build_network,
    parse_road_network,
    write_csv,
    write_road_network,
)
from oracles import network_geometry, polyline_projection
from test_geo import chain_bearings


def uniform(lo, hi):
    """Floats in [lo, hi] with full random mantissas: last-bit differences
    between two ways of rounding show on a share of such inputs only."""
    return st.integers(0, 2**53).map(lambda n: lo + (hi - lo) * (n / 2**53))


# a step between consecutive vertices, in degrees: from a repeat through
# less than a sample spacing to several kilometres
STEP = st.one_of(uniform(-0.03, 0.03), uniform(-0.0015, 0.0015),
                 st.sampled_from([0.0, 1e-12, -1e-9, 0.0009, -0.0009, 0.0018]))


def walk(rng, lon, lat, steps, scale):
    """A vertex chain from (lon, lat) of the given number of random steps of
    up to scale degrees, as (lons, lats)."""
    lons, lats = [lon], [lat]
    for _ in range(steps):
        lons.append(lons[-1] + rng.uniform(-scale, scale))
        lats.append(lats[-1] + rng.uniform(-scale, scale))
    return lons, lats


@st.composite
def networks(draw):
    """1-5 edges of 2-6 vertices, or of 100-140 for about one edge in four;
    an edge may start where the previous ends. About one network in four
    also gets 128 to 158 more edges of 2-6 vertices, so that `polylines`
    sums many chains of each of several sizes together. Long edges and
    those bundles take their steps from a seeded generator, so that drawing
    them costs Hypothesis a few values."""
    edges = []
    for _ in range(draw(st.integers(1, 5))):
        if edges and draw(st.booleans()):
            lon, lat = edges[-1][0][-1], edges[-1][1][-1]
        else:
            lon, lat = draw(uniform(-122.5, -122.0)), draw(uniform(47.4, 47.8))
        if draw(st.integers(0, 3)):
            lons, lats = [lon], [lat]
            for _ in range(draw(st.integers(1, 5))):
                lons.append(lons[-1] + draw(STEP))
                lats.append(lats[-1] + draw(STEP))
            edges.append((lons, lats))
        else:
            rng = random.Random(draw(st.integers(0, 2**32 - 1)))
            edges.append(walk(rng, lon, lat, rng.randint(99, 139),
                              draw(st.sampled_from([0.0015, 0.03]))))
    if not draw(st.integers(0, 3)):
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        edges += [walk(rng, rng.uniform(-122.5, -122.0), rng.uniform(47.4, 47.8),
                       rng.randint(1, 5), 0.0015)
                  for _ in range(rng.randint(128, 158))]
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
        geometry = net.geometry
        for i, (xs, ys, cumlen, bearings) in enumerate(lines):
            assert net.edges[f"e{i}"] == i
            a, b = geometry.start[i], geometry.start[i + 1]
            assert hexes(geometry.x[a:b]) == hexes(xs) and hexes(geometry.y[a:b]) == hexes(ys)
            assert hexes(geometry.cumlen[a:b]) == hexes(cumlen)
            assert hexes(chain_bearings(geometry, i)) == hexes(bearings)
            assert hexes(s[7] for s in geometry.segments[i]) == hexes(b % 360.0 for b in bearings)
            for px, py in points + [(xs[0], ys[0]), (xs[-1] + 0.5, ys[-1])]:
                d, foot, seg, arc = project_onto_polyline(PlanarPoint(px, py), geometry, i)
                rd, rfx, rfy, rseg, rarc = polyline_projection(px, py, xs, ys, cumlen)
                assert hexes([d, foot.x, foot.y, arc]) == hexes([rd, rfx, rfy, rarc])
                assert seg == rseg
        data = net.index._tree.data
        assert hexes(data[:, 0]) == hexes(x for x, _ in samples)
        assert hexes(data[:, 1]) == hexes(y for _, y in samples)
        assert net.index._owners == [f"e{pos}" for pos in owners]


def vertices(net, column, edge_id):
    """The slice of a network's flat lon or lat column that holds an edge."""
    i = net.edges[edge_id]
    return hexes(column[net.geometry.start[i]:net.geometry.start[i + 1]])


@settings(max_examples=100, deadline=None)
@given(edges=networks(), order=st.permutations(range(5)))
def test_written_network_reads_back_column_for_column(edges, order):
    ids = [f"e{k}" for k in order if k < len(edges)]  # out of sorted order
    rows = [(edge_id, f"a{k}", f"b{k}", list(map(GeoPoint, lats, lons)))
            for k, (edge_id, (lons, lats)) in enumerate(zip(ids, edges))]
    try:
        built = build_network(rows)
    except ParseError:
        assume(False)  # a vertex repeated after projection
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "network.csv"
        write_road_network(built, path)
        with open(path, newline="", encoding="utf-8") as fh:
            written = [row[0] for row in csv.reader(fh)][1:]
        parsed = parse_road_network(path)
    assert written == sorted(ids)
    for edge_id, i in built.edges.items():
        j = parsed.edges[edge_id]
        assert (parsed.node_from[j], parsed.node_to[j]) == (built.node_from[i], built.node_to[i])
        assert vertices(parsed, parsed.lon, edge_id) == vertices(built, built.lon, edge_id)
        assert vertices(parsed, parsed.lat, edge_id) == vertices(built, built.lat, edge_id)
    # The origin is summed in file order, so the geometry is compared with
    # the network built from the edges in the order they were written.
    again = build_network(sorted(rows))
    assert (parsed.ids, parsed.node_from, parsed.node_to) == \
        (again.ids, again.node_from, again.node_to)
    assert hexes(parsed.lon) == hexes(again.lon) and hexes(parsed.lat) == hexes(again.lat)
    origin, origin_again = parsed.projection.origin, again.projection.origin
    assert hexes([origin.lat, origin.lon]) == hexes([origin_again.lat, origin_again.lon])
    for column in ("x", "y", "cumlen"):
        assert hexes(getattr(parsed.geometry, column)) == hexes(getattr(again.geometry, column))
    for i in range(len(parsed.ids)):
        assert hexes(chain_bearings(parsed.geometry, i)) == hexes(chain_bearings(again.geometry, i))
    assert parsed.geometry.start == again.geometry.start


def test_network_reference_holds_under_a_compensated_builtin_sum(compensated_builtin_sum):
    # a compensated sum of these latitudes rounds their mean one unit in the
    # last place away from the left-to-right sum the origin is defined by
    edges = [([-122.302, -122.25, -122.324, -122.338], [47.612, 47.553, 47.599, 47.605])]
    test_network_matches_per_vertex_reference.hypothesis.inner_test(edges=edges,
                                                                    points=[])
