"""DBSCAN labels against the breadth-first and brute-force oracles, and the
threshold detector against a record-at-a-time copy, as Hypothesis
properties.

On lattice point sets, points sit on a lattice of pitch H degrees, so
repeated cells give duplicate points, and eps is an odd multiple of H/2,
which no lattice distance comes near: the oracles' distances and the k-d
tree's cannot disagree on a tie.

On float point sets, eps is the distance of a pair of the sample itself, so
that pair and any other at the same distance sit on the eps boundary. Only
the breadth-first oracle is compared there: its eps-balls come from
`query_ball_point`, the k-d tree's own distance arithmetic, while a brute
force distance may round the other way.

Every DBSCAN example is labelled at STRIPES, so that tiny stripes put
neighbours in different stripes and halos.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from trajmatch import staypoint
from trajmatch.geo import GeoPoint
from trajmatch.io import Trajectory, TrajectoryRecord
from trajmatch.staypoint import (
    DEGREE_EUCLIDEAN,
    METER_PLANAR,
    DbscanParams,
    dbscan,
    threshold_staypoint_detect,
)
from oracles import bfs_dbscan, brute_dbscan, brute_dbscan_labels, planar_coords, \
    window_staypoints

H = 1e-5
STRIPES = (1, 2, 3, staypoint.STRIPE)


def striped_dbscan(traj, params):
    """(stripe, dbscan(traj, params)) with staypoint.STRIPE at each of STRIPES."""
    for stripe in STRIPES:
        with mock.patch.object(staypoint, "STRIPE", stripe):
            yield stripe, dbscan(traj, params)


# a column of 5 points at one sweep coordinate x = 3, longer than a stripe
@example(cells=[(0, 0), (5, 0), (3, 0), (3, 1), (3, 2), (3, 3), (3, 4)], reach=1, min_pts=3)
@example(cells=[(0, 0), (5, 5)] + [(2, 1)] * 6, reach=0, min_pts=4)
# north-south: the sweep axis is y
@example(cells=[(0, y) for y in (5, 0, 2, 1, 4, 3)] + [(1, 2)], reach=1, min_pts=2)
@settings(max_examples=300, deadline=None)
@given(cells=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                      min_size=1, max_size=40),
       reach=st.integers(0, 3), min_pts=st.integers(1, 6))
def test_dbscan_lattice_labels(cells, reach, min_pts):
    traj = Trajectory([TrajectoryRecord(float(i), GeoPoint(47.0 + y * H, -122.0 + x * H), i)
                       for i, (x, y) in enumerate(cells)])
    eps = (reach + 0.5) * H
    coords = [[r.position.lon, r.position.lat] for r in traj]
    core, _ = brute_dbscan(coords, eps, min_pts)
    brute_labels = brute_dbscan_labels(coords, eps, min_pts)
    labels, bfs_core = bfs_dbscan(coords, eps, min_pts)

    for stripe, got in striped_dbscan(traj, DbscanParams(eps, min_pts)):
        assert np.array_equal(got.core, core), stripe
        assert np.array_equal(got.labels, brute_labels), stripe
        assert np.array_equal(got.labels, labels) and np.array_equal(got.core, bfs_core), stripe


@st.composite
def blobs(draw):
    """(points, bridges): up to about 80 (lat, lon) points. Two to four blobs
    of 3 to 20 points, each within H/4 of its centre, sit in a row 2H apart;
    the first 1 or 2 points are bridges, each near the midpoint between two
    neighbouring blobs, where it can reach the cores of both."""
    offset, near = st.floats(-H / 4, H / 4), st.floats(-H / 16, H / 16)
    n_blobs = draw(st.integers(2, 4))
    bridges = [(dy, (2 * draw(st.integers(0, n_blobs - 2)) + 1) * H + dx)
               for dy, dx in draw(st.lists(st.tuples(near, near), min_size=1, max_size=2))]
    members = [(dy, 2 * c * H + dx) for c in range(n_blobs)
               for dy, dx in draw(st.lists(st.tuples(offset, offset), min_size=3, max_size=20))]
    return [(47.0 + y, -122.0 + x) for y, x in bridges + members], len(bridges)


def ulps(x, k):
    """x moved k units in the last place up."""
    for _ in range(k):
        x = math.nextafter(x, math.inf)
    return x


# along a parallel, the bridge at 2H and its nearest points H either side:
# eps is a pair's exact distance along the sweep axis, and at stripe 1 or 2
# the pair crosses a stripe boundary
ALONG = [(47.0, -122.0 + 2 * H)] + [(47.0, -122.0 + k * H) for k in (0, 1, 3, 4, 5)]
# eps of a few units in the last place of the longitude (about 2.8e-14)
NEAR_180 = [(47.0, ulps(179.99, 3))] + [(47.0, ulps(179.99, k)) for k in (0, 1, 5, 6, 9)]
# north-south: the sweep axis is latitude
MERIDIAN = [(47.0 + 2 * H, -122.0)] + [(47.0 + k * H, -122.0) for k in (0, 1, 3, 4, 5)]


@example(sample=(ALONG, 1), bridge=0, rank=1, min_pts=3, space=DEGREE_EUCLIDEAN)
@example(sample=(ALONG, 1), bridge=0, rank=2, min_pts=3, space=METER_PLANAR)
@example(sample=(NEAR_180, 1), bridge=0, rank=2, min_pts=3, space=DEGREE_EUCLIDEAN)
@example(sample=(NEAR_180, 1), bridge=0, rank=2, min_pts=2, space=METER_PLANAR)
@example(sample=(MERIDIAN, 1), bridge=0, rank=3, min_pts=3, space=DEGREE_EUCLIDEAN)
@example(sample=(MERIDIAN, 1), bridge=0, rank=1, min_pts=2, space=METER_PLANAR)
@settings(max_examples=300, deadline=None)
@given(sample=blobs(), bridge=st.integers(0, 1), rank=st.integers(1, 4),
       min_pts=st.integers(2, 8), space=st.sampled_from([DEGREE_EUCLIDEAN, METER_PLANAR]))
def test_dbscan_float_labels_with_eps_on_a_pair_distance(sample, bridge, rank, min_pts, space):
    points, bridges = sample
    traj = Trajectory([TrajectoryRecord(float(i), GeoPoint(lat, lon), i)
                       for i, (lat, lon) in enumerate(points)])
    lats, lons = [p[0] for p in points], [p[1] for p in points]
    coords = (np.column_stack([lons, lats]) if space == DEGREE_EUCLIDEAN
              else planar_coords(lats, lons))
    # eps: the distance from a bridge to its rank-th nearest other point
    dist = np.sqrt(np.sum((coords - coords[bridge % bridges]) ** 2, axis=1))
    eps = float(np.sort(dist)[rank])
    assume(eps > 0)

    labels, core = bfs_dbscan(coords, eps, min_pts)
    for stripe, got in striped_dbscan(traj, DbscanParams(eps, min_pts, space)):
        assert np.array_equal(got.core, core), stripe
        assert np.array_equal(got.labels, labels), stripe


# A hop is a few meters (a dwell) or about 55 m (a move) against delta 10 m;
# whole-second gaps, zero included, let runs last exactly tau.
HOPS = st.tuples(st.sampled_from([0, 1, 2, 5, 10]),
                 st.one_of(st.floats(-3e-5, 3e-5), st.sampled_from([5e-4, -5e-4])),
                 st.floats(-3e-5, 3e-5))


@example(hops=[], tau=5)                                   # a single point
@example(hops=[(1, 0.0, 0.0)] * 5, tau=5)                  # a run lasting exactly tau
@example(hops=[(1, 0.0, 0.0)] * 6, tau=5)
@example(hops=[(0, 1e-5, 0.0)] * 8 + [(7, 0.0, 0.0)], tau=5)  # repeated timestamps
@example(hops=[(3, 0.0, 0.0)] * 3 + [(1, 5e-4, 0.0)] + [(3, 0.0, 0.0)] * 3, tau=8)
@settings(max_examples=300, deadline=None)
@given(hops=st.lists(HOPS, max_size=40), tau=st.sampled_from([1, 5, 10, 20]))
def test_threshold_detector_equals_record_loop(hops, tau):
    rows = [(1000.0, 47.6, -122.3)]
    for dt, dlat, dlon in hops:
        t, lat, lon = rows[-1]
        rows.append((t + dt, lat + dlat, lon + dlon))
    t, lat, lon = zip(*rows)
    traj = Trajectory.from_columns(t, lat, lon, np.arange(len(rows)))
    got = [(s.x, s.y, s.t_a, s.t_l, s.member_count, s.cluster_id)
           for s in threshold_staypoint_detect(traj, delta=10.0, tau=float(tau))]
    assert got == window_staypoints(rows, 10.0, float(tau))


def test_threshold_reference_holds_under_a_compensated_builtin_sum(compensated_builtin_sum):
    # a compensated sum of this run's latitudes rounds their mean one unit in
    # the last place away from the left-to-right sum the mean is defined by
    test_threshold_detector_equals_record_loop.hypothesis.inner_test(
        hops=[(1, 3e-5, 0.0)] * 7, tau=5)
