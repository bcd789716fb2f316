"""DBSCAN labels against the breadth-first and brute-force oracles, as a
Hypothesis property over small lattice point sets.

Points sit on a lattice of pitch H degrees, so repeated cells give
duplicate points, and eps is an odd multiple of H/2, which no lattice
distance comes near: the oracles' distances and the k-d tree's cannot
disagree on a tie.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from trajmatch.geo import GeoPoint
from trajmatch.io import Trajectory, TrajectoryRecord
from trajmatch.staypoint import DbscanParams, dbscan
from oracles import bfs_dbscan, brute_dbscan, brute_dbscan_labels

H = 1e-5


@settings(max_examples=300, deadline=None)
@given(cells=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                      min_size=1, max_size=40),
       reach=st.integers(0, 3), min_pts=st.integers(1, 6))
def test_dbscan_lattice_labels(cells, reach, min_pts):
    traj = Trajectory([TrajectoryRecord(float(i), GeoPoint(47.0 + y * H, -122.0 + x * H), i)
                       for i, (x, y) in enumerate(cells)])
    eps = (reach + 0.5) * H
    got = dbscan(traj, DbscanParams(eps, min_pts))
    coords = [[r.position.lon, r.position.lat] for r in traj]

    core, _ = brute_dbscan(coords, eps, min_pts)
    assert np.array_equal(got.core, core)
    assert np.array_equal(got.labels, brute_dbscan_labels(coords, eps, min_pts))
    labels, bfs_core = bfs_dbscan(coords, eps, min_pts)
    assert np.array_equal(got.labels, labels) and np.array_equal(got.core, bfs_core)
