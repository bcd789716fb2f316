import os
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.spatial import cKDTree

from trajmatch.evalbench import generate_scenario
from trajmatch.geo import GeoPoint
from trajmatch.io import Trajectory, TrajectoryRecord
from trajmatch import staypoint
from trajmatch.staypoint import (
    DEGREE_EUCLIDEAN,
    METER_PLANAR,
    NOISE,
    ClusterLabel,
    DbscanParams,
    KnnCurve,
    _coords,
    dbscan,
    elbow_candidates,
    knn_distance_curve,
    reduce_trajectory,
    summarize_clusters,
    threshold_staypoint_detect,
)
from oracles import (
    bfs_dbscan,
    brute_dbscan,
    brute_dbscan_labels,
    brute_knn_curve,
    per_cluster_reduction,
    planar_coords,
    sequential_sum,
)


def traj_from(points):
    """points: list of (t, lat, lon)."""
    return Trajectory([TrajectoryRecord(t, GeoPoint(lat, lon), i)
                       for i, (t, lat, lon) in enumerate(points)])


def random_traj(rng, n, scale=0.001):
    pts = []
    for i in range(n):
        pts.append((float(i), 47.0 + rng.uniform(0, scale), -122.0 + rng.uniform(0, scale)))
    return traj_from(pts)


# ---------------------------------------------------------------- knn curve

def test_knn_collinear_points():
    # 1 degree of longitude at the equator steps of ~1e-5 deg
    traj = traj_from([(i, 0.0, i * 1e-5) for i in range(4)])
    curve = knn_distance_curve(traj, 1)
    assert np.allclose(curve.distances, [1e-5] * 4)


def test_knn_k_too_large():
    traj = traj_from([(0, 0, 0), (1, 0, 1e-5)])
    with pytest.raises(ValueError):
        knn_distance_curve(traj, 2)


def test_knn_matches_bruteforce():
    rng = random.Random(10)
    traj = random_traj(rng, 200)
    for k in (1, 3, 7):
        curve = knn_distance_curve(traj, k)
        coords = [[r.position.lon, r.position.lat] for r in traj]
        assert np.allclose(curve.distances, brute_knn_curve(coords, k), atol=1e-15)


def test_knn_meter_planar_space():
    traj = traj_from([(i, 47.0 + i * 1e-5, -122.0) for i in range(5)])
    curve = knn_distance_curve(traj, 1, METER_PLANAR)
    # consecutive spacing is ~1.11 m
    assert np.all(curve.distances > 1.0) and np.all(curve.distances < 1.3)


def test_coords_meter_planar_as_per_point_projection():
    rng = random.Random(17)
    traj = random_traj(rng, 300, scale=0.01)
    lats = [r.position.lat for r in traj]
    lons = [r.position.lon for r in traj]
    assert np.array_equal(_coords(traj, METER_PLANAR), planar_coords(lats, lons))
    assert np.array_equal(_coords(traj, DEGREE_EUCLIDEAN), np.column_stack([lons, lats]))


# ------------------------------------------------------------------ dbscan

def test_dbscan_single_dense_cluster():
    traj = traj_from([(i, 47.0, -122.0 + i * 1e-6) for i in range(6)])
    labels = dbscan(traj, DbscanParams(1e-4, 3))
    assert labels.cluster_count == 1
    assert labels.noise_count == 0


def test_dbscan_all_noise():
    traj = traj_from([(i, 47.0, -122.0 + i * 0.01) for i in range(5)])
    labels = dbscan(traj, DbscanParams(1e-5, 2))
    assert labels.cluster_count == 0
    assert labels.noise_count == 5


def test_dbscan_chain_in_shuffled_order():
    # a path of 3,000 points visited in random order: long hooking chains
    rng = random.Random(18)
    steps = list(range(3000))
    rng.shuffle(steps)
    traj = traj_from([(i, 47.0, -122.0 + k * 1e-5) for i, k in enumerate(steps)])
    labels = dbscan(traj, DbscanParams(1.5e-5, 1))
    assert labels.cluster_count == 1 and labels.noise_count == 0
    gapped = traj_from([(i, 47.0, -122.0 + k * 1e-5 + (k >= 1500) * 1e-4)
                        for i, k in enumerate(steps)])
    labels = dbscan(gapped, DbscanParams(1.5e-5, 1))
    # two runs, numbered by the first index of each
    assert labels.labels[0] == 0
    assert set(labels.labels.tolist()) == {0, 1}
    assert all((labels.labels[i] == labels.labels[0]) == ((k >= 1500) == (steps[0] >= 1500))
               for i, k in enumerate(steps))


@pytest.mark.parametrize("a_first", [True, False])
def test_dbscan_one_tree_one_pair_query(monkeypatch, a_first):
    # Along one parallel, in steps of H: cluster A at 0..2, cluster B at
    # 6..8, a border point p at 4 within eps of a core of each, and two
    # points at 12 and 13 within eps of each other only.
    calls = []

    class CountingTree(cKDTree):
        def __init__(self, *args, **kwargs):
            calls.append("tree")
            super().__init__(*args, **kwargs)

    for name in ("query", "query_ball_point", "query_ball_tree", "query_pairs",
                 "count_neighbors", "sparse_distance_matrix"):
        def counting(self, *args, _name=name, **kwargs):
            calls.append(_name)
            return getattr(cKDTree, _name)(self, *args, **kwargs)
        setattr(CountingTree, name, counting)

    monkeypatch.setattr(staypoint, "cKDTree", CountingTree)
    H = 1e-5
    a, b = [0.0, 0.5, 1.0, 1.5, 2.0], [6.0, 6.5, 7.0, 7.5, 8.0]
    xs = [4.0] + (a + b if a_first else b + a) + [12.0, 13.0]
    traj = traj_from([(i, 0.0, x * H) for i, x in enumerate(xs)])
    got = dbscan(traj, DbscanParams(2.2 * H, 4))
    assert calls == ["tree", "query_pairs"]

    labels = got.labels.tolist()
    assert got.core.tolist() == [False] + [True] * 10 + [False, False]
    assert labels[1:11] == [0] * 5 + [1] * 5
    assert labels[0] == 0                     # the smaller of the two cluster ids
    assert labels[11:] == [NOISE, NOISE]      # near only non-core points


def counting_tree(calls, sizes):
    """A cKDTree that appends "tree" and the name of each query it answers
    to calls, and each tree's point count to sizes."""
    class CountingTree(cKDTree):
        def __init__(self, data, *args, **kwargs):
            calls.append("tree")
            sizes.append(len(data))
            super().__init__(data, *args, **kwargs)

    for name in ("query", "query_ball_point", "query_ball_tree", "query_pairs",
                 "count_neighbors", "sparse_distance_matrix"):
        def counting(self, *args, _name=name, **kwargs):
            calls.append(_name)
            return getattr(cKDTree, _name)(self, *args, **kwargs)
        setattr(CountingTree, name, counting)
    return CountingTree


@pytest.mark.parametrize("a_first", [True, False])
def test_dbscan_one_tree_one_pair_query_per_stripe(monkeypatch, a_first):
    # test_dbscan_one_tree_one_pair_query's points in stripes of 3, in H
    # along the sweep: 0 0.5 1 | 1.5 2 4 | 6 6.5 7 | 7.5 8 12 | 13, each
    # tree also holding the later points within eps of its stripe's last one
    calls, sizes = [], []
    monkeypatch.setattr(staypoint, "cKDTree", counting_tree(calls, sizes))
    monkeypatch.setattr(staypoint, "STRIPE", 3)
    H = 1e-5
    a, b = [0.0, 0.5, 1.0, 1.5, 2.0], [6.0, 6.5, 7.0, 7.5, 8.0]
    xs = [4.0] + (a + b if a_first else b + a) + [12.0, 13.0]
    traj = traj_from([(i, 0.0, x * H) for i, x in enumerate(xs)])
    got = dbscan(traj, DbscanParams(2.2 * H, 4))
    assert calls == ["tree", "query_pairs"] * 5
    assert sizes == [5, 4, 5, 4, 1]  # no point in more than two trees

    labels = got.labels.tolist()
    assert got.core.tolist() == [False] + [True] * 10 + [False, False]
    assert labels[1:11] == [0] * 5 + [1] * 5
    assert labels[0] == 0
    assert labels[11:] == [NOISE, NOISE]


def test_dbscan_dense_cloud_is_one_stripe(monkeypatch):
    # each stripe's halo holds every later point and joins it
    calls, sizes = [], []
    monkeypatch.setattr(staypoint, "cKDTree", counting_tree(calls, sizes))
    monkeypatch.setattr(staypoint, "STRIPE", 3)
    traj = traj_from([(i, 47.0, -122.0 + (i % 4) * 1e-6) for i in range(20)])
    got = dbscan(traj, DbscanParams(1e-5, 20))
    assert calls == ["tree", "query_pairs"] and sizes == [20]
    assert got.labels.tolist() == [0] * 20 and got.core.all()


def test_dbscan_working_set_is_bounded():
    # 400 dwells of 80 points, 1.5 m Gaussian jitter, 2e-3 degrees apart,
    # and a line of 8,001 points through them: 1.16 million pairs within
    # eps, 18.5 MB as one array of index pairs (a single pair list grew
    # peak RSS by 26-35 MB), against about 59,000 for a 2,048-point stripe
    # (about 7 MB). Run in a child process, whose peak RSS is its own.
    child = """if True:
        import resource, sys
        import numpy as np
        from trajmatch.io import Trajectory
        from trajmatch.staypoint import DbscanParams, dbscan

        rng = np.random.default_rng(28)
        jitter = 1.5 / 111_195.0
        lon = np.concatenate([np.repeat(-122.0 + np.arange(400) * 2e-3, 80)
                              + rng.normal(0, jitter, 32_000),
                              -122.0 + np.arange(8_001) * 1e-4])
        lat = np.concatenate([47.0 + rng.normal(0, jitter, 32_000), np.full(8_001, 47.0)])
        traj = Trajectory.from_columns(np.arange(lon.size, dtype=float), lat, lon,
                                       np.arange(lon.size))
        dbscan(Trajectory.from_columns([0.0, 1.0], [47.0, 47.0], [-122.0, -122.0], [0, 1]),
               DbscanParams(4e-5, 10))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        labels = dbscan(traj, DbscanParams(4e-5, 10))
        grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
        # ru_maxrss is in KiB, but in bytes on macOS
        print(grown * (1 if sys.platform == "darwin" else 1024), labels.cluster_count)
    """
    pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(staypoint.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    grown, clusters = int(out[0]), int(out[1])
    assert clusters == 400
    assert grown < 14 * 2**20, f"dbscan grew peak RSS by {grown / 2**20:.1f} MiB"


@pytest.mark.parametrize("space", [DEGREE_EUCLIDEAN, METER_PLANAR])
def test_dbscan_eps_near_the_float_maximum(space):
    # the halo reach, eps * (1 + 1e-9), and the tree's squared radius stay
    # free of numpy overflow warnings
    traj = traj_from([(i, 47.0 + (i % 3) * 1e-3, -122.0 + i * 1e-3) for i in range(7)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        labels = dbscan(traj, DbscanParams(1e308, 7, space))
    assert labels.labels.tolist() == [0] * 7 and labels.core.all()


def test_dbscan_params_validation():
    with pytest.raises(ValueError):
        DbscanParams(0.0, 3)
    with pytest.raises(ValueError):
        DbscanParams(1e-5, 0)
    with pytest.raises(ValueError):
        DbscanParams(1e-5, 3, "parsec")


def _check_against_oracle(traj, eps, min_pts):
    labels = dbscan(traj, DbscanParams(eps, min_pts))
    coords = [[r.position.lon, r.position.lat] for r in traj]
    core, comp = brute_dbscan(coords, eps, min_pts)
    assert np.array_equal(labels.core, core)
    # core partition must match up to relabeling
    for i in range(len(traj)):
        if not core[i]:
            continue
        same = {j for j in range(len(traj)) if core[j]
                and labels.labels[j] == labels.labels[i]}
        assert same == set(comp[i])
    # every non-noise record is in exactly one cluster; clusters have a core
    for cid in range(labels.cluster_count):
        members = np.where(labels.labels == cid)[0]
        assert members.size >= 1
        assert labels.core[members].any()
    # the full labelling: clusters numbered by their lowest core index,
    # border points on the smallest id among their core neighbours, noise
    # points with no core neighbour
    assert np.array_equal(labels.labels, brute_dbscan_labels(coords, eps, min_pts))


def test_dbscan_oracle_small_instances():
    rng = random.Random(11)
    for trial in range(30):
        n = rng.randint(5, 60)
        traj = random_traj(rng, n, scale=0.0005)
        eps = rng.uniform(1e-5, 2e-4)
        min_pts = rng.randint(2, 5)
        _check_against_oracle(traj, eps, min_pts)


@pytest.mark.parametrize("space, eps_values", [
    (DEGREE_EUCLIDEAN, (2e-5, 4e-5, 8e-5)),
    (METER_PLANAR, (2.0, 4.0, 8.0)),
])
def test_dbscan_equals_bfs_on_scenarios(space, eps_values):
    for seed in (401, 402):
        traj = generate_scenario(seed, route_edges=30, dwell_spec=[
            (40, 60, 1.5), (150, 80, 2.0), (300, 40, 1.0)]).trajectory
        lats = [r.position.lat for r in traj]
        lons = [r.position.lon for r in traj]
        coords = (np.column_stack([lons, lats]) if space == DEGREE_EUCLIDEAN
                  else planar_coords(lats, lons))
        for eps in eps_values:
            for min_pts in (1, 3, 10):
                got = dbscan(traj, DbscanParams(eps, min_pts, space))
                labels, core = bfs_dbscan(coords, eps, min_pts)
                assert np.array_equal(got.core, core), (seed, eps, min_pts)
                assert np.array_equal(got.labels, labels), (seed, eps, min_pts)


def test_dbscan_core_set_order_invariant():
    rng = random.Random(12)
    traj = random_traj(rng, 80, scale=0.0003)
    params = DbscanParams(5e-5, 3)
    base = dbscan(traj, params)

    order = list(range(len(traj)))
    rng.shuffle(order)
    records = traj.records
    shuffled = Trajectory(
        [TrajectoryRecord(float(k), records[i].position, k)
         for k, i in enumerate(order)])
    perm = dbscan(shuffled, params)
    # core flags are permutation-equivariant
    for k, i in enumerate(order):
        assert perm.core[k] == base.core[i]
    # the partition of core points agrees up to label renaming
    def core_partition(labels, idx_map):
        groups = {}
        for pos, orig in idx_map:
            if labels.core[pos]:
                groups.setdefault(labels.labels[pos], set()).add(orig)
        return {frozenset(g) for g in groups.values()}
    assert core_partition(base, [(i, i) for i in range(len(traj))]) == \
        core_partition(perm, list(enumerate(order)))


# --------------------------------------------------------------- summaries

def test_summarize_arithmetic_mean():
    traj = traj_from([(0, 10.0, 20.0), (5, 12.0, 22.0)])
    labels = ClusterLabel(labels=np.array([0, 0]), core=np.array([True, True]))
    [s] = summarize_clusters(traj, labels)
    assert s.x == 21.0 and s.y == 11.0
    assert s.t_a == 0 and s.t_l == 5 and s.member_count == 2


def test_summarize_singleton():
    traj = traj_from([(3, 10.0, 20.0)])
    labels = ClusterLabel(labels=np.array([0]), core=np.array([True]))
    [s] = summarize_clusters(traj, labels)
    assert (s.x, s.y, s.t_a, s.t_l, s.member_count) == (20.0, 10.0, 3, 3, 1)


def test_summarize_mean_two_pass_and_bbox():
    rng = random.Random(13)
    traj = random_traj(rng, 120, scale=0.0004)
    labels = dbscan(traj, DbscanParams(6e-5, 3))
    for s in summarize_clusters(traj, labels):
        members = [r for r, lab in zip(traj, labels.labels) if lab == s.cluster_id]
        lons = [r.position.lon for r in members]
        lats = [r.position.lat for r in members]
        assert min(lons) <= s.x <= max(lons)
        assert min(lats) <= s.y <= max(lats)
        # left-to-right sums in index order, to the last bit
        assert s.x == sequential_sum(lons) / len(lons)
        assert s.y == sequential_sum(lats) / len(lats)
        assert s.t_a <= s.t_l


# --------------------------------------------------------------- reduction

def test_reduce_all_noise_is_identity():
    traj = traj_from([(i, 47.0, -122.0 + i * 0.01) for i in range(5)])
    labels = ClusterLabel(labels=np.full(5, NOISE), core=np.zeros(5, bool))
    red = reduce_trajectory(traj, labels, [])
    assert [r.position for r in red.trajectory] == [r.position for r in traj]
    assert all(p == "original" for p in red.provenance)


def test_reduce_single_cluster_length():
    pts = [(float(i), 47.0, -122.0 + i * 0.01) for i in range(10)]
    traj = traj_from(pts)
    lab = np.full(10, NOISE)
    lab[3:8] = 0
    labels = ClusterLabel(labels=lab, core=np.zeros(10, bool))
    sps = summarize_clusters(traj, labels)
    red = reduce_trajectory(traj, labels, sps)
    assert len(red.trajectory) == 6
    assert red.trajectory.records[3].timestamp == 3.0  # representative at t_a
    assert "representative:0" in red.provenance


def test_reduce_size_invariant_and_order():
    rng = random.Random(14)
    traj = random_traj(rng, 150, scale=0.0004)
    labels = dbscan(traj, DbscanParams(6e-5, 3))
    sps = summarize_clusters(traj, labels)
    red = reduce_trajectory(traj, labels, sps)
    assert len(red.trajectory) == labels.noise_count + labels.cluster_count
    # surviving originals keep their relative order
    survivors = [r.source_index for r, p in zip(red.trajectory, red.provenance)
                 if p == "original"]
    assert survivors == sorted(survivors)
    ts = [r.timestamp for r in red.trajectory]
    assert ts == sorted(ts)


def test_summarize_and_reduce_match_per_cluster_oracle():
    rng = random.Random(16)
    for trial in range(60):
        n = rng.randint(1, 80)
        rows, t, source = [], 0.0, 0
        for _ in range(n):
            t += rng.choice([0.0, 0.0, 1.0, 2.5])  # runs of equal timestamps
            source += rng.randint(1, 3)
            rows.append((t, 47.0 + rng.uniform(0, 1e-3), -122.0 + rng.uniform(0, 1e-3), source))
        # interleaved clusters, renumbered to 0..k-1 in order of first use
        drawn = [rng.randrange(-1, rng.randint(0, 6)) for _ in range(n)]
        order = {}
        lab = [-1 if d == -1 else order.setdefault(d, len(order)) for d in drawn]
        traj = Trajectory([TrajectoryRecord(t, GeoPoint(lat, lon), src)
                           for t, lat, lon, src in rows])
        labels = ClusterLabel(labels=np.array(lab), core=np.zeros(n, bool))
        want_summaries, want_reduced = per_cluster_reduction(rows, lab)

        sps = summarize_clusters(traj, labels)
        assert [s.cluster_id for s in sps] == list(range(len(want_summaries)))
        assert [(s.x, s.y, s.t_a, s.t_l, s.member_count) for s in sps] == want_summaries
        red = reduce_trajectory(traj, labels, sps)
        got = [(r.timestamp, r.position.lat, r.position.lon, r.source_index, p)
               for r, p in zip(red.trajectory, red.provenance)]
        assert got == want_reduced


# ------------------------------------------------------ threshold detector

def test_threshold_stationary_run():
    traj = traj_from([(i, 47.0, -122.0) for i in range(10)])
    [s] = threshold_staypoint_detect(traj, delta=5.0, tau=5.0)
    assert s.member_count == 10
    assert s.t_a == 0 and s.t_l == 9


def test_threshold_constant_motion():
    # 20 m/s northward: consecutive hops ~20 m > delta
    traj = traj_from([(i, 47.0 + i * 20 / 111194.93, -122.0) for i in range(60)])
    assert threshold_staypoint_detect(traj, delta=5.0, tau=5.0) == []


def test_threshold_window_predicates():
    from trajmatch.geo import haversine_lat_lon
    rng = random.Random(15)
    pts = []
    t = 0.0
    for i in range(200):
        if 50 <= i < 120:
            lat, lon = 47.0005 + rng.uniform(-1e-6, 1e-6), -122.0005
        else:
            lat, lon = 47.0 + i * 2e-4, -122.0
        pts.append((t, lat, lon))
        t += 1.0
    traj = traj_from(pts)
    delta, tau = 10.0, 30.0
    for s in threshold_staypoint_detect(traj, delta, tau):
        assert s.t_l - s.t_a > tau
        members = [r for r in traj if s.t_a <= r.timestamp <= s.t_l]
        for a, b in zip(members, members[1:]):
            assert haversine_lat_lon(a.position.lat, a.position.lon,
                                     b.position.lat, b.position.lon) < delta


# ------------------------------------------------------------------ elbow

def test_elbow_linear_curve_near_zero_scores():
    curve = KnnCurve(k=1, distances=np.linspace(0.0, 1.0, 100))
    for cand in elbow_candidates(curve, 3):
        assert cand.score < 1e-9


def test_elbow_knee_detection():
    d = np.concatenate([np.linspace(0, 0.1, 71), 0.1 + np.linspace(0.05, 1.5, 30)])
    curve = KnnCurve(k=1, distances=np.sort(d))
    top = elbow_candidates(curve, 1)[0]
    assert abs(top.index - 70) <= 2


def test_elbow_n_larger_than_curve():
    curve = KnnCurve(k=1, distances=np.array([0.0, 0.5, 2.0, 2.1]))
    cands = elbow_candidates(curve, 100)
    assert len(cands) == 2  # all interior points, ranked
    assert cands[0].score >= cands[1].score
