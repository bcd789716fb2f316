"""Stay-point detection: DBSCAN clustering, k-NN elbow curve, reduction.

Two metric spaces are supported:
  degree-euclidean: plain Euclidean distance on raw (lon, lat) degrees,
      matching epsilon values quoted in degrees;
  meter-planar: Euclidean distance on locally projected meters.

DBSCAN sweeps the points along one axis and finds the pairs within eps one
stripe at a time, each pair once; its working set is O(STRIPE x the largest
eps-neighbourhood + n x min_pts) for n points, not the whole trace's pair
count, unless an eps-wide slab across the sweep holds more than STRIPE
points (see dbscan).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np
from scipy.spatial import cKDTree

from .geo import GeoPoint, Projection, haversine_lat_lon
from .io import Trajectory, write_csv

NOISE = -1

# Points per stripe of the sweep in `dbscan` (at least; see its docstring).
STRIPE = 2048

DEGREE_EUCLIDEAN = "degree-euclidean"
METER_PLANAR = "meter-planar"


@dataclass(frozen=True)
class DbscanParams:
    eps: float
    min_pts: int
    metric_space: str = DEGREE_EUCLIDEAN

    def __post_init__(self):
        if not 0 < self.eps < math.inf:
            raise ValueError(f"eps must be a finite number > 0, got {self.eps!r}")
        if self.min_pts < 1:
            raise ValueError("min_pts must be >= 1")
        if self.metric_space not in (DEGREE_EUCLIDEAN, METER_PLANAR):
            raise ValueError(f"unknown metric_space {self.metric_space!r}")


@dataclass
class ClusterLabel:
    labels: np.ndarray  # per record: NOISE or cluster ordinal >= 0
    core: np.ndarray    # per record: bool

    @property
    def cluster_count(self) -> int:
        non_noise = self.labels[self.labels != NOISE]
        return int(non_noise.max()) + 1 if non_noise.size else 0

    @property
    def noise_count(self) -> int:
        return int(np.sum(self.labels == NOISE))


@dataclass(frozen=True)
class StayPoint:
    x: float            # mean longitude, degrees
    y: float            # mean latitude, degrees
    t_a: float          # arrival timestamp
    t_l: float          # leave timestamp
    member_count: int
    cluster_id: int


@dataclass
class ReducedTrajectory:
    trajectory: Trajectory
    provenance: tuple[str, ...]  # per record: "original" or "representative:<id>"


@dataclass
class KnnCurve:
    k: int
    distances: np.ndarray  # sorted ascending, one entry per input point


@dataclass(frozen=True)
class ElbowCandidate:
    index: int
    distance: float
    score: float


def _coords(traj: Trajectory, metric_space: str) -> np.ndarray:
    """Point coordinates as an (n, 2) array in the chosen metric space."""
    if metric_space == DEGREE_EUCLIDEAN:
        return np.column_stack([traj.lon, traj.lat])
    proj = Projection(GeoPoint(float(traj.lat.mean()), float(traj.lon.mean())))
    return np.column_stack(proj.project_lonlat(traj.lon, traj.lat))


def knn_distance_curve(traj: Trajectory, k: int,
                       metric_space: str = DEGREE_EUCLIDEAN) -> KnnCurve:
    """Sorted distances to each point's k-th nearest other point."""
    n = len(traj)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= n:
        raise ValueError(f"k={k} must be smaller than the point count ({n})")
    coords = _coords(traj, metric_space)
    tree = cKDTree(coords)
    dists, _ = tree.query(coords, k=k + 1)  # column 0 is the point itself
    return KnnCurve(k=k, distances=np.sort(dists[:, k]))


def _lowest_connected(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """For each of n nodes, the lowest node of its connected component in
    the undirected graph with edges (i[k], j[k]).

    Min-label hooking with pointer jumping: each round, every tree root
    with an edge into another tree hooks onto the lowest root across such
    edges, then every node is pointed straight at its tree's root. It
    stops when both ends of every edge point at the same node; pointers
    only move to lower nodes of the same component, so that node is the
    component's lowest. A tree that neither hooks nor is hooked onto in
    one round hooks in the next, so the number of trees halves at least
    every two rounds.
    """
    root = np.arange(n, dtype=i.dtype)
    while True:
        ri, rj = root[i], root[j]
        cross = ri != rj
        if not cross.any():
            return root
        ri, rj = ri[cross], rj[cross]
        np.minimum.at(root, np.maximum(ri, rj), np.minimum(ri, rj))
        up = root[root]
        while not np.array_equal(up, root):
            root, up = up, up[up]


def _halo_end(xs, b: int, reach: float) -> int:
    """The end of the halo of a stripe that ends before sweep position b:
    the first position j >= b with xs[j] - xs[b - 1] > reach, or len(xs).

    The float difference never decreases as j grows, since xs is sorted.
    The rounded sum xs[b - 1] + reach would never leave out such a point,
    but can take in later ones."""
    last = xs[b - 1]
    return bisect_right(xs, reach, lo=b, key=lambda x: x - last)


def dbscan(traj: Trajectory, params: DbscanParams) -> ClusterLabel:
    """DBSCAN with self-inclusive neighborhood counting, a stripe at a time.

    Every label comes from the pairs within eps that k-d trees give
    (`query_pairs`):
      - a point is core iff its eps-ball, itself included, holds >= min_pts
        points: 1 + its number of pairs;
      - clusters are the connected components of the core-core pairs,
        numbered 0, 1, ... in order of their lowest core index;
      - a non-core point takes the smallest cluster id over its pairs with a
        core point, or NOISE if it has none.
    The labelling depends only on the points and their order.

    The pairs are found and used one stripe at a time. The points are
    sorted along the axis of larger extent and cut into stripes of at least
    STRIPE points (but the last). A stripe's halo is the later points at
    most eps * (1 + 1e-9) beyond its last one along that axis; the next
    stripe covers the halo, and a halo larger than its stripe joins the
    stripe (so a dense cloud is one stripe). Invariant: each pair within
    eps is found once, in the tree over the stripe that holds its earlier
    end in sweep order plus that stripe's halo, and each point is in at
    most two trees. A stripe is settled, down to a spanning forest of its
    core-core pairs and its border pairs, once the stripes after it cover
    its halo: every count its pairs touch is then final.

    The working set is O(m * k + n * min_pts) for n points, trees of at
    most m points (2 * STRIPE, unless an eps-wide slab across the sweep
    axis holds more than STRIPE points) and eps-neighbourhoods of at most k
    points: two stripes' pairs, at most 2n forest edges and at most
    n * (min_pts - 1) border pairs.
    """
    coords = _coords(traj, params.metric_space)
    n = len(coords)
    axis = int(np.ptp(coords[:, 1]) > np.ptp(coords[:, 0]))
    order = np.argsort(coords[:, axis], kind="stable")
    xs = coords[order, axis]
    ids = order.astype(np.min_scalar_type(n))  # a smaller working set
    reach = float(params.eps) * (1 + 1e-9)
    count = np.ones(n, dtype=np.intp)  # per sweep position, itself included
    forest, border, held = [], [], []  # every stripe is settled, so none stays empty

    def settle(a, h, pairs):
        p, q = pairs[:, 0], pairs[:, 1]
        local = count[a:h] >= params.min_pts
        core_p, core_q = local[p], local[q]
        both = core_p & core_q
        root = _lowest_connected(h - a, p[both], q[both])
        hooked = np.flatnonzero(root != np.arange(h - a))
        stripe_ids = ids[a:h]
        forest.append((stripe_ids[hooked], stripe_ids[root[hooked]]))
        # a pair with one core end: its other end is a border point
        one = core_p != core_q
        p, q, core_p = p[one], q[one], core_p[one]
        border.append((stripe_ids[np.where(core_p, q, p)], stripe_ids[np.where(core_p, p, q)]))

    a = h = 0
    while a < n:
        b = min(max(a + STRIPE, h), n)
        h = _halo_end(xs, b, reach)
        while h - b > b - a:
            b, h = h, _halo_end(xs, h, reach)
        tree = cKDTree(coords[order[a:h]], balanced_tree=False, compact_nodes=False)
        pairs = tree.query_pairs(params.eps, output_type="ndarray")
        pairs = pairs[pairs[:, 0] < b - a]
        count[a:h] += np.bincount(pairs.ravel(), minlength=h - a)
        held.append((a, h, pairs))
        while held and held[0][1] <= b:
            settle(*held.pop(0))
        a = b

    core = np.empty(n, dtype=bool)
    core[order] = count >= params.min_pts
    roots, cluster = np.unique(
        _lowest_connected(n, *map(np.concatenate, zip(*forest)))[core],
        return_inverse=True)
    n_clusters = roots.size
    best = np.full(n, n_clusters)
    best[core] = cluster
    border_pt, core_pt = map(np.concatenate, zip(*border))
    np.minimum.at(best, border_pt, best[core_pt])
    labels = np.where(best < n_clusters, best, NOISE)
    return ClusterLabel(labels=labels, core=core)


def summarize_clusters(traj: Trajectory, labels: ClusterLabel) -> list[StayPoint]:
    """Per-cluster mean coordinates plus arrival/leave timestamps.

    Each cluster's coordinate sums add its members in index order, one
    after another (np.bincount), then divide by the member count.
    """
    k = labels.cluster_count
    members = np.flatnonzero(labels.labels != NOISE)
    lab = labels.labels[members]
    t, lon, lat = traj.t[members], traj.lon[members], traj.lat[members]
    count = np.bincount(lab, minlength=k)
    t_a = np.full(k, np.inf)
    t_l = np.full(k, -np.inf)
    np.minimum.at(t_a, lab, t)
    np.maximum.at(t_l, lab, t)
    rows = zip((np.bincount(lab, lon, minlength=k) / count).tolist(),
               (np.bincount(lab, lat, minlength=k) / count).tolist(),
               t_a.tolist(), t_l.tolist(), count.tolist())
    return [StayPoint(*row, cluster_id=cid) for cid, row in enumerate(rows)]


def reduce_trajectory(traj: Trajectory, labels: ClusterLabel,
                      stay_points: list[StayPoint]) -> ReducedTrajectory:
    """Collapse each cluster to one representative at its mean position.

    The representative carries the cluster's arrival timestamp and sits at
    the temporal position of the cluster's earliest member; noise records
    pass through untouched.
    """
    by_id = {s.cluster_id: s for s in stay_points}
    reps = [by_id[cid] for cid in range(labels.cluster_count)]
    member = labels.labels != NOISE
    first = np.full(len(reps), np.iinfo(traj.source_index.dtype).max)
    np.minimum.at(first, labels.labels[member], traj.source_index[member])
    noise = np.flatnonzero(~member)
    t = np.concatenate([traj.t[noise], [s.t_a for s in reps]])
    lat = np.concatenate([traj.lat[noise], [s.y for s in reps]])
    lon = np.concatenate([traj.lon[noise], [s.x for s in reps]])
    source = np.concatenate([traj.source_index[noise], first])
    provenance = ["original"] * noise.size + [f"representative:{s.cluster_id}" for s in reps]
    # stable, like sorting (timestamp, source_index) tuples
    order = np.lexsort((source, t))
    reduced = Trajectory.from_columns(t[order], lat[order], lon[order], source[order],
                                      traj_id=traj.id + ":reduced")
    return ReducedTrajectory(reduced, tuple(provenance[i] for i in order.tolist()))


def threshold_staypoint_detect(traj: Trajectory, delta: float = 10.0,
                               tau: float = 60.0) -> list[StayPoint]:
    """Baseline detector: maximal windows where every consecutive hop is
    under delta meters (haversine) and the dwell exceeds tau seconds.

    Hops of delta or more split the trace into maximal runs, and each run
    whose duration exceeds tau is one stay point; timestamps never
    decrease, so no window that starts inside a run lasts longer than the
    whole run. The means are left-to-right sums over the run in time order.
    """
    if delta <= 0 or tau <= 0:
        raise ValueError("delta and tau must be > 0")
    t, lat, lon = traj.t.tolist(), traj.lat.tolist(), traj.lon.tolist()
    hops = map(haversine_lat_lon, lat, lon, lat[1:], lon[1:])
    starts = [0] + [k for k, hop in enumerate(hops, start=1) if not hop < delta]
    out = []
    for i, end in zip(starts, starts[1:] + [len(t)]):
        if t[end - 1] - t[i] > tau:
            out.append(StayPoint(x=reduce(add, lon[i:end], 0.0) / (end - i),
                                 y=reduce(add, lat[i:end], 0.0) / (end - i),
                                 t_a=t[i], t_l=t[end - 1], member_count=end - i,
                                 cluster_id=len(out)))
    return out


def elbow_candidates(curve: KnnCurve, n: int = 5) -> list[ElbowCandidate]:
    """Interior points of the sorted curve ranked by discrete curvature.

    Advisory only; epsilon selection stays a human decision made from the
    emitted curve.
    """
    d = curve.distances
    if d.size < 3:
        raise ValueError("curve must have at least 3 points")
    span = float(d[-1] - d[0]) or 1.0
    norm = (d - d[0]) / span
    score = np.abs(norm[2:] - 2 * norm[1:-1] + norm[:-2])
    order = np.argsort(-score, kind="stable")
    top = order[:n] if n < order.size else order
    return [ElbowCandidate(index=int(i) + 1, distance=float(d[i + 1]),
                           score=float(score[i])) for i in top]


def write_knn_curve(curve: KnnCurve, path):
    write_csv(path, ["rank", "distance"],
              enumerate(curve.distances.tolist()))


def write_staypoints(stay_points: list[StayPoint], path):
    write_csv(path, ["cluster_id", "lat", "lon", "t_arrive", "t_leave", "count"],
              ([s.cluster_id, s.y, s.x, s.t_a, s.t_l, s.member_count] for s in stay_points))
