"""Correctness checks computed apart from trajmatch.

Inputs are parsed again here with the csv module and numpy, distances use
this file's own projection and segment geometry, clusters are checked
against the density-connectivity definition (Ester et al., KDD 1996) with
`scipy.sparse.csgraph`, and the longest common subsequence is a
bit-parallel count (Hyyro 2004), not the program's dynamic programme.
Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

NOISE = -1
METERS_PER_DEGREE = 6_371_000.0 * math.pi / 180.0
ON_EDGE_TOL_M = 1e-3      # a snapped point is on its edge within 1 mm
MEAN_TOL_DEG = 1e-9       # ~0.1 mm; sums in another order differ by ~1e-13
DWELL_SIGMAS = 3.0        # a dwell centre lies within 3 sigma of a stay point


def read_trajectory(path) -> np.ndarray:
    """(n, 3) array of timestamp, lat, lon; epoch-second timestamps only."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, :3]


def read_dwells(path) -> np.ndarray:
    """(d, 3) lat, lon, sigma_m of the generated dwell centres."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array(rows, dtype=float).reshape(-1, 3)


def read_lines(path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [s for s in (line.strip() for line in fh) if s and not s.startswith("#")]


class Network:
    """Edge geometry from network.csv in a local equirectangular frame
    centred on the mean of all vertices."""

    def __init__(self, path):
        self.geo: dict[str, np.ndarray] = {}  # edge id -> (k, 2) lat, lon
        with open(path, newline="", encoding="utf-8") as fh:
            rows = csv.reader(fh)
            header = next(rows)
            col = {k: header.index(k) for k in ("edge_id", "wkt")}
            for row in rows:
                body = row[col["wkt"]]
                body = body[body.index("(") + 1: body.rindex(")")]
                lonlat = np.array([p.split() for p in body.split(",")], dtype=float)
                self.geo[row[col["edge_id"]].strip()] = lonlat[:, ::-1]
        allv = np.concatenate(list(self.geo.values()))
        self.lat0, self.lon0 = allv.mean(axis=0)
        self.kx = math.cos(math.radians(self.lat0)) * METERS_PER_DEGREE
        self.xy = {e: self.project(v) for e, v in self.geo.items()}

    def project(self, latlon: np.ndarray) -> np.ndarray:
        latlon = np.asarray(latlon, dtype=float).reshape(-1, 2)
        return np.column_stack([(latlon[:, 1] - self.lon0) * self.kx,
                                (latlon[:, 0] - self.lat0) * METERS_PER_DEGREE])

    def distance(self, edge_ids, latlon: np.ndarray) -> np.ndarray:
        """Distance in meters from each point to the polyline of its edge."""
        pts = self.project(latlon)
        out = np.empty(len(pts))
        edge_ids = np.asarray(edge_ids)
        for e in np.unique(edge_ids):
            sel = edge_ids == e
            out[sel] = _polyline_distance(pts[sel], self.xy[e])
        return out


def _polyline_distance(pts: np.ndarray, verts: np.ndarray) -> np.ndarray:
    best = np.full(len(pts), np.inf)
    for a, b in zip(verts[:-1], verts[1:]):
        ab = b - a
        t = np.clip(((pts - a) @ ab) / (ab @ ab), 0.0, 1.0)
        best = np.minimum(best, np.hypot(*(pts - (a + t[:, None] * ab)).T))
    return best


def lcs_length(a, b) -> int:
    """Longest common subsequence length, bit-parallel over b (Hyyro 2004)."""
    masks: dict[str, int] = {}
    for j, y in enumerate(b):
        masks[y] = masks.get(y, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for x in a:
        u = v & masks.get(x, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - bin(v).count("1")


def runs(edge_ids) -> list[str]:
    """Consecutive duplicates collapsed: the edge sequence of a match."""
    out: list[str] = []
    for e in edge_ids:
        if not out or out[-1] != e:
            out.append(e)
    return out


def check_dbscan(coords: np.ndarray, eps: float, min_pts: int,
                 labels: np.ndarray, core: np.ndarray) -> list[str]:
    """Labels against the density-connectivity definition, self-inclusive
    neighbourhoods: core clusters are the components of the core-core eps
    graph, each border point takes the label of one of its core
    neighbours, and no noise point has a core neighbour."""
    n = len(coords)
    if len(labels) != n or len(core) != n:
        return [f"dbscan: {len(labels)} labels for {n} points"]
    pairs = cKDTree(coords).query_pairs(eps, output_type="ndarray")
    i, j = pairs[:, 0], pairs[:, 1]
    my_core = np.bincount(pairs.ravel(), minlength=n) + 1 >= min_pts
    errs = []
    if not np.array_equal(my_core, np.asarray(core, dtype=bool)):
        errs.append(f"dbscan eps={eps}: {int(np.sum(my_core != core))} core flags differ")
        return errs
    cc = my_core[i] & my_core[j]
    graph = coo_matrix((np.ones(cc.sum()), (i[cc], j[cc])), shape=(n, n))
    _, comp = connected_components(graph, directed=False)
    core_idx = np.flatnonzero(my_core)
    comp_of_label: dict[int, int] = {}
    label_of_comp: dict[int, int] = {}
    for p in core_idx:
        lab, c = int(labels[p]), int(comp[p])
        if lab == NOISE or comp_of_label.setdefault(lab, c) != c \
                or label_of_comp.setdefault(c, lab) != lab:
            errs.append(f"dbscan eps={eps}: core point {p} label {lab} does not "
                        f"match its core component")
            return errs
    # core neighbours of every non-core point, both pair directions
    src = np.concatenate([i, j])
    dst = np.concatenate([j, i])
    keep = ~my_core[src] & my_core[dst]
    border_labels: dict[int, set[int]] = {}
    for p, q in zip(src[keep], dst[keep]):
        border_labels.setdefault(int(p), set()).add(int(labels[q]))
    for p in np.flatnonzero(~my_core):
        lab = int(labels[p])
        allowed = border_labels.get(int(p))
        if allowed is None and lab != NOISE:
            errs.append(f"dbscan eps={eps}: point {p} has no core neighbour "
                        f"but label {lab}")
        elif allowed is not None and lab not in allowed:
            errs.append(f"dbscan eps={eps}: border point {p} label {lab} is not "
                        f"a core neighbour's label")
        if errs:
            return errs
    used = sorted(comp_of_label)
    if used != list(range(len(used))):
        errs.append(f"dbscan eps={eps}: cluster ids are not 0..k-1")
    return errs


def expected_reduction(traj: np.ndarray, labels: np.ndarray):
    """Stay points (cluster id, lon, lat, t_arrive, t_leave, count) and the
    reduced (t, lat, lon) trace: noise records kept, each cluster replaced
    by its mean at its arrival time, ordered by (time, first member)."""
    k = int(labels.max()) + 1 if np.any(labels != NOISE) else 0
    member = labels != NOISE
    lab = labels[member]
    count = np.bincount(lab, minlength=k)
    lon = np.bincount(lab, traj[member, 2], minlength=k) / np.maximum(count, 1)
    lat = np.bincount(lab, traj[member, 1], minlength=k) / np.maximum(count, 1)
    t_a = np.full(k, np.inf)
    t_l = np.full(k, -np.inf)
    first = np.full(k, len(traj))
    np.minimum.at(t_a, lab, traj[member, 0])
    np.maximum.at(t_l, lab, traj[member, 0])
    np.minimum.at(first, lab, np.flatnonzero(member))
    stay = np.column_stack([np.arange(k), lon, lat, t_a, t_l, count])
    noise = np.flatnonzero(~member)
    rows = np.concatenate([traj[noise], np.column_stack([t_a, lat, lon])])
    order = np.lexsort((np.concatenate([noise, first]), rows[:, 0]))
    return stay, rows[order]


def check_reduction(traj, labels, stay_points, reduced, dwells, net) -> list[str]:
    """stay_points: (k, 6) as expected_reduction; reduced: (m, 3) t, lat, lon;
    dwells: (d, 3) lat, lon, sigma_m of the generated dwell centres."""
    errs = []
    stay, exp = expected_reduction(traj, labels)
    noise = int(np.sum(labels == NOISE))
    if len(reduced) != noise + len(stay):
        errs.append(f"reduce: {len(reduced)} records, expected noise {noise} "
                    f"+ clusters {len(stay)}")
        return errs
    if np.any(np.diff(reduced[:, 0]) < 0):
        errs.append("reduce: timestamps decrease")
    if stay_points.shape != stay.shape:
        errs.append(f"summarize: {len(stay_points)} stay points, expected {len(stay)}")
        return errs
    if not (np.array_equal(stay_points[:, [0, 3, 4, 5]], stay[:, [0, 3, 4, 5]])
            and np.allclose(stay_points[:, 1:3], stay[:, 1:3], rtol=0, atol=MEAN_TOL_DEG)):
        errs.append("summarize: a stay point is not its members' mean, first "
                    "and last time, and count")
    if not (np.array_equal(reduced[:, 0], exp[:, 0])
            and np.allclose(reduced[:, 1:], exp[:, 1:], rtol=0, atol=MEAN_TOL_DEG)):
        errs.append("reduce: the reduced trace is not the noise records plus "
                    "one mean representative per cluster, in time order")
    if len(dwells):
        if not len(stay):
            return errs + [f"reduce: {len(dwells)} dwells and no stay point"]
        tree = cKDTree(net.project(stay[:, [2, 1]]))
        d, _ = tree.query(net.project(dwells[:, :2]))
        far = d > DWELL_SIGMAS * dwells[:, 2]
        if np.any(far):
            errs.append(f"reduce: {int(far.sum())} dwell centres lie over "
                        f"{DWELL_SIGMAS} sigma from every stay point (worst {d.max():.2f} m)")
    return errs


def check_match(net: Network, inputs: np.ndarray, m: dict, truth: list[str],
                program_correct: int, radius: float) -> list[str]:
    """inputs: (n, 2) lat, lon of the matched trace; m: per-point arrays of
    one MatchResult (`edge_id`, `lat`, `lon`, `confident`) and its
    `edge_sequence`. On these clean inputs every truth link must be
    recovered, in order."""
    errs = []
    n = len(inputs)
    if len(m["edge_id"]) != n:
        return [f"match: {len(m['edge_id'])} matched points for {n} inputs"]
    unknown = set(m["edge_id"]) - set(net.geo)
    if unknown:
        return [f"match: unknown edge ids {sorted(unknown)[:3]}"]
    on = net.distance(m["edge_id"], np.column_stack([m["lat"], m["lon"]]))
    if np.any(on > ON_EDGE_TOL_M):
        errs.append(f"match: {int(np.sum(on > ON_EDGE_TOL_M))} snapped points off "
                    f"their edge (worst {on.max():.3g} m)")
    d = net.distance(m["edge_id"], inputs)
    far = m["confident"] & (d > radius + ON_EDGE_TOL_M)
    if np.any(far):
        errs.append(f"match: {int(far.sum())} confident points lie over {radius} m "
                    f"from their edge (worst {d[far].max():.1f} m)")
    if runs(m["edge_id"]) != list(m["edge_sequence"]):
        errs.append("match: edge sequence is not the run-collapsed point edges")
    lcs = lcs_length(m["edge_sequence"], truth)
    if lcs != program_correct:
        errs.append(f"match: LCS {lcs}, program reports correct_links={program_correct}")
    if lcs != len(truth):
        errs.append(f"match: {lcs} of {len(truth)} truth links recovered")
    return errs
