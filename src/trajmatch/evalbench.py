"""Raw-vs-reduced evaluation: accuracy against a truth route, timing,
volume metrics, synthetic scenario generation, and plot-ready exports.
"""

from __future__ import annotations

import csv
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geo import GeoPoint, PlanarPoint, Projection
from .io import (
    GroundTruthRoute,
    RoadNetwork,
    Trajectory,
    TrajectoryRecord,
    build_network,
)
from .fuzzy import RuleBase, default_rule_base
from .matcher import MatcherConfig, MatchResult, match_trajectory
from .staypoint import DbscanParams, dbscan, reduce_trajectory, summarize_clusters

TIMING_REPEATS = 5


@dataclass
class RunMetrics:
    correct_links: int
    total_truth_links: int
    input_points: int
    matching_wall_time: float  # seconds, median of repeats

    @property
    def per_point_time_us(self) -> float:
        return self.matching_wall_time / self.input_points * 1e6


@dataclass
class ComparisonReport:
    raw: RunMetrics
    reduced: RunMetrics
    cluster_count: int
    noise_count: int
    raw_result: MatchResult
    reduced_result: MatchResult

    @property
    def volume_reduction_pct(self) -> float:
        return 100.0 * (self.raw.input_points - self.reduced.input_points) \
            / self.raw.input_points

    @property
    def time_reduction_pct(self) -> float:
        return 100.0 * (self.raw.matching_wall_time - self.reduced.matching_wall_time) \
            / self.raw.matching_wall_time

    @property
    def speed_gain_pct(self) -> float:
        return 100.0 * (self.raw.per_point_time_us - self.reduced.per_point_time_us) \
            / self.raw.per_point_time_us

    @property
    def accuracy_delta(self) -> int:
        return self.reduced.correct_links - self.raw.correct_links


@dataclass
class SyntheticScenario:
    network: RoadNetwork
    trajectory: Trajectory
    truth: GroundTruthRoute
    dwell_windows: list[tuple[float, float, float]]  # (start_s, duration_s, sigma_m)
    dwell_centers: list[GeoPoint]


def correct_link_count(result: MatchResult, truth: GroundTruthRoute) -> int:
    """Longest common subsequence between the matched edge sequence and the
    truth route: order-respecting credit, bounded by the truth length."""
    a, b = result.edge_sequence, truth.edge_ids
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


def _timed_match(network, traj, rules, cfg) -> tuple[MatchResult, float]:
    """Match with the wall time taken as the median of repeated runs."""
    times = []
    result = None
    for _ in range(TIMING_REPEATS):
        r = match_trajectory(network, traj, rules, cfg)
        times.append(r.wall_time_s)
        if result is None:
            result = r
    return result, statistics.median(times)


def run_pipeline(network: RoadNetwork, traj: Trajectory,
                 truth: GroundTruthRoute, eps: float, min_pts: int,
                 rules: RuleBase | None = None,
                 cfg: MatcherConfig = MatcherConfig(),
                 metric_space: str = "degree-euclidean") -> ComparisonReport:
    """Match the raw trajectory, then cluster-reduce and match again with
    identical configuration; report both runs side by side."""
    rules = rules or default_rule_base()
    labels = dbscan(traj, DbscanParams(eps, min_pts, metric_space))
    stay_points = summarize_clusters(traj, labels)
    reduced = reduce_trajectory(traj, labels, stay_points).trajectory

    raw_result, raw_time = _timed_match(network, traj, rules, cfg)
    red_result, red_time = _timed_match(network, reduced, rules, cfg)

    raw_metrics = RunMetrics(
        correct_links=correct_link_count(raw_result, truth),
        total_truth_links=len(truth),
        input_points=len(traj),
        matching_wall_time=raw_time,
    )
    red_metrics = RunMetrics(
        correct_links=correct_link_count(red_result, truth),
        total_truth_links=len(truth),
        input_points=len(reduced),
        matching_wall_time=red_time,
    )
    return ComparisonReport(
        raw=raw_metrics, reduced=red_metrics,
        cluster_count=labels.cluster_count, noise_count=labels.noise_count,
        raw_result=raw_result, reduced_result=red_result,
    )


def generate_scenario(seed: int, grid_size: int = 6, edge_len_m: float = 200.0,
                      route_edges: int = 12, speed_mps: float = 15.0,
                      jitter_sigma_m: float = 1.5,
                      dwell_spec: list[tuple[float, float, float]] | None = None,
                      origin: GeoPoint = GeoPoint(47.6, -122.3)) -> SyntheticScenario:
    """Deterministic synthetic scenario on a grid road network.

    A route walks the grid at constant speed with 1 Hz Gaussian-jittered
    samples. Inside each dwell window (start_s, duration_s, sigma_m) the
    true position freezes while emitted points keep jittering around it,
    reproducing the stationary-receiver noise pattern.
    """
    rng = np.random.default_rng(seed)
    proj = Projection(origin)

    def node_id(i, j):
        return f"n{i}_{j}"

    def node_geo(i, j):
        return proj.unproject(PlanarPoint(i * edge_len_m, j * edge_len_m))

    edges = []
    for i in range(grid_size):
        for j in range(grid_size):
            if i + 1 < grid_size:
                edges.append((f"h{i}_{j}", node_id(i, j), node_id(i + 1, j),
                              [node_geo(i, j), node_geo(i + 1, j)]))
            if j + 1 < grid_size:
                edges.append((f"v{i}_{j}", node_id(i, j), node_id(i, j + 1),
                              [node_geo(i, j), node_geo(i, j + 1)]))
    network = build_network(edges)

    # random self-avoiding-ish walk over grid nodes
    edge_by_nodes = {}
    for eid, nf, nt, _ in edges:
        edge_by_nodes[(nf, nt)] = eid
        edge_by_nodes[(nt, nf)] = eid
    pos = (grid_size // 2, grid_size // 2)
    path_nodes = [pos]
    for _ in range(route_edges):
        i, j = pos
        options = [(i + di, j + dj) for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1))
                   if 0 <= i + di < grid_size and 0 <= j + dj < grid_size]
        options = [o for o in options if len(path_nodes) < 2 or o != path_nodes[-2]]
        pos = options[rng.integers(len(options))]
        path_nodes.append(pos)
    truth_ids = [edge_by_nodes[(node_id(*a), node_id(*b))]
                 for a, b in zip(path_nodes, path_nodes[1:])]
    truth = GroundTruthRoute(tuple(truth_ids))

    # true positions at 1 Hz along the node path
    waypoints = [(i * edge_len_m, j * edge_len_m) for i, j in path_nodes]
    travel_time = edge_len_m / speed_mps * route_edges
    dwell_spec = sorted(dwell_spec or [])

    records = []
    dwell_centers: list[GeoPoint] = []
    t_emit = 0.0
    t_route = 0.0
    pending = list(dwell_spec)
    while t_route <= travel_time + 1e-9:
        x, y = _route_position(waypoints, speed_mps, t_route)
        if pending and t_route >= pending[0][0]:
            _, duration, sigma = pending.pop(0)
            dwell_centers.append(proj.unproject(PlanarPoint(x, y)))
            for _ in range(int(duration)):
                jx, jy = rng.normal(0.0, sigma, size=2)
                records.append(_record(proj, x + jx, y + jy, t_emit, len(records)))
                t_emit += 1.0
        jx, jy = rng.normal(0.0, jitter_sigma_m, size=2)
        records.append(_record(proj, x + jx, y + jy, t_emit, len(records)))
        t_emit += 1.0
        t_route += 1.0
    traj = Trajectory(records, traj_id=f"synthetic:{seed}")
    return SyntheticScenario(network, traj, truth,
                             dwell_windows=dwell_spec, dwell_centers=dwell_centers)


def _record(proj, x, y, t, idx):
    g = proj.unproject(PlanarPoint(float(x), float(y)))
    return TrajectoryRecord(t, g, source_index=idx)


def _route_position(waypoints, speed, t):
    """Position along the waypoint chain after traveling for t seconds."""
    remaining = speed * t
    for (x0, y0), (x1, y1) in zip(waypoints, waypoints[1:]):
        seg = math.hypot(x1 - x0, y1 - y0)
        if remaining <= seg:
            f = remaining / seg
            return x0 + f * (x1 - x0), y0 + f * (y1 - y0)
        remaining -= seg
    return waypoints[-1]


def write_scenario(scn: SyntheticScenario, out_dir):
    """Serialize a scenario to network/trajectory/truth files."""
    from .io import write_trajectory
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "network.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["edge_id", "node_from", "node_to", "wkt"])
        for e in sorted(scn.network.edges.values(), key=lambda e: e.edge_id):
            wkt = "LINESTRING (" + ", ".join(
                f"{repr(p.lon)} {repr(p.lat)}" for p in e.geo_vertices) + ")"
            w.writerow([e.edge_id, e.node_from, e.node_to, wkt])
    write_trajectory(scn.trajectory, out / "trajectory.csv")
    with open(out / "truth.txt", "w", encoding="utf-8") as fh:
        for eid in scn.truth.edge_ids:
            fh.write(eid + "\n")


def export_report(report: ComparisonReport, out_dir,
                  eps_sweep: list[tuple[float, int, int]] | None = None):
    """Write the key-value report plus plot-ready CSV series.

    Timing-derived values live under the `timing.` prefix and in the
    timing/speed CSVs so deterministic fields can be compared bytewise
    across runs.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = {
        "raw.input_points": report.raw.input_points,
        "raw.correct_links": report.raw.correct_links,
        "reduced.input_points": report.reduced.input_points,
        "reduced.correct_links": report.reduced.correct_links,
        "total_truth_links": report.raw.total_truth_links,
        "cluster_count": report.cluster_count,
        "noise_count": report.noise_count,
        "volume_reduction_pct": repr(report.volume_reduction_pct),
        "accuracy_delta": report.accuracy_delta,
        "timing.raw.matching_wall_time_s": repr(report.raw.matching_wall_time),
        "timing.reduced.matching_wall_time_s": repr(report.reduced.matching_wall_time),
        "timing.raw.per_point_time_us": repr(report.raw.per_point_time_us),
        "timing.reduced.per_point_time_us": repr(report.reduced.per_point_time_us),
        "timing.time_reduction_pct": repr(report.time_reduction_pct),
        "timing.speed_gain_pct": repr(report.speed_gain_pct),
    }
    with open(out / "report.txt", "w", encoding="utf-8") as fh:
        for key, val in lines.items():
            fh.write(f"{key}={val}\n")

    with open(out / "volume_pair.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["run", "input_points"])
        w.writerow(["raw", report.raw.input_points])
        w.writerow(["reduced", report.reduced.input_points])
    with open(out / "timing_pair.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["run", "matching_wall_time_s"])
        w.writerow(["raw", repr(report.raw.matching_wall_time)])
        w.writerow(["reduced", repr(report.reduced.matching_wall_time)])
    with open(out / "speed_pair.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["run", "per_point_time_us"])
        w.writerow(["raw", repr(report.raw.per_point_time_us)])
        w.writerow(["reduced", repr(report.reduced.per_point_time_us)])
    if eps_sweep is not None:
        with open(out / "eps_sweep.csv", "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["eps", "clustered_points", "noise_points"])
            for eps, clustered, noise in eps_sweep:
                w.writerow([repr(eps), clustered, noise])


def read_report(path) -> dict[str, str]:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                key, _, val = line.partition("=")
                out[key] = val
    return out
