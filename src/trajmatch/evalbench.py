"""Raw-vs-reduced evaluation: accuracy against a truth route, timing,
volume metrics, synthetic scenario generation, and plot-ready exports.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geo import GeoPoint, PlanarPoint, Projection
from .io import (
    RoadNetwork,
    Trajectory,
    build_network,
    write_csv,
    write_lines,
    write_road_network,
    write_trajectory,
)
from .fuzzy import RuleBase, default_rule_base
from .matcher import MatcherConfig, MatchResult, TooFewPointsError, match_trajectory
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
    truth: tuple[str, ...]  # the route's edge ids in order
    dwell_windows: list[tuple[float, float, float]]  # (start_s, duration_s, sigma_m)
    dwell_centers: list[GeoPoint]


def correct_link_count(edge_sequence: Iterable[str], truth: Sequence[str]) -> int:
    """The length of the longest common subsequence of two sequences of edge
    ids, a matched edge sequence and a truth route: order-respecting credit,
    bounded by the truth length.

    Bit-parallel LCS (Allison & Dix, IPL 1986; Hyyrö, 2004). One Python int
    holds a DP row as a bit per truth position, a 0 bit where the row steps
    up; each edge id updates the whole row with one masked add, subtract
    and or. That is O(|seq|) big-int steps, O(|seq| * |truth| / w) machine
    words for a word size w, against O(|seq| * |truth|) for the plain DP,
    and gives the same integer.
    """
    masks: dict[str, int] = {}
    for j, y in enumerate(truth):
        masks[y] = masks.get(y, 0) | (1 << j)
    full = (1 << len(truth)) - 1
    v = full
    for x in edge_sequence:
        u = v & masks.get(x, 0)
        v = ((v + u) | (v - u)) & full
    return len(truth) - v.bit_count()


def _timed_match(network, traj, truth, rules, cfg) -> tuple[MatchResult, RunMetrics]:
    """The first of TIMING_REPEATS matches of traj, and its metrics with the
    wall time taken as the median of the repeats; only one result is kept."""
    result = match_trajectory(network, traj, rules, cfg)
    times = [result.wall_time_s] + [match_trajectory(network, traj, rules, cfg).wall_time_s
                                    for _ in range(TIMING_REPEATS - 1)]
    return result, RunMetrics(correct_link_count(result.edge_sequence, truth), len(truth),
                              len(traj), statistics.median(times))


def run_pipeline(network: RoadNetwork, traj: Trajectory,
                 truth: tuple[str, ...], eps: float, min_pts: int,
                 rules: RuleBase | None = None,
                 cfg: MatcherConfig = MatcherConfig(),
                 metric_space: str = "degree-euclidean") -> ComparisonReport:
    """Match the raw trajectory, then cluster-reduce and match again with
    identical configuration; report both runs side by side.

    Raises TooFewPointsError, before any matching, when the reduced
    trajectory has fewer than 2 points.
    """
    rules = rules or default_rule_base()
    labels = dbscan(traj, DbscanParams(eps, min_pts, metric_space))
    stay_points = summarize_clusters(traj, labels)
    reduced = reduce_trajectory(traj, labels, stay_points).trajectory
    if len(reduced) < 2:
        raise TooFewPointsError(f"eps={eps!r} and min_pts={min_pts} reduce the trajectory "
                                f"to {len(reduced)} point, fewer than the 2 matching needs")

    raw_result, raw = _timed_match(network, traj, truth, rules, cfg)
    red_result, red = _timed_match(network, reduced, truth, rules, cfg)
    return ComparisonReport(
        raw=raw, reduced=red,
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
    reproducing the stationary-receiver noise pattern. A dwell that starts
    after the route's last sample raises ValueError.
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
    truth = tuple(edge_by_nodes[(node_id(*a), node_id(*b))]
                  for a, b in zip(path_nodes, path_nodes[1:]))

    # true positions at 1 Hz along the node path
    waypoints = [(i * edge_len_m, j * edge_len_m) for i, j in path_nodes]
    travel_time = edge_len_m / speed_mps * route_edges
    dwell_spec = sorted(dwell_spec or [])

    emitted = []  # planar (x, y) of each 1 Hz sample
    dwell_centers: list[GeoPoint] = []
    t_route = 0.0
    pending = list(dwell_spec)
    while t_route <= travel_time + 1e-9:
        x, y = _route_position(waypoints, speed_mps, t_route)
        while pending and t_route >= pending[0][0]:
            _, duration, sigma = pending.pop(0)
            dwell_centers.append(proj.unproject(PlanarPoint(x, y)))
            for _ in range(int(duration)):
                emitted.append((x, y) + rng.normal(0.0, sigma, size=2))
        emitted.append((x, y) + rng.normal(0.0, jitter_sigma_m, size=2))
        t_route += 1.0
    if pending:
        dropped = ", ".join(f"{start:g}:{duration:g}:{sigma:g}"
                            for start, duration, sigma in pending)
        raise ValueError(f"dwell {dropped} starts after the route's last sample "
                         f"at {t_route - 1.0:g} s")
    n = len(emitted)
    lat, lon = proj.unproject_xy(*np.array(emitted).T)
    traj = Trajectory.from_columns(np.arange(n, dtype=np.float64), lat, lon, np.arange(n),
                                   traj_id=f"synthetic:{seed}")
    return SyntheticScenario(network, traj, truth,
                             dwell_windows=dwell_spec, dwell_centers=dwell_centers)


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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_road_network(scn.network, out / "network.csv")
    write_trajectory(scn.trajectory, out / "trajectory.csv")
    write_lines(out / "truth.txt", scn.truth)


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
        "volume_reduction_pct": report.volume_reduction_pct,
        "accuracy_delta": report.accuracy_delta,
        "timing.raw.matching_wall_time_s": report.raw.matching_wall_time,
        "timing.reduced.matching_wall_time_s": report.reduced.matching_wall_time,
        "timing.raw.per_point_time_us": report.raw.per_point_time_us,
        "timing.reduced.per_point_time_us": report.reduced.per_point_time_us,
        "timing.time_reduction_pct": report.time_reduction_pct,
        "timing.speed_gain_pct": report.speed_gain_pct,
    }
    write_lines(out / "report.txt", (f"{key}={val}" for key, val in lines.items()))
    for name, column, attr in (("volume_pair.csv", "input_points", "input_points"),
                               ("timing_pair.csv", "matching_wall_time_s",
                                "matching_wall_time"),
                               ("speed_pair.csv", "per_point_time_us", "per_point_time_us")):
        write_csv(out / name, ["run", column],
                  [["raw", getattr(report.raw, attr)], ["reduced", getattr(report.reduced, attr)]])
    if eps_sweep is not None:
        write_csv(out / "eps_sweep.csv", ["eps", "clustered_points", "noise_points"], eps_sweep)
