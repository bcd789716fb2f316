import random

import pytest

from trajmatch.evalbench import (
    correct_link_count,
    export_report,
    generate_scenario,
    run_pipeline,
    write_scenario,
)
from trajmatch.fuzzy import default_rule_base
from trajmatch.geo import haversine_lat_lon
from trajmatch.io import parse_road_network, parse_trajectory, read_ids
from trajmatch.matcher import match_trajectory
from trajmatch.staypoint import (
    DbscanParams,
    dbscan,
    reduce_trajectory,
    summarize_clusters,
    threshold_staypoint_detect,
)
from oracles import brute_lcs


def test_lcs_identical():
    truth = ("a", "b", "c", "d", "e")
    assert correct_link_count(["a", "b", "c", "d", "e"], truth) == 5


def test_lcs_disjoint():
    truth = ("a", "b")
    assert correct_link_count(["x", "y"], truth) == 0


def test_lcs_partial():
    truth = ("a", "b", "c", "d")
    assert correct_link_count(["a", "x", "b", "d"], truth) == 3


def test_lcs_vs_bruteforce():
    rng = random.Random(40)
    alphabet = list("abcdefgh")
    for _ in range(200):
        a = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
        b = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))
        got = correct_link_count(a, b)
        assert got == brute_lcs(a, b)
        assert got <= min(len(a), len(b))


def test_scenario_deterministic():
    a = generate_scenario(42, dwell_spec=[(50, 80, 2.0)])
    b = generate_scenario(42, dwell_spec=[(50, 80, 2.0)])
    assert len(a.trajectory) == len(b.trajectory)
    for ra, rb in zip(a.trajectory, b.trajectory):
        assert ra.timestamp == rb.timestamp
        assert ra.position == rb.position
    assert a.truth == b.truth


def test_dwells_starting_in_one_step_begin_at_one_sample():
    # The second of two dwells that start between the same two samples began
    # a sample late, and in the route's last step raised ValueError although
    # it starts before the last sample (26 s here).
    one = generate_scenario(0, grid_size=4, route_edges=2, jitter_sigma_m=0.0,
                            dwell_spec=[(25.5, 3.0, 0.2)])
    two = generate_scenario(0, grid_size=4, route_edges=2, jitter_sigma_m=0.0,
                            dwell_spec=[(25.5, 3.0, 0.2), (25.5, 4.0, 0.2)])
    assert len(two.trajectory) == len(one.trajectory) + 4
    assert two.dwell_centers == [one.dwell_centers[0]] * 2
    mid = generate_scenario(0, grid_size=4, route_edges=2,
                            dwell_spec=[(10.7, 3.0, 0.2), (10.2, 3.0, 0.2)])
    assert mid.dwell_centers[0] == mid.dwell_centers[1]


def test_scenario_dwell_density():
    scn = generate_scenario(42, dwell_spec=[(50, 60, 3.0)])
    center = scn.dwell_centers[0]
    near = sum(1 for r in scn.trajectory
               if haversine_lat_lon(r.position.lat, r.position.lon,
                                    center.lat, center.lon) <= 10.0)
    assert near >= 60


def test_scenario_no_dwell_no_staypoints():
    scn = generate_scenario(42, speed_mps=20.0)
    assert threshold_staypoint_detect(scn.trajectory, 10.0, 60.0) == []


def test_scenario_trajectory_near_truth_path():
    from trajmatch.geo import project_onto_polyline
    scn = generate_scenario(9, jitter_sigma_m=1.5)
    for rec in scn.trajectory:
        p = scn.network.projection.project(rec.position)
        dmin = min(project_onto_polyline(p, scn.network.geometry, scn.network.edges[eid])[0]
                   for eid in scn.truth)
        assert dmin < 15.0  # well inside jitter bounds


def test_pipeline_no_clusters_identity():
    scn = generate_scenario(42, speed_mps=20.0)
    # epsilon far below the 20 m inter-sample spacing: nothing clusters
    rep = run_pipeline(scn.network, scn.trajectory, scn.truth,
                       eps=1e-9, min_pts=3)
    assert rep.cluster_count == 0
    assert rep.volume_reduction_pct == 0.0
    assert rep.raw.input_points == rep.reduced.input_points
    labels = dbscan(scn.trajectory, DbscanParams(1e-9, 3))
    reduced = reduce_trajectory(scn.trajectory, labels,
                                summarize_clusters(scn.trajectory, labels)).trajectory
    raw_result, reduced_result = (match_trajectory(scn.network, t, default_rule_base())
                                  for t in (scn.trajectory, reduced))
    assert [m.edge_id for m in raw_result.matched] == \
        [m.edge_id for m in reduced_result.matched]
    assert raw_result.edge_sequence == reduced_result.edge_sequence
    assert rep.raw.correct_links == rep.reduced.correct_links == \
        correct_link_count(raw_result.edge_sequence, scn.truth)


def test_pipeline_dwell_scenario_improves():
    scn = generate_scenario(7, dwell_spec=[(47, 120, 1.5), (113, 120, 1.5)])
    rep = run_pipeline(scn.network, scn.trajectory, scn.truth,
                       eps=4e-5, min_pts=3)
    assert rep.volume_reduction_pct > 0.0
    assert rep.accuracy_delta >= 0
    assert rep.reduced.input_points == \
        rep.raw.input_points - (rep.raw.input_points - rep.noise_count) \
        + rep.cluster_count


def test_report_percentages_recomputable():
    scn = generate_scenario(7, dwell_spec=[(47, 120, 1.5)])
    rep = run_pipeline(scn.network, scn.trajectory, scn.truth,
                       eps=4e-5, min_pts=3)
    expect = 100.0 * (rep.raw.input_points - rep.reduced.input_points) \
        / rep.raw.input_points
    assert abs(rep.volume_reduction_pct - expect) <= 1e-9 * abs(expect)


def read_report(path) -> dict[str, str]:
    """The key=value lines of a report.txt."""
    pairs = (line.partition("=") for _, line in read_ids(path))
    return {key: val for key, _, val in pairs}


def test_export_report_roundtrip(tmp_path):
    scn = generate_scenario(7, dwell_spec=[(47, 120, 1.5)])
    rep = run_pipeline(scn.network, scn.trajectory, scn.truth,
                       eps=4e-5, min_pts=3)
    export_report(rep, tmp_path, eps_sweep=[(2e-5, 10, 100), (4e-5, 20, 90),
                                            (8e-5, 30, 80)])
    back = read_report(tmp_path / "report.txt")
    assert int(back["raw.input_points"]) == rep.raw.input_points
    assert int(back["reduced.input_points"]) == rep.reduced.input_points
    assert float(back["volume_reduction_pct"]) == rep.volume_reduction_pct
    assert int(back["accuracy_delta"]) == rep.accuracy_delta
    assert int(back["cluster_count"]) == rep.cluster_count
    # re-read values still satisfy the report arithmetic
    assert float(back["volume_reduction_pct"]) == pytest.approx(
        100.0 * (int(back["raw.input_points"]) - int(back["reduced.input_points"]))
        / int(back["raw.input_points"]), rel=1e-9)
    sweep = (tmp_path / "eps_sweep.csv").read_text().strip().splitlines()
    assert len(sweep) == 4  # header + 3 rows
    assert (tmp_path / "volume_pair.csv").exists()
    assert (tmp_path / "timing_pair.csv").exists()
    assert (tmp_path / "speed_pair.csv").exists()


def test_write_scenario_roundtrip(tmp_path):
    scn = generate_scenario(5, dwell_spec=[(40, 60, 2.0)])
    write_scenario(scn, tmp_path)
    traj = parse_trajectory(tmp_path / "trajectory.csv")
    net = parse_road_network(tmp_path / "network.csv")
    assert len(traj) == len(scn.trajectory)
    assert set(net.edges) == set(scn.network.edges)
    for a, b in zip(traj, scn.trajectory):
        assert a.position == b.position
        assert a.timestamp == b.timestamp
