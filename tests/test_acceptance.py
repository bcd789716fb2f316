"""Acceptance suite: one printed pass/fail line per criterion.

The published Seattle benchmark is not redistributable with this repo, so
criteria 1-4 run against the vendored miniature fixture in
tests/fixtures/mini with expected values computed by the independent
oracles below (see README, "Reproducing the benchmark numbers", for the
manual benchmark procedure and its published targets).
"""

import random
import statistics

import numpy as np
import pytest

from trajmatch.cli import main as cli_main
from trajmatch.evalbench import generate_scenario, run_pipeline
from trajmatch.fuzzy import default_rule_base, defuzzify_centroid, evaluate, infer
from trajmatch.geo import (
    GeoPoint,
    PlanarPoint,
    Polyline,
    Projection,
    Segment,
    haversine_distance,
    heading_error,
    index_build,
    point_segment_distance,
    project_onto_polyline,
)
from trajmatch.io import parse_ground_truth, parse_road_network, parse_trajectory
from trajmatch.matcher import match_trajectory
from trajmatch.staypoint import (
    DbscanParams,
    dbscan,
    reduce_trajectory,
    summarize_clusters,
    threshold_staypoint_detect,
)
from conftest import FIXTURES
from oracles import brute_dbscan, highres_centroid, sampled_segment_distance

MINI = FIXTURES / "mini"
FIXTURE_EPS = 0.00004
FIXTURE_MIN_PTS = 3
# frozen from the oracle run that produced the vendored fixture
FIXTURE_CLUSTERS = 2
FIXTURE_NOISE = 159
FIXTURE_REDUCED = 161
FIXTURE_POINTS = 401


def check(criterion, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {tag}  {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def mini():
    network = parse_road_network(MINI / "network.csv")
    traj = parse_trajectory(MINI / "trajectory.csv")
    truth = parse_ground_truth(MINI / "truth.txt", network)
    return network, traj, truth


@pytest.fixture(scope="module")
def mini_report(mini):
    network, traj, truth = mini
    return run_pipeline(network, traj, truth, FIXTURE_EPS, FIXTURE_MIN_PTS)


def test_criterion_1_clustering_reproduction(mini):
    _, traj, _ = mini
    labels = dbscan(traj, DbscanParams(FIXTURE_EPS, FIXTURE_MIN_PTS))
    reduced = reduce_trajectory(traj, labels, summarize_clusters(traj, labels))

    # recompute the expected counts with the independent oracle
    coords = [[r.position.lon, r.position.lat] for r in traj]
    core, comp = brute_dbscan(coords, FIXTURE_EPS, FIXTURE_MIN_PTS)
    oracle_clusters = len({fs for fs in comp.values()})

    ok = (labels.cluster_count == FIXTURE_CLUSTERS == oracle_clusters
          and labels.noise_count == FIXTURE_NOISE
          and len(reduced.trajectory) == FIXTURE_REDUCED
          and len(traj) == FIXTURE_POINTS)
    check(1, ok,
          f"clusters={labels.cluster_count} (expect {FIXTURE_CLUSTERS}, "
          f"oracle {oracle_clusters}), noise={labels.noise_count} "
          f"(expect {FIXTURE_NOISE}), reduced={len(reduced.trajectory)} "
          f"(expect {FIXTURE_REDUCED})")


def test_criterion_2_volume_reduction(mini_report):
    rep = mini_report
    expect = 100.0 * (FIXTURE_POINTS - FIXTURE_REDUCED) / FIXTURE_POINTS
    ok = rep.volume_reduction_pct == pytest.approx(expect, abs=1e-9) \
        and rep.volume_reduction_pct > 0.0
    check(2, ok, f"volume_reduction={rep.volume_reduction_pct:.2f}% "
                 f"(fixture expectation {expect:.2f}%; the published dataset "
                 f"target of 27.39±2% is a documented manual run)")


def test_criterion_3_accuracy_preservation(mini_report):
    rep = mini_report
    ok = rep.raw.correct_links == rep.reduced.correct_links
    check(3, ok, f"correct links raw={rep.raw.correct_links} "
                 f"reduced={rep.reduced.correct_links} "
                 f"of {rep.raw.total_truth_links}")


def test_criterion_4_time_reduction(mini):
    network, traj, truth = mini
    rules = default_rule_base()
    labels = dbscan(traj, DbscanParams(FIXTURE_EPS, FIXTURE_MIN_PTS))
    reduced = reduce_trajectory(traj, labels,
                                summarize_clusters(traj, labels)).trajectory

    def median_time(t):
        return statistics.median(
            match_trajectory(network, t, rules).wall_time_s for _ in range(5))

    raw_t, red_t = median_time(traj), median_time(reduced)
    ratio = 100.0 * (raw_t - red_t) / raw_t
    check(4, red_t < raw_t,
          f"median wall time raw={raw_t * 1e3:.1f}ms reduced={red_t * 1e3:.1f}ms "
          f"(reduction {ratio:.1f}%; published 8.9% time / 21.42% per-point "
          f"targets are hardware-bound, reported not asserted)")


def test_criterion_5_dbscan_oracle_equivalence():
    rng = random.Random(50)
    for trial in range(200):
        n = rng.randint(5, 200)
        pts = [(47.0 + rng.uniform(0, 5e-4), -122.0 + rng.uniform(0, 5e-4))
               for _ in range(n)]
        from trajmatch.io import Trajectory, TrajectoryRecord
        traj = Trajectory([TrajectoryRecord(float(i), GeoPoint(la, lo), i)
                           for i, (la, lo) in enumerate(pts)])
        eps = rng.uniform(1e-5, 2e-4)
        min_pts = rng.randint(2, 6)
        labels = dbscan(traj, DbscanParams(eps, min_pts))
        coords = [[lo, la] for la, lo in pts]
        core, comp = brute_dbscan(coords, eps, min_pts)
        assert np.array_equal(labels.core, core), f"core mismatch, trial {trial}"
        for i in range(n):
            if core[i]:
                same = {j for j in range(n) if core[j]
                        and labels.labels[j] == labels.labels[i]}
                assert same == set(comp[i]), f"partition mismatch, trial {trial}"
    check(5, True, "200 random instances match the density-connectivity oracle")


def test_criterion_6_geometry_property_suite():
    rng = random.Random(51)
    # point-segment distance vs dense sampling
    for _ in range(1000):
        ax, ay, bx, by = (rng.uniform(-50, 50) for _ in range(4))
        if (ax, ay) == (bx, by):
            bx += 1.0
        px, py = rng.uniform(-60, 60), rng.uniform(-60, 60)
        d, _, _ = point_segment_distance(
            PlanarPoint(px, py), Segment(PlanarPoint(ax, ay), PlanarPoint(bx, by)))
        ref = sampled_segment_distance(px, py, ax, ay, bx, by)
        assert d <= ref + 1e-6
    # heading error symmetry and wraparound
    for _ in range(1000):
        h1, h2 = rng.uniform(0, 360), rng.uniform(0, 360)
        assert heading_error(h1, h2) == heading_error(h2, h1)
        assert heading_error((h1 + 360.0) % 360.0, h2) == \
            pytest.approx(heading_error(h1, h2), abs=1e-9)
    # projection round trip
    proj = Projection(GeoPoint(47.6, -122.3))
    for _ in range(1000):
        p = GeoPoint(47.6 + rng.uniform(-1, 1), -122.3 + rng.uniform(-1, 1))
        back = proj.unproject(proj.project(p))
        assert abs(back.lat - p.lat) < 1e-9 and abs(back.lon - p.lon) < 1e-9
    # index superset property
    edges = []
    for i in range(300):
        x, y = rng.uniform(0, 2000), rng.uniform(0, 2000)
        x2, y2 = x + rng.uniform(-100, 100), y + rng.uniform(-100, 100)
        if (x, y) == (x2, y2):
            x2 += 1.0
        edges.append((f"e{i}", Polyline([PlanarPoint(x, y), PlanarPoint(x2, y2)])))
    idx = index_build(edges, cell_size=100.0)
    for _ in range(1000):
        p = PlanarPoint(rng.uniform(-50, 2050), rng.uniform(-50, 2050))
        radius = rng.uniform(1, 250)
        truth = {eid for eid, pl in edges if project_onto_polyline(p, pl)[0] <= radius}
        assert truth <= idx.query(p, radius)
    check(6, True, "4 x 1000 random geometry property cases")


def test_criterion_7_fuzzy_engine_properties():
    rb = default_rule_base()
    rng = random.Random(52)
    # memberships bounded
    for var in list(rb.inputs.values()) + [rb.output]:
        lo, hi = var.universe
        xs = np.linspace(lo - 10, hi + 10, 301)
        for mf in var.labels.values():
            vals = mf(xs)
            assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    # centroid vs high-resolution oracle
    worst = 0.0
    for _ in range(100):
        m = {"pd": {"short": rng.random(), "long": rng.random()},
             "he": {"small": rng.random(), "large": rng.random()}}
        got = defuzzify_centroid(infer(rb, m), rb.output.universe)
        xs = np.linspace(0.0, 100.0, 100_001)
        dense = np.zeros_like(xs)
        for rule in rb.rules:
            s = min(m[v][l] for v, l in rule.antecedent)
            dense = np.maximum(dense, np.minimum(s, rb.output.labels[rule.consequent](xs)))
        worst = max(worst, abs(got - highres_centroid(dense, 0.0, 100.0)))
    assert worst <= 0.1
    # monotonicity grid
    pds, hes = np.linspace(0, 100, 50), np.linspace(0, 180, 50)
    table = np.array([[evaluate(rb, {"pd": pd, "he": he}) for he in hes]
                      for pd in pds])
    assert np.all(np.diff(table, axis=0) <= 1e-9)
    assert np.all(np.diff(table, axis=1) <= 1e-9)
    check(7, True, f"centroid worst error {worst:.4f} (tolerance 0.1); "
                   f"monotone on the 50x50 grid")


def test_criterion_8_synthetic_end_to_end():
    scn = generate_scenario(7, dwell_spec=[(47, 120, 1.5), (113, 120, 1.5)])
    sps = threshold_staypoint_detect(scn.trajectory, delta=10.0, tau=60.0)
    assert len(sps) == 2, f"expected 2 stay-points, got {len(sps)}"
    errors = []
    for s, center in zip(sps, scn.dwell_centers):
        errors.append(haversine_distance(GeoPoint(s.y, s.x), center))
    assert all(e <= 1.0 for e in errors), f"center errors {errors}"

    rep = run_pipeline(scn.network, scn.trajectory, scn.truth,
                       eps=FIXTURE_EPS, min_pts=FIXTURE_MIN_PTS)
    assert rep.accuracy_delta >= 0
    assert rep.volume_reduction_pct > 0.0
    check(8, True,
          f"2 stay-points at centers within {max(errors):.2f} m; "
          f"accuracy_delta={rep.accuracy_delta}, "
          f"volume_reduction={rep.volume_reduction_pct:.1f}%")


def test_criterion_9_pipeline_determinism(tmp_path):
    args = ["pipeline", "--network", str(MINI / "network.csv"),
            "--traj", str(MINI / "trajectory.csv"),
            "--truth", str(MINI / "truth.txt"),
            "--eps", str(FIXTURE_EPS), "--min-pts", str(FIXTURE_MIN_PTS)]
    assert cli_main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert cli_main(args + ["--out-dir", str(tmp_path / "b")]) == 0

    def stable(d):
        lines = [l for l in (d / "report.txt").read_text().splitlines()
                 if not l.startswith("timing.")]
        for name in ("volume_pair.csv", "eps_sweep.csv"):
            lines.append((d / name).read_text())
        return lines

    ok = stable(tmp_path / "a") == stable(tmp_path / "b")
    check(9, ok, "byte-identical outputs excluding timing fields")
