import random
import re
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings

from trajmatch import matcher
from trajmatch.fuzzy import default_rule_base, rule_base_from_config
from trajmatch.geo import GeoPoint, PlanarPoint, Polylines, Projection, project_onto_polyline
from trajmatch.io import ParseError, Trajectory, TrajectoryRecord, build_network
from trajmatch.matcher import (
    MatcherConfig,
    MatchState,
    PHASE_ALONG,
    PHASE_JUNCTION,
    PHASE_IMP,
    candidate_links,
    imp,
    load_matcher_config,
    match_trajectory,
    score_link,
    smp_step,
)
from test_reference_matcher import THRESHOLDS, scenarios

ORIGIN = GeoPoint(47.6, -122.3)
PROJ = Projection(ORIGIN)
RULES = default_rule_base()
CFG = MatcherConfig()


def g(x, y):
    """Geo point at planar meters (x east, y north) of the test origin."""
    return PROJ.unproject(PlanarPoint(x, y))


def net_from_planar(edges):
    """edges: list of (edge_id, node_from, node_to, [(x, y), ...])."""
    return build_network([(eid, nf, nt, [g(x, y) for x, y in pts])
                          for eid, nf, nt, pts in edges])


def traj_from_planar(network, points, t0=0.0):
    """Trajectory through the design-frame planar points used by g()."""
    recs = [TrajectoryRecord(t0 + i, g(x, y), i)
            for i, (x, y) in enumerate(points)]
    return Trajectory(recs)


def straight_net():
    return net_from_planar([("e1", "a", "b", [(0, 0), (0, 400)])])


def t_junction_net():
    return net_from_planar([
        ("north", "a", "j", [(0, 0), (0, 200)]),
        ("east", "j", "b", [(0, 200), (200, 200)]),
        ("continue", "j", "c", [(0, 200), (0, 400)]),
    ])


# --------------------------------------------------------- candidate links

def candidate_ids(net, p, radius):
    """The ids candidate_links gives, each link measured with no heading."""
    return [c.edge_id for c in candidate_links(
        net, p, radius, lambda edge_id: matcher._measure(net, edge_id, p, None))]


def test_candidate_point_on_edge_first():
    net = t_junction_net()
    p = net.projection.project(g(0, 100))
    ids = candidate_ids(net, p, 50.0)
    assert ids[0] == "north"


def test_candidate_isolated_point_empty():
    net = straight_net()
    p = net.projection.project(g(5000, 5000))
    assert candidate_ids(net, p, 50.0) == []


def test_candidate_links_vs_linear_scan():
    rng = random.Random(30)
    edges = []
    for i in range(60):
        x, y = rng.uniform(0, 2000), rng.uniform(0, 2000)
        edges.append((f"e{i}", f"n{i}a", f"n{i}b",
                      [(x, y), (x + rng.uniform(-150, 150), y + rng.uniform(-150, 150))]))
    net = net_from_planar(edges)
    for _ in range(100):
        p = PlanarPoint(rng.uniform(-100, 2100), rng.uniform(-100, 2100))
        radius = rng.uniform(10, 300)
        got = set(candidate_ids(net, p, radius))
        want = {eid for eid, i in net.edges.items()
                if project_onto_polyline(p, net.geometry, i)[0] <= radius}
        assert got == want


# -------------------------------------------------------------- score_link

def test_score_on_road_aligned():
    net = straight_net()
    p = net.projection.project(g(0, 100))
    cand = score_link(net, "e1", p, 0.0, RULES)  # heading due north
    assert cand.pd == pytest.approx(0.0, abs=1e-9)
    assert cand.he == pytest.approx(0.0, abs=1e-9)
    assert cand.likelihood >= 80.0


def test_score_link_two_way_direction():
    net = straight_net()
    p = net.projection.project(g(0, 100))
    southbound = score_link(net, "e1", p, 180.0, RULES)
    assert southbound.he == pytest.approx(0.0, abs=1e-9)


def test_score_link_deterministic():
    net = straight_net()
    p = net.projection.project(g(3, 77))
    a = score_link(net, "e1", p, 12.5, RULES)
    b = score_link(net, "e1", p, 12.5, RULES)
    assert a.likelihood == b.likelihood  # bit-equal


def test_score_link_absent_heading_neutral():
    net = straight_net()
    p = net.projection.project(g(2, 100))
    cand = score_link(net, "e1", p, None, RULES)
    assert cand.he == 0.0


# -------------------------------------------------------------------- imp

def test_imp_single_road():
    net = straight_net()
    p = net.projection.project(g(5, 100))
    cand = imp(net, p, 0.0, RULES, CFG)
    assert cand.edge_id == "e1"
    assert cand.likelihood >= CFG.l_min


def test_imp_parallel_roads_nearer_wins():
    net = net_from_planar([
        ("near", "a", "b", [(5, 0), (5, 400)]),
        ("far", "c", "d", [(40, 0), (40, 400)]),
    ])
    p = net.projection.project(g(0, 100))
    cand = imp(net, p, 0.0, RULES, CFG)
    assert cand.edge_id == "near"


def test_imp_empty_candidates():
    # no link within candidate_radius: the nearest link is still returned,
    # but not as a confident match
    net = straight_net()
    p = net.projection.project(g(9000, 9000))
    cand = imp(net, p, 0.0, RULES, CFG)
    assert cand.edge_id == "e1"
    assert not matcher._confident(cand.pd, cand.likelihood, CFG)


# --------------------------------------------------------------------- smp

def test_smp_mid_link_stays():
    net = t_junction_net()
    state = MatchState(edge_id="north")
    p = net.projection.project(g(3, 100))
    cand, phase = smp_step(net, state, p, 0.0, RULES, CFG)
    assert phase == PHASE_ALONG
    assert state.edge_id == "north"
    assert cand.edge_id == "north"


def test_smp_turn_at_junction():
    net = t_junction_net()
    state = MatchState(edge_id="north")
    # vehicle just past the junction, heading east
    p = net.projection.project(g(25, 200))
    cand, phase = smp_step(net, state, p, 90.0, RULES, CFG)
    assert phase == PHASE_JUNCTION
    assert state.edge_id == "east"


def test_smp_reset_after_low_confidence():
    net = straight_net()
    state = MatchState(edge_id="e1")
    off = net.projection.project(g(250, 200))  # 250 m off the only road
    resets = 0
    for _ in range(CFG.reinit_after):
        # the jump direction also swings the heading away from the link
        cand, phase = smp_step(net, state, off, 90.0, RULES, CFG)
        if state.edge_id is None:
            resets += 1
    assert resets == 1
    assert state.edge_id is None


# -------------------------------------------------------- match_trajectory

def test_match_requires_two_points():
    net = straight_net()
    traj = traj_from_planar(net, [(0, 10)])
    with pytest.raises(ValueError):
        match_trajectory(net, traj, RULES, CFG)


def test_match_straight_road():
    net = straight_net()
    traj = traj_from_planar(net, [(1, y) for y in range(10, 390, 20)])
    result = match_trajectory(net, traj, RULES, CFG)
    assert result.edge_sequence == ["e1"]
    assert len(result.matched) == len(traj)
    assert all(m.confident for m in result.matched)


def test_match_time_excludes_building_the_index_and_adjacency(monkeypatch, index_builds):
    # a clock that reads the number of index builds so far: a build inside
    # the timed span would add 1 to wall_time_s
    monkeypatch.setattr(matcher, "time",
                        SimpleNamespace(perf_counter=lambda: float(len(index_builds))))
    net = straight_net()
    assert net._index is None and net._adjacency is None
    result = match_trajectory(net, traj_from_planar(net, [(1, 10), (1, 30)]), RULES, CFG)
    assert len(index_builds) == 1 and result.wall_time_s == 0.0
    assert net._adjacency is not None
    match_trajectory(net, traj_from_planar(net, [(1, 10), (1, 30)]), RULES, CFG)
    assert len(index_builds) == 1


def test_match_time_excludes_building_the_segment_constants(monkeypatch):
    # a clock that reads whether the segment constants are built: a build
    # inside the timed span would add 1 to wall_time_s
    net = straight_net()

    def built():
        try:
            Polylines.segments.__get__(net.geometry)  # the slot, past __getattr__
        except AttributeError:
            return 0.0
        return 1.0

    monkeypatch.setattr(matcher, "time", SimpleNamespace(perf_counter=built))
    assert built() == 0.0
    result = match_trajectory(net, traj_from_planar(net, [(1, 10), (1, 30)]), RULES, CFG)
    assert built() == 1.0 and result.wall_time_s == 0.0


def l_net():
    return net_from_planar([
        ("north", "a", "j", [(0, 0), (0, 200)]),
        ("east", "j", "b", [(0, 200), (200, 200)]),
    ])


def test_match_l_shaped_route():
    net = l_net()
    pts = [(0, y) for y in range(10, 200, 15)] + \
          [(x, 200) for x in range(10, 200, 15)]
    traj = traj_from_planar(net, pts)
    result = match_trajectory(net, traj, RULES, CFG)
    assert result.edge_sequence == ["north", "east"]


def test_match_snapped_on_edge():
    net = t_junction_net()
    rng = random.Random(31)
    pts = [(rng.uniform(-4, 4), y) for y in range(10, 200, 10)] + \
          [(x, 200 + rng.uniform(-4, 4)) for x in range(10, 200, 10)]
    traj = traj_from_planar(net, pts)
    result = match_trajectory(net, traj, RULES, CFG)
    for m in result.matched:
        i, lines = net.edges[m.edge_id], net.geometry
        snapped = net.projection.project(GeoPoint(m.snapped_lat, m.snapped_lon))
        d, _, _, _ = project_onto_polyline(snapped, lines, i)
        assert d < 1e-6
        assert 0.0 <= m.position_on_edge <= lines.cumlen[lines.start[i + 1] - 1] + 1e-9
        assert 0.0 <= m.likelihood <= 100.0


def test_match_edge_sequence_connectivity():
    net = l_net()
    pts = [(0, y) for y in range(10, 200, 15)] + \
          [(x, 200) for x in range(10, 200, 15)]
    traj = traj_from_planar(net, pts)
    result = match_trajectory(net, traj, RULES, CFG)
    for a, b in zip(result.edge_sequence, result.edge_sequence[1:]):
        ea, eb = net.edges[a], net.edges[b]
        assert {net.node_from[ea], net.node_to[ea]} & {net.node_from[eb], net.node_to[eb]}


def test_match_reset_and_reinit_flagged():
    net = straight_net()
    pts = [(0, y) for y in range(10, 110, 20)]
    pts += [(400, 200)] * 4          # GPS far off every road
    pts += [(0, y) for y in range(150, 250, 20)]
    traj = traj_from_planar(net, pts)
    result = match_trajectory(net, traj, RULES, CFG)
    assert any(m.reinitialized for m in result.matched)
    assert any(not m.confident for m in result.matched)
    assert result.edge_sequence[-1] == "e1"


def test_match_dwell_carries_heading():
    net = straight_net()
    pts = [(0, y) for y in range(10, 110, 20)]
    pts += [(0.2, 110.1)] * 5        # sub-meter steps: heading carried
    pts += [(0, y) for y in range(130, 250, 20)]
    traj = traj_from_planar(net, pts)
    result = match_trajectory(net, traj, RULES, CFG)
    assert result.edge_sequence == ["e1"]


def test_match_translation_invariance():
    def build(lon_shift):
        proj = Projection(GeoPoint(47.6, -122.3 + lon_shift))

        def gg(x, y):
            return proj.unproject(PlanarPoint(x, y))

        net = build_network([
            ("north", "a", "j", [gg(0, 0), gg(0, 200)]),
            ("east", "j", "b", [gg(0, 200), gg(200, 200)]),
        ])
        pts = [(0, y) for y in range(10, 200, 15)] + \
              [(x, 200) for x in range(10, 200, 15)]
        traj = Trajectory([TrajectoryRecord(float(i), gg(x, y), i)
                           for i, (x, y) in enumerate(pts)])
        return match_trajectory(net, traj, RULES, CFG)

    assert build(0.0).edge_sequence == build(0.5).edge_sequence


def test_load_matcher_config(tmp_path):
    cfg_file = tmp_path / "matcher.yaml"
    cfg_file.write_text(
        "thresholds:\n"
        "  candidate_radius: 80.0\n"
        "  l_min: 40.0\n",
        encoding="utf-8")
    cfg, rules = load_matcher_config(cfg_file)
    assert cfg.candidate_radius == 80.0
    assert cfg.l_min == 40.0
    assert cfg.junction_radius == 15.0  # default preserved
    assert rules.rules  # default rule base loaded


RULE_BASE_YAML = """\
rule_base:
  inputs:
    pd:
      universe: [0.0, 100.0]
      labels:
        short: {shape: z, params: [10.0, 40.0]}
        long: {shape: s, params: [10.0, 40.0]}
  output:
    universe: [0.0, 100.0]
    labels:
      low: {shape: triangular, params: [0.0, 0.0, 60.0]}
      high: {shape: triangular, params: [40.0, 100.0, 100.0]}
  rules:
    - {if: [[pd, short]], then: high}
    - {if: [[pd, long]], then: low, weight: 0.5}
"""


def test_load_matcher_config_rule_base(tmp_path):
    cfg_file = tmp_path / "matcher.yaml"
    cfg_file.write_text(RULE_BASE_YAML, encoding="utf-8")
    _, rules = load_matcher_config(cfg_file)
    assert list(rules.inputs) == ["pd"]
    assert [r.weight for r in rules.rules] == [1.0, 0.5]


@pytest.mark.parametrize("old, new, named", [
    ("shape: z,", "shape: zz,", "inputs.pd.labels.short"),
    ("params: [10.0, 40.0]}", "params: [ten, 40.0]}", "inputs.pd.labels.short.params"),
    ("universe: [0.0, 100.0]\n    labels", "universe: [0.0]\n    labels", "output.universe"),
    ("then: high}", "then: 7}", "rules[0].then"),
    ("weight: 0.5", "weight: half", "rules[1].weight"),
    ("[[pd, short]]", "[[speed, short]]", "'speed'"),
    ("[[pd, short]]", "[pd, short]", "rules[0].if"),
    ("[[pd, short]]", "[]", "rules: rule has an empty antecedent"),
    ("    - {if: [[pd, short]], then: high}\n", "    - high\n", "rules[0]"),
    ("rule_base:\n", "thresholds: {l_min: high}\nrule_base:\n", "thresholds.l_min"),
    ("rule_base:\n", "thresholds: [l_min]\nrule_base:\n", "thresholds"),
    ("rule_base:\n", "threshold: {l_min: 40.0}\nrule_base:\n", "threshold: unknown key"),
    ("weight: 0.5", "weigth: 0.5", "rules[1].weigth: unknown key"),
    ("shape: z,", "shape: z, param: 1,", "inputs.pd.labels.short.param: unknown key"),
    ("  rules:\n", "  rule:\n", "rule_base: rule: unknown key"),
    ("labels:\n        short: {shape: z, params: [10.0, 40.0]}\n"
     "        long: {shape: s, params: [10.0, 40.0]}\n", "labels: {}\n",
     "inputs.pd.labels: variable 'pd' has no labels"),
    ("labels:\n      low: {shape: triangular, params: [0.0, 0.0, 60.0]}\n"
     "      high: {shape: triangular, params: [40.0, 100.0, 100.0]}\n", "labels: {}\n",
     "output.labels: variable 'likelihood' has no labels"),
])
def test_load_matcher_config_names_bad_key(tmp_path, old, new, named):
    assert old in RULE_BASE_YAML
    cfg_file = tmp_path / "matcher.yaml"
    cfg_file.write_text(RULE_BASE_YAML.replace(old, new, 1), encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(named)):
        load_matcher_config(cfg_file)


@pytest.mark.parametrize("key, value, expected", [
    ("candidate_radius", 0, "a number > 0"),
    ("candidate_radius", -5, "a number > 0"),
    ("min_heading_separation", 0, "a number > 0"),
    ("junction_radius", -1.0, "a number >= 0"),
    ("pd_escape", -0.5, "a number >= 0"),
    ("reinit_after", 2.5, "an integer >= 1"),
    ("reinit_after", 0, "an integer >= 1"),
])
def test_load_matcher_config_rejects_out_of_range_threshold(tmp_path, key, value, expected):
    cfg_file = tmp_path / "matcher.yaml"
    cfg_file.write_text(f"thresholds: {{{key}: {value}}}\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_matcher_config(cfg_file)
    assert str(err.value) == f"{cfg_file}: thresholds.{key}: expected {expected}, got {value!r}"


def test_load_matcher_config_accepts_range_ends(tmp_path):
    cfg_file = tmp_path / "matcher.yaml"
    cfg_file.write_text("thresholds: {junction_radius: 0, pd_escape: 0.0, reinit_after: 1, "
                        "candidate_radius: 1.0e-3, min_heading_separation: 1.0e-9}\n",
                        encoding="utf-8")
    cfg, _ = load_matcher_config(cfg_file)
    assert (cfg.junction_radius, cfg.pd_escape, cfg.reinit_after) == (0, 0.0, 1)


def test_junction_step_projects_each_edge_once(monkeypatch):
    net = t_junction_net()
    calls = []

    def counting(p, lines, i):
        calls.append(net.ids[i])
        return project_onto_polyline(p, lines, i)

    monkeypatch.setattr(matcher, "project_onto_polyline", counting)
    state = MatchState(edge_id="north")
    p = net.projection.project(g(25, 200))
    _, phase = smp_step(net, state, p, 90.0, RULES, CFG)
    assert phase == PHASE_JUNCTION
    assert sorted(calls) == ["continue", "east", "north"]


def test_junction_step_builds_one_candidate(monkeypatch):
    # the step measures every edge at the node into plain rows and builds a
    # LinkCandidate for the one it returns only
    built = []

    class Counting(matcher.LinkCandidate):
        __slots__ = ()

        def __new__(cls, *args):
            built.append(args[0])
            return super().__new__(cls, *args)

    monkeypatch.setattr(matcher, "LinkCandidate", Counting)
    net = t_junction_net()
    state = MatchState(edge_id="north")
    cand, phase = smp_step(net, state, net.projection.project(g(25, 200)), 90.0, RULES, CFG)
    assert phase == PHASE_JUNCTION
    assert built == [cand.edge_id] == ["east"]
    assert cand.likelihood is not None


def test_rule_base_without_inputs_scores_every_link_at_the_midpoint():
    # no input to read from a row: every link scores the output universe's
    # midpoint, and the nearer link wins on pd
    rules = rule_base_from_config({
        "inputs": {},
        "output": {"universe": [0, 100],
                   "labels": {"any": {"shape": "trapezoidal", "params": [0, 0, 100, 100]}}},
        "rules": []})
    net = t_junction_net()
    traj = traj_from_planar(net, [(3, y) for y in range(0, 200, 20)] + [(25, 200)])
    matched = match_trajectory(net, traj, rules, CFG).matched
    assert {m.likelihood for m in matched} == {50.0}
    assert matched[0].edge_id == "north"


@settings(max_examples=40, deadline=None)
@given(scenarios(), THRESHOLDS)
def test_junction_choice_does_not_depend_on_adjacency_order(scenario, cfg):
    # a junction step measures the edges at its node in adjacency order and
    # keeps the first minimum of (-likelihood, pd, edge_id), a total order
    network, traj = scenario
    assume(len(traj) >= 2)
    matched = match_trajectory(network, traj, RULES, cfg).matched
    assume(any(m.phase_used == PHASE_JUNCTION for m in matched))
    network._adjacency = {node: ids[::-1] for node, ids in network.adjacency.items()}
    assert match_trajectory(network, traj, RULES, cfg).matched == matched


def grid_net(n=3, step=200.0):
    edges = []
    for i in range(n):
        for j in range(n):
            if i + 1 < n:
                edges.append((f"h{i}_{j}", f"n{i}_{j}", f"n{i + 1}_{j}",
                              [(i * step, j * step), ((i + 1) * step, j * step)]))
            if j + 1 < n:
                edges.append((f"v{i}_{j}", f"n{i}_{j}", f"n{i}_{j + 1}",
                              [(i * step, j * step), (i * step, (j + 1) * step)]))
    return net_from_planar(edges)


def test_far_points_not_confident_and_reinitialize():
    net = grid_net()
    on_road = [g(200, y) for y in range(20, 180, 20)]
    far = GeoPoint(on_road[-1].lat + 0.5, on_road[-1].lon)  # about 55 km north
    positions = on_road + [far] * 4
    traj = Trajectory([TrajectoryRecord(float(i), pos, i) for i, pos in enumerate(positions)])
    result = match_trajectory(net, traj, RULES, CFG)
    assert all(m.confident for m in result.matched[:len(on_road)])
    tail = result.matched[len(on_road):]
    assert [m.confident for m in tail] == [False] * 4
    assert [m.reinitialized for m in tail[:3]] == [False, False, True]


def test_networks_sharing_node_ids_keep_their_own_neighbours():
    # Both networks meet at node j, where only the first has "continue".
    # Matched alternately in one process, each must give what it gives
    # alone: neighbours at a node are kept per network, never shared.
    def networks():
        return t_junction_net(), net_from_planar([
            ("north", "a", "j", [(0, 0), (0, 200)]),
            ("east", "j", "b", [(0, 200), (200, 200)]),
        ])
    points = [(0, y) for y in range(0, 200, 10)] + [(x, 200) for x in range(10, 200, 10)]
    alone = [match_trajectory(net, traj_from_planar(net, points), RULES, CFG).matched
             for net in networks()]
    assert all(any(m.phase_used == PHASE_JUNCTION for m in matched) for matched in alone)
    assert alone[0] != alone[1]
    nets = networks()
    for _ in range(2):
        for net, expected in zip(nets, alone):
            assert match_trajectory(net, traj_from_planar(net, points), RULES,
                                    CFG).matched == expected


def test_far_run_scores_only_nearest_links(monkeypatch):
    # Every far point after the reinitialization finds no link within the
    # widening radii; the fallback must score the nearest links only.
    net = grid_net(n=6)
    scored = []
    real = matcher._score

    def counting(edge_ids, rows, rules):
        scored.append(len(edge_ids))
        return real(edge_ids, rows, rules)

    monkeypatch.setattr(matcher, "_score", counting)
    on_road = [g(200, y) for y in range(20, 180, 20)]
    far = GeoPoint(on_road[-1].lat + 0.5, on_road[-1].lon)
    positions = on_road + [far] * 8
    traj = Trajectory([TrajectoryRecord(float(i), pos, i) for i, pos in enumerate(positions)])
    result = match_trajectory(net, traj, RULES, CFG)
    tail = result.matched[len(on_road) + 3:]
    assert [m.phase_used for m in tail] == [PHASE_IMP] * 5
    assert all(m.edge_id in {"h0_5", "h1_5", "v1_4"} for m in tail)
    # each junction step and each IMP step scores once, so the last calls
    # are the tail's (a junction step scores the 4 edges at its node)
    assert max(scored[-len(tail):]) <= 3 < len(net.edges)


def test_far_point_projects_only_nearby_links(monkeypatch):
    # 84 links 500 m apart; the point is 7 km north of the top row, beyond
    # the last widening radius (6.4 km). Only the 9 links with a sample
    # within 50 m of the nearest sample's distance may be measured, and the
    # nearest one scored: not every link of the network.
    net = grid_net(n=7, step=500.0)
    calls = []

    def counting(p, lines, i):
        calls.append(i)
        return project_onto_polyline(p, lines, i)

    monkeypatch.setattr(matcher, "project_onto_polyline", counting)
    p = net.projection.project(g(1250, 3000 + 7000))
    cand = matcher.imp(net, p, None, RULES, CFG)
    assert cand.edge_id == "h2_6"
    assert len(net.edges) == 84
    assert len(calls) <= 10


@pytest.mark.parametrize("x, y, among", [
    (0, 200, {"continue", "east", "north"}),  # at the junction: all three in radius
    (0, 9000, {"continue"}),                  # beyond every radius: the nearest link
])
def test_initial_selection_projects_each_edge_once(monkeypatch, x, y, among):
    net = t_junction_net()
    calls = []

    def counting(p, lines, i):
        calls.append(net.ids[i])
        return project_onto_polyline(p, lines, i)

    monkeypatch.setattr(matcher, "project_onto_polyline", counting)
    cand = imp(net, net.projection.project(g(x, y)), 90.0, RULES, CFG)
    assert cand.edge_id in among
    assert len(calls) == len(set(calls))
    assert among <= set(calls)
