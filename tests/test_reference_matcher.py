"""`match_trajectory` as a whole against `oracles.reference_match`, an
independent one-point-at-a-time statement of the matcher.

For every point the edge, phase, confidence, reinitialization flag, arc
offset and likelihood must be equal, the floats bit for bit, on synthetic
scenarios (random grids, dwells, jitter and sampling rates, and networks
whose edges are bent into 3-6 vertices) and on hand-built traces for far
points, a point on a node and coincident fixes.
"""

from itertools import cycle

import numpy as np
from hypothesis import given, settings, strategies as st

from trajmatch.evalbench import generate_scenario
from trajmatch.fuzzy import default_rule_base, rule_base_from_config
from trajmatch.geo import GeoPoint
from trajmatch.io import Trajectory, build_network
from trajmatch.matcher import MatcherConfig, match_trajectory
from oracles import numpy_mamdani, reference_match
from test_fuzzy_oracle import DEFAULT_CONFIG, MIXED_CONFIG

# the default rule base with its inputs in the other order: rows are (he, pd)
HE_PD_CONFIG = dict(DEFAULT_CONFIG, inputs={"he": DEFAULT_CONFIG["inputs"]["he"],
                                            "pd": DEFAULT_CONFIG["inputs"]["pd"]})
RULE_BASES = {"default": (DEFAULT_CONFIG, default_rule_base()),
              "he_pd": (HE_PD_CONFIG, rule_base_from_config(HE_PD_CONFIG)),
              "mixed": (MIXED_CONFIG, rule_base_from_config(MIXED_CONFIG))}
# likelihoods a row inside the default rule base's flat intervals takes, so
# that l_min sits exactly on many points' likelihood
FLAT_LIKELIHOODS = sorted({numpy_mamdani(DEFAULT_CONFIG, {"pd": pd, "he": he})
                           for pd in (0.0, 100.0) for he in (0.0, 180.0)})


def network_edges(network):
    """reference_match's edges: (id, node_from, node_to, lons, lats)."""
    start = network.geometry.start
    return [(edge_id, network.node_from[i], network.node_to[i],
             network.lon[start[i]:start[i + 1]], network.lat[start[i]:start[i + 1]])
            for i, edge_id in enumerate(network.ids)]


def check(network, traj, rule_base="default", cfg=MatcherConfig()):
    """Match traj and require every point to equal the reference; returns
    the reference's points."""
    config, rules = RULE_BASES[rule_base]
    got = [(m.edge_id, m.phase_used, m.confident, m.reinitialized, m.likelihood.hex(),
            m.position_on_edge.hex())
           for m in match_trajectory(network, traj, rules, cfg).matched]
    want = reference_match(network_edges(network), list(zip(traj.lat.tolist(),
                                                             traj.lon.tolist())),
                           config, cfg)
    assert got == [w[:4] + (w[4].hex(), w[5].hex()) for w in want]
    return want


def trace(lat_lon):
    n = len(lat_lon)
    lat, lon = np.array(lat_lon, dtype=np.float64).T
    return Trajectory.from_columns(np.arange(n, dtype=np.float64), lat, lon, np.arange(n))


def bend(network, offsets):
    """The network with 1-4 vertices inserted into each straight edge, each
    moved off the line by a few meters; offsets is cycled through for the
    inner vertex counts and their offsets (in 1e-5 degrees)."""
    draw = cycle(offsets)
    edges = []
    for edge_id, a, b, lons, lats in network_edges(network):
        inner = 1 + abs(next(draw)) % 4
        pts = [GeoPoint(lats[0], lons[0])]
        for k in range(1, inner + 1):
            f = k / (inner + 1)
            pts.append(GeoPoint(lats[0] + f * (lats[1] - lats[0]) + next(draw) * 1e-5,
                                lons[0] + f * (lons[1] - lons[0]) + next(draw) * 1e-5))
        pts.append(GeoPoint(lats[1], lons[1]))
        edges.append((edge_id, a, b, pts))
    return build_network(edges)


@st.composite
def scenarios(draw):
    route = draw(st.integers(2, 6))
    travel_s = 200.0 / 15.0 * route
    dwells = draw(st.lists(st.tuples(st.floats(0.0, travel_s - 1.0), st.integers(3, 25),
                                     st.sampled_from([0.2, 0.5, 1.5])), max_size=2))
    scn = generate_scenario(draw(st.integers(0, 2**16)), grid_size=draw(st.integers(4, 8)),
                            route_edges=route,
                            jitter_sigma_m=draw(st.sampled_from([0.0, 0.5, 1.5, 6.0, 25.0])),
                            dwell_spec=[(s, float(d), sigma) for s, d, sigma in dwells])
    network = scn.network
    if draw(st.booleans()):
        network = bend(network, draw(st.lists(st.integers(-4, 4), min_size=1, max_size=8)))
    keep = draw(st.integers(1, 8))
    traj = scn.trajectory
    traj = Trajectory.from_columns(traj.t[::keep], traj.lat[::keep], traj.lon[::keep],
                                   traj.source_index[::keep])
    return network, traj


THRESHOLDS = st.builds(
    MatcherConfig,
    candidate_radius=st.sampled_from([8.0, 20.0, 50.0]),
    junction_radius=st.sampled_from([0.0, 5.0, 15.0, 60.0]),
    pd_escape=st.sampled_from([0.0, 3.0, 35.0]),
    l_min=st.sampled_from([30.0, 70.0] + FLAT_LIKELIHOODS),
    reinit_after=st.integers(1, 4),
    min_heading_separation=st.sampled_from([0.5, 1.0, 4.0]))


@settings(max_examples=80, deadline=None)
@given(scenarios(), st.sampled_from(sorted(RULE_BASES)), THRESHOLDS)
def test_match_equals_reference(scenario, rule_base, cfg):
    network, traj = scenario
    if len(traj) >= 2:
        check(network, traj, rule_base, cfg)


def along(network, edge_id, dx, dy):
    """The lat, lon of the point (dx, dy) meters from edge_id's first vertex."""
    j = network.geometry.start[network.edges[edge_id]]
    lat, lon = network.projection.unproject_xy(network.geometry.x[j] + dx,
                                               network.geometry.y[j] + dy)
    return float(lat), float(lon)


def test_far_points_reinitialize_like_reference():
    # along h1_1, 900 m north of the 4 x 4 grid's top row, and back
    network = generate_scenario(3, grid_size=4).network
    on_road = [along(network, "h1_1", 10.0 * k, 0.5) for k in range(1, 10)]
    far = [along(network, "h1_1", 5.0 * k, 900.0 + 7.0 * k) for k in range(8)]
    for reinit_after in (1, 2, 3):
        want = check(network, trace(on_road + far + on_road[::-1]),
                     cfg=MatcherConfig(reinit_after=reinit_after))
        # the reinit_after-th far fix drops the link; IMP finds none after it
        assert [w[3] for w in want] == [k == 8 + reinit_after for k in range(len(want))]
        assert [w[1] for w in want[9 + reinit_after:17]] == ["IMP"] * (8 - reinit_after)
        assert not any(w[2] for w in want[9:17])
    # single far fixes between on-link ones: each miss count is cleared
    # before it reaches reinit_after = 2
    want = check(network, trace(on_road[:3] + far[:1] + on_road[3:6] + far[1:2] + on_road[6:]),
                 cfg=MatcherConfig(reinit_after=2))
    assert [w[1] for w in want].count("IMP") == 1 and not any(w[3] for w in want)


def test_point_on_node_like_reference():
    # heading east along h0_1 onto the node it shares with h1_1, v1_0 and
    # v1_1: the fifth fix is that node's own vertex, where h0_1 and h1_1 are
    # both at distance 0 and aligned, so they tie and the smaller id wins
    network = generate_scenario(5, grid_size=4).network
    j = network.geometry.start[network.edges["h1_1"]]
    node = network.lat[j], network.lon[j]
    approach = [along(network, "h1_1", -40.0 + 10.0 * k, 0.0) for k in range(4)]
    leave = [along(network, "h1_1", 10.0 * k, 0.0) for k in range(1, 4)]
    for cfg in (MatcherConfig(), MatcherConfig(junction_radius=0.0)):
        want = check(network, trace(approach + [node] + leave), cfg=cfg)
        assert want[4][:2] == ("h0_1", "SMP_JUNCTION")


def test_coincident_fixes_carry_heading_like_reference():
    # a stop mid-link: four fixes repeat the fifth, then the trace goes on
    network = generate_scenario(7, grid_size=5).network
    fixes = [along(network, "h1_2", 12.0 * k, 0.3) for k in range(5)]
    fixes += [fixes[-1]] * 4 + [along(network, "h1_2", 48.0 + 12.0 * k, -0.4)
                                for k in range(1, 12)]
    for rule_base in RULE_BASES:
        check(network, trace(fixes), rule_base)


def test_rule_base_with_inputs_he_pd_like_reference():
    assert RULE_BASES["he_pd"][1].input_names == ("he", "pd")
    scn = generate_scenario(11, grid_size=5, route_edges=5, dwell_spec=[(20.0, 15.0, 0.5)])
    # l_min on the likelihood of a near, aligned link: such points are
    # confident only through the inclusive >=
    high = FLAT_LIKELIHOODS[-1]
    want = check(scn.network, scn.trajectory, "he_pd",
                 MatcherConfig(junction_radius=40.0, l_min=high))
    assert sum(w[2] for w in want if w[4] == high) > len(want) // 2
