"""The matcher's initial link selection (`imp`, a widening search) against
a brute-force oracle.

Networks are axis-aligned polylines on an integer lattice and points have
integer coordinates, so every distance the matcher compares is the square
root of an integer (math.hypot is correctly rounded on integer pairs below
5,000, which covers these) and ties between links compare equal on both
sides.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from trajmatch import matcher
from trajmatch.fuzzy import default_rule_base
from trajmatch.geo import GeoPoint, PlanarPoint, Projection, polylines
from trajmatch.io import RoadNetwork
from oracles import widening_fallback

RULES = default_rule_base()
RADIUS = 16                     # candidate_radius; 2**7 * RADIUS = 2048 m
CFG = matcher.MatcherConfig(candidate_radius=float(RADIUS))
STEP = 64                       # lattice spacing, meters
STEPS = st.tuples(st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]), st.integers(1, 4))


@st.composite
def lattice_edges(draw):
    """1-8 axis-aligned polylines of 1-3 segments, each starting on a
    9 x 9 lattice."""
    edges = []
    for n in range(draw(st.integers(1, 8))):
        x, y = draw(st.integers(0, 8)), draw(st.integers(0, 8))
        pts = [(x * STEP, y * STEP)]
        for (ux, uy), length in draw(st.lists(STEPS, min_size=1, max_size=3)):
            x, y = x + ux * length, y + uy * length
            pts.append((x * STEP, y * STEP))
        edges.append((f"e{n}", pts))
    return edges


# near the lattice, far beyond 2048 m of it, or in line with a lattice column
POINTS = st.one_of(
    st.tuples(st.integers(-400, 900), st.integers(-400, 900)),
    st.tuples(st.integers(-3500, 3900), st.integers(-3500, 3900)),
    st.tuples(st.integers(-4, 12).map(lambda i: i * STEP), st.integers(-3500, 3900)))


def network(edges):
    lines = polylines([float(x) for _, pts in edges for x, _ in pts],
                      [float(y) for _, pts in edges for _, y in pts],
                      [len(pts) for _, pts in edges])
    ids = [eid for eid, _ in edges]
    return RoadNetwork(ids, [f"{eid}.a" for eid in ids], [f"{eid}.b" for eid in ids],
                       (), (), lines, Projection(GeoPoint(0.0, 0.0)))


def scored_ids(monkeypatch, edges, px, py):
    scored = []
    real = matcher._score

    def recording(edge_ids, rows, rules):
        scored.append(set(edge_ids))
        return real(edge_ids, rows, rules)

    monkeypatch.setattr(matcher, "_score", recording)
    edge_id, _, _ = matcher.imp(network(edges), PlanarPoint(float(px), float(py)),
                                None, RULES, CFG)
    assert len(scored) == 1 and edge_id in scored[0]
    return scored[0]


# two collinear links meeting under a point 3 km north: equidistant, far
@example(edges=[("e0", [(0, 0), (256, 0)]), ("e1", [(256, 0), (512, 0)])],
         point=(256, 3000))
# 2,500 m from e0 across it and from e1's end on a 3-4-5 line, beyond the
# last radius; e2 is farther
@example(edges=[("e0", [(-64, 0), (64, 0)]), ("e1", [(1500, 500), (1500, 436)]),
                ("e2", [(-64, -64), (64, -64)])],
         point=(0, 2500))
# midway between two parallel links 128 m apart: 64 m from each, exactly
# the third radius
@example(edges=[("e0", [(0, 0), (0, 512)]), ("e1", [(128, 0), (128, 512)])],
         point=(64, 100))
@settings(max_examples=150, deadline=None)
@given(edges=lattice_edges(), point=POINTS)
def test_forced_candidate_scores_oracle_ids(edges, point):
    with pytest.MonkeyPatch.context() as mp:
        assert scored_ids(mp, edges, *point) == widening_fallback(edges, *point, RADIUS)
