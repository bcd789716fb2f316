"""Fuzzy-logic map matcher: initial link selection, on-link tracking, and
junction re-evaluation, driven by perpendicular distance and heading error.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass

import yaml

from .fuzzy import RuleBase, default_rule_base, evaluate_batch, rule_base_from_config
from .geo import PlanarPoint, bearing, heading_error, project_onto_polyline
from .io import RoadNetwork, Trajectory

PHASE_IMP = "IMP"
PHASE_ALONG = "SMP_ALONG"
PHASE_JUNCTION = "SMP_JUNCTION"


@dataclass(frozen=True)
class MatcherConfig:
    candidate_radius: float = 50.0
    junction_radius: float = 15.0
    pd_escape: float = 35.0
    l_min: float = 50.0
    reinit_after: int = 3
    min_heading_separation: float = 1.0


@dataclass(frozen=True)
class LinkCandidate:
    edge_id: str
    pd: float
    he: float
    likelihood: float
    foot: PlanarPoint
    arc_offset: float


@dataclass
class MatchState:
    edge_id: str | None = None          # None = UNINITIALIZED
    last_heading: float | None = None
    consecutive_low_confidence: int = 0


@dataclass(frozen=True)
class MatchedPoint:
    source_index: int
    edge_id: str
    position_on_edge: float
    snapped_lat: float
    snapped_lon: float
    likelihood: float
    phase_used: str
    confident: bool = True
    reinitialized: bool = False


@dataclass
class MatchResult:
    matched: list[MatchedPoint]
    edge_sequence: list[str]
    total_points: int
    wall_time_s: float = 0.0


def load_matcher_config(path) -> tuple[MatcherConfig, RuleBase]:
    """Read thresholds and an optional rule-base override from a YAML file."""
    with open(path, encoding="utf-8") as fh:
        doc = yaml.safe_load(fh) or {}
    cfg = MatcherConfig(**doc.get("thresholds", {}))
    rules = (rule_base_from_config(doc["rule_base"])
             if "rule_base" in doc else default_rule_base())
    return cfg, rules


def candidate_links(network: RoadNetwork, p: PlanarPoint, radius: float) -> list[str]:
    """Edge ids within exact polyline distance of p, nearest first."""
    if radius <= 0:
        raise ValueError("radius must be > 0")
    hits = []
    for edge_id in network.index.query(p, radius):
        d, _, _, _ = project_onto_polyline(p, network.edges[edge_id].geometry)
        if d <= radius:
            hits.append((d, edge_id))
    hits.sort()
    return [edge_id for _, edge_id in hits]


def score_link(network: RoadNetwork, edge_id: str, p: PlanarPoint,
               vehicle_heading: float | None, rules: RuleBase) -> LinkCandidate:
    """Score one candidate link by fuzzy inference over PD and HE."""
    return score_links(network, [edge_id], p, vehicle_heading, rules)[0]


def score_links(network: RoadNetwork, edge_ids: list[str], p: PlanarPoint,
                vehicle_heading: float | None, rules: RuleBase) -> list[LinkCandidate]:
    """Score candidate links by fuzzy inference over PD and HE, in one batch.

    The link direction is taken on the segment holding the projection foot
    and evaluated both ways (no one-way information in the network format);
    an absent vehicle heading is treated as perfectly aligned.
    """
    measured = []
    for edge_id in edge_ids:
        pl = network.edges[edge_id].geometry
        pd, foot, seg_idx, arc_offset = project_onto_polyline(p, pl)
        if vehicle_heading is None:
            he = 0.0
        else:
            link_bearing = bearing(pl.vertices[seg_idx], pl.vertices[seg_idx + 1])
            he = min(heading_error(vehicle_heading, link_bearing),
                     heading_error(vehicle_heading, (link_bearing + 180.0) % 360.0))
        measured.append((edge_id, pd, he, foot, arc_offset))
    likelihoods = evaluate_batch(rules, [{"pd": pd, "he": he} for _, pd, he, _, _ in measured])
    return [LinkCandidate(edge_id, pd, he, likelihood, foot, arc_offset)
            for (edge_id, pd, he, foot, arc_offset), likelihood in zip(measured, likelihoods)]


def _best_candidate(scored: list[LinkCandidate]) -> LinkCandidate:
    return min(scored, key=lambda c: (-c.likelihood, c.pd, c.edge_id))


def _confident(cand: LinkCandidate, cfg: MatcherConfig) -> bool:
    """True when the candidate lies within candidate_radius and scores at
    least l_min.

    The likelihood test alone passes points far off every road: their pd is
    clamped to the universe maximum, where "pd long and he small" defuzzifies
    to exactly the average label's centroid, 50 (50.000000000000014 after
    rounding), and the default l_min is 50. The pd test settles that case,
    so the likelihood test keeps an inclusive >= at l_min.
    """
    return cand.pd <= cfg.candidate_radius and cand.likelihood >= cfg.l_min


def imp(network: RoadNetwork, p: PlanarPoint, heading: float | None,
        rules: RuleBase, cfg: MatcherConfig) -> LinkCandidate | None:
    """Initial link selection; None when no candidate exists in radius.

    A returned candidate with likelihood below cfg.l_min is no-confidence;
    the caller decides whether to accept it provisionally.
    """
    ids = candidate_links(network, p, cfg.candidate_radius)
    if not ids:
        return None
    return _best_candidate(score_links(network, ids, p, heading, rules))


def smp_step(network: RoadNetwork, state: MatchState, p: PlanarPoint,
             heading: float | None, rules: RuleBase,
             cfg: MatcherConfig) -> tuple[MatchState, LinkCandidate, str]:
    """One tracking step while on a link.

    Stays on the current edge while the projection falls in the edge
    interior with small PD; near an endpoint node (or on a large PD
    excursion) re-scores the edges incident to the nearer node against the
    current edge. Three consecutive junction decisions that are not
    confident (see _confident) reset the state to uninitialized.
    """
    edge = network.edges[state.edge_id]
    cand = score_link(network, state.edge_id, p, heading, rules)
    interior = (cand.arc_offset > cfg.junction_radius
                and edge.geometry.length - cand.arc_offset > cfg.junction_radius)
    if interior and cand.pd <= cfg.pd_escape:
        new_state = MatchState(edge_id=state.edge_id, last_heading=state.last_heading)
        return new_state, cand, PHASE_ALONG

    nearer = (edge.node_from
              if cand.arc_offset <= edge.geometry.length - cand.arc_offset
              else edge.node_to)
    others = sorted(network.adjacency.get(nearer, set()) - {state.edge_id})
    best = _best_candidate([cand] + score_links(network, others, p, heading, rules))
    if not _confident(best, cfg):
        low = state.consecutive_low_confidence + 1
        if low >= cfg.reinit_after:
            return MatchState(edge_id=None, last_heading=state.last_heading), best, PHASE_JUNCTION
        new_state = MatchState(edge_id=state.edge_id, last_heading=state.last_heading,
                               consecutive_low_confidence=low)
        return new_state, best, PHASE_JUNCTION
    new_state = MatchState(edge_id=best.edge_id, last_heading=state.last_heading,
                           consecutive_low_confidence=0)
    return new_state, best, PHASE_JUNCTION


def _forced_candidate(network: RoadNetwork, p: PlanarPoint, heading,
                      rules: RuleBase, cfg: MatcherConfig) -> LinkCandidate:
    """Best candidate with a widening search.

    When the last radius (128 times candidate_radius) finds no link, only
    the links nearest to p are scored, not every link of the network: that
    far out the default rule base clamps pd, so scoring all of them would
    rank links by heading alone, at the cost of one fuzzy evaluation each.
    """
    radius = cfg.candidate_radius
    for _ in range(8):
        ids = candidate_links(network, p, radius)
        if ids:
            break
        radius *= 2.0
    else:
        dist = {e: project_onto_polyline(p, edge.geometry)[0]
                for e, edge in network.edges.items()}
        nearest = min(dist.values())
        ids = sorted(e for e, d in dist.items() if d == nearest)
    return _best_candidate(score_links(network, ids, p, heading, rules))


def match_trajectory(network: RoadNetwork, traj: Trajectory, rules: RuleBase,
                     cfg: MatcherConfig = MatcherConfig()) -> MatchResult:
    """Match every trajectory point to an edge, sequentially.

    Heading for point k is the bearing from k-1 to k when they are at least
    min_heading_separation apart; otherwise the previous heading carries
    forward (dwelling points would otherwise produce arbitrary headings).
    """
    if len(traj) < 2:
        raise ValueError("trajectory must have at least 2 points")
    proj = network.projection
    planar = [proj.project(r.position) for r in traj]

    t0 = time.perf_counter()
    state = MatchState()
    matched: list[MatchedPoint] = []
    for k, (rec, p) in enumerate(zip(traj, planar)):
        if k > 0:
            prev = planar[k - 1]
            dx, dy = p.x - prev.x, p.y - prev.y
            if (dx * dx + dy * dy) ** 0.5 >= cfg.min_heading_separation:
                state.last_heading = bearing(prev, p)
        heading = state.last_heading

        reinit = False
        if state.edge_id is None:
            cand = imp(network, p, heading, rules, cfg)
            phase = PHASE_IMP
            if cand is None:
                cand = _forced_candidate(network, p, heading, rules, cfg)
            confident = _confident(cand, cfg)
            if confident:
                state = MatchState(edge_id=cand.edge_id, last_heading=state.last_heading)
        else:
            state, cand, phase = smp_step(network, state, p, heading, rules, cfg)
            confident = _confident(cand, cfg)
            if state.edge_id is None:
                reinit = True

        snapped = proj.unproject(cand.foot)
        matched.append(MatchedPoint(
            source_index=rec.source_index,
            edge_id=cand.edge_id,
            position_on_edge=cand.arc_offset,
            snapped_lat=snapped.lat,
            snapped_lon=snapped.lon,
            likelihood=cand.likelihood,
            phase_used=phase,
            confident=confident,
            reinitialized=reinit,
        ))
    wall = time.perf_counter() - t0

    edge_sequence: list[str] = []
    for m in matched:
        if not edge_sequence or edge_sequence[-1] != m.edge_id:
            edge_sequence.append(m.edge_id)
    return MatchResult(matched, edge_sequence, total_points=len(matched),
                       wall_time_s=wall)


def write_match_result(result: MatchResult, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["source_index", "edge_id", "offset_m",
                    "snapped_lat", "snapped_lon", "likelihood", "phase"])
        for m in result.matched:
            w.writerow([m.source_index, m.edge_id, repr(m.position_on_edge),
                        repr(m.snapped_lat), repr(m.snapped_lon),
                        repr(m.likelihood), m.phase_used])


def write_edge_sequence(result: MatchResult, path):
    with open(path, "w", encoding="utf-8") as fh:
        for edge_id in result.edge_sequence:
            fh.write(edge_id + "\n")
