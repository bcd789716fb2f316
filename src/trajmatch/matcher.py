"""Fuzzy-logic map matcher: initial link selection, on-link tracking, and
junction re-evaluation, driven by perpendicular distance and heading error.

Each decision that needs likelihoods scores its candidates in one fuzzy
batch: initial selection its candidate links, a junction step the current
edge together with the edges at the nearer node. On-link tracking decides
from geometry alone (arc offset and PD), since its likelihood never steers
the state; match_trajectory scores every on-link point in one batch after
the pass, inside the timed match.

A link is measured into a plain row (pd, he, foot x, foot y, arc offset)
by one projection, which reads its segment's constants from
Polylines.segments, built once per network. Steps and scoring work on these
rows, and imp and smp_step return the edge id, row and likelihood that
match_trajectory keeps. A junction step measures the edges at its node as
RoadNetwork.adjacency lists them, reusing the current edge's row, and the
snapped positions come from one array unprojection after the pass.
"""

from __future__ import annotations

import functools
import math
import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, fields
from io import StringIO
from operator import itemgetter
from typing import NamedTuple

import numpy as np
import yaml

from .fuzzy import RuleBase, default_rule_base, evaluate_rows, is_finite_number, \
    rule_base_from_config
from .geo import PlanarPoint, project_onto_polyline
from .io import ParseError, RoadNetwork, TooFewPointsError, Trajectory, read_text, write_csv, \
    write_lines

PHASE_IMP = "IMP"
PHASE_ALONG = "SMP_ALONG"
PHASE_JUNCTION = "SMP_JUNCTION"
MEASURES = ("pd", "he")  # the rule-base inputs a candidate link provides


@dataclass(frozen=True)
class MatcherConfig:
    """Matcher thresholds; a value out of its range raises ValueError naming
    the field. min_heading_separation > 0 keeps coincident fixes from
    defining a heading."""
    candidate_radius: float = 50.0
    junction_radius: float = 15.0
    pd_escape: float = 35.0
    l_min: float = 50.0
    reinit_after: int = 3
    min_heading_separation: float = 1.0

    def __post_init__(self):
        for name, valid, expected in (
                ("candidate_radius", self.candidate_radius > 0, "a number > 0"),
                ("junction_radius", self.junction_radius >= 0, "a number >= 0"),
                ("pd_escape", self.pd_escape >= 0, "a number >= 0"),
                ("reinit_after", isinstance(self.reinit_after, int) and self.reinit_after >= 1,
                 "an integer >= 1"),
                ("min_heading_separation", self.min_heading_separation > 0, "a number > 0")):
            if not valid:
                raise ValueError(f"{name}: expected {expected}, got {getattr(self, name)!r}")


@dataclass
class MatchState:
    edge_id: str | None = None          # None = UNINITIALIZED
    consecutive_low_confidence: int = 0


class MatchedPoint(NamedTuple):
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
    wall_time_s: float


def load_matcher_config(path) -> tuple[MatcherConfig, RuleBase]:
    """Read thresholds and an optional rule-base override from a YAML file.

    A file that is not a YAML mapping, an unknown key, a non-numeric
    threshold, a threshold out of its range (see MatcherConfig), a malformed
    rule base and a rule-base input the matcher does not measure (one other
    than MEASURES) raise ParseError naming the offending key.
    """
    stream = StringIO(read_text(path))
    stream.name = path  # yaml's error marks name it, as they name an open file
    try:
        doc = yaml.safe_load(stream)
    except yaml.YAMLError as exc:
        raise ParseError(f"{path}: malformed YAML: {exc}") from None
    doc = {} if doc is None else doc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a mapping of thresholds and rule_base, "
                         f"got {type(doc).__name__}")
    for key in doc:
        if key not in ("thresholds", "rule_base"):
            raise ParseError(f"{path}: {key}: unknown key (known: rule_base, thresholds)")
    thresholds = doc.get("thresholds")
    thresholds = {} if thresholds is None else thresholds
    if not isinstance(thresholds, dict):
        raise ParseError(f"{path}: thresholds: expected a mapping, got {thresholds!r}")
    known = {f.name for f in fields(MatcherConfig)}
    for key, value in thresholds.items():
        if key not in known:
            raise ParseError(f"{path}: thresholds.{key}: unknown key "
                             f"(known: {', '.join(sorted(known))})")
        if not is_finite_number(value):
            raise ParseError(f"{path}: thresholds.{key}: expected a finite number, got {value!r}")
    try:
        cfg = MatcherConfig(**thresholds)
    except ValueError as exc:
        raise ParseError(f"{path}: thresholds.{exc}") from None
    if "rule_base" not in doc:
        return cfg, default_rule_base()
    try:
        rules = rule_base_from_config(doc["rule_base"])
    except ValueError as exc:
        raise ParseError(f"{path}: rule_base: {exc}") from None
    for name in rules.input_names:
        if name not in MEASURES:
            raise ParseError(f"{path}: rule_base.inputs.{name}: unknown input "
                             f"(known: {', '.join(sorted(MEASURES))})")
    return cfg, rules


def candidate_links(network: RoadNetwork, p: PlanarPoint, radius: float,
                    measure: Callable[[str], tuple]) -> list[str]:
    """The ids of the links within exact polyline distance radius of p,
    nearest first (ties to the smaller id); measure(edge_id) gives a link's
    _measure row."""
    near = [(pd, e) for e in network.index.query(p, radius) if (pd := measure(e)[0]) <= radius]
    near.sort()
    return [e for _, e in near]


def score_link(network: RoadNetwork, edge_id: str, p: PlanarPoint,
               vehicle_heading: float | None, rules: RuleBase) -> tuple[str, tuple, float]:
    """One link scored by fuzzy inference over PD and HE, as
    (edge_id, _measure row, likelihood)."""
    return _score([edge_id], [_measure(network, edge_id, p, vehicle_heading)], rules)


def _measure(network: RoadNetwork, edge_id: str, p: PlanarPoint,
             vehicle_heading: float | None) -> tuple[float, float, float, float, float]:
    """The link's row for p: (pd, he, foot x, foot y, arc offset).

    The link direction is taken on the segment holding the projection foot
    and evaluated both ways (no one-way information in the network format);
    an absent vehicle heading is treated as perfectly aligned.
    """
    i = network.edges[edge_id]
    lines = network.geometry
    pd, (fx, fy), seg_idx, arc_offset = project_onto_polyline(p, lines, i)
    if vehicle_heading is None:
        he = 0.0
    else:
        # the least angle to the segment's bearing residues, either way: each
        # conditional picks what min() would, min(min(d, 360 - d), min(r, 360 - r))
        seg = lines.segments[i][seg_idx]
        h = vehicle_heading % 360.0
        d = abs(h - seg[7])
        if 360.0 - d < d:
            d = 360.0 - d
        r = abs(h - seg[8])
        if 360.0 - r < r:
            r = 360.0 - r
        he = r if r < d else d
    return pd, he, fx, fy, arc_offset


def _likelihoods(rows: Iterable[tuple], rules: RuleBase) -> list[float]:
    """The likelihoods of _measure rows, scored in one batch."""
    return evaluate_rows(rules, map(_row_getter(rules.input_names), rows))


@functools.cache
def _row_getter(input_names: tuple[str, ...]):
    """A _measure row's rule-base inputs (MEASURES, its first fields), in the
    rule base's order."""
    fields = [MEASURES.index(name) for name in input_names]
    return itemgetter(*fields) if len(fields) > 1 else lambda row: tuple([row[k] for k in fields])


def _score(edge_ids: Sequence[str], rows: Sequence[tuple],
           rules: RuleBase) -> tuple[str, tuple, float]:
    """The best measured link as (edge id, row, likelihood), scored in one
    batch: the first minimum of (-likelihood, pd, edge_id), found in one
    pass with no key built."""
    likelihoods = _likelihoods(rows, rules)
    k, top = 0, likelihoods[0]
    for j in range(1, len(rows)):
        likelihood = likelihoods[j]
        if likelihood > top or likelihood == top and (
                rows[j][0] < rows[k][0] or rows[j][0] == rows[k][0] and edge_ids[j] < edge_ids[k]):
            k, top = j, likelihood
    return edge_ids[k], rows[k], top


def _confident(pd: float, likelihood: float, cfg: MatcherConfig) -> bool:
    """True when a candidate at distance pd lies within candidate_radius and
    scores at least l_min.

    The likelihood test alone passes points far off every road: their pd is
    clamped to the universe maximum, where "pd long and he small" defuzzifies
    to exactly the average label's centroid, 50 (50.000000000000014 after
    rounding), and the default l_min is 50. The pd test settles that case,
    so the likelihood test keeps an inclusive >= at l_min.
    """
    return pd <= cfg.candidate_radius and likelihood >= cfg.l_min


def smp_step(network: RoadNetwork, state: MatchState, p: PlanarPoint, heading: float | None,
             rules: RuleBase, cfg: MatcherConfig) -> tuple[str, tuple, float | None, str]:
    """One tracking step while on a link: updates state in place and
    returns the step's (edge id, _measure row, likelihood or None, phase).

    Stays on the current edge while the projection falls in the edge
    interior with small PD, a decision from geometry alone: the likelihood
    comes back None (unscored), since it does not steer the state. Near an
    endpoint node (or on a large PD excursion) it scores the current edge
    and the edges incident to the nearer node in one batch and picks the
    best. Three consecutive junction decisions that are not confident (see
    _confident) reset the state to uninitialized.
    """
    edge_id = state.edge_id
    i = network.edges[edge_id]
    here = _measure(network, edge_id, p, heading)
    pd, arc_offset = here[0], here[4]
    length = network.geometry.segments[i][-1][6]  # the last segment's cumlen at b
    if (arc_offset > cfg.junction_radius and length - arc_offset > cfg.junction_radius
            and pd <= cfg.pd_escape):
        state.consecutive_low_confidence = 0
        return edge_id, here, None, PHASE_ALONG

    edge_ids = network.adjacency[(network.node_from if arc_offset <= length - arc_offset
                                  else network.node_to)[i]]
    best, row, likelihood = _score(
        edge_ids, [here if e == edge_id else _measure(network, e, p, heading) for e in edge_ids],
        rules)
    if _confident(row[0], likelihood, cfg):
        state.edge_id = best
        state.consecutive_low_confidence = 0
    else:
        state.consecutive_low_confidence += 1
        if state.consecutive_low_confidence >= cfg.reinit_after:
            state.edge_id = None
            state.consecutive_low_confidence = 0
    return best, row, likelihood, PHASE_JUNCTION


def imp(network: RoadNetwork, p: PlanarPoint, heading: float | None, rules: RuleBase,
        cfg: MatcherConfig) -> tuple[str, tuple, float]:
    """Initial link selection: (edge id, _measure row, likelihood) of the
    best of the links within the first radius candidate_radius * 2**k
    (k < 8) that holds a link, picked by the nearest link's distance.

    Beyond 128 times candidate_radius only the nearest links are scored:
    that far out the default rule base clamps pd, so scoring more would
    rank links by heading alone. Whether the returned link is confident
    (see _confident) is the caller's decision. Each link is measured at
    most once, whether the nearest-link scan or the radius query reaches it
    first.
    """
    measure = functools.cache(lambda edge_id: _measure(network, edge_id, p, heading))
    near = network.index.nearest(p)
    nearest = min(measure(e)[0] for e in near)
    radius = cfg.candidate_radius
    for _ in range(8):
        if nearest <= radius:
            edge_ids = candidate_links(network, p, radius, measure)
            break
        radius *= 2.0
    else:
        edge_ids = sorted(e for e in near if measure(e)[0] == nearest)
    return _score(edge_ids, [measure(e) for e in edge_ids], rules)


def match_trajectory(network: RoadNetwork, traj: Trajectory, rules: RuleBase,
                     cfg: MatcherConfig = MatcherConfig()) -> MatchResult:
    """Match every trajectory point to an edge, sequentially.

    Heading for point k is the bearing from k-1 to k when they are at least
    min_heading_separation apart; otherwise the previous heading carries
    forward (dwelling points would otherwise produce arbitrary headings).
    """
    if len(traj) < 2:
        raise TooFewPointsError("trajectory must have at least 2 points")
    proj = network.projection
    xs, ys = proj.project_lonlat(traj.lon, traj.lat)
    network.index, network.adjacency, network.geometry.segments  # built on first read, untimed

    t0 = time.perf_counter()
    state = MatchState()
    steps = []  # (edge_id, row, likelihood or None, phase, reinitialized) per point
    prev = heading = None
    # points are built as the pass reaches them
    for p in map(PlanarPoint, xs.tolist(), ys.tolist()):
        if prev is not None:
            dx, dy = p.x - prev.x, p.y - prev.y
            if (dx * dx + dy * dy) ** 0.5 >= cfg.min_heading_separation:
                # the compass bearing from prev to p: the fixes are apart, as
                # min_heading_separation > 0
                heading = math.degrees(math.atan2(dx, dy)) % 360.0
        prev = p

        if state.edge_id is None:
            edge_id, row, likelihood = imp(network, p, heading, rules, cfg)
            if _confident(row[0], likelihood, cfg):
                state.edge_id = edge_id
            steps.append((edge_id, row, likelihood, PHASE_IMP, False))
        else:
            steps.append((*smp_step(network, state, p, heading, rules, cfg),
                          state.edge_id is None))

    # On-link steps come back unscored: score them all in one batch and
    # unproject every foot in one array call (elementwise + and /, as exact
    # as one call per point), then turn each step into its MatchedPoint in
    # place. The feet go straight into two arrays, and the snapped floats
    # are made as the steps are replaced: whole-trace float lists raised the
    # match's peak memory.
    scores = iter(_likelihoods((row for _, row, likelihood, _, _ in steps if likelihood is None),
                               rules))
    lat, lon = proj.unproject_xy(np.fromiter((s[1][2] for s in steps), float, len(steps)),
                                 np.fromiter((s[1][3] for s in steps), float, len(steps)))
    for i, (source_index, snapped_lat, snapped_lon, (edge_id, row, likelihood, phase, reinit)) \
            in enumerate(zip(traj.source_index.tolist(), map(float, lat), map(float, lon), steps)):
        if likelihood is None:
            likelihood = next(scores)
        steps[i] = MatchedPoint(source_index, edge_id, row[4], snapped_lat, snapped_lon,
                                likelihood, phase, _confident(row[0], likelihood, cfg), reinit)
    matched: list[MatchedPoint] = steps
    wall = time.perf_counter() - t0

    edge_sequence: list[str] = []
    for m in matched:
        if not edge_sequence or edge_sequence[-1] != m.edge_id:
            edge_sequence.append(m.edge_id)
    return MatchResult(matched, edge_sequence, wall)


def write_match_result(result: MatchResult, path):
    write_csv(path, ["source_index", "edge_id", "offset_m",
                     "snapped_lat", "snapped_lon", "likelihood", "phase"],
              (m[:7] for m in result.matched))


def write_edge_sequence(result: MatchResult, path):
    write_lines(path, result.edge_sequence)
