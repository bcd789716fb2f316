"""Parsing and serialization of trajectories, road networks, and truth routes.

Native formats (UTF-8 CSV, `#` comment lines ignored):
  trajectory:  header `timestamp,lat,lon`; timestamps are ISO-8601 UTC or
               epoch seconds, auto-detected per value.
  network:     header `edge_id,node_from,node_to,wkt`; geometry is a WKT
               LINESTRING with lon-lat vertex order.
  truth route: one edge id per line.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime, timezone

from .geo import (
    GeoPoint,
    InvalidCoordinateError,
    Polyline,
    Projection,
    SpatialIndex,
    index_build,
)


class ParseError(ValueError):
    """Malformed input file; message names the offending row where known."""


@dataclass(frozen=True)
class TrajectoryRecord:
    timestamp: float
    position: GeoPoint
    source_index: int


class Trajectory:
    def __init__(self, records: list[TrajectoryRecord], traj_id: str = ""):
        if not records:
            raise ParseError("empty trajectory")
        for prev, cur in zip(records, records[1:]):
            if cur.timestamp < prev.timestamp:
                raise ParseError(
                    f"non-monotonic timestamp at source_index {cur.source_index}"
                )
        self.records = tuple(records)
        self.id = traj_id

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, i):
        return self.records[i]


@dataclass(frozen=True)
class RoadEdge:
    edge_id: str
    node_from: str
    node_to: str
    geo_vertices: tuple[GeoPoint, ...]
    geometry: Polyline  # projected, in the network's planar frame

    @property
    def length(self) -> float:
        return self.geometry.length


class RoadNetwork:
    """Edge map + node adjacency + spatial index, in one planar frame."""

    def __init__(self, edges: list[RoadEdge], projection: Projection):
        self.projection = projection
        self.edges: dict[str, RoadEdge] = {}
        self.adjacency: dict[str, set[str]] = {}
        for e in edges:
            if e.edge_id in self.edges:
                raise ParseError(f"duplicate edge_id {e.edge_id!r}")
            self.edges[e.edge_id] = e
            self.adjacency.setdefault(e.node_from, set()).add(e.edge_id)
            self.adjacency.setdefault(e.node_to, set()).add(e.edge_id)
        self.index: SpatialIndex = index_build([(e.edge_id, e.geometry) for e in edges])


@dataclass(frozen=True)
class GroundTruthRoute:
    edge_ids: tuple[str, ...]

    def __len__(self):
        return len(self.edge_ids)


def _parse_timestamp(text: str) -> float:
    text = text.strip()
    try:
        return float(text)
    except ValueError:
        pass
    try:
        dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        raise ParseError(f"unparseable timestamp {text!r}")
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def _data_rows(path) -> list[tuple[int, list[str]]]:
    """CSV rows with their 1-based line numbers, comments skipped."""
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (row[0].lstrip().startswith("#")):
                continue
            out.append((lineno, row))
    return out


def parse_trajectory(path, traj_id: str | None = None) -> Trajectory:
    rows = _data_rows(path)
    if not rows:
        raise ParseError(f"{path}: empty file")
    header = [c.strip().lower() for c in rows[0][1]]
    try:
        i_t = header.index("timestamp")
        i_lat = header.index("lat")
        i_lon = header.index("lon")
    except ValueError:
        raise ParseError(f"{path}: header must contain timestamp,lat,lon")
    records = []
    for lineno, row in rows[1:]:
        try:
            ts = _parse_timestamp(row[i_t])
            pos = GeoPoint(float(row[i_lat]), float(row[i_lon]))
        except (IndexError, ValueError, InvalidCoordinateError) as exc:
            raise ParseError(f"{path}: row {lineno}: {exc}")
        records.append(TrajectoryRecord(ts, pos, source_index=len(records)))
    if not records:
        raise ParseError(f"{path}: no data rows")
    return Trajectory(records, traj_id or str(path))


def write_trajectory(traj: Trajectory, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["timestamp", "lat", "lon"])
        for r in traj:
            w.writerow([repr(float(r.timestamp)), repr(float(r.position.lat)),
                        repr(float(r.position.lon))])


def _parse_wkt_linestring(text: str) -> list[GeoPoint]:
    text = text.strip()
    up = text.upper()
    if not up.startswith("LINESTRING"):
        raise ParseError(f"expected WKT LINESTRING, got {text[:40]!r}")
    body = text[text.index("(") + 1 : text.rindex(")")]
    pts = []
    for pair in body.split(","):
        parts = pair.split()
        if len(parts) != 2:
            raise ParseError(f"bad WKT coordinate {pair!r}")
        lon, lat = float(parts[0]), float(parts[1])
        if pts and pts[-1].lon == lon and pts[-1].lat == lat:
            raise ParseError(f"consecutive duplicate vertex {pair.strip()!r}")
        pts.append(GeoPoint(lat, lon))
    return pts


def parse_road_network(path) -> RoadNetwork:
    rows = _data_rows(path)
    if not rows:
        raise ParseError(f"{path}: empty file")
    header = [c.strip().lower() for c in rows[0][1]]
    try:
        cols = [header.index(k) for k in ("edge_id", "node_from", "node_to", "wkt")]
    except ValueError:
        raise ParseError(f"{path}: header must contain edge_id,node_from,node_to,wkt")
    raw = []
    first_row: dict[str, int] = {}
    for lineno, row in rows[1:]:
        try:
            edge_id, node_from, node_to = (row[cols[0]].strip(),
                                           row[cols[1]].strip(),
                                           row[cols[2]].strip())
            verts = _parse_wkt_linestring(row[cols[3]])
        except (IndexError, ValueError, InvalidCoordinateError) as exc:
            raise ParseError(f"{path}: row {lineno}: {exc}")
        if len(verts) < 2:
            raise ParseError(f"{path}: row {lineno}: edge {edge_id!r} has <2 vertices")
        if edge_id in first_row:
            raise ParseError(f"{path}: row {lineno}: duplicate edge_id {edge_id!r} "
                             f"(first at row {first_row[edge_id]})")
        first_row[edge_id] = lineno
        raw.append((edge_id, node_from, node_to, verts))
    if not raw:
        raise ParseError(f"{path}: no edges")
    return build_network(raw)


def build_network(edges: list[tuple[str, str, str, list[GeoPoint]]]) -> RoadNetwork:
    """Assemble a RoadNetwork from in-memory edge tuples.

    The projection origin is the centroid of all geometry vertices. An edge
    whose projected vertices do not form a polyline raises ParseError.
    """
    all_pts = [p for _, _, _, verts in edges for p in verts]
    if not all_pts:
        raise ParseError("network has no geometry")
    origin = GeoPoint(
        sum(p.lat for p in all_pts) / len(all_pts),
        sum(p.lon for p in all_pts) / len(all_pts),
    )
    proj = Projection(origin)
    built = []
    for edge_id, node_from, node_to, verts in edges:
        try:
            pl = Polyline([proj.project(p) for p in verts])
        except ValueError as exc:
            raise ParseError(f"edge {edge_id!r}: {exc}") from None
        built.append(RoadEdge(edge_id, node_from, node_to, tuple(verts), pl))
    return RoadNetwork(built, proj)


def parse_ground_truth(path, network: RoadNetwork) -> GroundTruthRoute:
    ids = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            token = line.strip()
            if not token or token.startswith("#"):
                continue
            if token not in network.edges:
                raise ParseError(f"{path}: line {lineno}: unknown edge id {token!r}")
            ids.append(token)
    if not ids:
        raise ParseError(f"{path}: empty ground-truth route")
    return GroundTruthRoute(tuple(ids))
