"""Parsing and serialization of trajectories, road networks, and truth routes.

Every file the package reads or writes goes through this module: inputs
through `read_utf8`, outputs through `write_csv` and `write_lines`.

Native formats (UTF-8, `#` comment lines ignored):
  trajectory:  CSV, header `timestamp,lat,lon`; timestamps are ISO-8601 UTC
               or finite epoch seconds, auto-detected per value.
  network:     CSV, header `edge_id,node_from,node_to,wkt`; geometry is a WKT
               LINESTRING with lon-lat vertex order.
  truth route: one edge id per line.
An input that is not valid UTF-8 or not valid CSV raises ParseError.
"""

from __future__ import annotations

import csv
import math
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


def read_utf8(path, parse):
    """parse(fh) on the UTF-8 file at path, opened with newline="".

    Invalid UTF-8 and malformed CSV raise ParseError naming the file.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            return parse(fh)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not valid UTF-8: {exc}") from None
        except csv.Error as exc:
            raise ParseError(f"{path}: malformed CSV: {exc}") from None


def read_ids(path) -> list[tuple[int, str]]:
    """Stripped lines with their 1-based line numbers; blank and `#` lines
    skipped."""
    return read_utf8(path, lambda fh: [
        (lineno, token) for lineno, line in enumerate(fh, start=1)
        if (token := line.strip()) and not token.startswith("#")])


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)


def _parse_timestamp(text: str) -> float:
    text = text.strip()
    try:
        value = float(text)
    except ValueError:
        pass
    else:
        if not math.isfinite(value):
            raise ParseError(f"non-finite timestamp {text!r}")
        return value
    try:
        dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        raise ParseError(f"unparseable timestamp {text!r}")
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def _data_rows(path, columns) -> tuple[list[int], list[tuple[int, list[str]]]]:
    """The header's index of each of columns, and the CSV rows after the
    header with their 1-based line numbers; comment lines skipped."""
    rows = read_utf8(path, lambda fh: [
        (lineno, row) for lineno, row in enumerate(csv.reader(fh), start=1)
        if row and not row[0].lstrip().startswith("#")])
    if not rows:
        raise ParseError(f"{path}: empty file")
    header = [c.strip().lower() for c in rows[0][1]]
    try:
        return [header.index(k) for k in columns], rows[1:]
    except ValueError:
        raise ParseError(f"{path}: header must contain {','.join(columns)}") from None


def parse_trajectory(path, traj_id: str | None = None) -> Trajectory:
    (i_t, i_lat, i_lon), rows = _data_rows(path, ("timestamp", "lat", "lon"))
    records = []
    for lineno, row in rows:
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
    write_csv(path, ["timestamp", "lat", "lon"],
              ([repr(float(r.timestamp)), repr(float(r.position.lat)),
                repr(float(r.position.lon))] for r in traj))


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
    cols, rows = _data_rows(path, ("edge_id", "node_from", "node_to", "wkt"))
    raw = []
    first_row: dict[str, int] = {}
    for lineno, row in rows:
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


def write_road_network(network: RoadNetwork, path):
    """Write a network in the format parse_road_network reads, edges sorted
    by id."""
    write_csv(path, ["edge_id", "node_from", "node_to", "wkt"],
              ([e.edge_id, e.node_from, e.node_to,
                "LINESTRING (" + ", ".join(f"{p.lon!r} {p.lat!r}"
                                           for p in e.geo_vertices) + ")"]
               for e in sorted(network.edges.values(), key=lambda e: e.edge_id)))


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
    for lineno, token in read_ids(path):
        if token not in network.edges:
            raise ParseError(f"{path}: line {lineno}: unknown edge id {token!r}")
        ids.append(token)
    if not ids:
        raise ParseError(f"{path}: empty ground-truth route")
    return GroundTruthRoute(tuple(ids))
