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

import numpy as np

from .geo import (
    GeoPoint,
    Polyline,
    Projection,
    SpatialIndex,
    check_coordinate,
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
    """A trace as four columns: `t`, `lat`, `lon` (float64), `source_index`
    (int). Iteration, indexing and `records` build TrajectoryRecord values of
    plain Python floats and ints on demand."""

    def __init__(self, records: list[TrajectoryRecord], traj_id: str = ""):
        if not records:
            raise ParseError("empty trajectory")
        self._assign(*zip(*((r.timestamp, r.position.lat, r.position.lon, r.source_index)
                            for r in records)), traj_id)
        down = np.flatnonzero(np.diff(self.t) < 0)
        if down.size:
            raise ParseError(f"non-monotonic timestamp at source_index "
                             f"{self.source_index[down[0] + 1]}")

    @classmethod
    def from_columns(cls, t, lat, lon, source_index, traj_id: str = "") -> Trajectory:
        """A trajectory over columns that already hold a valid, non-empty
        trace in non-decreasing time; nothing is checked."""
        traj = cls.__new__(cls)
        traj._assign(t, lat, lon, source_index, traj_id)
        return traj

    def _assign(self, t, lat, lon, source_index, traj_id):
        self.t, self.lat, self.lon = (np.asarray(c, dtype=np.float64) for c in (t, lat, lon))
        self.source_index = np.asarray(source_index, dtype=np.intp)
        self.id = traj_id

    def __len__(self):
        return len(self.t)

    def __iter__(self):
        return map(TrajectoryRecord, self.t.tolist(),
                   map(GeoPoint, self.lat.tolist(), self.lon.tolist()),
                   self.source_index.tolist())

    def __getitem__(self, i: int) -> TrajectoryRecord:
        return TrajectoryRecord(self.t[i].item(),
                                GeoPoint(self.lat[i].item(), self.lon[i].item()),
                                self.source_index[i].item())

    @property
    def records(self) -> tuple[TrajectoryRecord, ...]:
        return tuple(self)


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


def _data_rows(path, columns):
    """(1-based line number, fields of columns) of each CSV row after the
    header; comment lines skipped. A row too short for every column raises
    ParseError when iteration reaches it, so an earlier bad row still wins."""
    rows = read_utf8(path, lambda fh: [
        (lineno, row) for lineno, row in enumerate(csv.reader(fh), start=1)
        if row and not row[0].lstrip().startswith("#")])
    if not rows:
        raise ParseError(f"{path}: empty file")
    header = [c.strip().lower() for c in rows[0][1]]
    try:
        idx = [header.index(k) for k in columns]
    except ValueError:
        raise ParseError(f"{path}: header must contain {','.join(columns)}") from None

    last = max(idx)

    def fields():
        for lineno, row in rows[1:]:
            if len(row) <= last:
                missing = ", ".join(k for k, i in zip(columns, idx) if i >= len(row))
                raise ParseError(f"{path}: row {lineno}: no field for {missing} "
                                 f"(expected columns {','.join(columns)})")
            yield lineno, [row[i] for i in idx]
    return fields()


def parse_trajectory(path, traj_id: str | None = None) -> Trajectory:
    """ParseError names the first row that does not parse; only then is the
    time order checked."""
    t, lat, lon, lines = [], [], [], []
    for lineno, (ts, la, lo) in _data_rows(path, ("timestamp", "lat", "lon")):
        try:
            t.append(_parse_timestamp(ts))
            lat.append(float(la))
            lon.append(float(lo))
            check_coordinate(lat[-1], lon[-1])
        except ValueError as exc:
            raise ParseError(f"{path}: row {lineno}: {exc}")
        lines.append(lineno)
    if not t:
        raise ParseError(f"{path}: no data rows")
    traj = Trajectory.from_columns(t, lat, lon, np.arange(len(t)), traj_id or str(path))
    down = np.flatnonzero(np.diff(traj.t) < 0)
    if down.size:
        k = down[0]
        raise ParseError(f"{path}: row {lines[k + 1]}: non-monotonic timestamp "
                         f"{t[k + 1]!r} after {t[k]!r} on row {lines[k]}")
    return traj


def write_trajectory(traj: Trajectory, path):
    write_csv(path, ["timestamp", "lat", "lon"],
              ([repr(t), repr(lat), repr(lon)] for t, lat, lon
               in zip(traj.t.tolist(), traj.lat.tolist(), traj.lon.tolist())))


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
    raw = []
    first_row: dict[str, int] = {}
    for lineno, row in _data_rows(path, ("edge_id", "node_from", "node_to", "wkt")):
        edge_id, node_from, node_to = (field.strip() for field in row[:3])
        try:
            verts = _parse_wkt_linestring(row[3])
        except ValueError as exc:
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
