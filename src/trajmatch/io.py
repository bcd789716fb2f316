"""Parsing and serialization of trajectories, road networks, and truth routes.

Every file the package reads or writes goes through this module: inputs
through `read_utf8`, outputs through `write_csv` and `write_lines`.

Native formats (UTF-8, `#` comment lines ignored):
  trajectory:  CSV, header `timestamp,lat,lon`; timestamps are ISO-8601 UTC
               or finite epoch seconds, auto-detected per value.
  network:     CSV, header `edge_id,node_from,node_to,wkt`; geometry is a WKT
               LINESTRING with lon-lat vertex order, read strictly (see
               _parse_wkt_linestring) into flat vertex columns.
  truth route: one edge id per line.
An input that is not valid UTF-8 or not valid CSV raises ParseError.
"""

from __future__ import annotations

import csv
import math
import re
from collections import defaultdict
from dataclasses import dataclass
from datetime import datetime, timezone
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .geo import (
    GeoPoint,
    InvalidPolylineError,
    Polyline,
    Projection,
    SpatialIndex,
    check_coordinate,
    index_build,
    polylines,
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


class RoadEdge(NamedTuple):
    edge_id: str
    node_from: str
    node_to: str
    lon: tuple[float, ...]  # WKT vertex order
    lat: tuple[float, ...]
    geometry: Polyline  # projected, in the network's planar frame

    @property
    def length(self) -> float:
        return self.geometry.length


class RoadNetwork:
    """Edge map + node adjacency + spatial index, in one planar frame.

    Edges and adjacency are fixed once built: `neighbours` keeps what it
    derives from them for the network's life.
    """

    def __init__(self, edges: list[RoadEdge], projection: Projection):
        self.projection = projection
        self.edges: dict[str, RoadEdge] = {}
        adjacency = defaultdict(set)
        for e in edges:
            if e.edge_id in self.edges:
                raise ParseError(f"duplicate edge_id {e.edge_id!r}")
            self.edges[e.edge_id] = e
            adjacency[e.node_from].add(e.edge_id)
            adjacency[e.node_to].add(e.edge_id)
        self.adjacency: dict[str, set[str]] = dict(adjacency)
        self.index: SpatialIndex = index_build([(e.edge_id, e.geometry) for e in edges])
        self._neighbours: dict[tuple[str, str], tuple[str, ...]] = {}

    def neighbours(self, node: str, edge_id: str) -> tuple[str, ...]:
        """The ids of the edges at node other than edge_id, sorted; each
        (node, edge_id) pair is computed on its first call."""
        others = self._neighbours.get((node, edge_id))
        if others is None:
            others = tuple(sorted(self.adjacency.get(node, set()) - {edge_id}))
            self._neighbours[node, edge_id] = others
        return others


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


def _read_records(fh):
    """(1-based file line where the record starts, fields) of each CSV
    record. A quoted field can hold line breaks, so a record can span
    lines; only then is the file read a second time, for each record's
    line."""
    reader = csv.reader(fh)
    rows = list(reader)
    if reader.line_num == len(rows):  # one line per record
        return enumerate(rows, start=1)
    fh.seek(0)
    reader = csv.reader(fh)
    return zip([1] + [reader.line_num + 1 for _ in reader], rows)


def _data_rows(path, columns):
    """(1-based file line where the record starts, tuple of the fields of
    columns) of each CSV record after the header, for two or more columns;
    comment lines skipped. A row too short for every column raises
    ParseError when iteration reaches it, so an earlier bad row still wins."""
    rows = ((lineno, row) for lineno, row in read_utf8(path, _read_records)
            if row and not row[0].lstrip().startswith("#"))
    _, header = next(rows, (0, None))
    if header is None:
        raise ParseError(f"{path}: empty file")
    header = [c.strip().lower() for c in header]
    try:
        idx = [header.index(k) for k in columns]
    except ValueError:
        raise ParseError(f"{path}: header must contain {','.join(columns)}") from None

    last = max(idx)
    pick = itemgetter(*idx)

    def fields():
        for lineno, row in rows:
            if len(row) <= last:
                missing = ", ".join(k for k, i in zip(columns, idx) if i >= len(row))
                raise ParseError(f"{path}: row {lineno}: no field for {missing} "
                                 f"(expected columns {','.join(columns)})")
            yield lineno, pick(row)
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


def _wkt_error(text: str) -> str:
    """What keeps text from being one LINESTRING with one parenthesised body."""
    text = text.strip()
    keyword = re.match(r"[A-Za-z]*", text)[0]
    rest = text[len(keyword):].lstrip()
    if keyword.upper() != "LINESTRING":
        return f"expected WKT LINESTRING, got {text[:40]!r}"
    if rest.upper() == "EMPTY":
        return "LINESTRING EMPTY has no vertices"
    if not rest.startswith("("):
        return f"expected '(' after LINESTRING, got {rest[:40]!r}"
    close = rest.find(")")
    if close < 0:
        return "LINESTRING has no closing ')'"
    if "(" in rest[1:close]:
        return "LINESTRING has a nested '('"
    return f"unexpected text after the LINESTRING's ')': {rest[close + 1:].strip()[:40]!r}"


def _parse_wkt_linestring(text: str, lon: list[float], lat: list[float]) -> int:
    """Append the vertices of a WKT LINESTRING to lon and lat; return their
    number. The text is `LINESTRING (x y, ...)` in any case with optional
    whitespace around each part; a coordinate is an ASCII float literal
    without underscores."""
    head, _, rest = text.partition("(")
    body, close, tail = rest.partition(")")
    # lower(), not upper(): "ı".upper() is "I"
    if head.strip().lower() != "linestring" or not close or "(" in body or tail.strip():
        raise ParseError(_wkt_error(text))
    pairs = body.split(",")
    if "_" in body or not body.isascii():
        bad = next(pair for pair in pairs if "_" in pair or not pair.isascii())
        raise ParseError(f"bad WKT coordinate {bad!r}")
    x0 = y0 = None
    for pair in pairs:
        parts = pair.split()
        if len(parts) != 2:
            raise ParseError(f"bad WKT coordinate {pair!r}")
        x, y = float(parts[0]), float(parts[1])
        if x == x0 and y == y0:
            raise ParseError(f"consecutive duplicate vertex {pair.strip()!r}")
        if not (-90.0 <= y <= 90.0 and -180.0 <= x <= 180.0):
            check_coordinate(y, x)  # raises, naming the bad value
        lon.append(x)
        lat.append(y)
        x0, y0 = x, y
    return len(pairs)


def parse_road_network(path) -> RoadNetwork:
    nodes_from, nodes_to, lon, lat, sizes = [], [], [], [], []
    first_row: dict[str, int] = {}  # edge ids in file order
    for lineno, (edge_id, node_from, node_to, wkt) in _data_rows(
            path, ("edge_id", "node_from", "node_to", "wkt")):
        edge_id = edge_id.strip()
        try:
            size = _parse_wkt_linestring(wkt, lon, lat)
        except ValueError as exc:
            raise ParseError(f"{path}: row {lineno}: {exc}")
        if size < 2:
            raise ParseError(f"{path}: row {lineno}: edge {edge_id!r} has <2 vertices")
        if edge_id in first_row:
            raise ParseError(f"{path}: row {lineno}: duplicate edge_id {edge_id!r} "
                             f"(first at row {first_row[edge_id]})")
        first_row[edge_id] = lineno
        nodes_from.append(node_from.strip())
        nodes_to.append(node_to.strip())
        sizes.append(size)
    if not first_row:
        raise ParseError(f"{path}: no edges")
    return _assemble(list(first_row), nodes_from, nodes_to, lon, lat, sizes)


def write_road_network(network: RoadNetwork, path):
    """Write a network in the format parse_road_network reads, edges sorted
    by id."""
    write_csv(path, ["edge_id", "node_from", "node_to", "wkt"],
              ([e.edge_id, e.node_from, e.node_to,
                "LINESTRING (" + ", ".join(f"{lon!r} {lat!r}"
                                           for lon, lat in zip(e.lon, e.lat)) + ")"]
               for e in sorted(network.edges.values(), key=lambda e: e.edge_id)))


def build_network(edges: list[tuple[str, str, str, list[GeoPoint]]]) -> RoadNetwork:
    """Assemble a RoadNetwork from in-memory edge tuples.

    The projection origin is the centroid of all geometry vertices. An edge
    whose projected vertices do not form a polyline raises ParseError.
    """
    return _assemble([e[0] for e in edges], [e[1] for e in edges], [e[2] for e in edges],
                     [p.lon for e in edges for p in e[3]],
                     [p.lat for e in edges for p in e[3]],
                     [len(e[3]) for e in edges])


def _assemble(ids, nodes_from, nodes_to, lon, lat, sizes) -> RoadNetwork:
    """The network over flat vertex columns in edge order, sizes[i] vertices
    for edge i.

    The origin is the vertex mean by the builtin sum in that order. numpy's
    pairwise sum and math.fsum round differently, and the builtin rounds
    differently on Python 3.12 than on 3.11, so each interpreter keeps its
    own origin only with the builtin.
    """
    if not lon:
        raise ParseError("network has no geometry")
    proj = Projection(GeoPoint(sum(lat) / len(lat), sum(lon) / len(lon)))
    try:
        lines = polylines(*proj.project_lonlat(np.array(lon), np.array(lat)), sizes)
    except InvalidPolylineError as exc:
        raise ParseError(f"edge {ids[exc.index]!r}: {exc}") from None
    lon, lat = tuple(lon), tuple(lat)
    edges = []
    v = 0
    for edge_id, node_from, node_to, size, pl in zip(ids, nodes_from, nodes_to, sizes, lines):
        edges.append(RoadEdge(edge_id, node_from, node_to,
                              lon[v:v + size], lat[v:v + size], pl))
        v += size
    return RoadNetwork(edges, proj)


def parse_ground_truth(path, network: RoadNetwork) -> GroundTruthRoute:
    ids = []
    for lineno, token in read_ids(path):
        if token not in network.edges:
            raise ParseError(f"{path}: line {lineno}: unknown edge id {token!r}")
        ids.append(token)
    if not ids:
        raise ParseError(f"{path}: empty ground-truth route")
    return GroundTruthRoute(tuple(ids))
