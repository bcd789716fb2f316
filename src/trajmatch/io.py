"""Parsing and serialization of trajectories, road networks, and truth routes.

Every file the package reads or writes goes through this module: inputs
through `read_utf8`, outputs through `write_csv` and `write_lines`.

Native formats (UTF-8, one leading byte-order mark dropped, `#` comment
lines ignored):
  trajectory:  CSV, header `timestamp,lat,lon`; timestamps are ISO-8601 UTC
               or finite epoch seconds, auto-detected per value; like a WKT
               coordinate, each of the three fields is ASCII without `_`.
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
from itertools import chain, compress
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
    """parse(fh) on the UTF-8 file at path, opened with newline="". One
    leading byte-order mark is dropped.

    Invalid UTF-8 and malformed CSV raise ParseError naming the file.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
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


def _is_data(row) -> bool:
    """Whether a CSV record is neither blank nor a `#` comment."""
    return bool(row) and not row[0].lstrip().startswith("#")


def _read_columns(path, columns):
    """One list per name in columns (two or more) of that field of each data
    record after the header, and the message for the first data record too
    short for every column, or None; the lists end before that record.

    Data records are those _is_data keeps. Fields go straight from
    csv.reader into one flat list, so no record is kept; the first field
    rides along so that comment records can be dropped after the read, and
    only when a `#` occurs in it. The whole file is read before any header
    or row is judged, so invalid UTF-8 or CSV anywhere wins.
    """
    def read(fh):
        reader = csv.reader(fh)
        header = next(filter(_is_data, reader), None)
        names = [c.strip().lower() for c in header or ()]
        idx = [names.index(k) for k in columns if k in names]
        flat, short = [], None
        if len(idx) == len(columns):
            extend = flat.extend
            pick = itemgetter(0, *idx)
            for row in reader:
                try:
                    extend(pick(row))
                except IndexError:
                    if _is_data(row):
                        missing = ", ".join(k for k, i in zip(columns, idx) if i >= len(row))
                        short = (f"no field for {missing} "
                                 f"(expected columns {','.join(columns)})")
                        break
        for _ in reader:
            pass
        return header, idx, flat, short

    header, idx, flat, short = read_utf8(path, read)
    if header is None:
        raise ParseError(f"{path}: empty file")
    if len(idx) < len(columns):
        raise ParseError(f"{path}: header must contain {','.join(columns)}")
    width = len(columns) + 1
    first, *cols = (flat[i::width] for i in range(width))
    if "#" in "".join(first):
        keep = [not f.lstrip().startswith("#") for f in first]
        cols = [list(compress(c, keep)) for c in cols]
    return cols, short


def _record_lines(path, records) -> list[int]:
    """The 1-based file line where each data record in records (numbered
    from 0 after the header) starts. A quoted field can hold line breaks,
    so a record can span lines; the file is read again to find them."""
    def scan(fh):
        reader = csv.reader(fh)
        starts, start, last = [], 1, max(records) + 1  # starts[0] is the header's
        for row in reader:
            if _is_data(row):
                starts.append(start)
                if len(starts) > last:
                    break
            start = reader.line_num + 1
        return [starts[r + 1] for r in records]
    return read_utf8(path, scan)


def _row_error(path, record, message) -> ParseError:
    return ParseError(f"{path}: row {_record_lines(path, [record])[0]}: {message}")


def _not_plain(text: str) -> bool:
    """Whether text holds a `_` or a non-ASCII character: float() reads
    `4_7.6` and `-1٢2.3`, but no number field or WKT coordinate may."""
    return "_" in text or not text.isascii()


def _check_number_text(name: str, text: str):
    if _not_plain(text):
        raise ParseError(f"{name} {text!r} has a non-ASCII character or '_'")


def _check_trajectory_record(ts: str, lat: str, lon: str):
    """Raise ValueError at the first fault of one record, in this order:
    timestamp, lat, lon, each by _check_number_text and then by conversion,
    then the coordinate range."""
    _check_number_text("timestamp", ts)
    _parse_timestamp(ts)
    _check_number_text("lat", lat)
    la = float(lat)
    _check_number_text("lon", lon)
    check_coordinate(la, float(lon))


def _trajectory_columns(ts, lats, lons):
    """The float64 columns t, lat, lon of a trajectory's fields, or None
    when some record fails _check_trajectory_record. Each check runs on
    whole columns: the plain-text rule on the joined fields, float() over
    each column (a timestamp column that float rejects is read again with
    _parse_timestamp), then finiteness and the coordinate ranges."""
    if _not_plain("".join(chain(ts, lats, lons))):
        return None
    try:
        lat, lon = np.array(list(map(float, lats))), np.array(list(map(float, lons)))
        try:
            t = np.array(list(map(float, ts)))
        except ValueError:
            t = np.array(list(map(_parse_timestamp, ts)))
    except ValueError:
        return None
    if not np.all(np.isfinite(t) & (-90.0 <= lat) & (lat <= 90.0)
                  & (-180.0 <= lon) & (lon <= 180.0)):
        return None
    return t, lat, lon


def parse_trajectory(path, traj_id: str | None = None) -> Trajectory:
    """ParseError names the first row that does not parse; only then is the
    time order checked.

    The columns are converted and checked whole; only when that finds a
    fault are the records walked in order, and _check_trajectory_record
    names the first bad one.
    """
    (ts, lats, lons), short = _read_columns(path, ("timestamp", "lat", "lon"))
    columns = _trajectory_columns(ts, lats, lons)
    if columns is None:
        for n, record in enumerate(zip(ts, lats, lons)):
            try:
                _check_trajectory_record(*record)
            except ValueError as exc:
                raise _row_error(path, n, exc) from None
    if short:
        raise _row_error(path, len(ts), short)
    if not ts:
        raise ParseError(f"{path}: no data rows")
    t, lat, lon = columns
    down = np.flatnonzero(np.diff(t) < 0)
    if down.size:
        k = int(down[0])
        before, after = _record_lines(path, [k, k + 1])
        raise ParseError(f"{path}: row {after}: non-monotonic timestamp "
                         f"{t[k + 1].item()!r} after {t[k].item()!r} on row {before}")
    return Trajectory.from_columns(t, lat, lon, np.arange(len(t)), traj_id or str(path))


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
    if _not_plain(body):
        raise ParseError(f"bad WKT coordinate {next(filter(_not_plain, pairs))!r}")
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
    (ids, nodes_from, nodes_to, wkts), short = _read_columns(
        path, ("edge_id", "node_from", "node_to", "wkt"))
    lon, lat, sizes = [], [], []
    first_record: dict[str, int] = {}  # edge ids in file order
    for k, (edge_id, wkt) in enumerate(zip(ids, wkts)):
        edge_id = edge_id.strip()
        try:
            size = _parse_wkt_linestring(wkt, lon, lat)
        except ValueError as exc:
            raise _row_error(path, k, exc) from None
        if size < 2:
            raise _row_error(path, k, f"edge {edge_id!r} has <2 vertices")
        if edge_id in first_record:
            first, this = _record_lines(path, [first_record[edge_id], k])
            raise ParseError(f"{path}: row {this}: duplicate edge_id {edge_id!r} "
                             f"(first at row {first})")
        first_record[edge_id] = k
        sizes.append(size)
    if short:
        raise _row_error(path, len(ids), short)
    if not first_record:
        raise ParseError(f"{path}: no edges")
    return _assemble(list(first_record), [v.strip() for v in nodes_from],
                     [v.strip() for v in nodes_to], lon, lat, sizes)


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
