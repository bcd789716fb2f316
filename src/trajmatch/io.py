"""Parsing and serialization of trajectories, road networks, and truth routes.

Every file the package reads or writes goes through this module: inputs
once each through `read_text`, outputs through `write_csv` and `write_lines`.
A plain numeric trajectory is parsed by numpy's C text reader (see
_plain_trajectory_columns), any other in one walk over its records (see
_record_trajectory_columns), with the same columns and messages.

Native formats (UTF-8, one leading byte-order mark dropped; a blank CSV
record, or one whose first field starts with `#` after any whitespace, is
skipped, and so is a blank id-list line or one starting with `#` after any
whitespace):
  trajectory:  CSV, header `timestamp,lat,lon`; timestamps are ISO-8601 UTC
               or finite epoch seconds, auto-detected per value; like a WKT
               coordinate, each of the three fields is ASCII without `_`.
  network:     CSV, header `edge_id,node_from,node_to,wkt`; geometry is a WKT
               LINESTRING with lon-lat vertex order, read strictly (see
               _parse_wkt_linestring) into flat vertex columns; ids are
               stripped, and an edge id must read back whole from a
               one-id-per-line file (see _id_fault).
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
from io import StringIO
from itertools import compress, islice
from operator import itemgetter

import numpy as np

from .geo import (
    GeoPoint,
    InvalidPolylineError,
    Polylines,
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


class RoadNetwork:
    """A road network as columns in one planar frame, edge i at position i
    of each: `ids`, `node_from` and `node_to`, and the vertices start[i] to
    start[i + 1] - 1 (start = geometry.start) of the flat float64 `lon` and
    `lat` (degrees, WKT order) and of `geometry`, their projection as
    Polylines. `edges` maps each id to its position.

    `adjacency`, each node to the ids of its edges, and `index`, which finds
    the edges near a point, are built from the columns on their first read
    and kept for the network's life, so reading a network does not pay for
    them. Each is a property over an attribute that __init__ sets to None:
    the matcher reads the other attributes per candidate, and on Python 3.11
    they read about 3 times slower once an attribute is added after
    __init__ (functools.cached_property) or the class defines __getattr__.
    Edges and adjacency are fixed once built: `neighbours` keeps what it
    derives from them for the network's life.
    """

    def __init__(self, ids, node_from, node_to, lon, lat, geometry: Polylines,
                 projection: Projection):
        self.projection = projection
        self.ids, self.node_from, self.node_to = tuple(ids), tuple(node_from), tuple(node_to)
        self.edges: dict[str, int] = dict(zip(self.ids, range(len(self.ids))))
        if len(self.edges) < len(self.ids):
            seen = set()
            for edge_id in self.ids:
                if edge_id in seen:
                    raise ParseError(f"duplicate edge_id {edge_id!r}")
                seen.add(edge_id)
        self.lon, self.lat = (np.asarray(c, dtype=np.float64) for c in (lon, lat))
        self.geometry = geometry
        self._adjacency: dict[str, set[str]] | None = None
        self._index: SpatialIndex | None = None
        self._neighbours: dict[tuple[str, str], tuple[str, ...]] = {}

    @property
    def adjacency(self) -> dict[str, set[str]]:
        if self._adjacency is None:
            adjacency = defaultdict(set)
            for edge_id, a, b in zip(self.ids, self.node_from, self.node_to):
                adjacency[a].add(edge_id)
                adjacency[b].add(edge_id)
            self._adjacency = dict(adjacency)
        return self._adjacency

    @property
    def index(self) -> SpatialIndex:
        if self._index is None:
            self._index = index_build(self.geometry, self.ids)
        return self._index

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


def read_text(path) -> str:
    """The text of the UTF-8 file at path, read in one call, so a pipe
    reads too; one leading byte-order mark is dropped. Invalid UTF-8
    raises ParseError naming the file and the offset of the bad byte after
    that mark."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8: {exc}") from None


def read_ids(path) -> list[tuple[int, str]]:
    """Stripped lines with their 1-based line numbers; blank and `#` lines
    skipped."""
    lines = StringIO(read_text(path), newline="")
    return [(lineno, token) for lineno, line in enumerate(lines, start=1)
            if (token := line.strip()) and not token.startswith("#")]


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


def _read_columns(path, text, columns):
    """One list per name in columns (two or more) of that field of each data
    record after the header of text, the file at path, and the message for
    the first data record too short for every column, or None; the lists
    end before that record.

    Data records are those _is_data keeps. Fields go straight from
    csv.reader into one flat list, so no record is kept; the first field
    rides along so that comment records can be dropped after the read, and
    only when a `#` occurs in it. Lines end as in a file opened with
    newline="" (str.splitlines also ends them at \v, \f, \x1c-\x1e, \x85,
    \u2028 and \u2029). The whole file is decoded, then read as CSV, before
    any header or row is judged: invalid UTF-8 anywhere wins, then malformed CSV.
    """
    reader = csv.reader(StringIO(text, newline=""))
    try:
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
    except csv.Error as exc:
        raise ParseError(f"{path}: malformed CSV: {exc}") from None
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


def _record_lines(text, records) -> list[int]:
    """The 1-based file line where each data record in records (numbered
    from 0 after the header) of text starts. A quoted field can hold line
    breaks, so a record can span lines; a second CSV pass over text, which
    the first pass or the plain check has cleared, finds them."""
    reader = csv.reader(StringIO(text, newline=""))
    starts, start, last = [], 1, max(records) + 1  # starts[0] is the header's
    for row in reader:
        if _is_data(row):
            starts.append(start)
            if len(starts) > last:
                break
        start = reader.line_num + 1
    return [starts[r + 1] for r in records]


def _row_error(path, text, record, message) -> ParseError:
    return ParseError(f"{path}: row {_record_lines(text, [record])[0]}: {message}")


def _not_plain(text: str) -> bool:
    """Whether text holds a `_` or a non-ASCII character: float() reads
    `4_7.6` and `-1٢2.3`, but no number field or WKT coordinate may."""
    return "_" in text or not text.isascii()


def _check_number_text(name: str, text: str):
    if _not_plain(text):
        raise ParseError(f"{name} {text!r} has a non-ASCII character or '_'")


def _trajectory_record(ts: str, lat: str, lon: str) -> tuple[float, float, float]:
    """The time, lat and lon of one record; ValueError at its first fault,
    in this order: timestamp, lat, lon, each by _check_number_text and then
    by conversion, then the coordinate range."""
    _check_number_text("timestamp", ts)
    t = _parse_timestamp(ts)
    _check_number_text("lat", lat)
    la = float(lat)
    _check_number_text("lon", lon)
    lo = float(lon)
    check_coordinate(la, lo)
    return t, la, lo


_TRAJECTORY_COLUMNS = ("timestamp", "lat", "lon")
# Characters that keep a trajectory off numpy's reader: a quote or `#`
# changes the CSV records, `_` and NUL are not number text, and numpy strips
# \x1c-\x1f around a number where float() refuses it.
_NOT_PLAIN_CHARS = '"#_\0\x1c\x1d\x1e\x1f'


def _plain_trajectory_columns(text):
    """The float64 columns t, lat, lon of a plain numeric trajectory, the
    decoded text of its file, each a contiguous array, read in one
    np.loadtxt call; or None when the text is not plain, the reader refuses
    it, or a time is not finite or a coordinate is out of range.

    Plain is: ASCII without the _NOT_PLAIN_CHARS; every CR part of a CRLF;
    a first line of exactly the three _TRAJECTORY_COLUMNS names in any
    order (stripped, any case); at least one line after it that is not
    empty once its CR is dropped (the reader only warns when it finds no
    data); and no line longer than the csv module's field limit. In such a
    text each non-empty line is one CSV record and none is a comment, and
    float() and numpy's reader (through the same correctly rounded
    string-to-double) read each field alike or both refuse it, so an
    accepted text gives the record reader's columns.
    """
    if not text.isascii() or any(c in text for c in _NOT_PLAIN_CHARS):
        return None
    if "\r" in text and text.count("\r") != text.count("\r\n"):
        return None
    lines = text.split("\n")
    names = [c.strip().lower() for c in lines[0].split(",")]
    if (sorted(names) != sorted(_TRAJECTORY_COLUMNS)
            or not any(line.rstrip("\r") for line in islice(lines, 1, None))
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    try:
        # a row whose field count differs from the first data row's raises
        rows = np.loadtxt(lines, delimiter=",", comments=None, quotechar=None,
                          dtype=np.float64, skiprows=1, ndmin=2)
    except ValueError:
        return None
    if rows.shape[1] != len(_TRAJECTORY_COLUMNS):
        return None
    t, lat, lon = (rows[:, names.index(k)].copy() for k in _TRAJECTORY_COLUMNS)
    if not np.all(np.isfinite(t) & (-90.0 <= lat) & (lat <= 90.0)
                  & (-180.0 <= lon) & (lon <= 180.0)):
        return None
    return t, lat, lon


def _record_trajectory_columns(path, text):
    """The float64 columns t, lat, lon of text, any trajectory file at path,
    read by _read_columns and converted one record at a time by
    _trajectory_record; ParseError names the first record that does not
    parse or, when all do, the first too short for every column."""
    (ts, lats, lons), short = _read_columns(path, text, _TRAJECTORY_COLUMNS)
    records = []
    for n, record in enumerate(zip(ts, lats, lons)):
        try:
            records.append(_trajectory_record(*record))
        except ValueError as exc:
            raise _row_error(path, text, n, exc) from None
    if short:
        raise _row_error(path, text, len(ts), short)
    if not records:
        raise ParseError(f"{path}: no data rows")
    return tuple(np.array(c, dtype=np.float64) for c in zip(*records))


def parse_trajectory(path, traj_id: str | None = None) -> Trajectory:
    """ParseError names the first row that does not parse; only then is the
    time order checked.

    A plain numeric file is read by numpy's C text reader
    (_plain_trajectory_columns); any other file, and a plain one that
    reader refuses or whose values fail a check, by one walk over its
    records (_record_trajectory_columns), which converts each record once
    and names the first bad row. On a file the C reader accepts, the record
    walk gives the same columns bit for bit.
    """
    text = read_text(path)
    columns = _plain_trajectory_columns(text)
    if columns is None:
        columns = _record_trajectory_columns(path, text)
    t, lat, lon = columns
    down = np.flatnonzero(np.diff(t) < 0)
    if down.size:
        k = int(down[0])
        before, after = _record_lines(text, [k, k + 1])
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


def _id_fault(edge_id: str, node_from: str, node_to: str) -> str | None:
    """What keeps a row's stripped ids from naming an edge and its nodes, or
    None. An edge id must come back whole from a one-id-per-line file (see
    read_ids), so it is not blank, does not start with `#` or with the
    byte-order mark that read_text drops from line 1, and holds no line
    break; a node id is not blank."""
    if not edge_id:
        return "blank edge_id"
    if edge_id.startswith("#"):
        return f"edge_id {edge_id!r} starts with '#'"
    if edge_id.startswith("\ufeff"):
        return f"edge_id {edge_id!r} starts with a byte-order mark"
    if "\n" in edge_id or "\r" in edge_id:
        return f"edge_id {edge_id!r} holds a line break"
    if not node_from:
        return f"edge {edge_id!r} has a blank node_from"
    if not node_to:
        return f"edge {edge_id!r} has a blank node_to"
    return None


def parse_road_network(path) -> RoadNetwork:
    """ParseError names the first row that does not parse. Whether a
    segment is too short to project is known only once every vertex is
    read, so that fault is named after every row has parsed.

    The id columns are screened whole; only when the screen finds a blank
    id, a `#`, a byte-order mark or a line break are the rows walked to
    find the first with an id fault, and the rows before it are read as
    usual.
    """
    text = read_text(path)
    (ids, nodes_from, nodes_to, wkts), short = _read_columns(
        path, text, ("edge_id", "node_from", "node_to", "wkt"))
    ids, nodes_from, nodes_to = ([v.strip() for v in col] for col in (ids, nodes_from, nodes_to))
    fault = None
    joined = "".join(ids)
    if (not (all(ids) and all(nodes_from) and all(nodes_to))
            or any(c in joined for c in "#\n\r\ufeff")):
        fault = next(((k, message) for k, message in
                      enumerate(map(_id_fault, ids, nodes_from, nodes_to)) if message), None)
    lon, lat, sizes = [], [], []
    first_record: dict[str, int] = {}  # edge ids in file order
    for k, (edge_id, wkt) in enumerate(zip(ids[:fault[0]] if fault else ids, wkts)):
        try:
            size = _parse_wkt_linestring(wkt, lon, lat)
        except ValueError as exc:
            raise _row_error(path, text, k, exc) from None
        if size < 2:
            raise _row_error(path, text, k, f"edge {edge_id!r} has <2 vertices")
        if edge_id in first_record:
            first, this = _record_lines(text, [first_record[edge_id], k])
            raise ParseError(f"{path}: row {this}: duplicate edge_id {edge_id!r} "
                             f"(first at row {first})")
        first_record[edge_id] = k
        sizes.append(size)
    if fault:
        raise _row_error(path, text, *fault)
    if short:
        raise _row_error(path, text, len(ids), short)
    if not first_record:
        raise ParseError(f"{path}: no edges")
    try:
        return _assemble(list(first_record), nodes_from, nodes_to, lon, lat, sizes)
    except InvalidPolylineError as exc:
        raise _row_error(path, text, exc.index, f"edge {ids[exc.index]!r}: {exc}") from None


def write_road_network(network: RoadNetwork, path):
    """Write a network in the format parse_road_network reads, edges sorted
    by id."""
    start, lon, lat = network.geometry.start, network.lon.tolist(), network.lat.tolist()

    def wkt(i):
        vertices = zip(lon[start[i]:start[i + 1]], lat[start[i]:start[i + 1]])
        return "LINESTRING (" + ", ".join(f"{x!r} {y!r}" for x, y in vertices) + ")"
    write_csv(path, ["edge_id", "node_from", "node_to", "wkt"],
              ([edge_id, network.node_from[i], network.node_to[i], wkt(i)]
               for edge_id, i in sorted(network.edges.items())))


def build_network(edges: list[tuple[str, str, str, list[GeoPoint]]]) -> RoadNetwork:
    """Assemble a RoadNetwork from in-memory edge tuples.

    The projection origin is the centroid of all geometry vertices. An edge
    whose projected vertices do not form a polyline raises ParseError.
    """
    try:
        return _assemble([e[0] for e in edges], [e[1] for e in edges], [e[2] for e in edges],
                         [p.lon for e in edges for p in e[3]],
                         [p.lat for e in edges for p in e[3]],
                         [len(e[3]) for e in edges])
    except InvalidPolylineError as exc:
        raise ParseError(f"edge {edges[exc.index][0]!r}: {exc}") from None


def _assemble(ids, nodes_from, nodes_to, lon, lat, sizes) -> RoadNetwork:
    """The network over flat vertex columns in edge order, sizes[i] vertices
    for edge i.

    The origin is the vertex mean by a left-to-right sum from 0.0 in that
    order, which ufunc.accumulate is documented to run; numpy's pairwise
    sum, math.fsum and the builtin sum from Python 3.12 on round
    differently, so the left-to-right sum gives every interpreter the same
    origin. Adding the accumulation to 0.0 keeps an all -0.0 column's sum
    +0.0, as a sum from 0.0 is. An edge that is no polyline raises
    polylines' InvalidPolylineError, which each caller names its own way.
    """
    if not lon:
        raise ParseError("network has no geometry")
    lon, lat = np.array(lon, dtype=np.float64), np.array(lat, dtype=np.float64)
    lat0, lon0 = (0.0 + np.add.accumulate(c)[-1].item() for c in (lat, lon))
    proj = Projection(GeoPoint(lat0 / len(lat), lon0 / len(lon)))
    geometry = polylines(*proj.project_lonlat(lon, lat), sizes)
    return RoadNetwork(ids, nodes_from, nodes_to, lon, lat, geometry, proj)


def parse_edge_ids(path, network: RoadNetwork) -> list[str]:
    """The edge ids listed in path, one per line (see read_ids); an id that
    is not in network raises ParseError naming its line."""
    ids = []
    for lineno, token in read_ids(path):
        if token not in network.edges:
            raise ParseError(f"{path}: line {lineno}: unknown edge id {token!r}")
        ids.append(token)
    return ids


def parse_ground_truth(path, network: RoadNetwork) -> GroundTruthRoute:
    ids = parse_edge_ids(path, network)
    if not ids:
        raise ParseError(f"{path}: empty ground-truth route")
    return GroundTruthRoute(tuple(ids))
