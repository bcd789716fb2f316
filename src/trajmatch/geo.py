"""Planar geometry primitives, local projection, a batch of polylines held
as one set of flat vertex columns with per-chain offsets, and a k-d tree
index over points sampled along each segment, built in time linear in edge
length.

All planar math happens in a local equirectangular frame (meters east/north
of a declared origin). The study areas this targets span well under a degree,
where the planar error is negligible.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

EARTH_RADIUS_M = 6_371_000.0
METERS_PER_DEGREE = EARTH_RADIUS_M * math.pi / 180.0
SAMPLE_SPACING = 100.0  # meters between the spatial index's samples along a segment


class InvalidCoordinateError(ValueError):
    """Latitude/longitude outside the valid WGS-84 range, or non-finite."""


@dataclass(frozen=True)
class GeoPoint:
    """A WGS-84 position in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self):
        check_coordinate(self.lat, self.lon)


def check_coordinate(lat: float, lon: float):
    """Raise InvalidCoordinateError unless lat, lon is a finite WGS-84
    position in decimal degrees."""
    if not (math.isfinite(lat) and math.isfinite(lon)):
        raise InvalidCoordinateError(f"non-finite coordinate ({lat}, {lon})")
    if not -90.0 <= lat <= 90.0:
        raise InvalidCoordinateError(f"latitude {lat} out of [-90, 90]")
    if not -180.0 <= lon <= 180.0:
        raise InvalidCoordinateError(f"longitude {lon} out of [-180, 180]")


class PlanarPoint(NamedTuple):
    """Meters east (x) and north (y) of a projection origin; a tuple, so it
    compares equal to (x, y) and unpacks as one."""

    x: float
    y: float


class InvalidPolylineError(ValueError):
    """A vertex chain that is no polyline; `index` is its place in the batch."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class Polylines:
    """A batch of ordered planar vertex chains with no repeated consecutive
    vertices: flat float64 arrays of the vertex coordinates `x` and `y` and
    of the arc length `cumlen` up to each vertex along its chain (0 at each
    chain's first vertex), and `start`, a tuple of one offset per chain and
    the total. Chain i holds vertices start[i] to start[i + 1] - 1 and
    segments start[i] - i to start[i + 1] - i - 2. The constructor checks
    nothing; `polylines` builds checked batches.

    `segments[i]` holds chain i's segments, one tuple each of the constants
    that projecting onto it and comparing a heading with it read: (ax, ay,
    dx, dy, dx * dx + dy * dy, cumlen at a, cumlen at b, bearing % 360.0,
    (bearing + 180.0) % 360.0 % 360.0) for the segment from a to b, bearing
    its compass bearing degrees(atan2(dx, dy)) % 360.0 (0 = north, 90 =
    east), which can round to 360.0. It is built from the columns on its
    first read, so building a batch does not pay for it, and kept for its
    life.
    """

    __slots__ = ("x", "y", "cumlen", "start", "segments")

    def __init__(self, x, y, cumlen, start):
        self.x, self.y, self.cumlen, self.start = x, y, cumlen, start

    def __getattr__(self, name):
        # called only when a slot is unset: `segments` before its first read
        if name != "segments":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        start, cum = self.start, self.cumlen
        j, dx, dy = _segments(self.x, self.y, start[1:])
        dd, dx, dy = (dx * dx + dy * dy).tolist(), dx.tolist(), dy.tolist()
        bearings = [math.degrees(a) % 360.0 for a in map(math.atan2, dx, dy)]
        flat = list(zip(self.x[j].tolist(), self.y[j].tolist(), dx, dy, dd,
                        cum[j].tolist(), cum[j + 1].tolist(), [b % 360.0 for b in bearings],
                        [(b + 180.0) % 360.0 % 360.0 for b in bearings]))
        self.segments = tuple(tuple(flat[a - i:b - i - 1])
                              for i, (a, b) in enumerate(zip(start, start[1:])))
        return self.segments


def _segments(x: np.ndarray, y: np.ndarray, ends) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each segment's first vertex j, x[j + 1] - x[j] and y[j + 1] - y[j], as
    arrays, for chains ending before `ends` (numpy's - rounds as Python's)."""
    ends = np.asarray(ends, dtype=np.intp)
    opens = np.ones(len(x), dtype=bool)
    opens[ends[ends > 0] - 1] = False  # an empty chain ends no vertex
    j = np.flatnonzero(opens)
    return j, x[j + 1] - x[j], y[j + 1] - y[j]


def polylines(x, y, sizes) -> Polylines:
    """The batch over flat vertex columns, chain i over the next sizes[i]
    vertices. Every check runs once over the arrays, and the first chain that
    is no polyline raises InvalidPolylineError.

    Segment lengths are computed with math.hypot on Python floats (numpy's
    hypot differs from it in the last bit on some inputs), and each chain's
    arc lengths are summed from 0 in order, one accumulate per group of
    chains of one size (see _arc_lengths).
    """
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.intp)
    ends = np.cumsum(sizes)
    _, dx, dy = _segments(x, y, ends)
    short = np.flatnonzero(sizes < 2)[:1]
    # a segment whose squared length underflows to 0 has no direction to
    # project onto, like a repeated vertex
    repeated = np.repeat(np.arange(len(sizes)), np.maximum(sizes - 1, 0))[dx * dx + dy * dy == 0]
    if short.size or repeated.size:
        i = min(short.tolist() + repeated[:1].tolist())
        raise InvalidPolylineError(i, "polyline needs at least 2 vertices" if sizes[i] < 2
                                   else "consecutive duplicate vertex in polyline")
    seglen = np.array(list(map(math.hypot, dx.tolist(), dy.tolist())), dtype=np.float64)
    return Polylines(x, y, _arc_lengths(seglen, sizes, ends), (0, *ends.tolist()))


def _arc_lengths(seglen: np.ndarray, sizes: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Every chain's arc lengths, flat by vertex: chain i's are
    accumulate(its seglen, initial=0.0).

    The chains are grouped by size, and each group is summed in one
    np.add.accumulate along the rows of its (chains x segments) array.
    ufunc.accumulate is documented as the sequential loop, so every chain
    gets the same additions in the same order as summed alone, and every sum
    is bit-identical.
    """
    order = np.argsort(sizes, kind="stable")
    n = sizes[order]
    first = (ends - sizes)[order]  # each chain's first vertex
    seg = first - order  # and its first segment
    cum = np.zeros(len(seglen) + len(sizes), dtype=np.float64)
    # where each group starts, and the end; none for an empty batch
    bounds = np.flatnonzero(np.diff(n, prepend=0, append=0)).tolist()
    for a, b in zip(bounds, bounds[1:]):
        k = np.arange(n[a] - 1)
        cum[first[a:b, None] + 1 + k] = np.add.accumulate(seglen[seg[a:b, None] + k], axis=1)
    return cum


class Projection:
    """Local equirectangular projection around a fixed origin."""

    def __init__(self, origin: GeoPoint):
        self.origin = origin
        self._coslat = math.cos(math.radians(origin.lat))

    def project(self, p: GeoPoint) -> PlanarPoint:
        return PlanarPoint(*self.project_lonlat(p.lon, p.lat))

    def project_lonlat(self, lon, lat):
        """(x, y) of bare longitude and latitude; numpy arrays project
        elementwise, with the same arithmetic as project()."""
        return ((lon - self.origin.lon) * self._coslat * METERS_PER_DEGREE,
                (lat - self.origin.lat) * METERS_PER_DEGREE)

    def unproject(self, p: PlanarPoint) -> GeoPoint:
        return GeoPoint(*self.unproject_xy(p.x, p.y))

    def unproject_xy(self, x, y):
        """(lat, lon) of bare planar coordinates; numpy arrays unproject
        elementwise, with the same arithmetic as unproject()."""
        return (self.origin.lat + y / METERS_PER_DEGREE,
                self.origin.lon + x / (self._coslat * METERS_PER_DEGREE))


def haversine_lat_lon(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in meters (mean Earth radius) between two
    latitude-longitude pairs in degrees."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    h = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def project_onto_polyline(p: PlanarPoint, lines: Polylines,
                          i: int) -> tuple[float, PlanarPoint, int, float]:
    """Closest point of chain i of lines: (distance, foot, segment_index,
    arc_offset), the segment counted within the chain.

    Ties between segments go to the lower segment index.
    """
    px, py = p
    best = None
    for j, (ax, ay, dx, dy, dd, cum_a, cum_b, _, _) in enumerate(lines.segments[i]):
        t = ((px - ax) * dx + (py - ay) * dy) / dd
        t = (t if t < 1.0 else 1.0) if t > 0.0 else 0.0  # min(1.0, max(0.0, t))
        fx, fy = ax + t * dx, ay + t * dy
        d = math.hypot(px - fx, py - fy)
        if best is None or d < best[0] - 1e-12:
            best = (d, fx, fy, j, cum_a + t * (cum_b - cum_a))
    d, fx, fy, j, arc_offset = best
    return d, PlanarPoint(fx, fy), j, arc_offset


class SpatialIndex:
    """k-d tree over points sampled at most SAMPLE_SPACING apart along every
    segment of every item. Each point of an item lies within half a spacing
    of one of its samples, so queries widen their radius by that much and
    return supersets.
    """

    def __init__(self, samples: np.ndarray, owners: list):
        # Queries return the same sets whatever the tree's shape; midpoint
        # splits without node shrinking build in about 40% of the time on a
        # 3,120-edge grid
        self._tree = cKDTree(samples, balanced_tree=False, compact_nodes=False)
        self._owners = owners

    def _owners_within(self, p: PlanarPoint, radius: float) -> set:
        hits = self._tree.query_ball_point((p.x, p.y), radius + SAMPLE_SPACING / 2 + 1e-6)
        return {self._owners[i] for i in hits}

    def query(self, p: PlanarPoint, radius: float) -> set:
        if radius <= 0:
            raise ValueError("radius must be > 0")
        return self._owners_within(p, radius)

    def nearest(self, p: PlanarPoint) -> set:
        """A superset of the items nearest to p: no item is farther than the
        nearest sample."""
        return self._owners_within(p, self._tree.query((p.x, p.y))[0])


def index_build(lines: Polylines, owners: Sequence) -> SpatialIndex:
    """The index over a batch of polylines, chain i owned by owners[i].
    Segment j gets n = ceil((cumlen[j + 1] - cumlen[j]) / SAMPLE_SPACING)
    samples a + (b - a) * k / n for k < n, and each chain its last vertex."""
    x, y, cum, start = lines.x, lines.y, lines.cumlen, np.array(lines.start, dtype=np.intp)
    last = start[1:] - 1
    j, seg_dx, seg_dy = _segments(x, y, start[1:])
    # samples per vertex: its segment's n, or 1 for a chain's last vertex
    per = np.ones(len(x), dtype=np.intp)
    per[j] = np.ceil((cum[j + 1] - cum[j]) / SAMPLE_SPACING)
    dx, dy = np.zeros(len(x)), np.zeros(len(x))
    dx[j], dy[j] = seg_dx, seg_dy
    src = np.repeat(np.arange(len(x)), per)
    k = np.arange(len(src)) - np.repeat(np.cumsum(per) - per, per)
    n = per[src]
    samples = np.column_stack((x[src] + dx[src] * k / n, y[src] + dy[src] * k / n))
    samples[np.cumsum(per)[last] - 1] = np.column_stack((x[last], y[last]))
    chains = np.repeat(np.arange(len(last)), np.diff(start))[src]
    return SpatialIndex(samples, [owners[i] for i in chains.tolist()])
