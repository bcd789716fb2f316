"""Planar geometry primitives, local projection, polylines held as columns
of floats, and a k-d tree index over points sampled along each segment,
built in time linear in edge length.

All planar math happens in a local equirectangular frame (meters east/north
of a declared origin). The study areas this targets span well under a degree,
where the planar error is negligible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain
from operator import attrgetter, itemgetter
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

EARTH_RADIUS_M = 6_371_000.0
METERS_PER_DEGREE = EARTH_RADIUS_M * math.pi / 180.0
SAMPLE_SPACING = 100.0  # meters between the spatial index's samples along a segment


class InvalidCoordinateError(ValueError):
    """Latitude/longitude outside the valid WGS-84 range, or non-finite."""


class UndefinedBearingError(ValueError):
    """Bearing requested between two identical points."""


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


class Polyline:
    """An ordered planar vertex chain with no repeated consecutive vertices,
    held as tuples of floats: the vertex coordinates `xs` and `ys`, the
    arc length `cumlen` up to each vertex and the compass `bearings` of each
    segment. The constructor checks nothing; `polylines` builds checked
    ones."""

    __slots__ = ("xs", "ys", "cumlen", "bearings")

    def __init__(self, xs, ys, cumlen, bearings):
        self.xs, self.ys, self.cumlen, self.bearings = xs, ys, cumlen, bearings

    @property
    def length(self) -> float:
        return self.cumlen[-1]

    def __len__(self):
        return len(self.xs)


def polylines(x, y, sizes) -> list[Polyline]:
    """Polylines over flat vertex columns, the i-th over the next sizes[i]
    vertices. Every check runs once over the arrays, and the first chain that
    is no polyline raises InvalidPolylineError.

    Segment lengths and bearings are computed with `math` on Python floats,
    so they equal math.hypot and bearing() of each segment bit for bit (numpy's
    hypot and arctan2 differ from them in the last bit on some inputs).
    """
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.intp)
    # vertex j starts a segment unless it ends its chain
    starts = np.ones(len(x), dtype=bool)
    starts[np.cumsum(sizes)[sizes > 0] - 1] = False
    j = np.flatnonzero(starts)
    dx, dy = x[j + 1] - x[j], y[j + 1] - y[j]
    short = np.flatnonzero(sizes < 2)[:1]
    repeated = np.repeat(np.arange(len(sizes)), np.maximum(sizes - 1, 0))[(dx == 0) & (dy == 0)]
    if short.size or repeated.size:
        i = min(short.tolist() + repeated[:1].tolist())
        raise InvalidPolylineError(i, "polyline needs at least 2 vertices" if sizes[i] < 2
                                   else "consecutive duplicate vertex in polyline")
    dx, dy = dx.tolist(), dy.tolist()
    seglen = list(map(math.hypot, dx, dy))
    bearings = tuple(math.degrees(a) % 360.0 for a in map(math.atan2, dx, dy))
    xs, ys = tuple(x.tolist()), tuple(y.tolist())
    out = []
    v = s = 0
    for size in sizes.tolist():
        out.append(Polyline(
            xs[v:v + size], ys[v:v + size],
            tuple(accumulate(seglen[s:s + size - 1], initial=0.0)),
            bearings[s:s + size - 1]))
        v += size
        s += size - 1
    return out


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


def haversine_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in meters (mean Earth radius)."""
    return haversine_lat_lon(a.lat, a.lon, b.lat, b.lon)


def haversine_lat_lon(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """haversine_distance of bare latitudes and longitudes in degrees."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    h = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def bearing(a: PlanarPoint, b: PlanarPoint) -> float:
    """Compass bearing a→b in degrees: 0 = north, 90 = east."""
    if a == b:
        raise UndefinedBearingError("bearing undefined for coincident points")
    return math.degrees(math.atan2(b.x - a.x, b.y - a.y)) % 360.0


def heading_error(h1: float, h2: float) -> float:
    """Smallest angular difference between two headings, in [0, 180]."""
    d = abs(h1 % 360.0 - h2 % 360.0)
    return min(d, 360.0 - d)


def project_onto_polyline(p: PlanarPoint, pl: Polyline) -> tuple[float, PlanarPoint, int, float]:
    """Closest point of a polyline: (distance, foot, segment_index, arc_offset).

    Ties between segments go to the lower segment index.
    """
    px, py = p.x, p.y
    xs, ys, cum = pl.xs, pl.ys, pl.cumlen
    best = None
    for i in range(len(xs) - 1):
        ax, ay = xs[i], ys[i]
        dx, dy = xs[i + 1] - ax, ys[i + 1] - ay
        t = ((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy)
        t = min(1.0, max(0.0, t))
        fx, fy = ax + t * dx, ay + t * dy
        d = math.hypot(px - fx, py - fy)
        if best is None or d < best[0] - 1e-12:
            best = (d, fx, fy, i, cum[i] + t * (cum[i + 1] - cum[i]))
    d, fx, fy, i, arc_offset = best
    return d, PlanarPoint(fx, fy), i, arc_offset


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


def index_build(edges: list[tuple[object, Polyline]]) -> SpatialIndex:
    """The index over (item, polyline) pairs. Segment i of a polyline gets
    n = ceil((cumlen[i + 1] - cumlen[i]) / SAMPLE_SPACING) samples
    a + (b - a) * k / n for k < n, and each polyline its last vertex."""
    lines = list(map(itemgetter(1), edges))
    sizes = np.fromiter(map(len, map(attrgetter("xs"), lines)), dtype=np.intp, count=len(lines))
    x, y, cum = (np.fromiter(chain.from_iterable(map(attrgetter(col), lines)),
                             dtype=np.float64, count=int(sizes.sum()))
                 for col in ("xs", "ys", "cumlen"))
    last = np.cumsum(sizes) - 1
    # samples per vertex: its segment's n, or 1 for a polyline's last vertex
    per = np.ones(len(x), dtype=np.intp)
    dx, dy = np.zeros(len(x)), np.zeros(len(x))
    seg = np.ones(len(x), dtype=bool)
    seg[last] = False
    j = np.flatnonzero(seg)
    per[j] = np.ceil((cum[j + 1] - cum[j]) / SAMPLE_SPACING)
    dx[j], dy[j] = x[j + 1] - x[j], y[j + 1] - y[j]
    src = np.repeat(np.arange(len(x)), per)
    k = np.arange(len(src)) - np.repeat(np.cumsum(per) - per, per)
    n = per[src]
    samples = np.column_stack((x[src] + dx[src] * k / n, y[src] + dy[src] * k / n))
    samples[np.cumsum(per)[last] - 1] = np.column_stack((x[last], y[last]))
    owners = np.repeat(np.arange(len(lines)), sizes)[src]
    return SpatialIndex(samples, [edges[i][0] for i in owners.tolist()])
