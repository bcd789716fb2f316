"""Planar geometry primitives, local projection, and a uniform grid index.

All planar math happens in a local equirectangular frame (meters east/north
of a declared origin). The study areas this targets span well under a degree,
where the planar error is negligible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

EARTH_RADIUS_M = 6_371_000.0
METERS_PER_DEGREE = EARTH_RADIUS_M * math.pi / 180.0


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
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise InvalidCoordinateError(f"non-finite coordinate ({self.lat}, {self.lon})")
        if not -90.0 <= self.lat <= 90.0:
            raise InvalidCoordinateError(f"latitude {self.lat} out of [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise InvalidCoordinateError(f"longitude {self.lon} out of [-180, 180]")


@dataclass(frozen=True)
class PlanarPoint:
    """Meters east (x) and north (y) of a projection origin."""

    x: float
    y: float


@dataclass(frozen=True)
class Segment:
    a: PlanarPoint
    b: PlanarPoint

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError("zero-length segment")


class Polyline:
    """An ordered planar vertex chain with no repeated consecutive vertices."""

    def __init__(self, vertices: list[PlanarPoint]):
        if len(vertices) < 2:
            raise ValueError("polyline needs at least 2 vertices")
        for u, v in zip(vertices, vertices[1:]):
            if u == v:
                raise ValueError("consecutive duplicate vertex in polyline")
        self.vertices = tuple(vertices)
        # cumulative arc length up to each vertex
        acc = [0.0]
        for u, v in zip(vertices, vertices[1:]):
            acc.append(acc[-1] + math.hypot(v.x - u.x, v.y - u.y))
        self.cumlen = tuple(acc)

    @property
    def length(self) -> float:
        return self.cumlen[-1]

    def bbox(self) -> tuple[float, float, float, float]:
        xs = [v.x for v in self.vertices]
        ys = [v.y for v in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)

    def __len__(self):
        return len(self.vertices)


class Projection:
    """Local equirectangular projection around a fixed origin."""

    def __init__(self, origin: GeoPoint):
        self.origin = origin
        self._coslat = math.cos(math.radians(origin.lat))

    def project(self, p: GeoPoint) -> PlanarPoint:
        return PlanarPoint(
            x=(p.lon - self.origin.lon) * self._coslat * METERS_PER_DEGREE,
            y=(p.lat - self.origin.lat) * METERS_PER_DEGREE,
        )

    def unproject(self, p: PlanarPoint) -> GeoPoint:
        return GeoPoint(
            lat=self.origin.lat + p.y / METERS_PER_DEGREE,
            lon=self.origin.lon + p.x / (self._coslat * METERS_PER_DEGREE),
        )


def haversine_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in meters (mean Earth radius)."""
    phi1, phi2 = math.radians(a.lat), math.radians(b.lat)
    dphi = phi2 - phi1
    dlam = math.radians(b.lon - a.lon)
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


def point_segment_distance(p: PlanarPoint, s: Segment) -> tuple[float, PlanarPoint, float]:
    """Distance from p to segment s, the closest point, and its parameter t."""
    dx, dy = s.b.x - s.a.x, s.b.y - s.a.y
    t = ((p.x - s.a.x) * dx + (p.y - s.a.y) * dy) / (dx * dx + dy * dy)
    t = min(1.0, max(0.0, t))
    foot = PlanarPoint(s.a.x + t * dx, s.a.y + t * dy)
    return math.hypot(p.x - foot.x, p.y - foot.y), foot, t


def project_onto_polyline(p: PlanarPoint, pl: Polyline) -> tuple[float, PlanarPoint, int, float]:
    """Closest point of a polyline: (distance, foot, segment_index, arc_offset).

    Ties between segments go to the lower segment index.
    """
    # point_segment_distance inlined: this runs for every scored candidate.
    px, py = p.x, p.y
    vs, cum = pl.vertices, pl.cumlen
    best = None
    for i in range(len(vs) - 1):
        ax, ay = vs[i].x, vs[i].y
        dx, dy = vs[i + 1].x - ax, vs[i + 1].y - ay
        t = ((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy)
        t = min(1.0, max(0.0, t))
        fx, fy = ax + t * dx, ay + t * dy
        d = math.hypot(px - fx, py - fy)
        if best is None or d < best[0] - 1e-12:
            best = (d, fx, fy, i, cum[i] + t * (cum[i + 1] - cum[i]))
    d, fx, fy, i, arc_offset = best
    return d, PlanarPoint(fx, fy), i, arc_offset


@dataclass
class SpatialIndex:
    """Uniform grid over item bounding boxes; query returns a superset."""

    cell_size: float
    _cells: dict[tuple[int, int], set] = field(default_factory=dict)

    def _cell_of(self, x: float, y: float) -> tuple[int, int]:
        return (math.floor(x / self.cell_size), math.floor(y / self.cell_size))

    def insert_bbox(self, item, minx: float, miny: float, maxx: float, maxy: float):
        ix0, iy0 = self._cell_of(minx, miny)
        ix1, iy1 = self._cell_of(maxx, maxy)
        for ix in range(ix0, ix1 + 1):
            for iy in range(iy0, iy1 + 1):
                self._cells.setdefault((ix, iy), set()).add(item)

    def query(self, p: PlanarPoint, radius: float) -> set:
        if radius <= 0:
            raise ValueError("radius must be > 0")
        ix0, iy0 = self._cell_of(p.x - radius, p.y - radius)
        ix1, iy1 = self._cell_of(p.x + radius, p.y + radius)
        out: set = set()
        for ix in range(ix0, ix1 + 1):
            for iy in range(iy0, iy1 + 1):
                hit = self._cells.get((ix, iy))
                if hit:
                    out |= hit
        return out


def index_build(edges: list[tuple[object, Polyline]], cell_size: float = 100.0) -> SpatialIndex:
    if cell_size <= 0:
        raise ValueError("cell_size must be > 0")
    idx = SpatialIndex(cell_size)
    for edge_id, pl in edges:
        idx.insert_bbox(edge_id, *pl.bbox())
    return idx
