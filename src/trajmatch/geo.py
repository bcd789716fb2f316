"""Planar geometry primitives, local projection, and a k-d tree index over
points sampled along each segment, built in time linear in edge length.

All planar math happens in a local equirectangular frame (meters east/north
of a declared origin). The study areas this targets span well under a degree,
where the planar error is negligible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    def __len__(self):
        return len(self.vertices)


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


class SpatialIndex:
    """k-d tree over points sampled at most SAMPLE_SPACING apart along every
    segment of every item. Each point of an item lies within half a spacing
    of one of its samples, so queries widen their radius by that much and
    return supersets.
    """

    def __init__(self, samples: np.ndarray, owners: list):
        self._tree = cKDTree(samples)
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
    samples, owners = [], []
    for edge_id, pl in edges:
        vs, cum = pl.vertices, pl.cumlen
        for i in range(len(vs) - 1):
            ax, ay = vs[i].x, vs[i].y
            dx, dy = vs[i + 1].x - ax, vs[i + 1].y - ay
            n = math.ceil((cum[i + 1] - cum[i]) / SAMPLE_SPACING)
            for k in range(n):
                samples += (ax + dx * k / n, ay + dy * k / n)
            owners += [edge_id] * n
        samples += (vs[-1].x, vs[-1].y)
        owners.append(edge_id)
    return SpatialIndex(np.array(samples).reshape(-1, 2), owners)
