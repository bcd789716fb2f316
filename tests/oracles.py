"""Independent brute-force reference implementations used by the tests.

Everything here deliberately avoids the library's own code paths.
"""

import csv
import math
from datetime import datetime, timezone
from io import StringIO

import numpy as np
from scipy.spatial import cKDTree


def bearing(a, b):
    """Compass bearing from planar point a to b in degrees, 0 = north and
    90 = east; ValueError for coincident points."""
    (ax, ay), (bx, by) = a, b
    if (ax, ay) == (bx, by):
        raise ValueError("bearing undefined for coincident points")
    return math.degrees(math.atan2(bx - ax, by - ay)) % 360.0


def heading_error(h1, h2):
    """Smallest angular difference between two headings in degrees, in
    [0, 180]."""
    d = abs(h1 % 360.0 - h2 % 360.0)
    return min(d, 360.0 - d)


def law_of_cosines_distance(lat1, lon1, lat2, lon2, radius=6_371_000.0):
    """Spherical law of cosines great-circle distance (meters)."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dl = math.radians(lon2 - lon1)
    c = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    return radius * math.acos(min(1.0, max(-1.0, c)))


def haversine_m(lat1, lon1, lat2, lon2, radius=6_371_000.0):
    """Haversine great-circle distance (meters), in plain floats."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    h = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return 2.0 * radius * math.asin(min(1.0, math.sqrt(h)))


def window_staypoints(rows, delta, tau):
    """The threshold stay-point detector, one record at a time. rows are
    (t, lat, lon) in time order. From each start, the window grows while the
    next hop is under delta meters; a window lasting more than tau seconds
    is kept and the next start follows it, else the start moves one record
    on. Each kept window gives (mean lon, mean lat, first t, last t, count,
    ordinal), the means from left-to-right sums in record order."""
    out = []
    i, n = 0, len(rows)
    while i < n:
        j = i
        while j + 1 < n and haversine_m(*rows[j][1:], *rows[j + 1][1:]) < delta:
            j += 1
        if rows[j][0] - rows[i][0] > tau:
            members = rows[i:j + 1]
            out.append((sequential_sum(r[2] for r in members) / len(members),
                        sequential_sum(r[1] for r in members) / len(members),
                        rows[i][0], rows[j][0], len(members), len(out)))
            i = j + 1
        else:
            i += 1
    return out


def _per_record_timestamp(text):
    text = text.strip()
    try:
        value = float(text)
    except ValueError:
        pass
    else:
        if not math.isfinite(value):
            raise ValueError(f"non-finite timestamp {text!r}")
        return value
    try:
        dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        raise ValueError(f"unparseable timestamp {text!r}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def per_record_trajectory(path):
    """(t, lat, lon) lists of a trajectory CSV, read and checked one record
    at a time; a fault raises ValueError with the message the library's
    ParseError must carry.

    The whole file is decoded first, so invalid UTF-8 anywhere wins, with
    its offset in the file after any byte-order mark; then it is read whole
    as CSV, so malformed CSV anywhere comes next.
    Blank records and those whose first field starts with `#` are skipped;
    the first one left is the header. Each record is checked in this order:
    too short for a column, then timestamp, lat and lon (each ASCII without
    `_`, then converted), then the coordinate range; its row is the file
    line where it starts. The time order is checked last.
    """
    columns = ("timestamp", "lat", "lon")
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not valid UTF-8: {exc}") from None
    try:
        reader = csv.reader(StringIO(text, newline=""))
        records, start = [], 1
        for row in reader:
            records.append((start, row))
            start = reader.line_num + 1
    except csv.Error as exc:
        raise ValueError(f"{path}: malformed CSV: {exc}") from None
    records = [(line, row) for line, row in records
               if row and not row[0].lstrip().startswith("#")]
    if not records:
        raise ValueError(f"{path}: empty file")
    header = [c.strip().lower() for c in records[0][1]]
    if any(k not in header for k in columns):
        raise ValueError(f"{path}: header must contain timestamp,lat,lon")
    idx = [header.index(k) for k in columns]
    t, lat, lon, lines = [], [], [], []
    for line, row in records[1:]:
        if len(row) <= max(idx):
            missing = ", ".join(k for k, i in zip(columns, idx) if i >= len(row))
            raise ValueError(f"{path}: row {line}: no field for {missing} "
                             "(expected columns timestamp,lat,lon)")
        values = []
        try:
            for name, i in zip(columns, idx):
                text = row[i]
                if "_" in text or not text.isascii():
                    raise ValueError(f"{name} {text!r} has a non-ASCII character or '_'")
                values.append(_per_record_timestamp(text) if name == "timestamp"
                              else float(text))
            la, lo = values[1:]
            if not (math.isfinite(la) and math.isfinite(lo)):
                raise ValueError(f"non-finite coordinate ({la}, {lo})")
            if not -90.0 <= la <= 90.0:
                raise ValueError(f"latitude {la} out of [-90, 90]")
            if not -180.0 <= lo <= 180.0:
                raise ValueError(f"longitude {lo} out of [-180, 180]")
        except ValueError as exc:
            raise ValueError(f"{path}: row {line}: {exc}") from None
        t.append(values[0])
        lat.append(la)
        lon.append(lo)
        lines.append(line)
    if not t:
        raise ValueError(f"{path}: no data rows")
    for k in range(1, len(t)):
        if t[k] < t[k - 1]:
            raise ValueError(f"{path}: row {lines[k]}: non-monotonic timestamp {t[k]!r} "
                             f"after {t[k - 1]!r} on row {lines[k - 1]}")
    return t, lat, lon


def sampled_segment_distance(px, py, ax, ay, bx, by, samples=1001):
    """Min distance from p to the segment, by dense sampling."""
    ts = np.linspace(0.0, 1.0, samples)
    xs = ax + ts * (bx - ax)
    ys = ay + ts * (by - ay)
    return float(np.min(np.hypot(px - xs, py - ys)))


def brute_knn_curve(coords, k):
    """Sorted k-th-NN distances by full pairwise distance matrix."""
    coords = np.asarray(coords, float)
    diff = coords[:, None, :] - coords[None, :, :]
    dmat = np.sqrt((diff ** 2).sum(-1))
    np.fill_diagonal(dmat, np.inf)
    kth = np.sort(dmat, axis=1)[:, k - 1]
    return np.sort(kth)


def brute_within(coords, eps):
    """(n, n) bool matrix: pairs within eps, by full pairwise distances."""
    coords = np.asarray(coords, float)
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff ** 2).sum(-1)) <= eps


def brute_dbscan(coords, eps, min_pts):
    """Density-connectivity oracle.

    Returns (core_mask, core_partition) where core_partition maps each core
    index to a frozenset of the core points in its connected component of
    the core-adjacency graph (edges between cores within eps).
    """
    n = len(coords)
    within = brute_within(coords, eps)
    core = within.sum(axis=1) >= min_pts  # diagonal counts the point itself
    comp = {}
    seen = set()
    for i in range(n):
        if not core[i] or i in seen:
            continue
        stack, members = [i], set()
        while stack:
            p = stack.pop()
            if p in members:
                continue
            members.add(p)
            for q in range(n):
                if core[q] and q not in members and within[p][q]:
                    stack.append(q)
        seen |= members
        fs = frozenset(members)
        for m in members:
            comp[m] = fs
    return core, comp


def brute_dbscan_labels(coords, eps, min_pts):
    """The full DBSCAN labelling, by brute force.

    Core clusters are the components of brute_dbscan, numbered 0, 1, ... by
    their lowest core index; a non-core point takes the smallest cluster id
    among its core neighbours, and a point with no core neighbour is noise
    (-1).
    """
    within = brute_within(coords, eps)
    core, comp = brute_dbscan(coords, eps, min_pts)
    cluster_of_lowest = {low: c for c, low in enumerate(sorted({min(m) for m in comp.values()}))}
    labels = np.full(len(core), -1, dtype=int)
    for i, members in comp.items():
        labels[i] = cluster_of_lowest[min(members)]
    for i in np.flatnonzero(~core):
        ids = [labels[j] for j in np.flatnonzero(within[i] & core)]
        if ids:
            labels[i] = min(ids)
    return labels


def bfs_dbscan(coords, eps, min_pts):
    """Breadth-first DBSCAN, the labelling trajmatch's `dbscan` reproduces.

    Returns (labels, core): -1 for noise, else a cluster ordinal. Clusters
    grow from each unvisited core point in index order, through scipy
    cKDTree eps-ball neighbourhoods (self-inclusive); a border point joins
    the first cluster that reaches it.
    """
    coords = np.asarray(coords, float)
    n = len(coords)
    neighborhoods = cKDTree(coords).query_ball_point(coords, r=eps)
    labels = np.full(n, -1, dtype=int)
    core = np.array([len(nb) >= min_pts for nb in neighborhoods])
    visited = np.zeros(n, dtype=bool)
    cluster_id = 0
    for start in range(n):
        if visited[start] or not core[start]:
            continue
        queue = [start]
        visited[start] = True
        labels[start] = cluster_id
        while queue:
            p = queue.pop(0)
            for q in sorted(neighborhoods[p]):
                if labels[q] == -1:
                    labels[q] = cluster_id
                if not visited[q] and core[q]:
                    visited[q] = True
                    queue.append(q)
        cluster_id += 1
    return labels, core


def planar_coords(lats, lons, radius=6_371_000.0):
    """(lon, lat) degrees to (x, y) meters east and north of their mean,
    equirectangular, one point at a time in Python floats."""
    lat0 = float(np.mean(np.asarray(lats, float)))
    lon0 = float(np.mean(np.asarray(lons, float)))
    m_per_deg = radius * math.pi / 180.0
    coslat = math.cos(math.radians(lat0))
    return np.array([[(lon - lon0) * coslat * m_per_deg, (lat - lat0) * m_per_deg]
                     for lat, lon in zip(lats, lons)])


def sequential_sum(values):
    """Left-to-right float sum, one addition at a time."""
    total = 0.0
    for v in values:
        total += v
    return total


def per_cluster_reduction(rows, labels):
    """Stay points and reduced trace, one cluster at a time.

    rows: (timestamp, lat, lon, source_index) per record; labels: -1 for
    noise, else a cluster ordinal 0..k-1. Returns (summaries, reduced):
    summaries[c] is (mean lon, mean lat, first time, last time, count),
    the means from left-to-right sums in record order; reduced holds
    (timestamp, lat, lon, source_index) for every noise record
    and one representative per cluster (its arrival time, its mean, its
    smallest source_index), sorted by (timestamp, source_index), noise
    before representatives and both in input order among equal keys.
    """
    summaries = []
    for c in range(max(labels, default=-1) + 1):
        members = [r for r, lab in zip(rows, labels) if lab == c]
        summaries.append((sequential_sum(r[2] for r in members) / len(members),
                          sequential_sum(r[1] for r in members) / len(members),
                          min(r[0] for r in members), max(r[0] for r in members),
                          len(members)))
    reduced = [r for r, lab in zip(rows, labels) if lab == -1]
    for c, (lon, lat, t_a, _, _) in enumerate(summaries):
        first = min(r[3] for r, lab in zip(rows, labels) if lab == c)
        reduced.append((t_a, lat, lon, first))
    reduced.sort(key=lambda e: (e[0], e[3]))
    return summaries, reduced


def brute_lcs(a, b):
    """Recursive-with-memo longest common subsequence length."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + go(i + 1, j + 1)
        return max(go(i + 1, j), go(i, j + 1))

    return go(0, 0)


def dp_lcs(a, b):
    """Longest common subsequence length by the iterative DP, one row of
    len(b) + 1 counts per element of a."""
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


def highres_centroid(mu, lo, hi, samples=100_001):
    """Centroid of a membership function by dense midpoint sampling."""
    xs = np.linspace(lo, hi, samples)
    ys = np.asarray([mu(x) for x in xs]) if callable(mu) else np.interp(
        xs, np.linspace(lo, hi, len(mu)), mu)
    mass = ys.sum()
    if mass <= 0:
        return (lo + hi) / 2.0
    return float((xs * ys).sum() / mass)


def numpy_mamdani(config, crisp, samples=1001):
    """Mamdani inference as a per-call numpy program, from a rule-base config.

    `config` has the layout `fuzzy.rule_base_from_config` reads. Every call
    evaluates memberships through numpy 0-d arrays, rebuilds the output grid
    with np.linspace and samples every consequent on it, then clips, takes
    the pointwise max and returns the sampled centroid (the universe
    midpoint when no rule fires).
    """
    memberships = {
        name: {label: float(numpy_membership(spec["shape"], spec["params"],
                                             _clamp(crisp[name], node["universe"])))
               for label, spec in node["labels"].items()}
        for name, node in config["inputs"].items()}
    lo, hi = config["output"]["universe"]
    grid = np.linspace(lo, hi, samples)
    agg = np.zeros_like(grid)
    for rule in config["rules"]:
        weight = float(rule.get("weight", 1.0))
        strength = min(memberships[v][l] for v, l in rule["if"]) * weight
        if strength <= 0:
            continue
        spec = config["output"]["labels"][rule["then"]]
        consequent = numpy_membership(spec["shape"], spec["params"], grid)
        agg = np.maximum(agg, np.minimum(consequent, strength))
    mass = float(np.sum(agg))
    if mass <= 0.0:
        return (lo + hi) / 2.0
    return float(np.sum(grid * agg) / mass)


def _clamp(x, universe):
    lo, hi = universe
    return min(hi, max(lo, x))


def numpy_membership(shape, params, x):
    """Membership functions written with numpy, as arrays or 0-d arrays."""
    x = np.asarray(x, dtype=float)
    if shape in ("triangular", "trapezoidal"):
        a, b = params[0], params[1]
        c, d = (params[1], params[2]) if shape == "triangular" else (params[2], params[3])
        left = np.where(a == b, 1.0, (x - a) / max(b - a, 1e-300))
        right = np.where(c == d, 1.0, (d - x) / max(d - c, 1e-300))
        return np.clip(np.minimum(np.minimum(left, 1.0), right), 0.0, 1.0)
    a, b = params
    s = np.where(
        x <= a, 0.0,
        np.where(x <= (a + b) / 2.0, 2 * ((x - a) / (b - a)) ** 2,
                 np.where(x <= b, 1 - 2 * ((b - x) / (b - a)) ** 2, 1.0)))
    return 1.0 - s if shape == "z" else s


def axis_segment_d2(px, py, a, b):
    """Squared distance from (px, py) to an axis-aligned segment a-b; exact
    for integer coordinates."""
    dx = max(min(a[0], b[0]) - px, 0, px - max(a[0], b[0]))
    dy = max(min(a[1], b[1]) - py, 0, py - max(a[1], b[1]))
    return dx * dx + dy * dy


def widening_fallback(edges, px, py, radius, steps=8):
    """Edge ids the matcher's initial link selection (`imp`) scores, by
    brute force.

    edges: (edge_id, [(x, y), ...]) with axis-aligned segments on integer
    coordinates; radius an integer. Returns the ids within the first of
    radius, 2 * radius, ..., 2**(steps - 1) * radius that holds any edge,
    or else the ids at exactly the nearest distance. Every comparison is
    between exact integer squared distances.
    """
    d2 = {eid: min(axis_segment_d2(px, py, a, b) for a, b in zip(pts, pts[1:]))
          for eid, pts in edges}
    for k in range(steps):
        within = {eid for eid, d in d2.items() if d <= (radius << k) ** 2}
        if within:
            return within
    nearest = min(d2.values())
    return {eid for eid, d in d2.items() if d == nearest}


def network_geometry(edges, spacing, radius=6_371_000.0):
    """A road network's planar geometry and index samples, one vertex at a
    time in Python floats.

    edges: [(lons, lats)] in file order. The origin is the mean of every
    latitude and longitude by a left-to-right sum in that order; each
    vertex is projected equirectangularly around it. Segment i of an edge is
    (dx, dy) = (x[i+1] - x[i], y[i+1] - y[i]); it adds math.hypot(dx, dy)
    to the running arc length and has the compass bearing
    degrees(atan2(dx, dy)) % 360. It is sampled at x[i] + dx * k / n for
    k < n, n = ceil((cumlen[i+1] - cumlen[i]) / spacing), and each edge adds
    its last vertex. Returns ((lat0, lon0), [(xs, ys, cumlen, bearings)],
    samples, owners), owners holding edge positions, or None when some
    projected segment has zero length.
    """
    lons = [lon for e_lons, _ in edges for lon in e_lons]
    lats = [lat for _, e_lats in edges for lat in e_lats]
    lat0, lon0 = sequential_sum(lats) / len(lats), sequential_sum(lons) / len(lons)
    m_per_deg = radius * math.pi / 180.0
    coslat = math.cos(math.radians(lat0))
    lines, samples, owners = [], [], []
    for pos, (e_lons, e_lats) in enumerate(edges):
        xs = [(lon - lon0) * coslat * m_per_deg for lon in e_lons]
        ys = [(lat - lat0) * m_per_deg for lat in e_lats]
        cumlen, bearings = [0.0], []
        for i in range(len(xs) - 1):
            dx, dy = xs[i + 1] - xs[i], ys[i + 1] - ys[i]
            if dx == 0 and dy == 0:
                return None
            cumlen.append(cumlen[-1] + math.hypot(dx, dy))
            bearings.append(math.degrees(math.atan2(dx, dy)) % 360.0)
            n = math.ceil((cumlen[i + 1] - cumlen[i]) / spacing)
            for k in range(n):
                samples.append((xs[i] + dx * k / n, ys[i] + dy * k / n))
                owners.append(pos)
        samples.append((xs[-1], ys[-1]))
        owners.append(pos)
        lines.append((xs, ys, cumlen, bearings))
    return (lat0, lon0), lines, samples, owners


def polyline_projection(px, py, xs, ys, cumlen):
    """Closest point of a polyline to (px, py), one segment at a time:
    (distance, foot x, foot y, segment index, arc offset). A later segment
    wins only when nearer by more than 1e-12."""
    best = None
    for i in range(len(xs) - 1):
        dx, dy = xs[i + 1] - xs[i], ys[i + 1] - ys[i]
        t = min(1.0, max(0.0, ((px - xs[i]) * dx + (py - ys[i]) * dy) / (dx * dx + dy * dy)))
        fx, fy = xs[i] + t * dx, ys[i] + t * dy
        d = math.hypot(px - fx, py - fy)
        if best is None or d < best[0] - 1e-12:
            best = (d, fx, fy, i, cumlen[i] + t * (cumlen[i + 1] - cumlen[i]))
    return best


def reference_match(edges, points, config, thresholds):
    """The fuzzy map matcher, one point and one link at a time, with no
    batching, caching or spatial index.

    edges: [(edge_id, node_from, node_to, lons, lats)] in network order;
    points: [(lat, lon)] in trace order; config: a rule base in the layout
    `fuzzy.rule_base_from_config` reads; thresholds: an object with the
    matcher's threshold attributes (candidate_radius, junction_radius,
    pd_escape, l_min, reinit_after, min_heading_separation).

    Geometry comes from network_geometry, links are measured with
    polyline_projection and scored with numpy_mamdani. The rules:
    - heading: the bearing from point k-1 to point k when the two are at
      least min_heading_separation apart, else the last heading (none at
      first, which counts as aligned with every link);
    - a link's he is the smaller heading error against the bearing of the
      segment holding its foot, taken either way along the segment;
    - a point is confident on a link within candidate_radius that scores
      at least l_min;
    - with no current link (IMP): the candidates are the links within the
      first of candidate_radius * 2**k, k < 8, that holds a link, else the
      links at the nearest distance; the best is kept, and becomes the
      current link when confident;
    - on a link: a foot more than junction_radius from both ends at a
      distance of at most pd_escape stays on it (SMP_ALONG) and clears the
      miss count. Otherwise (SMP_JUNCTION) the link and the other links at
      its nearer end (the start on a tie) are scored, and the best becomes
      the current link when confident; else the miss count grows, and at
      reinit_after misses the point drops the link and clears the count
      (reinitialized);
    - the best candidate has the highest likelihood, then the smaller
      distance, then the smaller edge id.
    Returns per point (edge_id, phase, confident, reinitialized, likelihood,
    arc_offset).
    """
    (lat0, lon0), lines, _, _ = network_geometry(
        [(lons, lats) for _, _, _, lons, lats in edges], spacing=1e9)
    m_per_deg = 6_371_000.0 * math.pi / 180.0
    coslat = math.cos(math.radians(lat0))
    ids = [e[0] for e in edges]
    at_node = {}
    for pos, (_, a, b, _, _) in enumerate(edges):
        at_node.setdefault(a, set()).add(pos)
        at_node.setdefault(b, set()).add(pos)

    def measure(pos, px, py, heading):
        xs, ys, cumlen, bearings = lines[pos]
        d, _, _, seg, arc = polyline_projection(px, py, xs, ys, cumlen)
        b = bearings[seg]
        he = 0.0 if heading is None else min(heading_error(heading, b),
                                             heading_error(heading, (b + 180.0) % 360.0))
        return d, he, pos, arc

    def scored(measured):
        """(key, pos, arc): the best candidate has the least key."""
        d, he, pos, arc = measured
        return (-numpy_mamdani(config, {"pd": d, "he": he}), d, ids[pos]), pos, arc

    def confident(c):
        (neg_likelihood, d, _), _, _ = c
        return d <= thresholds.candidate_radius and -neg_likelihood >= thresholds.l_min

    out = []
    current, misses, heading, prev = None, 0, None, None
    for lat, lon in points:
        px, py = (lon - lon0) * coslat * m_per_deg, (lat - lat0) * m_per_deg
        if prev is not None and math.hypot(px - prev[0], py - prev[1]) \
                >= thresholds.min_heading_separation:
            heading = math.degrees(math.atan2(px - prev[0], py - prev[1])) % 360.0
        prev = px, py
        reinitialized = False
        if current is None:
            phase = "IMP"
            every = [measure(pos, px, py, heading) for pos in range(len(edges))]
            nearest = min(m[0] for m in every)
            for k in range(8):
                radius = thresholds.candidate_radius * 2.0 ** k
                if nearest <= radius:
                    break
            else:
                radius = nearest
            best = min(scored(m) for m in every if m[0] <= radius)
            if confident(best):
                current = best[1]
        else:
            here = measure(current, px, py, heading)
            arc, length = here[3], lines[current][2][-1]
            if (arc > thresholds.junction_radius and length - arc > thresholds.junction_radius
                    and here[0] <= thresholds.pd_escape):
                phase, best, misses = "SMP_ALONG", scored(here), 0
            else:
                phase = "SMP_JUNCTION"
                _, a, b, _, _ = edges[current]
                node = a if arc <= length - arc else b
                best = min(map(scored, [here] + [measure(pos, px, py, heading)
                                                 for pos in at_node[node] - {current}]))
                if confident(best):
                    current, misses = best[1], 0
                else:
                    misses += 1
                    if misses >= thresholds.reinit_after:
                        current, misses, reinitialized = None, 0, True
        (neg_likelihood, _, edge_id), _, arc = best
        out.append((edge_id, phase, confident(best), reinitialized, -neg_likelihood, arc))
    return out
