"""Independent brute-force reference implementations used by the tests.

Everything here deliberately avoids the library's own code paths.
"""

import math

import numpy as np


def law_of_cosines_distance(lat1, lon1, lat2, lon2, radius=6_371_000.0):
    """Spherical law of cosines great-circle distance (meters)."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dl = math.radians(lon2 - lon1)
    c = math.sin(p1) * math.sin(p2) + math.cos(p1) * math.cos(p2) * math.cos(dl)
    return radius * math.acos(min(1.0, max(-1.0, c)))


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


def brute_dbscan(coords, eps, min_pts):
    """Density-connectivity oracle.

    Returns (core_mask, core_partition) where core_partition maps each core
    index to a frozenset of the core points in its connected component of
    the core-adjacency graph (edges between cores within eps).
    """
    coords = np.asarray(coords, float)
    n = len(coords)
    diff = coords[:, None, :] - coords[None, :, :]
    dmat = np.sqrt((diff ** 2).sum(-1))
    within = dmat <= eps
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
