"""Mamdani fuzzy inference: membership functions, min-max rules, centroid.

The default rule base scores road-link candidates from two crisp inputs,
perpendicular distance (meters) and heading error (degrees), onto a 0-100
likelihood scale. It can be overridden from a YAML config file.

A RuleBase is compiled when it is built: the output grid and each rule's
consequent sampled on it are computed once, so inference only clips, takes
the pointwise max and computes the centroid. Changing a rule base's rules or
labels after construction is not supported.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

DEFUZZ_SAMPLES = 1001
BATCH_CELLS = 256  # (row, rule) pairs per evaluate_batch pass: 2 MB of samples


@dataclass(frozen=True)
class MembershipFunction:
    """One of: triangular(a,b,c), trapezoidal(a,b,c,d), z(a,b), s(a,b)."""

    shape: str
    params: tuple[float, ...]

    def __post_init__(self):
        expected = {"triangular": 3, "trapezoidal": 4, "z": 2, "s": 2}
        if self.shape not in expected:
            raise ValueError(f"unknown membership shape {self.shape!r}")
        if len(self.params) != expected[self.shape]:
            raise ValueError(f"{self.shape} needs {expected[self.shape]} params")
        if list(self.params) != sorted(self.params):
            raise ValueError("membership parameters must be non-decreasing")
        if self.shape in ("z", "s") and self.params[0] == self.params[1]:
            raise ValueError(f"{self.shape} shape needs distinct parameters")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.shape == "triangular":
            a, b, c = self.params
            left = np.where(a == b, 1.0, (x - a) / max(b - a, 1e-300))
            right = np.where(b == c, 1.0, (c - x) / max(c - b, 1e-300))
            return np.clip(np.minimum(left, right), 0.0, 1.0)
        if self.shape == "trapezoidal":
            a, b, c, d = self.params
            left = np.where(a == b, 1.0, (x - a) / max(b - a, 1e-300))
            right = np.where(c == d, 1.0, (d - x) / max(d - c, 1e-300))
            return np.clip(np.minimum(np.minimum(left, 1.0), right), 0.0, 1.0)
        a, b = self.params
        mid = (a + b) / 2.0
        # standard quadratic spline s-function
        s = np.where(
            x <= a, 0.0,
            np.where(x <= mid, 2 * ((x - a) / (b - a)) ** 2,
                     np.where(x <= b, 1 - 2 * ((b - x) / (b - a)) ** 2, 1.0)))
        return 1.0 - s if self.shape == "z" else s

    def scalar(self, x: float) -> float:
        """Membership of one crisp value, in plain floats.

        Rounds exactly as __call__ does on a 0-d array: numpy's scalar
        `** 2` is C pow(), like Python's, while `t * t` can differ in the
        last bit.
        """
        x = float(x)
        if self.shape == "triangular":
            a, b, c = self.params
            left = 1.0 if a == b else (x - a) / max(b - a, 1e-300)
            right = 1.0 if b == c else (c - x) / max(c - b, 1e-300)
            return min(1.0, max(0.0, min(left, right)))
        if self.shape == "trapezoidal":
            a, b, c, d = self.params
            left = 1.0 if a == b else (x - a) / max(b - a, 1e-300)
            right = 1.0 if c == d else (d - x) / max(d - c, 1e-300)
            return min(1.0, max(0.0, min(left, 1.0, right)))
        a, b = self.params
        if x <= a:
            s = 0.0
        elif x <= (a + b) / 2.0:
            s = 2 * ((x - a) / (b - a)) ** 2
        elif x <= b:
            s = 1 - 2 * ((b - x) / (b - a)) ** 2
        else:
            s = 1.0
        return 1.0 - s if self.shape == "z" else s


def triangular(a, b, c) -> MembershipFunction:
    return MembershipFunction("triangular", (a, b, c))


def trapezoidal(a, b, c, d) -> MembershipFunction:
    return MembershipFunction("trapezoidal", (a, b, c, d))


def z_shaped(a, b) -> MembershipFunction:
    return MembershipFunction("z", (a, b))


def s_shaped(a, b) -> MembershipFunction:
    return MembershipFunction("s", (a, b))


@dataclass
class FuzzyVariable:
    name: str
    universe: tuple[float, float]
    labels: dict[str, MembershipFunction]

    def __post_init__(self):
        lo, hi = self.universe
        if not lo < hi:
            raise ValueError("universe min must be below max")
        # every universe point must be covered by at least one label
        grid = np.linspace(lo, hi, 401)
        cover = np.max([mf(grid) for mf in self.labels.values()], axis=0)
        if np.any(cover <= 0):
            raise ValueError(f"variable {self.name!r}: labels do not cover universe")

    def clamp(self, crisp: float) -> float:
        return min(self.universe[1], max(self.universe[0], crisp))


@dataclass(frozen=True)
class Rule:
    antecedent: tuple[tuple[str, str], ...]  # (variable, label) conjunction
    consequent: str                          # output label
    weight: float = 1.0


@dataclass
class RuleBase:
    inputs: dict[str, FuzzyVariable]
    output: FuzzyVariable
    rules: list[Rule] = field(default_factory=list)

    def __post_init__(self):
        for rule in self.rules:
            for var, label in rule.antecedent:
                if label not in self.inputs[var].labels:
                    raise ValueError(f"rule references unknown label {var}.{label}")
            if rule.consequent not in self.output.labels:
                raise ValueError(f"rule references unknown output label {rule.consequent}")
        lo, hi = self.output.universe
        self._grid = np.linspace(lo, hi, DEFUZZ_SAMPLES)
        sampled = {label: mf(self._grid) for label, mf in self.output.labels.items()}
        self._consequents = np.array([sampled[rule.consequent] for rule in self.rules]
                                     ).reshape(len(self.rules), DEFUZZ_SAMPLES)


def fuzzify(var: FuzzyVariable, crisp: float) -> dict[str, float]:
    """Membership of the (clamped) crisp value under every label."""
    x = var.clamp(crisp)
    return {label: mf.scalar(x) for label, mf in var.labels.items()}


def _strengths(rules: RuleBase, memberships: dict[str, dict[str, float]]) -> list[float]:
    """Firing strength of every rule: min over its antecedent memberships
    times its weight."""
    return [min([memberships[v][l] for v, l in rule.antecedent]) * rule.weight
            for rule in rules.rules]


def infer(rules: RuleBase, memberships: dict[str, dict[str, float]]) -> np.ndarray:
    """Aggregated output membership, sampled on the output universe.

    Consequents are clipped at their rule's firing strength and aggregated
    by pointwise max; rules with strength <= 0 do not fire.
    """
    agg = np.zeros(DEFUZZ_SAMPLES)
    for strength, consequent in zip(_strengths(rules, memberships), rules._consequents):
        if strength <= 0:
            continue
        agg = np.maximum(agg, np.minimum(consequent, strength))
    return agg


def defuzzify_centroid(aggregate: np.ndarray, universe: tuple[float, float]) -> float:
    """Centroid of the aggregated set; universe midpoint when mass is zero."""
    lo, hi = universe
    grid = np.linspace(lo, hi, len(aggregate))
    mass = float(np.sum(aggregate))
    if mass <= 0.0:
        return (lo + hi) / 2.0
    return float(np.sum(grid * aggregate) / mass)


def evaluate(rules: RuleBase, crisp_inputs: Mapping[str, float]) -> float:
    """Full fuzzify -> infer -> defuzzify pass; returns the crisp output."""
    return evaluate_batch(rules, [crisp_inputs])[0]


def evaluate_batch(rules: RuleBase, rows: Sequence[Mapping[str, float]]) -> list[float]:
    """Crisp outputs for many input rows, a chunk of rows per array pass.

    Each pass clips every consequent at every row's firing strength in one
    (rows x rules x DEFUZZ_SAMPLES) np.minimum, takes the max over rules
    from an initial 0 and sums each row. Every output equals infer() and
    defuzzify_centroid() on its row bit for bit: a consequent (>= 0) clipped
    at a strength <= 0 cannot raise the max above the 0 that infer() starts
    from, max is exact in any order, and numpy sums each row of a C-ordered
    array as it sums a 1-D array. A pass holds at most BATCH_CELLS
    (row, rule) pairs, so memory stays bounded for any number of rows.
    """
    n_rules = len(rules.rules)
    chunk = max(1, BATCH_CELLS // max(1, n_rules))
    lo, hi = rules.output.universe
    out = []
    for first in range(0, len(rows), chunk):
        part = rows[first:first + chunk]
        strengths = np.array([
            _strengths(rules, {name: fuzzify(var, row[name])
                               for name, var in rules.inputs.items()})
            for row in part])
        clipped = np.minimum(rules._consequents, strengths.reshape(len(part), n_rules, 1))
        # ufunc reduce, not np.max/np.sum: their argument handling costs a
        # one-row call (evaluate) about a fifth of its time
        agg = np.maximum.reduce(clipped, axis=1, initial=0.0)
        masses = np.add.reduce(agg, axis=1).tolist()
        moments = np.add.reduce(rules._grid * agg, axis=1).tolist()
        out += [(lo + hi) / 2.0 if mass <= 0.0 else moment / mass
                for mass, moment in zip(masses, moments)]
    return out


def default_rule_base() -> RuleBase:
    """Two-input likelihood scorer: near+aligned is good, far+opposed is bad."""
    pd = FuzzyVariable("pd", (0.0, 100.0), {
        "short": z_shaped(10.0, 40.0),
        "long": s_shaped(10.0, 40.0),
    })
    he = FuzzyVariable("he", (0.0, 180.0), {
        "small": z_shaped(15.0, 60.0),
        "large": s_shaped(15.0, 60.0),
    })
    likelihood = FuzzyVariable("likelihood", (0.0, 100.0), {
        "low": triangular(0.0, 0.0, 50.0),
        "average": triangular(25.0, 50.0, 75.0),
        "high": triangular(50.0, 100.0, 100.0),
    })
    rules = [
        Rule((("pd", "short"), ("he", "small")), "high"),
        Rule((("pd", "short"), ("he", "large")), "average"),
        Rule((("pd", "long"), ("he", "small")), "average"),
        Rule((("pd", "long"), ("he", "large")), "low"),
    ]
    return RuleBase({"pd": pd, "he": he}, likelihood, rules)


_SHAPE_BUILDERS = {
    "triangular": triangular,
    "trapezoidal": trapezoidal,
    "z": z_shaped,
    "s": s_shaped,
}


def _variable_from_config(name: str, node: dict) -> FuzzyVariable:
    labels = {}
    for label, spec in node["labels"].items():
        shape = spec["shape"]
        labels[label] = _SHAPE_BUILDERS[shape](*spec["params"])
    return FuzzyVariable(name, tuple(node["universe"]), labels)


def rule_base_from_config(node: dict) -> RuleBase:
    """Build a RuleBase from a parsed config mapping (see docs/config schema)."""
    inputs = {name: _variable_from_config(name, sub)
              for name, sub in node["inputs"].items()}
    output = _variable_from_config("likelihood", node["output"])
    rules = []
    for spec in node["rules"]:
        antecedent = tuple((var, label) for var, label in spec["if"])
        rules.append(Rule(antecedent, spec["then"], float(spec.get("weight", 1.0))))
    return RuleBase(inputs, output, rules)
