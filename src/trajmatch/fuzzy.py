"""Mamdani fuzzy inference: membership functions, min-max rules, centroid.

The default rule base scores road-link candidates from two crisp inputs,
perpendicular distance (meters) and heading error (degrees), onto a 0-100
likelihood scale. It can be overridden from a YAML config file.

A RuleBase is compiled when it is built: the output grid and each rule's
consequent sampled on it, its antecedents (one flat membership vector, an
index tuple per rule, and each input's flat intervals, where every label is
exactly 0 or 1) and a table of the crisp output of every combination of
flat intervals are computed once. evaluate_rows, the one evaluator, takes
rows as tuples in the rule base's input order; a row inside flat intervals,
each found by one bisection, gets its output from the table with no label
call, and only the other rows go through the array pass, which clips, takes
the pointwise max and computes the centroid. evaluate takes one row as a
mapping from input name to value. Changing a rule base's rules or labels after construction is not
supported.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain, product
from operator import itemgetter

import numpy as np

DEFUZZ_SAMPLES = 1001
# (row, rule) pairs per evaluate_rows pass: 256 KB of clipped samples. Larger
# passes raised the peak memory of a match that scores thousands of on-link
# rows at once, and were no faster.
BATCH_CELLS = 32


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
        # what the formulas compute from the parameters must be a float: an
        # overflowed ramp width gives NaN, an overflowed midpoint leaves [0, 1]
        if self.shape in ("z", "s"):
            a, b = map(float, self.params)
            computed, what = (b - a, a + b), "b - a or a + b"
        else:
            a, b, c, d = map(float, self._corners)
            computed, what = (b - a, d - c), "a ramp width"
        if not all(map(math.isfinite, computed)):
            raise ValueError(f"{self.shape}{self.params}: {what} is not a finite float")

    @property
    def _corners(self) -> tuple[float, ...]:
        """(a, b, c, d) of a trapezoid; triangular(a, b, c) is
        trapezoidal(a, b, b, c)."""
        p = self.params
        return p if self.shape == "trapezoidal" else (p[0], p[1], p[1], p[2])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        # a ramp narrower than the distance to x overflows to +-inf, which the
        # clip or the np.where branch x does not take discards
        with np.errstate(over="ignore"):
            if self.shape in ("triangular", "trapezoidal"):
                a, b, c, d = self._corners  # a zero-width ramp is 1
                left = np.ones_like(x) if a == b else (x - a) / max(b - a, 1e-300)
                right = np.ones_like(x) if c == d else (d - x) / max(d - c, 1e-300)
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
        if self.shape in ("triangular", "trapezoidal"):
            a, b, c, d = self._corners
            left = 1.0 if a == b else _ramp(x - a, b - a)
            right = 1.0 if c == d else _ramp(d - x, d - c)
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


def _ramp(rise: float, width: float) -> float:
    """rise / max(width, 1e-300), as __call__ divides, in plain floats: a
    ramp narrower than the distance to x overflows to +-inf silently, where
    numpy floats (given as parameters) would warn."""
    return float(rise) / max(float(width), 1e-300)


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
        if not self.labels:
            raise ValueError(f"variable {self.name!r} has no labels")
        lo, hi = self.universe
        if not lo < hi:
            raise ValueError("universe min must be below max")
        if not math.isfinite(float(hi) - float(lo)):
            raise ValueError(f"universe width {hi} - {lo} is not a finite float")
        # every universe point must be covered by at least one label
        grid = np.linspace(lo, hi, 401)
        cover = np.max([mf(grid) for mf in self.labels.values()], axis=0)
        if np.any(cover <= 0):
            raise ValueError(f"variable {self.name!r}: labels do not cover universe")


@dataclass(frozen=True)
class Rule:
    antecedent: tuple[tuple[str, str], ...]  # (variable, label) conjunction
    consequent: str                          # output label
    weight: float = 1.0


@dataclass
class RuleBase:
    """Input variables, an output variable and rules over their labels; a
    ValueError at construction names the field at fault, `rules` or
    `output.universe`."""
    inputs: dict[str, FuzzyVariable]
    output: FuzzyVariable
    rules: list[Rule] = field(default_factory=list)

    def __post_init__(self):
        for rule in self.rules:
            if not rule.antecedent:
                raise ValueError("rules: rule has an empty antecedent")
            for var, label in rule.antecedent:
                if var not in self.inputs:
                    raise ValueError(f"rules: rule references unknown input {var!r}")
                if label not in self.inputs[var].labels:
                    raise ValueError(f"rules: rule references unknown label {var}.{label}")
            if rule.consequent not in self.output.labels:
                raise ValueError(f"rules: rule references unknown output label "
                                 f"{rule.consequent}")
        lo, hi = self.output.universe
        self._grid = np.linspace(lo, hi, DEFUZZ_SAMPLES)
        # a moment sum (see _outputs) adds grid values times memberships in
        # [0, 1], so no moment exceeds the same sum of |grid| in magnitude
        with np.errstate(over="ignore"):
            if not math.isfinite(np.add.reduce(np.abs(self._grid))):
                raise ValueError(f"output.universe [{lo}, {hi}]: the moment sum over "
                                 f"{DEFUZZ_SAMPLES} samples is not a finite float")
        sampled = {label: mf(self._grid) for label, mf in self.output.labels.items()}
        self._consequents = np.array([sampled[rule.consequent] for rule in self.rules]
                                     ).reshape(len(self.rules), DEFUZZ_SAMPLES)
        self._compile_antecedents()
        # crisp output per membership vector of a row whose every input lies
        # inside a flat interval (see evaluate_rows)
        flat = [tuple(chain.from_iterable(cell))
                for cell in product(*(values for *_, values in self._columns))]
        self._flat_outputs = dict(zip(flat, _outputs(self, flat)))

    def _compile_antecedents(self):
        """Flatten the labels the rules use into one membership vector.

        Per input, in `input_names` order: its universe, the `scalar` of each
        used label and its flat intervals, the open intervals between label
        parameters where every used label's `scalar` is exactly 0.0 or 1.0
        (see _flat_value), with those values, as three ascending tuples of
        left ends, right ends and values. An interval that holds an end
        of the universe, or ends on it where every used label's `scalar`
        equals the interval's values, is extended to infinity on that side,
        since a value at or beyond that end clamps to it and takes those
        values. Per rule: an itemgetter of its antecedent's vector indices
        (the one index twice for a one-input rule, so it always returns a
        tuple) and its weight.
        """
        self.input_names = tuple(self.inputs)
        used = {term for rule in self.rules for term in rule.antecedent}
        index: dict[tuple[str, str], int] = {}
        self._columns = []
        for name, var in self.inputs.items():
            labels = [label for label in var.labels if (name, label) in used]
            mfs = [var.labels[label] for label in labels]
            for label in labels:
                index[name, label] = len(index)
            lo, hi = var.universe
            cuts = sorted({x for mf in mfs for x in mf.params})
            flat = []
            at_lo, at_hi = (tuple(mf.scalar(end) for mf in mfs) for end in (lo, hi))
            for p, q in zip([-math.inf, *cuts], [*cuts, math.inf]):
                values = tuple(_flat_value(mf, p, q) for mf in mfs)
                if p < hi and q > lo and None not in values:
                    flat.append((-math.inf if p <= lo and at_lo == values else p,
                                 math.inf if q >= hi and at_hi == values else q, values))
            lefts, rights, values = zip(*flat) if flat else ((), (), ())
            self._columns.append((lo, hi, tuple(mf.scalar for mf in mfs), lefts, rights, values))
        self._terms = []
        for rule in self.rules:
            idx = [index[term] for term in rule.antecedent]
            if len(idx) == 1:
                idx *= 2
            self._terms.append((itemgetter(*idx), rule.weight))


def _flat_value(mf: MembershipFunction, p: float, q: float) -> float | None:
    """The value mf.scalar returns everywhere strictly inside (p, q) when it
    is exactly 0.0 or 1.0 there, else None. No parameter of mf lies inside.

    It is read just inside both ends. With no parameter inside, scalar is
    there a triangle's or trapezoid's clipped min of one rising and one
    falling ramp, or a z or s spline, monotone but for rounding where it is
    about 0.5; either is 0.0 or 1.0 throughout when it is at both ends.
    """
    value = mf.scalar(math.nextafter(p, q))
    return value if value in (0.0, 1.0) and mf.scalar(math.nextafter(q, p)) == value else None


def evaluate(rules: RuleBase, crisp_inputs: Mapping[str, float]) -> float:
    """evaluate_rows of one row given as a mapping from input name to value."""
    return evaluate_rows(rules, [tuple([crisp_inputs[name] for name in rules.input_names])])[0]


def evaluate_rows(rules: RuleBase, rows: Iterable[Sequence[float]]) -> list[float]:
    """Crisp outputs for many input rows.

    Rows are read once, in order, so an iterator of rows is never held
    whole. A row holds one crisp value per input, in `rules.input_names`
    order. Its membership vector comes from the compiled antecedents: each
    value is clamped to its universe, and one that lies strictly inside a
    flat interval (the disjoint intervals' last left end below it, found by
    bisection) takes that interval's memberships with no label call.

    A row's output is a pure function of its membership vector (see
    _outputs), so a vector in the rule base's table of flat rows, built
    with the rule base, takes its output from there: every row whose inputs
    all lie in flat intervals does. The other rows go through the array
    pass together, if any. The rule base is only read.
    """
    columns, table = rules._columns, rules._flat_outputs
    out, misses, vectors = [], [], []
    for row in rows:
        memberships = ()
        for x, (lo, hi, labels, lefts, rights, values) in zip(row, columns, strict=True):
            k = bisect_left(lefts, x) - 1
            if k >= 0 and x < rights[k]:
                memberships += values[k]
            else:
                x = min(hi, max(lo, x))
                memberships += tuple([label(x) for label in labels])
        value = table.get(memberships)
        if value is None:
            misses.append(len(out))
            vectors.append(memberships)
        out.append(value)
    if misses:
        for i, value in zip(misses, _outputs(rules, vectors)):
            out[i] = value
    return out


def _outputs(rules: RuleBase, vectors: list[tuple[float, ...]]) -> list[float]:
    """The crisp output of each membership vector, a chunk per array pass.

    A rule's strength is the min over its antecedent's memberships times its
    weight. Each pass clips every consequent at every row's firing strength
    in one (rows x rules x DEFUZZ_SAMPLES) np.minimum and aggregates by the
    max over rules from an initial 0, so a rule of strength <= 0 does not
    fire. The output is the aggregate's centroid on the output grid, or the
    universe midpoint when its mass is 0. It is the same in any pass: max
    is exact in any order, and numpy sums each row of a C-ordered array as
    it sums a 1-D array. A pass holds at most BATCH_CELLS (row, rule) pairs,
    so memory stays bounded for any number of rows.
    """
    terms = rules._terms
    n_rules = len(terms)
    chunk = max(1, BATCH_CELLS // max(1, n_rules))
    lo, hi = rules.output.universe
    out = []
    for first in range(0, len(vectors), chunk):
        part = vectors[first:first + chunk]
        # not reshape(-1, ...): with no rules the array is empty and -1 has
        # no size to infer
        strengths = np.array([[min(get(m)) * w for get, w in terms] for m in part]
                             ).reshape(len(part), n_rules, 1)
        clipped = np.minimum(rules._consequents, strengths)
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


def _field(node, key: str, kind: type, where: str):
    """node[key] of a parsed config, checked to be a `kind`, or a ValueError
    that names the key by its dotted path."""
    path = f"{where}.{key}" if where else key
    if not isinstance(node, Mapping):
        raise ValueError(f"{where or 'rule base'}: expected a mapping, got {node!r}")
    if key not in node:
        raise ValueError(f"{path}: missing")
    if not isinstance(node[key], kind):
        raise ValueError(f"{path}: expected a {kind.__name__}, got {node[key]!r}")
    return node[key]


def _known(node: Mapping, keys: tuple[str, ...], where: str):
    """Reject a key of a config mapping that is not one of `keys`."""
    for key in node:
        if key not in keys:
            raise ValueError(f"{where}.{key}: unknown key" if where else f"{key}: unknown key")


def is_finite_number(value) -> bool:
    """Whether value is an int or float, not a bool, that converts to a finite float."""
    try:
        return isinstance(value, (int, float)) and not isinstance(value, bool) \
            and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _numbers(values: list, path: str) -> tuple[float, ...]:
    if not all(map(is_finite_number, values)):
        raise ValueError(f"{path}: expected finite numbers, got {values!r}")
    return tuple(values)


def _variable_from_config(name: str, node, where: str) -> FuzzyVariable:
    labels = {}
    for label, spec in _field(node, "labels", Mapping, where).items():
        path = f"{where}.labels.{label}"
        params = _numbers(_field(spec, "params", list, path), f"{path}.params")
        _known(spec, ("shape", "params"), path)
        try:
            labels[label] = MembershipFunction(_field(spec, "shape", str, path), params)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    universe = _numbers(_field(node, "universe", list, where), f"{where}.universe")
    _known(node, ("universe", "labels"), where)
    try:
        return FuzzyVariable(name, universe, labels)
    except ValueError as exc:
        raise ValueError(f"{where}.{'universe' if labels else 'labels'}: {exc}") from None


def rule_base_from_config(node: Mapping) -> RuleBase:
    """Build a RuleBase from a parsed config mapping (see docs/config schema).

    A malformed mapping raises ValueError naming the offending key by its
    dotted path, such as `output.labels.low.params` or `rules[2].then`.
    """
    inputs = {name: _variable_from_config(name, sub, f"inputs.{name}")
              for name, sub in _field(node, "inputs", Mapping, "").items()}
    _known(node, ("inputs", "output", "rules"), "")
    output = _variable_from_config("likelihood", _field(node, "output", Mapping, ""), "output")
    rules = []
    for i, spec in enumerate(_field(node, "rules", list, "")):
        path = f"rules[{i}]"
        antecedent = _field(spec, "if", list, path)
        _known(spec, ("if", "then", "weight"), path)
        if not all(isinstance(c, list) and len(c) == 2 and all(isinstance(v, str) for v in c)
                   for c in antecedent):
            raise ValueError(f"{path}.if: expected [variable, label] pairs, got {antecedent!r}")
        [weight] = _numbers([spec.get("weight", 1.0)], f"{path}.weight")
        rules.append(Rule(tuple(map(tuple, antecedent)), _field(spec, "then", str, path),
                          float(weight)))
    return RuleBase(inputs, output, rules)
