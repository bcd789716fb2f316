"""The compiled fuzzy scorer against a per-call numpy copy of the algorithm.

`evaluate`, `evaluate_rows` and `MembershipFunction.scalar` must equal the
oracles in tests/oracles.py bit for bit, so these tests compare with ==,
whether a row's output comes from the array pass or from the rule base's
table of flat rows.
"""

import copy
import math
import pickle
import random
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trajmatch import fuzzy
from trajmatch.fuzzy import (
    MembershipFunction,
    default_rule_base,
    evaluate,
    evaluate_rows,
    rule_base_from_config,
)
from oracles import numpy_mamdani, numpy_membership


def evaluate_batch(rb, rows):
    """evaluate_rows over rows given as mappings from input name to value."""
    return evaluate_rows(rb, [tuple(row[name] for name in rb.input_names) for row in rows])

DEFAULT_CONFIG = {
    "inputs": {
        "pd": {"universe": [0.0, 100.0],
               "labels": {"short": {"shape": "z", "params": [10.0, 40.0]},
                          "long": {"shape": "s", "params": [10.0, 40.0]}}},
        "he": {"universe": [0.0, 180.0],
               "labels": {"small": {"shape": "z", "params": [15.0, 60.0]},
                          "large": {"shape": "s", "params": [15.0, 60.0]}}},
    },
    "output": {"universe": [0.0, 100.0],
               "labels": {"low": {"shape": "triangular", "params": [0.0, 0.0, 50.0]},
                          "average": {"shape": "triangular", "params": [25.0, 50.0, 75.0]},
                          "high": {"shape": "triangular", "params": [50.0, 100.0, 100.0]}}},
    "rules": [
        {"if": [["pd", "short"], ["he", "small"]], "then": "high"},
        {"if": [["pd", "short"], ["he", "large"]], "then": "average"},
        {"if": [["pd", "long"], ["he", "small"]], "then": "average"},
        {"if": [["pd", "long"], ["he", "large"]], "then": "low"},
    ],
}

# All four shapes, rule weights below 1, and a one-input rule.
MIXED_CONFIG = {
    "inputs": {
        "pd": {"universe": [0, 100],
               "labels": {"short": {"shape": "trapezoidal", "params": [0, 0, 10, 30]},
                          "mid": {"shape": "triangular", "params": [10, 35, 60]},
                          "long": {"shape": "s", "params": [40, 90]}}},
        "he": {"universe": [0, 180],
               "labels": {"small": {"shape": "z", "params": [10, 70]},
                          "large": {"shape": "trapezoidal", "params": [30, 90, 180, 180]}}},
    },
    "output": {"universe": [0, 100],
               "labels": {"low": {"shape": "z", "params": [5, 45]},
                          "average": {"shape": "triangular", "params": [25, 50, 75]},
                          "high": {"shape": "s", "params": [55, 95]}}},
    "rules": [
        {"if": [["pd", "short"], ["he", "small"]], "then": "high"},
        {"if": [["pd", "short"], ["he", "large"]], "then": "average", "weight": 0.8},
        {"if": [["pd", "mid"], ["he", "small"]], "then": "average", "weight": 0.6},
        {"if": [["pd", "mid"], ["he", "large"]], "then": "low", "weight": 0.5},
        {"if": [["pd", "long"]], "then": "low", "weight": 0.9},
    ],
}

CONFIGS = {"default": DEFAULT_CONFIG, "mixed": MIXED_CONFIG}
COMPILED = {"default": default_rule_base(), "mixed": rule_base_from_config(MIXED_CONFIG)}


def _crisp(breakpoints, lo, hi):
    """Floats inside and outside [lo, hi], and the label breakpoints exactly."""
    return st.one_of(st.floats(lo, hi, allow_nan=False),
                     st.sampled_from(breakpoints))


PD = _crisp([0.0, 10.0, 25.0, 30.0, 35.0, 40.0, 60.0, 65.0, 90.0, 100.0], -50.0, 250.0)
HE = _crisp([0.0, 10.0, 15.0, 30.0, 37.5, 40.0, 60.0, 70.0, 90.0, 180.0], -30.0, 400.0)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(CONFIGS)), pd=PD, he=HE)
def test_evaluate_equals_numpy_oracle(name, pd, he):
    crisp = {"pd": pd, "he": he}
    assert evaluate(COMPILED[name], crisp) == numpy_mamdani(CONFIGS[name], crisp)


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(CONFIGS)),
       pairs=st.lists(st.tuples(PD, HE), max_size=8))
def test_evaluate_batch_equals_numpy_oracle(name, pairs):
    rows = [{"pd": pd, "he": he} for pd, he in pairs]
    want = [numpy_mamdani(CONFIGS[name], row) for row in rows]
    assert evaluate_batch(COMPILED[name], rows) == want


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(shape=st.sampled_from(["triangular", "trapezoidal", "z", "s"]),
       params=st.lists(st.floats(-100, 100, allow_nan=False), min_size=4, max_size=4),
       x=st.floats(-150, 150, allow_nan=False))
def test_membership_scalar_equals_numpy_oracle(shape, params, x):
    n = {"triangular": 3, "trapezoidal": 4, "z": 2, "s": 2}[shape]
    params = sorted(params)[:n]
    assume(shape not in ("z", "s") or params[0] < params[1])
    mf = MembershipFunction(shape, tuple(params))
    want = float(numpy_membership(shape, params, x))
    assert mf.scalar(x) == want
    assert mf.scalar(x) == float(mf(x))
    for p in params:  # the breakpoints themselves
        assert mf.scalar(p) == float(numpy_membership(shape, params, p))


def test_membership_scalar_dense_sweep():
    # `t * t` in place of `t ** 2` differs in the last bit on about 1 in
    # 1,000 of these inputs, too rarely for the property tests to find.
    rng = random.Random(22)
    for shape, params in (("z", (10.0, 40.0)), ("s", (15.0, 60.0)), ("s", (55, 95))):
        mf = MembershipFunction(shape, params)
        for _ in range(10_000):
            x = rng.uniform(params[0] - 5, params[1] + 5)
            assert mf.scalar(x) == float(numpy_membership(shape, params, x))


def test_evaluate_batch_spans_chunks():
    rng = random.Random(23)
    for name, rb in COMPILED.items():
        rows = [{"pd": rng.uniform(-20, 150), "he": rng.uniform(-20, 200)}
                for _ in range(300)]
        assert evaluate_batch(rb, rows) == [numpy_mamdani(CONFIGS[name], r) for r in rows]
    assert evaluate_batch(default_rule_base(), []) == []


# Rows the flat tables of both rule bases serve: each input lies strictly
# inside a flat interval, or clamps onto the mixed base's pd shoulder at 0,
# where every label is exactly 0 or 1. Then rows that are not flat; the last
# lies on breakpoints where the default base's labels are exactly 0 or 1.
FLAT_ROWS = [{"pd": 5.0, "he": 5.0}, {"pd": 100.0, "he": 170.0},
             {"pd": -5.0, "he": 250.0}, {"pd": 120.0, "he": -3.0}]
PARTIAL_ROWS = [{"pd": 20.0, "he": 0.0}, {"pd": 0.0, "he": 37.5},
                {"pd": 33.3, "he": 44.4}, {"pd": 50.0, "he": 40.0},
                {"pd": 10.0, "he": 60.0}]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_flat_table_and_array_pass_in_one_batch(name, monkeypatch):
    rb = rule_base_from_config(CONFIGS[name])
    before = pickle.dumps(rb)
    flat = [numpy_mamdani(CONFIGS[name], row) for row in FLAT_ROWS]
    partial = [numpy_mamdani(CONFIGS[name], row) for row in PARTIAL_ROWS]
    assert evaluate_batch(rb, FLAT_ROWS) == flat
    rows = [r for pair in zip(PARTIAL_ROWS, FLAT_ROWS * 2) for r in pair]
    assert evaluate_batch(rb, rows) == [v for pair in zip(partial, flat * 2) for v in pair]
    # evaluate_rows only reads the rule base
    assert pickle.dumps(rb) == before
    # a batch of flat rows only does no array work
    monkeypatch.setattr(fuzzy, "np", None)
    assert evaluate_batch(rb, FLAT_ROWS[::-1]) == flat[::-1]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_same_one_by_one_and_batched(name):
    rng = random.Random(24)
    rows = [{"pd": rng.choice([-1.0, 0.0, 5.0, 45.0, 100.0, 150.0, rng.uniform(0, 100)]),
             "he": rng.choice([-1.0, 0.0, 5.0, 95.0, 180.0, 200.0, rng.uniform(0, 180)])}
            for _ in range(200)]
    want = [numpy_mamdani(CONFIGS[name], row) for row in rows]
    rb = rule_base_from_config(CONFIGS[name])
    table = dict(rb._flat_outputs)
    assert [evaluate(rb, row) for row in rows] == want
    assert evaluate_batch(rb, rows) == want
    assert [evaluate(rb, row) for row in rows] == want
    assert rb._flat_outputs == table


def test_universe_ends_on_breakpoints_take_no_label_call(monkeypatch):
    # The mixed base's pd universe starts on short's shoulder: at 0 the
    # labels give (1, 0, 0), as on (0, 10). Its he universe ends on large's
    # top: at 180 they give (0, 1), as on (90, 180). Values at or beyond
    # those ends are served flat.
    calls = []
    scalar = MembershipFunction.scalar

    def counting(mf, x):
        calls.append((mf, x))
        return scalar(mf, x)

    monkeypatch.setattr(MembershipFunction, "scalar", counting)
    rb = rule_base_from_config(MIXED_CONFIG)
    rows = [{"pd": pd, "he": he} for pd in (-5.0, 0.0) for he in (180.0, 250.0)]
    calls.clear()
    got = evaluate_batch(rb, rows)
    assert calls == []
    assert got == [numpy_mamdani(MIXED_CONFIG, row) for row in rows]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_flat_interval_ends_equal_numpy_oracle(name, monkeypatch):
    # A value's flat interval is found by bisecting the sorted left ends.
    # Probe every interval end, its neighbours on either side, both
    # infinities and values outside the universe: a value on an end is
    # strictly inside no interval and takes the label calls, one just
    # inside takes the interval's memberships with none.
    calls = []
    scalar = MembershipFunction.scalar

    def counting(mf, x):
        calls.append(x)
        return scalar(mf, x)

    monkeypatch.setattr(MembershipFunction, "scalar", counting)
    rb = rule_base_from_config(CONFIGS[name])
    probes, expected_calls = [], []
    for lo, hi, labels, lefts, rights, _ in rb._columns:
        ends = {lo, hi, *lefts, *rights, -math.inf, math.inf}
        xs = sorted({y for end in ends for y in (math.nextafter(end, -math.inf), end,
                                                 math.nextafter(end, math.inf))}
                    | {lo - 1.0, hi + 1.0})
        probes.append(xs)
        expected_calls.append({x: [] if any(p < x < q for p, q in zip(lefts, rights))
                               else [min(hi, max(lo, x))] * len(labels) for x in xs})
    rows = [dict(zip(rb.input_names, xs)) for xs in product(*probes)]
    want = [numpy_mamdani(CONFIGS[name], row) for row in rows]
    calls.clear()
    assert evaluate_batch(rb, rows) == want
    assert calls == [y for row in rows for var, per_input in zip(rb.input_names, expected_calls)
                     for y in per_input[row[var]]]


def test_default_flat_table_has_four_entries():
    # pd and he each have two flat intervals: below and above both ramps
    rb = default_rule_base()
    assert len(rb._flat_outputs) == 4
    before = pickle.dumps(rb)
    rng = random.Random(25)
    evaluate_batch(rb, [{"pd": rng.uniform(-20, 150), "he": rng.uniform(-20, 200)}
                        for _ in range(10_000)])
    assert pickle.dumps(rb) == before


def test_rule_base_without_rules_scores_the_midpoint():
    config = dict(MIXED_CONFIG, rules=[])
    rows = [{"pd": pd, "he": he} for pd in (-5.0, 0.0, 20.0, 50.0, 95.0)
            for he in (0.0, 45.0, 200.0)]
    assert evaluate_batch(rule_base_from_config(config), rows) == [50.0] * len(rows)
    assert {numpy_mamdani(config, row) for row in rows} == {50.0}


def _edge_case(config, negative, nowhere):
    """config with every other rule's weight negated (such a rule never
    fires), and/or an output label that is 0 on the whole output grid, the
    consequent of a copy of every other rule (such a rule fires and clips
    nothing)."""
    config = copy.deepcopy(config)
    rules = config["rules"]
    if negative:
        for rule in rules[::2]:
            rule["weight"] = -rule.get("weight", 1.0)
    if nowhere:
        hi = config["output"]["universe"][1]
        config["output"]["labels"]["nowhere"] = {"shape": "triangular",
                                                 "params": [hi, hi + 1, hi + 2]}
        rules += [dict(rule, then="nowhere") for rule in rules[1::2]]
    return config


EDGE_CASES = {(name, case): _edge_case(CONFIGS[name], case != "zero label", case != "negative")
              for name in CONFIGS for case in ("negative", "zero label", "both")}


@settings(max_examples=200, deadline=None)
@given(key=st.sampled_from(sorted(EDGE_CASES)), pairs=st.lists(st.tuples(PD, HE), max_size=8))
def test_negative_weights_and_zero_label_equal_numpy_oracle(key, pairs):
    config = EDGE_CASES[key]
    rows = [{"pd": pd, "he": he} for pd, he in pairs] + FLAT_ROWS + PARTIAL_ROWS
    assert evaluate_batch(rule_base_from_config(config), rows) == \
        [numpy_mamdani(config, row) for row in rows]


@pytest.mark.parametrize("key", sorted(EDGE_CASES), ids=" ".join)
def test_negative_weights_and_zero_label_sweep(key):
    config = EDGE_CASES[key]
    rng = random.Random(26)
    rows = [{"pd": rng.uniform(-20, 150), "he": rng.uniform(-20, 200)} for _ in range(500)]
    assert evaluate_batch(rule_base_from_config(config), rows) == \
        [numpy_mamdani(config, row) for row in rows]
