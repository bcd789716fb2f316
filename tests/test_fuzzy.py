import random
import warnings

import numpy as np
import pytest

from trajmatch.fuzzy import (
    DEFUZZ_SAMPLES,
    FuzzyVariable,
    MembershipFunction,
    Rule,
    RuleBase,
    default_rule_base,
    defuzzify_centroid,
    evaluate,
    fuzzify,
    infer,
    rule_base_from_config,
    s_shaped,
    triangular,
    trapezoidal,
    z_shaped,
)
from oracles import highres_centroid


def test_triangular_examples():
    tri = triangular(0, 10, 20)
    assert tri(10) == 1.0
    assert tri(15) == pytest.approx(0.5)
    assert tri(-5) == 0.0 and tri(25) == 0.0


def test_trapezoidal_plateau():
    trap = trapezoidal(0, 10, 20, 30)
    assert trap(15) == 1.0
    assert trap(5) == pytest.approx(0.5)
    assert trap(25) == pytest.approx(0.5)


def test_z_and_s_are_complementary():
    z, s = z_shaped(10, 40), s_shaped(10, 40)
    for x in np.linspace(0, 60, 61):
        assert z(x) + s(x) == pytest.approx(1.0)
        assert 0.0 <= z(x) <= 1.0


def test_membership_param_validation():
    with pytest.raises(ValueError):
        MembershipFunction("triangular", (5, 3, 1))
    with pytest.raises(ValueError):
        MembershipFunction("z", (4.0, 4.0))
    with pytest.raises(ValueError):
        MembershipFunction("blob", (1, 2))


@pytest.mark.parametrize("params, x, want", [
    ((0.0, 0.0, 1e-310, 1.0), 1e10, 0.0),      # zero-width left ramp, far right
    ((0.0, 0.0, 1.0, 1.0 + 1e-300), -1e10, 1.0),  # zero-width right ramp (1 + 1e-300 == 1)
    ((0.0, 1e-310, 1.0, 2.0), -1e10, 0.0),     # floored left ramp, far left
    ((0.0, 1e-310, 1.0, 2.0), 1e10, 0.0),      # floored left ramp, far right
    ((-1.0, 0.0, 5e-324, 1e-310), 1e10, 0.0),  # floored right ramp
    ((0.0, 1e-10, 1.0, 2.0), 1e300, 0.0),      # narrow left ramp, far right
    ((0.0, 1e-10, 1.0, 2.0), -1e300, 0.0),     # narrow left ramp, far left
])
def test_narrow_ramps_do_not_warn(params, x, want):
    # a ramp narrower than its distance to x overflows to +-inf before the
    # clip; no RuntimeWarning may reach the user
    for ps in (params, tuple(np.array(params))):
        mf = MembershipFunction("trapezoidal", ps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mf.scalar(x) == want
            assert float(mf(x)) == want
            assert mf(np.array([x, 0.5])).tolist() == [want, mf.scalar(0.5)]


def test_memberships_bounded_random():
    rng = random.Random(20)
    shapes = []
    for _ in range(50):
        ps = sorted(rng.uniform(0, 100) for _ in range(4))
        shapes += [triangular(*ps[:3]), trapezoidal(*ps)]
        if ps[0] < ps[1]:
            shapes += [z_shaped(ps[0], ps[1]), s_shaped(ps[0], ps[1])]
    xs = np.linspace(-50, 150, 401)
    for mf in shapes:
        vals = mf(xs)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


def test_variable_coverage_enforced():
    with pytest.raises(ValueError, match="cover"):
        FuzzyVariable("gap", (0.0, 100.0), {"left": triangular(0, 0, 10)})


def test_fuzzify_clamps():
    rb = default_rule_base()
    m = fuzzify(rb.inputs["pd"], 500.0)  # beyond the universe
    assert m["long"] == 1.0 and m["short"] == 0.0


def test_infer_single_rule_full_strength():
    rb = default_rule_base()
    memberships = {"pd": {"short": 1.0, "long": 0.0},
                   "he": {"small": 1.0, "large": 0.0}}
    agg = infer(rb, memberships)
    grid = np.linspace(0, 100, DEFUZZ_SAMPLES)
    assert np.allclose(agg, rb.output.labels["high"](grid))


def test_infer_no_rule_fires():
    rb = default_rule_base()
    memberships = {"pd": {"short": 0.0, "long": 0.0},
                   "he": {"small": 0.0, "large": 0.0}}
    agg = infer(rb, memberships)
    assert np.all(agg == 0.0)
    assert defuzzify_centroid(agg, rb.output.universe) == 50.0


def test_infer_two_rules_discretized_check():
    rb = default_rule_base()
    memberships = {"pd": {"short": 0.6, "long": 0.0},
                   "he": {"small": 1.0, "large": 0.3}}
    agg = infer(rb, memberships)
    grid = np.linspace(0, 100, DEFUZZ_SAMPLES)
    # independent pointwise evaluation of the min-max combination
    expect = np.maximum(np.minimum(rb.output.labels["high"](grid), 0.6),
                        np.minimum(rb.output.labels["average"](grid), 0.3))
    assert np.allclose(agg, expect)


def test_centroid_symmetric_triangle():
    grid = np.linspace(0, 100, DEFUZZ_SAMPLES)
    agg = triangular(40, 50, 60)(grid)
    assert defuzzify_centroid(agg, (0.0, 100.0)) == pytest.approx(50.0, abs=1e-9)


def test_centroid_vs_highres_oracle_random_firings():
    rb = default_rule_base()
    rng = random.Random(21)
    for _ in range(100):
        memberships = {
            "pd": {"short": rng.random(), "long": rng.random()},
            "he": {"small": rng.random(), "large": rng.random()},
        }
        agg = infer(rb, memberships)
        got = defuzzify_centroid(agg, rb.output.universe)

        # dense independent evaluation of the clipped-max combination
        xs = np.linspace(0.0, 100.0, 100_001)
        dense = np.zeros_like(xs)
        for rule in rb.rules:
            strength = min(memberships[v][l] for v, l in rule.antecedent)
            dense = np.maximum(dense,
                               np.minimum(strength, rb.output.labels[rule.consequent](xs)))
        assert got == pytest.approx(highres_centroid(dense, 0.0, 100.0), abs=0.1)


def test_default_rule_base_extremes():
    rb = default_rule_base()
    assert evaluate(rb, {"pd": 0.0, "he": 0.0}) >= 80.0
    assert evaluate(rb, {"pd": 100.0, "he": 180.0}) <= 20.0


def test_default_rule_base_monotonicity_grid():
    rb = default_rule_base()
    pds = np.linspace(0, 100, 50)
    hes = np.linspace(0, 180, 50)
    table = np.array([[evaluate(rb, {"pd": pd, "he": he}) for he in hes]
                      for pd in pds])
    assert np.all(np.diff(table, axis=0) <= 1e-9)  # non-increasing in PD
    assert np.all(np.diff(table, axis=1) <= 1e-9)  # non-increasing in HE
    assert np.all(table >= 0.0) and np.all(table <= 100.0)


def test_rule_base_unknown_label_rejected():
    rb = default_rule_base()
    with pytest.raises(ValueError):
        RuleBase(rb.inputs, rb.output, [Rule((("pd", "medium"),), "high")])


def test_rule_base_from_config_roundtrip():
    config = {
        "inputs": {
            "pd": {"universe": [0, 100],
                   "labels": {"short": {"shape": "z", "params": [10, 40]},
                              "long": {"shape": "s", "params": [10, 40]}}},
            "he": {"universe": [0, 180],
                   "labels": {"small": {"shape": "z", "params": [15, 60]},
                              "large": {"shape": "s", "params": [15, 60]}}},
        },
        "output": {"universe": [0, 100],
                   "labels": {"low": {"shape": "triangular", "params": [0, 0, 50]},
                              "average": {"shape": "triangular", "params": [25, 50, 75]},
                              "high": {"shape": "triangular", "params": [50, 100, 100]}}},
        "rules": [
            {"if": [["pd", "short"], ["he", "small"]], "then": "high"},
            {"if": [["pd", "short"], ["he", "large"]], "then": "average"},
            {"if": [["pd", "long"], ["he", "small"]], "then": "average"},
            {"if": [["pd", "long"], ["he", "large"]], "then": "low"},
        ],
    }
    rb = rule_base_from_config(config)
    default = default_rule_base()
    for pd in (0, 20, 50, 100):
        for he in (0, 30, 90, 180):
            assert evaluate(rb, {"pd": pd, "he": he}) == \
                evaluate(default, {"pd": pd, "he": he})
