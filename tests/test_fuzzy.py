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
    evaluate,
    evaluate_rows,
    rule_base_from_config,
    s_shaped,
    triangular,
    z_shaped,
)
from oracles import highres_centroid


def trapezoidal(a, b, c, d):
    """The trapezoid (a, b, c, d), as a rule-base config builds it."""
    return MembershipFunction("trapezoidal", (a, b, c, d))


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


def one_rule_output(hi):
    """A rule base whose one rule always fires, over output universe [0, hi]."""
    output = FuzzyVariable("likelihood", (0.0, hi), {"low": trapezoidal(0.0, 0.0, 0.0, hi),
                                                     "high": trapezoidal(0.0, hi, hi, hi)})
    x = FuzzyVariable("x", (0.0, 1.0), {"all": trapezoidal(0.0, 0.0, 1.0, 1.0)})
    return RuleBase({"x": x}, output, [Rule((("x", "all"),), "high")])


def test_an_output_universe_within_the_moment_bound_evaluates():
    # 1001 samples of [0, 1e305] sum to about 5e307: no RuntimeWarning, and
    # a finite centroid inside the universe
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rules = one_rule_output(1e305)
        assert 0.0 < evaluate(rules, {"x": 0.5}) < 1e305


@pytest.mark.parametrize("make", [
    # b - a overflows: __call__ was NaN at 1.2e308, where scalar was 0.0
    lambda: triangular(-1e308, 1e308, 1e308),
    lambda: trapezoidal(-1e308, -1e308, -1e308, 1e308),
    lambda: trapezoidal(0.0, 0.0, float("inf"), float("inf")),
    # (a + b) / 2 overflows: scalar(1.5e308) was 2.0 for s, -1.0 for z
    lambda: s_shaped(1e308, 1.5e308),
    lambda: z_shaped(1e308, 1.5e308),
    lambda: s_shaped(-1e308, 1e308),
    # hi - lo overflows: np.linspace warned "overflow encountered in subtract"
    lambda: FuzzyVariable("x", (-1e308, 1e308), {"all": trapezoidal(-1e308, -1e308, 1e308, 1e308)}),
    # an output moment sum overflows: evaluate returned inf
    lambda: one_rule_output(1.5e308),
    lambda: one_rule_output(1e306),
])
def test_labels_and_universes_whose_formulas_overflow_are_refused(make):
    with pytest.raises(ValueError, match="is not a finite float"):
        make()


def test_zero_width_ramps_at_the_float_range_evaluate():
    # c - b overflows, but no formula computes it; a zero-width ramp is 1
    mf = trapezoidal(-1e308, -1e308, 1e308, 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (-1.5e308, -1e308, 0.0, 1e308, 1.5e308):
            assert float(mf(x)) == mf.scalar(x) == 1.0


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


@pytest.mark.parametrize("shape", ["z", "s"])
@pytest.mark.parametrize("x", [-5.688451144865506e155, -1e300, 1e300])
def test_far_values_of_z_and_s_do_not_warn(shape, x):
    # np.where computes every branch, and the squared ramp of a value this
    # far out overflowed: a rule-base universe from -5.7e155 warned
    mf = MembershipFunction(shape, (10.0, 70.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mf(np.array([x, 40.0])).tolist() == [mf.scalar(x), mf.scalar(40.0)]


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


def _centroid(aggregate):
    """Centroid of an aggregate sampled on the default 0-100 output grid."""
    grid = np.linspace(0.0, 100.0, DEFUZZ_SAMPLES)
    return float(np.sum(grid * aggregate) / np.sum(aggregate))


def test_fuzzify_clamps():
    # a crisp value beyond its universe scores as the universe's end
    rb = default_rule_base()
    for he in (0.0, 20.0, 45.0, 180.0):
        assert evaluate_rows(rb, [(500.0, he), (-50.0, he)]) == \
            evaluate_rows(rb, [(100.0, he), (0.0, he)])
    assert evaluate_rows(rb, [(30.0, 400.0), (30.0, -1.0)]) == \
        evaluate_rows(rb, [(30.0, 180.0), (30.0, 0.0)])
    # pd 500 is fully long and not short: only the long rules fire, and he 0
    # is fully small, so the output is the average label's centroid
    [out] = evaluate_rows(rb, [(500.0, 0.0)])
    assert out == pytest.approx(50.0, abs=1e-9)


def test_infer_single_rule_full_strength():
    # pd 0 and he 0 fire only "short and small -> high", at strength 1
    rb = default_rule_base()
    grid = np.linspace(0, 100, DEFUZZ_SAMPLES)
    [out] = evaluate_rows(rb, [(0.0, 0.0)])
    assert out == pytest.approx(_centroid(rb.output.labels["high"](grid)), abs=1e-9)


# One input with two labels and one rule onto "mid", a symmetric triangle;
# three output labels cover the output universe.
PINNED_CONFIG = {
    "inputs": {"x": {"universe": [0.0, 100.0],
                     "labels": {"lo": {"shape": "z", "params": [20.0, 40.0]},
                                "hi": {"shape": "s", "params": [20.0, 40.0]}}}},
    "output": {"universe": [0.0, 100.0],
               "labels": {"left": {"shape": "triangular", "params": [0.0, 0.0, 45.0]},
                          "mid": {"shape": "triangular", "params": [40.0, 50.0, 60.0]},
                          "right": {"shape": "triangular", "params": [55.0, 100.0, 100.0]}}},
    "rules": [{"if": [["x", "hi"]], "then": "mid"}],
}


def test_infer_no_rule_fires():
    # at x <= 20, "hi" is 0: the one rule does not fire, and the output is
    # the universe midpoint, not the centroid of "left" (15)
    config = {**PINNED_CONFIG, "rules": [{"if": [["x", "hi"]], "then": "left"}]}
    rb = rule_base_from_config(config)
    assert evaluate_rows(rb, [(0.0,), (20.0,), (-5.0,)]) == [50.0, 50.0, 50.0]
    [fired] = evaluate_rows(rb, [(40.0,)])
    assert fired == pytest.approx(15.0, abs=0.1)


def test_infer_two_rules_discretized_check():
    # pd 20 is partly short and partly long, he 5 fully small: "short and
    # small -> high" and "long and small -> average" fire, at different
    # strengths
    rb = default_rule_base()
    pd, he = 20.0, 5.0
    short, long = float(rb.inputs["pd"].labels["short"](pd)), \
        float(rb.inputs["pd"].labels["long"](pd))
    assert 0.0 < long < short < 1.0
    assert float(rb.inputs["he"].labels["large"](he)) == 0.0
    grid = np.linspace(0, 100, DEFUZZ_SAMPLES)
    # independent pointwise evaluation of the min-max combination
    expect = np.maximum(np.minimum(rb.output.labels["high"](grid), short),
                        np.minimum(rb.output.labels["average"](grid), long))
    [out] = evaluate_rows(rb, [(pd, he)])
    assert out == pytest.approx(_centroid(expect), abs=1e-9)


def test_centroid_symmetric_triangle():
    rb = rule_base_from_config(PINNED_CONFIG)
    for x in (40.0, 75.0, 100.0, 250.0):  # "hi" is 1
        [out] = evaluate_rows(rb, [(x,)])
        assert out == pytest.approx(50.0, abs=1e-9)


def test_centroid_vs_highres_oracle_random_firings():
    rb = default_rule_base()
    rng = random.Random(21)
    for _ in range(100):
        row = {"pd": rng.uniform(0, 50), "he": rng.uniform(0, 75)}
        [got] = evaluate_rows(rb, [(row["pd"], row["he"])])

        # dense independent evaluation of the clipped-max combination
        xs = np.linspace(0.0, 100.0, 100_001)
        dense = np.zeros_like(xs)
        for rule in rb.rules:
            strength = min(float(rb.inputs[v].labels[l](row[v])) for v, l in rule.antecedent)
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
