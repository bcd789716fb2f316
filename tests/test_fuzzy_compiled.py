"""The compiled rule base against the numpy oracle, on generated rule bases.

`RuleBase` compiles its antecedents once: a flat membership vector, one
index tuple per rule and each input's flat intervals, where every label is
exactly 0 or 1 and a row takes its memberships with no label call. These
properties generate whole rule-base configs, with label breakpoints on a
coarse lattice that the crisp inputs also hit exactly, shoulders (a == b,
c == d), weights below 1 and one-input rules, and compare every output with
`oracles.numpy_mamdani` bit for bit. They also check that a row's output
does not depend on the batch it is in, its position there or where the
array passes split the batch, and that the table of flat rows built with
the rule base holds the oracle's output for every combination of flat
intervals.
"""

import math
from itertools import chain, product
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from trajmatch import fuzzy
from trajmatch.fuzzy import (
    MembershipFunction,
    _flat_value,
    evaluate,
    evaluate_rows,
    rule_base_from_config,
)
from oracles import numpy_mamdani

LATTICE = [float(x) for x in range(0, 101, 5)]  # label breakpoints and exact inputs
OUTPUT = {"universe": [0.0, 100.0],
          "labels": {"low": {"shape": "z", "params": [5.0, 45.0]},
                     "average": {"shape": "triangular", "params": [25.0, 50.0, 75.0]},
                     "high": {"shape": "s", "params": [55.0, 95.0]}}}


@st.composite
def labels(draw):
    shape = draw(st.sampled_from(["triangular", "trapezoidal", "z", "s"]))
    n = {"triangular": 3, "trapezoidal": 4, "z": 2, "s": 2}[shape]
    if shape in ("z", "s"):
        params = sorted(draw(st.lists(st.sampled_from(LATTICE), min_size=2, max_size=2,
                                      unique=True)))
    else:
        # repeated lattice points give shoulders and zero-width ramps
        params = sorted(draw(st.lists(st.sampled_from(LATTICE), min_size=n, max_size=n)))
    return {"shape": shape, "params": params}


@st.composite
def configs(draw):
    names = draw(st.sampled_from([["pd"], ["pd", "he"], ["he", "pd"]]))
    inputs = {}
    for name in names:
        # "all" covers the universe, so any other labels are allowed
        extra = draw(st.lists(labels(), min_size=1, max_size=3))
        inputs[name] = {"universe": [0.0, 100.0],
                        "labels": {"all": {"shape": "trapezoidal",
                                           "params": [0.0, 0.0, 100.0, 100.0]},
                                   **{f"l{i}": spec for i, spec in enumerate(extra)}}}
    terms = [(name, label) for name in names for label in inputs[name]["labels"]]
    rules = []
    for _ in range(draw(st.integers(1, 5))):
        antecedent = draw(st.lists(st.sampled_from(terms), min_size=1, max_size=2))
        rule = {"if": [list(t) for t in antecedent],
                "then": draw(st.sampled_from(sorted(OUTPUT["labels"])))}
        weight = draw(st.sampled_from([1.0, 0.75, 0.5, 0.1]))
        if weight != 1.0:
            rule["weight"] = weight
        rules.append(rule)
    return {"inputs": inputs, "output": OUTPUT, "rules": rules}


CRISP = st.one_of(st.sampled_from(LATTICE), st.floats(-20.0, 120.0, allow_nan=False))


@settings(max_examples=200, deadline=None)
@given(config=configs(), values=st.lists(st.tuples(CRISP, CRISP), min_size=1, max_size=6))
def test_generated_rule_bases_equal_numpy_oracle(config, values):
    rb = rule_base_from_config(config)
    rows = [dict(zip(("pd", "he"), pair)) for pair in values]
    want = [numpy_mamdani(config, row) for row in rows]
    # compiled rows are tuples in the rule base's own input order
    assert evaluate_rows(rb, [tuple(row[n] for n in rb.input_names) for row in rows]) == want
    assert [evaluate(rb, row) for row in rows] == want


@settings(max_examples=100, deadline=None)
@given(config=configs(),
       values=st.lists(st.tuples(CRISP, CRISP), min_size=2, max_size=12),
       cells=st.integers(1, 9), data=st.data())
def test_row_output_independent_of_batch_position_and_passes(config, values, cells, data):
    names = rule_base_from_config(config).input_names
    rows = [pair[:len(names)] for pair in values]
    alone = [evaluate_rows(rule_base_from_config(config), [row])[0] for row in rows]
    order = data.draw(st.permutations(range(len(rows))))
    rb = rule_base_from_config(config)
    with mock.patch.object(fuzzy, "BATCH_CELLS", cells):
        assert evaluate_rows(rb, rows) == alone
        assert evaluate_rows(rb, [rows[i] for i in order]) == [alone[i] for i in order]
        assert evaluate_rows(rule_base_from_config(config),
                             [rows[i] for i in order]) == [alone[i] for i in order]


@settings(max_examples=200, deadline=None)
@given(config=configs())
def test_flat_table_holds_oracle_output_of_each_cell(config):
    rb = rule_base_from_config(config)
    flats = [flat for *_, flat in rb._columns]
    # one entry per combination of each input's distinct flat memberships
    assert len(rb._flat_outputs) == math.prod(len({v for *_, v in flat}) for flat in flats)
    for cell in product(*flats):
        # a point strictly inside every interval; lattice cuts lie in [0, 100]
        row = {name: (max(p, -1e3) + min(q, 1e3)) / 2
               for name, (p, q, _) in zip(rb.input_names, cell)}
        key = tuple(chain.from_iterable(values for *_, values in cell))
        assert rb._flat_outputs[key] == numpy_mamdani(config, row)
    with mock.patch.object(fuzzy, "BATCH_CELLS", 1):
        assert rule_base_from_config(config)._flat_outputs == rb._flat_outputs


@settings(max_examples=500, deadline=None)
@given(shape=st.sampled_from(["triangular", "trapezoidal", "z", "s"]),
       params=st.lists(st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 2e-300, 1.0,
                                                  1e308, -1e308]),
                                 st.floats(-10.0, 10.0)), min_size=4, max_size=4),
       where=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       side=st.sampled_from(["between", "below", "above"]))
# a triangle whose last two parameters are equal is 1.0 above them, unless
# b - a overflows: then scalar is 0.0 there
@example(shape="triangular", params=[-1e308, 1e308, 1e308, 1e308], where=0.5, side="above")
def test_flat_values_are_exact(shape, params, where, side):
    """Strictly inside an interval between parameters, a flat label's scalar
    is its flat value everywhere, for tiny and zero-width ramps too."""
    n = {"triangular": 3, "trapezoidal": 4, "z": 2, "s": 2}[shape]
    params = sorted(params)[:n]
    if shape in ("z", "s") and params[0] == params[1]:
        return
    mf = MembershipFunction(shape, tuple(params))
    cuts = sorted(set(params))
    bounds = {"below": [(-math.inf, cuts[0])], "above": [(cuts[-1], math.inf)],
              "between": list(zip(cuts, cuts[1:]))}[side]
    for p, q in bounds:
        value = _flat_value(mf, p, q)
        if value is None:
            continue
        lo, hi = max(p, -1e6), min(q, 1e6)
        x = lo + (hi - lo) * where
        for x in {x, math.nextafter(p, math.inf), math.nextafter(q, -math.inf)}:
            if p < x < q:
                assert mf.scalar(x) == value, (mf, p, q, x)
