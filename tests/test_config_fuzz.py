"""Matcher config files fuzzed with Hypothesis: any YAML document either
loads or raises ParseError, never another exception."""

import copy
import tempfile
from pathlib import Path

import yaml
from hypothesis import given, settings, strategies as st

from trajmatch.io import ParseError
from trajmatch.matcher import load_matcher_config
from test_fuzzy_oracle import MIXED_CONFIG

VALID = {"thresholds": {"candidate_radius": 80.0, "reinit_after": 3},
         "rule_base": MIXED_CONFIG}

# integers too large for a float: math.isfinite raises OverflowError on them
HUGE = st.one_of(st.integers(min_value=2**1024), st.integers(max_value=-2**1024))
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 200), st.text(max_size=4), HUGE,
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.one_of(st.integers(-3, 200), st.floats(), st.text(max_size=2), HUGE),
             max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


PATHS = [p for p in _paths(VALID) if p]
DELETE = object()


def _edit(doc, path, value):
    """Set or delete the node of doc at path, when earlier edits left it."""
    try:
        node = doc
        for key in path[:-1]:
            node = node[key]
        if value is DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    except (KeyError, IndexError, TypeError):
        pass


@settings(max_examples=100, deadline=None)
@given(edits=st.lists(st.tuples(st.sampled_from(PATHS), st.one_of(st.just(DELETE), JUNK)),
                      min_size=1, max_size=3))
def test_mutated_config_loads_or_raises_parse_error(edits):
    doc = copy.deepcopy(VALID)
    for path, value in edits:
        _edit(doc, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "matcher.yaml"
        cfg.write_text(yaml.safe_dump(doc), encoding="utf-8")
        try:
            load_matcher_config(cfg)
        except ParseError:
            pass


@settings(max_examples=100, deadline=None)
@given(text=st.text(alphabet=st.sampled_from(list("{}[]:-,'\"#!&*|> \n\tab01.")), max_size=40))
def test_arbitrary_yaml_text_loads_or_raises_parse_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "matcher.yaml"
        cfg.write_text(text, encoding="utf-8")
        try:
            load_matcher_config(cfg)
        except ParseError:
            pass
