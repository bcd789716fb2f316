"""Trajectory and id-list files fuzzed with Hypothesis: a mutated
trajectory.csv or truth.txt either parses or raises ParseError, and
`trajmatch staypoints` / `eval` on it exits 0 or 2.

Mutations work on the bytes of the mini fixture. They swap numbers,
timestamps and ids for non-finite values, ISO strings and junk; drop, copy
and splice lines; insert invalid UTF-8; and make one field longer than the
csv module's field limit of 131,072 characters.
"""

import re
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from trajmatch.cli import main
from trajmatch.io import ParseError, parse_ground_truth, parse_road_network, parse_trajectory
from conftest import FIXTURES

MINI = FIXTURES / "mini"
TRAJ_LINES = (MINI / "trajectory.csv").read_bytes().splitlines(keepends=True)
TRUTH_LINES = (MINI / "truth.txt").read_bytes().splitlines(keepends=True)
NETWORK = parse_road_network(MINI / "network.csv")
FIELD = re.compile(rb"[^,\r\n]+")

# a replacement for one field or id
VALUE = st.one_of(
    st.sampled_from([b"nan", b"inf", b"-inf", b"NaN", b"1e999", b"-1e999", b"", b"x",
                     b"2020-01-01T00:00:00Z", b"2020-01-01T00:00:00+05:00",
                     b"2020-02-30T00:00:00", b"0001-01-01", b"#", b'"', b"v3_2", b"h0_0"]),
    st.floats(allow_nan=True, allow_infinity=True).map(lambda x: repr(x).encode()),
    st.floats(-90.0, 90.0).map(lambda x: repr(x).encode()))
# spliced bytes: a lone continuation byte, a truncated sequence, an encoded
# surrogate, NUL, quotes, line breaks, or anything
JUNK = st.one_of(
    st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\x00", b'"', b"\r",
                     b"\n", b",", b"#"]),
    st.binary(max_size=4))
LONG = st.integers(131_073, 132_000).map(lambda n: b"1" * n)


@st.composite
def mutated(draw, lines):
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["value"] * 3 + ["drop"] * 2 + ["copy"]
                                    + ["splice"] * 3 + ["long"]))
        fields = list(FIELD.finditer(lines[i]))
        if kind in ("value", "long") and fields:
            m = draw(st.sampled_from(fields))
            new = draw(LONG if kind == "long" else VALUE)
            lines[i] = lines[i][:m.start()] + new + lines[i][m.end():]
        elif kind == "drop":
            del lines[i]
        elif kind == "copy":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif kind == "splice":
            pos = draw(st.integers(0, len(lines[i])))
            cut = draw(st.integers(0, 3))
            lines[i] = lines[i][:pos] + draw(JUNK) + lines[i][pos + cut:]
        if not lines:
            break
    return b"".join(lines)


def _replace_line(lines, i, line):
    return b"".join(lines[:i] + [line] + lines[i + 1:])


@example(data=_replace_line(TRAJ_LINES, 3, b"nan,47.6,-122.3\n"))
@example(data=_replace_line(TRAJ_LINES, 3, b"\xff\n"))
@example(data=_replace_line(TRAJ_LINES, 3, b"3.0,47.6," + b"1" * 131_073 + b"\n"))
@settings(max_examples=100, deadline=None)
@given(data=mutated(TRAJ_LINES))
def test_mutated_trajectory_parses_or_raises_parse_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        traj = Path(tmp) / "trajectory.csv"
        traj.write_bytes(data)
        try:
            parse_trajectory(traj)
        except ParseError:
            pass
        rc = main(["staypoints", "--traj", str(traj), "--eps", "0.00004", "--min-pts", "3",
                   "--out-dir", str(Path(tmp) / "out")])
        assert rc in (0, 2)


@example(data=_replace_line(TRUTH_LINES, 3, b"\xed\xa0\x80\n"))
@example(data=_replace_line(TRUTH_LINES, 3, b"1" * 131_073 + b"\n"))
@settings(max_examples=100, deadline=None)
@given(data=mutated(TRUTH_LINES))
def test_mutated_id_list_parses_or_raises_parse_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        ids = Path(tmp) / "ids.txt"
        ids.write_bytes(data)
        try:
            parse_ground_truth(ids, NETWORK)
        except ParseError:
            pass
        truth = str(MINI / "truth.txt")
        for files in (["--edges", str(ids), "--truth", truth],
                      ["--edges", truth, "--truth", str(ids)]):
            assert main(["eval", "--network", str(MINI / "network.csv"), *files]) in (0, 2)
