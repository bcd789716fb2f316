"""Trajectory and id-list files fuzzed with Hypothesis: a mutated
trajectory.csv or truth.txt either parses or raises ParseError, and
`trajmatch staypoints` / `eval` on it exits 0 or 2.

Mutations work on the bytes of the mini fixture. They swap numbers,
timestamps and ids for non-finite values, ISO strings and junk; drop, copy
and splice lines; insert invalid UTF-8; and make one field longer than the
csv module's field limit of 131,072 characters.

`parse_trajectory` is also held to `oracles.per_record_trajectory`, a
reader that parses and checks one record at a time: the same columns bit
for bit, or the same error message.
"""

import re
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from trajmatch.cli import main
from trajmatch.io import ParseError, parse_ground_truth, parse_road_network, parse_trajectory
from conftest import FIXTURES
from oracles import per_record_trajectory

MINI = FIXTURES / "mini"
TRAJ_LINES = (MINI / "trajectory.csv").read_bytes().splitlines(keepends=True)
TRUTH_LINES = (MINI / "truth.txt").read_bytes().splitlines(keepends=True)
NETWORK = parse_road_network(MINI / "network.csv")
FIELD = re.compile(rb"[^,\r\n]+")

# a replacement for one field or id
VALUE = st.one_of(
    st.sampled_from([b"nan", b"inf", b"-inf", b"NaN", b"1e999", b"-1e999", b"", b"x",
                     b"2020-01-01T00:00:00Z", b"2020-01-01T00:00:00+05:00",
                     b"2020-02-30T00:00:00", b"0001-01-01", b"#", b'"', b"v3_2", b"h0_0",
                     b"4_7.6", "-1\u06622.3".encode()]),
    st.floats(allow_nan=True, allow_infinity=True).map(lambda x: repr(x).encode()),
    st.floats(-90.0, 90.0).map(lambda x: repr(x).encode()))
# spliced bytes: a lone continuation byte, a truncated sequence, an encoded
# surrogate, NUL, quotes, line breaks, or anything
JUNK = st.one_of(
    st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\x00", b'"', b"\r",
                     b"\n", b",", b"#", b"\xef\xbb\xbf"]),
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


def _edit(lines, edits):
    """lines with each (index, bytes) of edits replacing that line; bytes
    may hold several lines or none."""
    lines = list(lines)
    for i, line in edits:
        lines[i] = line
    return b"".join(lines)


# a quoted field spanning lines 3-4 before a bad latitude on line 7
@example(data=_edit(TRAJ_LINES, [(2, b'"1.0\n",47.6,-122.3\n'), (5, b"4.0,91.0,-122.3\n")]))
# a comment in the middle of the file, as wide as a record, before a decrease
@example(data=_edit(TRAJ_LINES, [(200, b"# stop,resume,again\n" + TRAJ_LINES[200]),
                                 (300, b"1.0,47.6,-122.3\n")]))
# a bad value before a short row
@example(data=_edit(TRAJ_LINES, [(3, b"2.0,x,-122.3\n"), (5, b"4.0,47.6\n")]))
# a timestamp that float() reads as 10.0
@example(data=_edit(TRAJ_LINES, [(5, b"1_0,47.6,-122.3\n")]))
# two bad fields in one record: lat is named
@example(data=_edit(TRAJ_LINES, [(3, b"2.0,4_7.6,x\n")]))
# an oversize field after a bad row
@example(data=_edit(TRAJ_LINES, [(3, b"2.0,4_7.6,-122.3\n"),
                                 (9, b"8.0,47.6," + b"1" * 131_073 + b"\n")]))
# mixed ISO and epoch timestamps
@example(data=_edit(TRAJ_LINES, [(4, b"1970-01-01T00:00:03Z,47.6,-122.3\n"),
                                 (6, b"1970-01-01T00:00:05.5+00:00,47.6,-122.3\n")]))
# a decrease after a multi-line record
@example(data=_edit(TRAJ_LINES, [(2, b'1.0,"47.6\n",-122.3\n'), (9, b"1.5,47.6,-122.3\n")]))
@settings(max_examples=100, deadline=None)
@given(data=mutated(TRAJ_LINES))
def test_mutated_trajectory_matches_per_record_oracle(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trajectory.csv"
        path.write_bytes(data)
        try:
            columns = per_record_trajectory(path)
        except ValueError as exc:
            expected = str(exc)
            try:
                parse_trajectory(path)
            except ParseError as err:
                assert str(err) == expected
            else:
                raise AssertionError(f"parsed; expected {expected!r}")
        else:
            traj = parse_trajectory(path)
            assert [list(map(float.hex, c)) for c in columns] == \
                [list(map(float.hex, c.tolist())) for c in (traj.t, traj.lat, traj.lon)]
            assert traj.source_index.tolist() == list(range(len(traj)))


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
