"""Trajectory and id-list files fuzzed with Hypothesis: a mutated
trajectory.csv or truth.txt either parses or raises ParseError, and
`trajmatch staypoints` / `eval` on it exits 0 or 2.

Mutations work on the bytes of the mini fixture. They swap numbers,
timestamps and ids for non-finite values, ISO strings and junk; drop, copy
and splice lines; insert invalid UTF-8; and make one field longer than the
csv module's field limit of 131,072 characters.

`parse_trajectory` is also held to `oracles.per_record_trajectory`, a
reader that parses and checks one record at a time: the same columns bit
for bit, or the same error message. That holds for the mutated files and
for generated plain numeric files, which numpy's text reader reads unless
a check sends them to the record reader. Generated valid files that numpy's
reader does not take (ISO timestamps, quoted fields, comments) all parse,
to the oracle's columns. A mutated trajectory or network read through a
pipe gives what the same bytes give in a regular file.
"""

import os
import re
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from trajmatch.cli import main
from trajmatch.io import ParseError, parse_ground_truth, parse_road_network, parse_trajectory
from conftest import FIXTURES, piped
from oracles import per_record_trajectory
from test_network_fuzz import mutated_network

MINI = FIXTURES / "mini"
TRAJ_LINES = (MINI / "trajectory.csv").read_bytes().splitlines(keepends=True)
TRAJ_BYTES = b"".join(TRAJ_LINES)
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
# invalid UTF-8 past the first 8 KiB, named at its offset in the whole file
@example(data=TRAJ_BYTES[:11221] + b"\xff" + TRAJ_BYTES[11222:])
# an oversize field before invalid UTF-8: the UTF-8 fault wins
@example(data=_edit(TRAJ_LINES, [(3, b"3.0,47.6," + b"1" * 131_073 + b"\n"), (300, b"\xff\n")]))
@settings(max_examples=100, deadline=None)
@given(data=mutated(TRAJ_LINES))
def test_mutated_trajectory_matches_per_record_oracle(data):
    _assert_matches_oracle(data)


def _read(parse, path, names):
    """The named columns of what parse makes of path, floats as float.hex,
    or its ParseError message with path replaced by <input>."""
    try:
        result = parse(path)
    except ParseError as exc:
        return str(exc).replace(str(path), "<input>")
    return [list(map(float.hex, c.tolist())) if isinstance(c, np.ndarray) else list(c)
            for c in (getattr(result, name) for name in names)]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@settings(max_examples=100, deadline=None)
@given(traj=mutated(TRAJ_LINES), network=mutated_network())
def test_a_pipe_reads_like_a_regular_file(traj, network):
    with tempfile.TemporaryDirectory() as tmp:
        for parse, data, names in (
                (parse_trajectory, traj, ("t", "lat", "lon")),
                (parse_road_network, network.encode(),
                 ("ids", "node_from", "node_to", "lon", "lat"))):
            path = Path(tmp) / "input.csv"
            path.write_bytes(data)
            with piped(data) as pipe:
                assert _read(parse, pipe, names) == _read(parse, path, names)


def _assert_matches_oracle(data):
    """parse_trajectory on data gives the oracle's columns bit for bit, or
    raises its message."""
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


# A number literal with an optional sign, up to 32 mantissa digits and an
# optional exponent, small or near the ends of the double range (subnormal
# and overflowing values too).
LITERAL = st.builds(
    lambda sign, whole, frac, exp: sign + whole + frac + exp,
    st.sampled_from(["", "-", "+"]),
    st.from_regex(r"[0-9]{1,2}", fullmatch=True),
    st.one_of(st.just(""), st.just("."), st.from_regex(r"\.[0-9]{1,30}", fullmatch=True)),
    st.one_of(st.just(""), st.builds("{}{}{}".format, st.sampled_from("eE"),
                                     st.sampled_from(["", "+", "-"]),
                                     st.one_of(st.integers(0, 3), st.integers(290, 330)))))
# what float() and numpy's reader both strip around a number
SPACE = st.sampled_from(["", "", "", " ", "  ", "\t", "\x0b", "\x0c"])


def field_text(low, high):
    """A field that mostly holds a number in [low, high]: its repr or an
    exponent form to 0-20 digits, a short literal, or any LITERAL; with
    SPACE around it."""
    number = st.one_of(
        st.floats(low, high).map(repr),
        st.builds(lambda x, digits: f"{x:.{digits}e}", st.floats(low, high), st.integers(0, 20)),
        st.sampled_from(["-0", "+0", "0.", ".5", "-.5e1", "1E1", "-0e0"]),
        LITERAL)
    return st.builds(lambda a, x, b: a + x + b, SPACE, number, SPACE)


@st.composite
def plain_files(draw):
    """A plain numeric trajectory file: its three header names in any order
    and case, LF or CRLF line endings, blank lines, and rows in time order
    unless two are swapped."""
    names = draw(st.permutations(["timestamp", "lat", "lon"]))
    header = ",".join(draw(SPACE) + "".join(c.upper() if draw(st.booleans()) else c
                                            for c in name) + draw(SPACE)
                      for name in names)
    rows = draw(st.lists(st.fixed_dictionaries(
        {"timestamp": field_text(-1e10, 1e10), "lat": field_text(-90.0, 90.0),
         "lon": field_text(-180.0, 180.0)}), min_size=1, max_size=8))
    rows.sort(key=lambda row: float(row["timestamp"]))
    if len(rows) > 1 and draw(st.booleans()):
        k = draw(st.integers(0, len(rows) - 2))
        rows[k], rows[k + 1] = rows[k + 1], rows[k]
    lines = [header] + [",".join(row[name] for name in names) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    end = newline if draw(st.booleans()) else ""
    return (newline.join(lines) + end).encode("ascii")


@st.composite
def timestamp_text(draw, us):
    """A timestamp for us microseconds after the epoch: epoch seconds, or
    ISO 8601 with a `T` or space separator and `Z`, an offset or none
    (UTC). Each reads as us / 10**6 correctly rounded, so text for a
    larger us never reads smaller."""
    if draw(st.booleans()):
        return repr(us / 10**6)
    zone = draw(st.sampled_from([None, timezone.utc, timezone(timedelta(hours=5, minutes=30)),
                                 timezone(-timedelta(hours=8))]))
    dt = datetime(1970, 1, 1, tzinfo=timezone.utc) + timedelta(microseconds=us)
    text = dt.astimezone(zone or timezone.utc).isoformat(sep=draw(st.sampled_from("T ")))
    if zone is None:
        text = text[:-len("+00:00")] + draw(st.sampled_from(["", "Z"]))
    return text


# a comment record's text, and a note column's field
NOTE = st.text(alphabet="ab #,:;.é", max_size=12)


@st.composite
def record_files(draw):
    """A valid trajectory file that numpy's reader does not take: up to 60
    rows in time order with epoch and ISO timestamps mixed, a field now and
    then quoted (some with a line break inside the quotes, which float()
    strips), an optional note column, comment and blank records anywhere,
    an optional byte-order mark, and LF or CRLF line endings. At least one
    ISO timestamp, quoted field or comment keeps numpy's reader off it. A
    note in the first column holds no `#`, which would make its record a
    comment."""
    names = draw(st.permutations(["timestamp", "lat", "lon"] + draw(
        st.sampled_from([[], ["note"]]))))
    us = sorted(draw(st.lists(st.integers(-2 * 10**15, 4 * 10**15), min_size=1, max_size=60)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))

    def field(text):
        if draw(st.integers(0, 3)):
            return draw(SPACE) + text + draw(SPACE)
        inner = st.sampled_from(["", " ", newline])
        return '"' + draw(inner) + text + draw(inner) + '"'

    def row(t):
        values = {"timestamp": draw(timestamp_text(t)),
                  "lat": repr(draw(st.floats(-90.0, 90.0))),
                  "lon": repr(draw(st.floats(-180.0, 180.0))),
                  "note": draw(NOTE).replace(",", "")}
        if names[0] == "note":
            values["note"] = values["note"].replace("#", "")
        return ",".join(field(values[name]) for name in names)

    lines = [",".join(field(name) for name in names)] + [row(t) for t in us]
    for _ in range(draw(st.integers(0, 4))):
        comment = draw(st.sampled_from(["#", " #", "# "])) + draw(NOTE)
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from([comment, ""])))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    if not any(c in text for c in '"#:'):
        text = "# trace" + newline + text
    return draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + text.encode()


@settings(max_examples=100, deadline=None)
@given(data=record_files())
def test_valid_record_file_matches_per_record_oracle(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trajectory.csv"
        path.write_bytes(data)
        traj = parse_trajectory(path)
        assert [list(map(float.hex, c)) for c in per_record_trajectory(path)] == \
            [list(map(float.hex, c.tolist())) for c in (traj.t, traj.lat, traj.lon)]


def test_a_record_whose_first_field_starts_with_hash_is_a_comment(tmp_path):
    # the first column is a note, not the timestamp: a quoted `#` note and a
    # spaced one make comment records, whose bad latitude and timestamp are
    # never read, to the library and the oracle alike
    path = tmp_path / "trajectory.csv"
    path.write_text('note,lat,lon,timestamp\na,47.0,-122.0,0\n"#",91.0,-122.0,1\n'
                    ' #b,47.0,-122.0,x\nb,47.0,-122.5,2\n', encoding="utf-8")
    traj = parse_trajectory(path)
    assert [c.tolist() for c in (traj.t, traj.lat, traj.lon)] == \
        list(per_record_trajectory(path)) == [[0.0, 2.0], [47.0, 47.0], [-122.0, -122.5]]
    path.write_text('"note","lat","lon","timestamp"\n'
                    '"#","0.0","0.0","1970-01-01T00:00:00"\n', encoding="utf-8")
    for read in (parse_trajectory, per_record_trajectory):
        with pytest.raises(ValueError, match="no data rows"):
            read(path)


TRAP_FIELD = "0." + "0" * 131_072 + "1"


# a finite field longer than the csv module's field limit
@example(data=f"timestamp,lat,lon\n0,{TRAP_FIELD},-122.0\n".encode())
@example(data=f"timestamp,lat,lon\n{TRAP_FIELD},47.0,-122.0\n".encode())
# a lone CR, which csv reads as a line break: between records, in a field
@example(data=b"timestamp,lat,lon\n0,47.0,-122.0\r1,47.0,-122.0\n")
@example(data=b"timestamp,lat,lon\n0,47.0,-122.0\n1,4\r7.0,-122.0\n")
@example(data=b"timestamp,lat,lon\r\n0,47.0,-122.0\r")
@example(data=b"timestamp\r,lat,lon\n0,47.0,-122.0\n")
# an empty data section, which numpy's reader only warns about
@example(data=b"timestamp,lat,lon\n\n\n")
@example(data=b"timestamp,lat,lon\r\n\r\n")
# a header-only file
@example(data=b"timestamp,lat,lon\n")
# a fourth field in one row, and in every row
@example(data=b"timestamp,lat,lon\n0,47.0,-122.0\n1,47.0,-122.0,\n")
@example(data=b"timestamp,lat,lon\n0,47.0,-122.0,5\n1,47.0,-122.0,6\n")
# a comment record, and a quoted field
@example(data=b"timestamp,lat,lon\n0,47.0,-122.0\n# note\n1,47.0,-122.0\n")
@example(data=b'timestamp,lat,lon\n0,47.0,-122.0\n"1",47.0,-122.0\n')
# a latitude that overflows to inf, and non-finite values
@example(data=b"timestamp,lat,lon\n0,1e999,-122.0\n")
@example(data=b"timestamp,lat,lon\n0,47.0,-122.0\n1e500,47.0,-122.0\n")
@example(data=b"timestamp,lat,lon\nnan,47.0,-122.0\n")
# numpy's reader strips \x1c-\x1f around a number; float() does not
@example(data=b"timestamp,lat,lon\n0,47.0\x1c,-122.0\n")
@example(data=b"timestamp,lat,lon\n0\x1f,47.0,-122.0\n")
# a whitespace-only record, an empty field, a hex literal, two numbers, NUL
@example(data=b"timestamp,lat,lon\n0,47.0,-122.0\n \n")
@example(data=b"timestamp,lat,lon\n0,,-122.0\n")
@example(data=b"timestamp,lat,lon\n0x10,47.0,-122.0\n")
@example(data=b"timestamp,lat,lon\n1 2,47.0,-122.0\n")
@example(data=b"timestamp,lat,lon\n0,47.0\x00,-122.0\n")
# a time order fault after a blank line, with CRLF line endings
@example(data=b"timestamp,lat,lon\r\n1,47.0,-122.0\r\n\r\n0,47.0,-122.0\r\n")
@settings(max_examples=200, deadline=None)
@given(data=plain_files())
def test_plain_trajectory_matches_per_record_oracle(data):
    _assert_matches_oracle(data)


def test_plain_trajectory_columns_are_contiguous_float64(tmp_path):
    path = tmp_path / "trajectory.csv"
    path.write_bytes(b" LON ,Timestamp,lat\r\n-122.0,0,47.0\r\n-122.5,1.5,47.5\r\n")
    traj = parse_trajectory(path)
    for column, want in ((traj.t, [0.0, 1.5]), (traj.lat, [47.0, 47.5]),
                         (traj.lon, [-122.0, -122.5])):
        assert isinstance(column, np.ndarray) and column.dtype == np.float64
        assert column.flags.c_contiguous
        assert column.tolist() == want


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
