import ast
import math
import os
from pathlib import Path

import numpy as np
import pytest

import test_golden
import trajmatch
from trajmatch.geo import GeoPoint, Polylines
from trajmatch.io import (
    ParseError,
    Trajectory,
    TrajectoryRecord,
    build_network,
    parse_ground_truth,
    parse_road_network,
    parse_trajectory,
    read_ids,
    write_csv,
    write_road_network,
    write_trajectory,
)
from conftest import FIXTURES

MINI_TRAJ = FIXTURES / "mini" / "trajectory.csv"


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_parse_trajectory_basic(tmp_path):
    p = write(tmp_path / "t.csv",
              "timestamp,lat,lon\n0,47.0,-122.0\n1,47.001,-122.0\n2,47.002,-122.0\n")
    traj = parse_trajectory(p)
    assert len(traj) == 3
    assert [r.source_index for r in traj] == [0, 1, 2]
    assert traj.records[1].position == GeoPoint(47.001, -122.0)


def test_parse_trajectory_iso_timestamps(tmp_path):
    p = write(tmp_path / "t.csv",
              "timestamp,lat,lon\n"
              "2020-01-01T00:00:00Z,47.0,-122.0\n"
              "2020-01-01T00:00:01Z,47.001,-122.0\n")
    traj = parse_trajectory(p)
    assert traj.records[1].timestamp - traj.records[0].timestamp == 1.0


def test_parse_trajectory_comment_lines(tmp_path):
    p = write(tmp_path / "t.csv",
              "# a comment\ntimestamp,lat,lon\n0,47.0,-122.0\n# mid comment\n1,47.0,-122.0\n")
    assert len(parse_trajectory(p)) == 2


def test_parse_trajectory_bad_latitude(tmp_path):
    p = write(tmp_path / "t.csv", "timestamp,lat,lon\n0,91.0,-122.0\n")
    with pytest.raises(ParseError, match="row 2"):
        parse_trajectory(p)


def test_parse_trajectory_non_monotonic(tmp_path):
    p = write(tmp_path / "t.csv", "timestamp,lat,lon\n5,47.0,-122.0\n4,47.0,-122.0\n")
    with pytest.raises(ParseError, match="non-monotonic"):
        parse_trajectory(p)


def test_parse_trajectory_equal_timestamps_ok(tmp_path):
    p = write(tmp_path / "t.csv", "timestamp,lat,lon\n5,47.0,-122.0\n5,47.0001,-122.0\n")
    assert len(parse_trajectory(p)) == 2


def test_parse_trajectory_empty(tmp_path):
    p = write(tmp_path / "t.csv", "")
    with pytest.raises(ParseError):
        parse_trajectory(p)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_parse_trajectory_non_finite_timestamp(tmp_path, value):
    # last row, so that no later timestamp can trip the monotonic check
    p = write(tmp_path / "t.csv",
              f"timestamp,lat,lon\n0,47.0,-122.0\n{value},47.001,-122.0\n")
    with pytest.raises(ParseError, match=f"t.csv: row 3: non-finite timestamp '{value}'"):
        parse_trajectory(p)


def test_parse_trajectory_invalid_utf8_names_file(tmp_path):
    p = tmp_path / "t.csv"
    p.write_bytes(b"timestamp,lat,lon\n0,47.0,-122.\xff\n")
    with pytest.raises(ParseError, match="t.csv: not valid UTF-8"):
        parse_trajectory(p)


# The whole file is decoded before any record is read: the offset is the
# bad byte's in the file after a byte-order mark, not one within a chunk of
# the file, and invalid UTF-8 wins over an earlier oversize CSV field.
@pytest.mark.parametrize("prefix, head", [
    (b"", b""),
    (b"\xef\xbb\xbf", b""),
    (b"", b"timestamp,lat,lon\n0,47.0," + b"1" * 131_073 + b"\n"),
], ids=["late-byte", "after-bom", "after-oversize-field"])
def test_invalid_utf8_names_its_offset_in_the_whole_file(tmp_path, prefix, head):
    data = MINI_TRAJ.read_bytes()
    p = tmp_path / "t.csv"
    p.write_bytes(prefix + head + data[:11221] + b"\xff" + data[11222:])
    with pytest.raises(ParseError) as err:
        parse_trajectory(p)
    assert str(err.value) == (f"{p}: not valid UTF-8: 'utf-8' codec can't decode byte 0xff "
                              f"in position {len(head) + 11221}: invalid start byte")


def test_read_ids_line_numbers_skip_blank_and_comments(tmp_path):
    p = write(tmp_path / "ids.txt", "# route\n e1 \n\n\r\ne2\r\n  # late comment\ne3")
    assert read_ids(p) == [(2, "e1"), (5, "e2"), (7, "e3")]


def test_trajectory_roundtrip(tmp_path):
    p = write(tmp_path / "t.csv",
              "timestamp,lat,lon\n0,47.123456789,-122.987654321\n"
              "1.5,47.2,-122.1\n3,47.3,-122.2\n")
    traj = parse_trajectory(p)
    out = tmp_path / "out.csv"
    write_trajectory(traj, out)
    again = parse_trajectory(out)
    assert [(r.timestamp, r.position, r.source_index) for r in traj] == \
           [(r.timestamp, r.position, r.source_index) for r in again]


NET_CSV = (
    "edge_id,node_from,node_to,wkt\n"
    'e1,n1,n2,"LINESTRING (-122.0 47.0, -122.0 47.001)"\n'
    'e2,n2,n3,"LINESTRING (-122.0 47.001, -121.999 47.001)"\n'
)


def test_parse_network_adjacency(tmp_path):
    net = parse_road_network(write(tmp_path / "n.csv", NET_CSV))
    assert set(net.edges) == {"e1", "e2"}
    assert net.adjacency["n2"] == ("e1", "e2")
    assert net.adjacency["n1"] == ("e1",)


def test_parse_network_duplicate_edge(tmp_path):
    dup = NET_CSV + 'e1,n3,n4,"LINESTRING (-121.999 47.001, -121.998 47.001)"\n'
    with pytest.raises(ParseError, match="duplicate"):
        parse_road_network(write(tmp_path / "n.csv", dup))


def test_parse_network_duplicate_edge_names_file_and_rows(tmp_path):
    dup = NET_CSV + "# a comment line\n" \
        + 'e1,n3,n4,"LINESTRING (-121.999 47.001, -121.998 47.001)"\n'
    with pytest.raises(ParseError, match=r"n\.csv: row 5: duplicate edge_id 'e1' "
                                         r"\(first at row 2\)"):
        parse_road_network(write(tmp_path / "n.csv", dup))


def test_parse_network_rows_are_file_lines_after_a_multiline_record(tmp_path):
    # the first record's quoted node name spans lines 2 and 3, so the
    # duplicate vertex is on file line 4, the third record of the file
    p = write(tmp_path / "n.csv", 'edge_id,node_from,node_to,wkt\n'
                                  'e1,"n\n1",n2,"LINESTRING (-122.0 47.0, -122.0 47.001)"\n'
                                  'e2,n2,n3,"LINESTRING (-122.3 47.6, -122.3 47.6)"\n')
    with pytest.raises(ParseError) as err:
        parse_road_network(p)
    assert str(err.value) == f"{p}: row 4: consecutive duplicate vertex '-122.3 47.6'"


def test_parse_trajectory_rows_are_file_lines_after_a_multiline_comment(tmp_path):
    # a quoted comment field spans lines 3 and 4; the decrease is on line 6
    p = write(tmp_path / "t.csv", 'timestamp,lat,lon\n5,47.0,-122.0\n"# a\nstop"\n'
                                  "6,47.0,-122.0\n4,47.0,-122.0\n")
    with pytest.raises(ParseError) as err:
        parse_trajectory(p)
    assert str(err.value) == (f"{p}: row 6: non-monotonic timestamp 4.0 after 6.0 "
                              "on row 5")


def test_network_adjacency_lists_each_edge_once_in_edge_order(tmp_path):
    # e0 comes last in the file and sorts first; the loop e9 joins n9 to itself
    net = parse_road_network(write(tmp_path / "n.csv", NET_CSV + (
        'e0,n2,n9,"LINESTRING (-122.0 47.001, -122.0 47.002)"\n'
        'e9,n9,n9,"LINESTRING (-122.0 47.002, -121.999 47.002, -122.0 47.003, -122.0 47.002)"\n')))
    assert net.adjacency == {"n1": ("e1",), "n2": ("e1", "e2", "e0"), "n3": ("e2",),
                             "n9": ("e0", "e9")}


def test_build_network_duplicate_edge():
    verts = [GeoPoint(47.0, -122.0), GeoPoint(47.001, -122.0)]
    with pytest.raises(ParseError, match="duplicate edge_id 'e1'"):
        build_network([("e1", "a", "b", verts), ("e1", "b", "c", verts[::-1])])


def test_parse_network_short_geometry(tmp_path):
    bad = 'edge_id,node_from,node_to,wkt\ne1,n1,n2,"LINESTRING (-122.0 47.0)"\n'
    with pytest.raises(ParseError):
        parse_road_network(write(tmp_path / "n.csv", bad))


def test_parse_network_consecutive_duplicate_vertex(tmp_path):
    bad = NET_CSV + 'e3,n3,n4,"LINESTRING (-122.3 47.6, -122.3 47.6)"\n'
    path = write(tmp_path / "n.csv", bad)
    with pytest.raises(ParseError, match=r"n\.csv: row 4: consecutive duplicate vertex '-122\.3 47\.6'"):
        parse_road_network(path)


def test_build_network_vertices_equal_after_projection():
    # 1 ulp apart in degrees, the same x once the origin's longitude
    # (-3.25) is subtracted
    edges = [("e1", "a", "b", [GeoPoint(0.0, 1.0), GeoPoint(0.0, 1.0000000000000002)]),
             ("e2", "c", "d", [GeoPoint(0.0, -7.0), GeoPoint(0.0, -8.0)])]
    with pytest.raises(ParseError, match="edge 'e1': consecutive duplicate vertex"):
        build_network(edges)


def test_parse_network_segment_too_short_to_project(tmp_path):
    # 1e-200 degrees apart project about 1e-195 m apart, a length whose
    # square underflows to 0, so projecting a point onto it would divide by 0
    p = write(tmp_path / "n.csv", 'edge_id,node_from,node_to,wkt\n'
                                  'e1,n1,n2,"LINESTRING (0 0, 1e-200 0)"\n')
    with pytest.raises(ParseError, match="edge 'e1': consecutive duplicate vertex"):
        parse_road_network(p)


def test_parse_network_names_file_and_row_of_segment_too_short_to_project(tmp_path):
    rows = ['e0,n0,n1,"LINESTRING (0 0, 1 0)"', 'e1,n1,n2,"LINESTRING (0 0, 1e-200 0)"']
    p = write(tmp_path / "n.csv", "edge_id,node_from,node_to,wkt\n" + "\n".join(rows) + "\n")
    with pytest.raises(ParseError) as exc:
        parse_road_network(p)
    assert str(exc.value) == f"{p}: row 3: edge 'e1': consecutive duplicate vertex in polyline"
    # the check runs once every row has parsed, so a later bad row wins
    p = write(tmp_path / "n.csv", "edge_id,node_from,node_to,wkt\n" + "\n".join(rows)
              + "\ne2,n2,n3,LINESTRING (0 0)\n")
    with pytest.raises(ParseError, match="row 4: edge 'e2' has <2 vertices"):
        parse_road_network(p)


def test_network_edge_length_consistency(tmp_path):
    net = parse_road_network(write(tmp_path / "n.csv", NET_CSV))
    lines = net.geometry
    for i in net.edges.values():
        total = 0.0
        a, b = lines.start[i], lines.start[i + 1]
        xs, ys = lines.x[a:b], lines.y[a:b]
        for k in range(len(xs) - 1):
            total += math.hypot(xs[k + 1] - xs[k], ys[k + 1] - ys[k])
        length = lines.cumlen[b - 1]
        assert length == pytest.approx(total, abs=1e-6)
        assert length > 0


def test_network_adjacency_symmetry(tmp_path):
    net = parse_road_network(write(tmp_path / "n.csv", NET_CSV))
    for node, ids in net.adjacency.items():
        for eid in ids:
            i = net.edges[eid]
            assert node in (net.node_from[i], net.node_to[i])
    for eid, i in net.edges.items():
        assert eid in net.adjacency[net.node_from[i]]
        assert eid in net.adjacency[net.node_to[i]]


def test_parse_ground_truth(tmp_path):
    net = parse_road_network(write(tmp_path / "n.csv", NET_CSV))
    p = write(tmp_path / "truth.txt", "e1\ne2\ne1\n")
    route = parse_ground_truth(p, net)
    assert route == ("e1", "e2", "e1")


def test_parse_ground_truth_unknown_edge(tmp_path):
    net = parse_road_network(write(tmp_path / "n.csv", NET_CSV))
    p = write(tmp_path / "truth.txt", "e1\nXYZ\n")
    with pytest.raises(ParseError, match="XYZ"):
        parse_ground_truth(p, net)


def test_parse_ground_truth_empty(tmp_path):
    net = parse_road_network(write(tmp_path / "n.csv", NET_CSV))
    with pytest.raises(ParseError):
        parse_ground_truth(write(tmp_path / "truth.txt", ""), net)


def test_trajectory_class_rejects_decreasing():
    r0 = TrajectoryRecord(5.0, GeoPoint(0, 0), 0)
    r1 = TrajectoryRecord(4.0, GeoPoint(0, 0), 1)
    with pytest.raises(ParseError):
        Trajectory([r0, r1])


def test_build_network_origin_is_centroid():
    edges = [("e1", "a", "b", [GeoPoint(10.0, 20.0), GeoPoint(12.0, 22.0)])]
    net = build_network(edges)
    assert net.projection.origin == GeoPoint(11.0, 21.0)


def test_build_network_origin_of_negative_zeros_is_positive_zero():
    # a sum from 0.0, as functools.reduce(operator.add, column, 0.0) takes
    # it: -0.0 + -0.0 is -0.0, but 0.0 + -0.0 is 0.0
    for a, b in (((-0.0, -0.0), (-0.0, 0.001)), ((-0.0, -0.0), (0.001, -0.0))):
        origin = build_network([("e1", "a", "b", [GeoPoint(*a), GeoPoint(*b)])]).projection.origin
        assert [math.copysign(1.0, c) for c in (origin.lat, origin.lon)] == [1.0, 1.0]


def test_golden_outputs_hold_under_a_compensated_builtin_sum(tmp_path,
                                                           compensated_builtin_sum):
    # a network's origin and a stay point's mean do not depend on how the
    # interpreter's builtin sum rounds
    for command in ("match", "pipeline"):
        (tmp_path / command).mkdir()
        test_golden.test_golden_outputs(tmp_path / command, command)
    for name in sorted(test_golden.GOLDEN_SCALE):
        (tmp_path / name).mkdir()
        test_golden.test_golden_match_at_scale(tmp_path / name, name)


def test_the_package_calls_no_builtin_sum():
    calls = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(trajmatch.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "sum"]
    assert calls == []


def test_parse_trajectory_non_monotonic_names_file_and_row(tmp_path):
    # line 5 of the file, after a comment on line 3
    p = write(tmp_path / "t.csv", "timestamp,lat,lon\n5,47.0,-122.0\n# stop\n"
                                  "6,47.0,-122.0\n4,47.0,-122.0\n")
    with pytest.raises(ParseError) as err:
        parse_trajectory(p)
    assert str(err.value) == (f"{p}: row 5: non-monotonic timestamp 4.0 after 6.0 "
                              "on row 4")


def test_parse_trajectory_later_malformed_row_beats_decrease(tmp_path):
    p = write(tmp_path / "t.csv", "timestamp,lat,lon\n5,47.0,-122.0\n4,47.0,-122.0\n"
                                  "6,91.0,-122.0\n")
    with pytest.raises(ParseError, match="t.csv: row 4: latitude 91.0 out of"):
        parse_trajectory(p)


def test_parse_trajectory_short_row_names_missing_column(tmp_path):
    p = write(tmp_path / "t.csv", "timestamp,lat,lon\n0,47.0,-122.0\n1,47.0\n")
    with pytest.raises(ParseError) as err:
        parse_trajectory(p)
    assert str(err.value) == (f"{p}: row 3: no field for lon "
                              "(expected columns timestamp,lat,lon)")


def test_parse_trajectory_bad_row_before_short_row_wins(tmp_path):
    p = write(tmp_path / "t.csv", "timestamp,lat,lon\n0,91.0,-122.0\n1,47.0\n")
    with pytest.raises(ParseError, match="row 2: latitude 91.0"):
        parse_trajectory(p)


def test_parse_network_short_row_names_missing_columns(tmp_path):
    p = write(tmp_path / "n.csv", NET_CSV + "e3,n3\n")
    with pytest.raises(ParseError) as err:
        parse_road_network(p)
    assert str(err.value) == (f"{p}: row 4: no field for node_to, wkt "
                              "(expected columns edge_id,node_from,node_to,wkt)")


def test_trajectory_columns_and_record_view(tmp_path):
    p = write(tmp_path / "t.csv", "timestamp,lat,lon\n0,47.0,-122.0\n1.5,47.001,-122.5\n")
    traj = parse_trajectory(p)
    assert traj.t.tolist() == [0.0, 1.5] and traj.t.dtype == float
    assert traj.lat.tolist() == [47.0, 47.001] and traj.lon.tolist() == [-122.0, -122.5]
    assert traj.source_index.tolist() == [0, 1]
    # the view yields plain Python numbers, never numpy scalars
    for rec in (traj.records[1], list(traj)[1]):
        assert rec == TrajectoryRecord(1.5, GeoPoint(47.001, -122.5), 1)
        assert (type(rec.timestamp), type(rec.position.lat), type(rec.position.lon),
                type(rec.source_index)) == (float, float, float, int)
    again = Trajectory(traj.records, traj_id="copy")
    copy = Trajectory.from_columns(traj.t, traj.lat, traj.lon, traj.source_index)
    assert again.records == copy.records == traj.records


@pytest.mark.parametrize("wkt, message", [
    # these four exited 2 with str.index's own "substring not found", or loaded
    ("LINESTRING EMPTY", "LINESTRING EMPTY has no vertices"),
    ("LINESTRING (-122.0 47.0, -122.001 47.0", "LINESTRING has no closing ')'"),
    ("LINESTRINGFOO (-122.0 47.0, -122.001 47.0)",
     "expected WKT LINESTRING, got 'LINESTRINGFOO (-122.0 47.0, -122.001 47.'"),
    ("LINESTRING (-122.0 47.0, -122.001 47.0) garbage",
     "unexpected text after the LINESTRING's ')': 'garbage'"),
    ("LINESTRING (-122.0 47.0, -122.001 1_0)", "bad WKT coordinate ' -122.001 1_0'"),
    ("LINESTRING (-122.0 47.0, -122.001 ٤٧.0)",
     "bad WKT coordinate ' -122.001 ٤٧.0'"),
    ("LINESTRıNG (-122.0 47.0, -122.001 47.0)",
     "expected WKT LINESTRING, got 'LINESTRıNG (-122.0 47.0, -122.001 47.0)'"),
    ("LINESTRING ((-122.0 47.0, -122.001 47.0))", "LINESTRING has a nested '('"),
    ("LINESTRING -122.0 47.0, -122.001 47.0",
     "expected '(' after LINESTRING, got '-122.0 47.0, -122.001 47.0'"),
    ("LINESTRING (-122.0 47.0,, -122.001 47.0)", "bad WKT coordinate ''"),
    ("LINESTRING (-122.0 47.0 1.0, -122.001 47.0)", "bad WKT coordinate '-122.0 47.0 1.0'"),
])
def test_parse_network_strict_wkt(tmp_path, capsys, wkt, message):
    from trajmatch.cli import main

    path = write(tmp_path / "n.csv", f'edge_id,node_from,node_to,wkt\ne1,n1,n2,"{wkt}"\n')
    with pytest.raises(ParseError) as err:
        parse_road_network(path)
    assert str(err.value) == f"{path}: row 2: {message}"
    assert main(["eval", "--network", str(path), "--edges", str(path),
                 "--truth", str(path)]) == 2
    assert f"row 2: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("wkt", [
    "LINESTRING (-122.0 47.0, -122.0 47.001)",
    "  linestring(-122.0   47.0,-122.0 47.001 )  ",
    "LineString\t( -122.0 47.0 ,\t-122.0 47.001)",
    "LINESTRING (-122.0 +47.0, -1.22e2 47.001)",
])
def test_parse_network_wkt_case_and_whitespace(tmp_path, wkt):
    net = parse_road_network(write(tmp_path / "n.csv",
                                   f'edge_id,node_from,node_to,wkt\ne1,n1,n2,"{wkt}"\n'))
    assert net.edges == {"e1": 0}
    assert (net.lon.tolist(), net.lat.tolist()) == ([-122.0, -122.0], [47.0, 47.001])


def test_parse_network_first_bad_row_wins(tmp_path):
    # row 3's bad coordinate comes before row 4's duplicate id and row 5's
    # unclosed body; within a row the first bad vertex is named
    p = write(tmp_path / "n.csv", NET_CSV.replace(
        "-121.999 47.001)", "-121.999 91.0, -121.999 -91.0)")
        + 'e1,n3,n4,"LINESTRING (-121.999 47.001, -121.998 47.001)"\n'
        + 'e4,n4,n5,"LINESTRING (-121.998 47.001, -121.997 47.001"\n')
    with pytest.raises(ParseError) as err:
        parse_road_network(p)
    assert str(err.value) == f"{p}: row 3: latitude 91.0 out of [-90, 90]"


@pytest.mark.parametrize("edge_id, node_from, node_to, id_column, message", [
    # a blank id was written as an empty line of edge_sequence.txt, which
    # read_ids skips
    (" ", "n3", "n4", 0, "blank edge_id"),
    # the comment rule drops a record whose first field starts with '#', but
    # not one whose id sits in another column; read_ids skipped it
    ("#a", "n3", "n4", 1, "edge_id '#a' starts with '#'"),
    (" #a", "n3", "n4", 1, "edge_id '#a' starts with '#'"),
    # written over two lines, the id read back as 'a' and 'b'
    ("a\nb", "n3", "n4", 0, r"edge_id 'a\nb' holds a line break"),
    ("a\r\nb", "n3", "n4", 1, r"edge_id 'a\r\nb' holds a line break"),
    ("a\rb", "n3", "n4", 0, r"edge_id 'a\rb' holds a line break"),
    # written on line 1, the id read back without it: read_text drops one
    # leading byte-order mark
    ("\ufeffa", "n3", "n4", 0, r"edge_id '\ufeffa' starts with a byte-order mark"),
    (" \ufeffa", "n3", "n4", 1, r"edge_id '\ufeffa' starts with a byte-order mark"),
    # edges 75 km apart were neighbours at node ""
    ("e3", "n3", "", 0, "edge 'e3' has a blank node_to"),
    ("e3", " ", "n4", 1, "edge 'e3' has a blank node_from"),
])
def test_parse_network_rejects_ids_that_do_not_read_back(tmp_path, edge_id, node_from, node_to,
                                                         id_column, message):
    rows = [("e1", "n1", "n2", "LINESTRING (-122.0 47.0, -122.0 47.001)"),
            ("e2", "n2", "n3", "LINESTRING (-122.0 47.001, -121.999 47.001)"),
            (edge_id, node_from, node_to, "LINESTRING (-121.999 47.001, -121.998 47.001)")]
    order = [1, 0, 2, 3] if id_column else [0, 1, 2, 3]  # edge_id in that column
    p = tmp_path / "n.csv"
    write_csv(p, [("edge_id", "node_from", "node_to", "wkt")[i] for i in order],
              ([row[i] for i in order] for row in rows))
    with pytest.raises(ParseError) as err:
        parse_road_network(p)
    assert str(err.value) == f"{p}: row 4: {message}"


def test_parse_network_id_fault_and_geometry_fault_first_row_wins(tmp_path):
    bad_wkt = NET_CSV.replace("-121.999 47.001)", "-121.999 91.0)")
    blank_id = ',n3,n4,"LINESTRING (-121.999 47.001, -121.998 47.001)"\n'
    with pytest.raises(ParseError, match="row 3: latitude 91.0"):
        parse_road_network(write(tmp_path / "a.csv", bad_wkt + blank_id))
    blank_node = NET_CSV.replace("e2,n2,n3", "e2,n2,")
    with pytest.raises(ParseError, match="row 3: edge 'e2' has a blank node_to"):
        parse_road_network(write(tmp_path / "b.csv", blank_node
                                 + 'e1,n3,n4,"LINESTRING (-121.999 47.001, -121.998 91.0)"\n'))


def test_parse_network_ids_may_hold_inner_hashes_and_spaces(tmp_path):
    net = parse_road_network(write(tmp_path / "n.csv", NET_CSV.replace("e2,n2,n3", "a#2 b,n 2,n3")
                                   .replace("e1,n1,n2", "e1,n1,n 2")))
    assert net.ids == ("e1", "a#2 b")
    assert net.adjacency["n 2"] == ("e1", "a#2 b")


def test_parse_and_build_network_build_no_index_or_adjacency(tmp_path, index_builds):
    nets = [parse_road_network(write(tmp_path / "n.csv", NET_CSV)),
            build_network([("e1", "a", "b", [GeoPoint(47.0, -122.0), GeoPoint(47.001, -122.0)])])]
    for net in nets:
        assert net._index is None and net._adjacency is None
        with pytest.raises(AttributeError):  # the segment table's slot is still unset
            Polylines.segments.__get__(net.geometry)
    assert index_builds == []
    for net in nets:
        assert net.index is net.index and net.adjacency is net.adjacency
    assert [owners for _, owners in index_builds] == [net.ids for net in nets]


def test_network_columns_are_float64_arrays(tmp_path):
    for net in (parse_road_network(write(tmp_path / "n.csv", NET_CSV)),
                build_network([("e1", "a", "b", [GeoPoint(47, -122), GeoPoint(47.001, -122)])])):
        lines = net.geometry
        for column in (net.lon, net.lat, lines.x, lines.y, lines.cumlen):
            assert type(column) is np.ndarray and column.dtype == np.float64
        assert type(lines.start) is tuple and all(type(v) is int for v in lines.start)


BOM = "\ufeff"


def test_parse_trajectory_reads_a_byte_order_mark(tmp_path):
    p = write(tmp_path / "t.csv", BOM + "timestamp,lat,lon\n0,47.0,-122.0\n1,47.001,-122.0\n")
    assert parse_trajectory(p).lat.tolist() == [47.0, 47.001]


def test_parse_network_reads_a_byte_order_mark(tmp_path):
    net = parse_road_network(write(tmp_path / "n.csv", BOM + NET_CSV))
    assert set(net.edges) == {"e1", "e2"}


def test_read_ids_reads_a_byte_order_mark(tmp_path):
    net = parse_road_network(write(tmp_path / "n.csv", NET_CSV))
    p = write(tmp_path / "truth.txt", BOM + "e1\ne2\n")
    assert parse_ground_truth(p, net) == ("e1", "e2")


def test_only_one_byte_order_mark_is_dropped(tmp_path):
    p = write(tmp_path / "t.csv", BOM + BOM + "timestamp,lat,lon\n0,47.0,-122.0\n")
    with pytest.raises(ParseError, match="header must contain timestamp,lat,lon"):
        parse_trajectory(p)


@pytest.mark.parametrize("row, message", [
    ("1,4_7.6,-122.3", "lat '4_7.6' has a non-ASCII character or '_'"),
    ("1_0,47.6,-122.3", "timestamp '1_0' has a non-ASCII character or '_'"),
    ("1,47.6,-1٢2.3", "lon '-1٢2.3' has a non-ASCII character or '_'"),
    ("1,47.6,\u2003-122.3", "lon '\\u2003-122.3' has a non-ASCII character or '_'"),
    ("2020-01-01_00:00:01,47.6,-122.3",
     "timestamp '2020-01-01_00:00:01' has a non-ASCII character or '_'"),
])
def test_parse_trajectory_numbers_follow_the_wkt_rule(tmp_path, capsys, row, message):
    # float() reads every one of these; a later bad row and an earlier
    # decrease do not change which row is named
    from trajmatch.cli import main

    p = write(tmp_path / "t.csv", f"timestamp,lat,lon\n5,47.6,-122.3\n{row}\n9,x,-122.3\n")
    with pytest.raises(ParseError) as err:
        parse_trajectory(p)
    assert str(err.value) == f"{p}: row 3: {message}"
    assert main(["staypoints", "--traj", str(p), "--eps", "0.00004", "--min-pts", "3",
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert f"row 3: {message}" in capsys.readouterr().err


def test_parse_trajectory_rule_is_checked_field_by_field(tmp_path):
    # an unparseable timestamp comes before an underscore in lat
    p = write(tmp_path / "t.csv", "timestamp,lat,lon\nx,4_7.6,-122.3\n")
    with pytest.raises(ParseError, match="row 2: unparseable timestamp 'x'"):
        parse_trajectory(p)


@pytest.fixture
def csv_readers(monkeypatch):
    """The number of csv.reader objects made since the fixture began."""
    from trajmatch import io

    made = []

    def counting(*args, **kwargs):
        made.append(1)
        return csv_reader(*args, **kwargs)

    csv_reader = io.csv.reader
    monkeypatch.setattr(io.csv, "reader", counting)
    return made


def test_a_valid_file_is_read_once(tmp_path, csv_readers):
    parse_trajectory(write(tmp_path / "t.csv", 'timestamp,lat,lon\n"0\n",47.0,-122.0\n'
                                               "# note\n1,47.0,-122.0\n"))
    assert len(csv_readers) == 1
    csv_readers.clear()
    # lower case keeps the network off the plain reader
    parse_road_network(write(tmp_path / "n.csv", NET_CSV.replace("LINESTRING", "linestring")))
    assert len(csv_readers) == 1


def test_a_valid_plain_file_makes_no_csv_reader(tmp_path, csv_readers):
    traj = parse_trajectory(write(tmp_path / "t.csv", "timestamp,lat,lon\n0,47.0,-122.0\n"
                                                      "1,47.5,-122.5\n"))
    assert traj.lat.tolist() == [47.0, 47.5]
    assert len(csv_readers) == 0


@pytest.mark.parametrize("crlf", [False, True])
def test_a_valid_plain_network_makes_no_csv_reader(tmp_path, csv_readers, crlf):
    path = tmp_path / "n.csv"
    write_road_network(parse_road_network(FIXTURES / "mini" / "network.csv"), path)
    text = path.read_bytes().decode("utf-8")
    assert text.count("\r\n") == text.count("\n") > 1  # the csv module ends lines in CRLF
    if not crlf:
        write(path, text.replace("\r\n", "\n"))
    assert len(parse_road_network(path).ids) == 60
    assert len(csv_readers) == 0


# A plain network with a faulty value is read again by the record walk, and
# a second csv.reader locates the row to name, as for any network file. A
# segment too short to project is found after a plain read, so the one
# csv.reader is the one that locates the row.
@pytest.mark.parametrize("text, reads", [
    (NET_CSV.replace("47.001)", "91.0)", 1), 2),                      # names a row
    (NET_CSV + 'e1,n3,n4,"LINESTRING (0 0, 1 1)"\n', 2),              # names two rows
    (NET_CSV + 'e3,n3,n4,"LINESTRING (0 0)"\n', 2),
    (NET_CSV.replace("LINESTRING", "linestring") + "e3,n3,n4,POINT (1 2)\n", 2),
    (NET_CSV + 'e3,n3,n4,"LINESTRING (0.0 0.0, 0.0 1e-170)"\n', 1),
    ("edge_id,node_from,node_to\n", 1),                                # no row named
], ids=["range", "duplicate-id", "one-vertex", "not-plain", "too-short-segment", "header"])
def test_a_network_row_is_located_by_a_second_read_on_error_only(tmp_path, csv_readers,
                                                                 text, reads):
    with pytest.raises(ParseError, match="row" if "wkt" in text else "header"):
        parse_road_network(write(tmp_path / "n.csv", text))
    assert len(csv_readers) == reads


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize("text", [
    "timestamp,lat,lon\n0,47.0,-122.0\n1,47.5,-122.5\n",
    "timestamp,lat,lon\n1970-01-01T00:00:00Z,47.0,-122.0\n1,47.5,-122.5\n",
])
def test_parse_trajectory_reads_a_pipe(text):
    read, write_end = os.pipe()
    os.write(write_end, text.encode())
    os.close(write_end)
    try:
        traj = parse_trajectory(f"/dev/fd/{read}")
    finally:
        os.close(read)
    assert traj.t.tolist() == [0.0, 1.0] and traj.lon.tolist() == [-122.0, -122.5]


# A plain numeric file's text is first read by numpy, a faulty one then by
# the record reader, and a second csv.reader, a second pass over the text in
# memory, locates the rows to name. A file whose only fault is its time
# order is read by numpy alone, so the one csv.reader is the one that
# locates the rows.
@pytest.mark.parametrize("text, reads", [
    ("timestamp,lat,lon\n0,47.0,-122.0\n1,91.0,-122.0\n", 2),   # names a row
    ("timestamp,lat,lon\n1,47.0,-122.0\n0,47.0,-122.0\n", 1),   # names two rows
    ("timestamp,lat,lon\n0,47.0,-122.0\n1,47.0\n", 2),          # short row
    ("time,lat,lon\n0,47.0,-122.0\n", 1),                       # no row named
    ("timestamp,lat,lon\n", 1),
])
def test_rows_are_located_by_a_second_read_on_error_only(tmp_path, csv_readers, text, reads):
    with pytest.raises(ParseError):
        parse_trajectory(write(tmp_path / "t.csv", text))
    assert len(csv_readers) == reads


@pytest.fixture
def opens(monkeypatch):
    """The paths io has opened since the fixture began."""
    from trajmatch import io

    opened = []

    def counting(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting, raising=False)
    return opened


@pytest.mark.parametrize("parse, text", [
    (parse_trajectory, "timestamp,lat,lon\n0,47.0,-122.0\n1,47.5,-122.5\n"),
    (parse_trajectory, "timestamp,lat,lon\n0,47.0,-122.0\n# note\n1,47.5,-122.5\n"),
    (parse_trajectory, "timestamp,lat,lon\n0,47.0,-122.0\n1,91.0,-122.0\n"),
    (parse_trajectory, "timestamp,lat,lon\n1,47.0,-122.0\n0,47.0,-122.0\n"),
    (parse_road_network, NET_CSV),
    (parse_road_network, NET_CSV + "e3,n3,n4,POINT (1 2)\n"),
    (parse_road_network, NET_CSV + 'e1,n3,n4,"LINESTRING (0 0, 1 1)"\n'),
], ids=["trajectory-plain", "trajectory-records", "trajectory-bad-row",
        "trajectory-time-order", "network", "network-bad-row", "network-duplicate-id"])
def test_each_input_is_opened_once(tmp_path, opens, parse, text):
    path = write(tmp_path / "in.csv", text)
    try:
        parse(path)
    except ParseError:
        pass
    assert opens == [path]
