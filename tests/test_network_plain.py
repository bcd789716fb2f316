"""The plain network reader against the record walk.

A road-network file that `_plain_network_columns` accepts is read in
whole-text passes; any other goes through `_record_network_columns`. For
mutated and written network files, `parse_road_network` must give the same
ids, bit-equal vertices, chain offsets and projection origin, or the same
ParseError message, as it does with the plain reader turned off.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from trajmatch import io
from trajmatch.geo import GeoPoint
from trajmatch.io import ParseError, build_network, parse_road_network, write_csv, write_road_network
from test_network_fuzz import LINES, mutated_network
from test_network_oracle import networks

HEADER = "edge_id,node_from,node_to,wkt\n"


def edited(*edits):
    """The mini network with line i replaced by text, for each (i, text)."""
    lines = list(LINES)
    for i, text in edits:
        lines[i] = text
    return "".join(lines)


@st.composite
def written_network(draw):
    """A network of the oracle's edges as write_road_network writes it, with
    CRLF line ends or, as often, LF; or, when its vertices repeat after
    projection, as its rows written by write_csv."""
    edges = draw(networks())
    rows = [(f"e{i}", f"a{i}", f"b{i}", list(map(GeoPoint, lats, lons)))
            for i, (lons, lats) in enumerate(edges)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "network.csv"
        try:
            write_road_network(build_network(rows), path)
        except ParseError:
            write_csv(path, ["edge_id", "node_from", "node_to", "wkt"],
                      ([edge_id, a, b, "LINESTRING (" + ", ".join(
                          f"{p.lon!r} {p.lat!r}" for p in points) + ")"]
                       for edge_id, a, b, points in rows))
        text = path.read_bytes().decode("utf-8")
    return text.replace("\r\n", "\n") if draw(st.booleans()) else text


def parsed(path):
    """The network's columns as comparable values, or its ParseError message."""
    try:
        net = parse_road_network(path)
    except ParseError as exc:
        return str(exc)
    origin = net.projection.origin
    return (net.ids, net.node_from, net.node_to, list(map(float.hex, net.lon.tolist())),
            list(map(float.hex, net.lat.tolist())), net.geometry.start,
            origin.lat.hex(), origin.lon.hex())


@settings(max_examples=150, deadline=None)
@given(text=st.one_of(mutated_network(), written_network()))
@example(text=edited((3, 'h0_2,n0_2,n1_2,"LINESTRING (-122.3 91.0, -122.2 47.6)"\n')))
@example(text=edited((3, 'h0_2,n0_2,n1_2,"LINESTRING (-122.3 -91.0, -122.2 47.6)"\n')))
@example(text=edited((3, 'h0_2,n0_2,n1_2,"LINESTRING (-122.3 47.6, -180.5 47.6)"\n')))
@example(text=edited((3, 'h0_2,n0_2,n1_2,"LINESTRING (180.5 47.6, -122.2 47.6)"\n')))
@example(text=edited((3, 'h0_2,n0_2,n1_2,"LINESTRING (-122.3 1e999, -122.2 47.6)"\n')))
@example(text=edited((3, 'h0_2,n0_2,n1_2,"LINESTRING (-122.3 47.6)"\n')))
@example(text=edited((3, 'h0_2,n0_2,n1_2,"LINESTRING (-122.3 47.6, -122.3 47.6, -122.2 47.6)"\n')))
@example(text=edited((3, 'h0_2,n0_2,n1_2,"LINESTRING (-122.3 47.6, -122.3 47.600000000000001)"\n')))
@example(text=edited((3, 'h0_2,n0_2,n1_2,"LINESTRING (0.0 0.0, 0.0 1e-170)"\n')))
@example(text=edited((3, LINES[1])))
@example(text=edited((3, "#" + LINES[3])))
@example(text=edited((3, "h0_é" + LINES[3][4:])))
@example(text=edited((3, LINES[3].replace("LINESTRING", "linestring"))))
@example(text=edited((3, "\n" + LINES[3])))
@example(text="".join(LINES).rstrip("\n"))
@example(text="".join(LINES).replace("\n", "\r\n"))
@example(text=edited((3, LINES[3].replace("\n", "\r\n"))))
@example(text=edited((3, 'h0_2,n0_2,n1_2,"LINESTRING (-122.3 47.6, '
                         + "-122.2 47.6, -122.1 47.6, " * 5_500 + '-122.0 47.6)"\n')))
@example(text="node_from,edge_id,node_to,wkt\n" + "".join(LINES[1:]))
@example(text=HEADER)
@example(text=HEADER + 'e1,a,b,"LINESTRING (1 2 3, 4 5)"\n')
@example(text=HEADER + 'e1,a,b,"LINESTRING (1 2, 3 1_0)"\n')
@example(text=HEADER + 'e1,a,b,"LINESTRING (1 2, 3 4-5)"\n')
def test_plain_reader_matches_record_walk(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "network.csv"
        path.write_bytes(text.encode("utf-8"))
        fast = parsed(path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(io, "_plain_network_columns", lambda text: None)
            assert parsed(path) == fast
