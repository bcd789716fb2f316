"""Road network files fuzzed with Hypothesis: a mutated network.csv either
parses or raises ParseError, and `trajmatch eval` on it exits 0 or 2.

Mutations start from the mini fixture and include what stresses the spatial
index (segments of up to 100 degrees, segments of a few nanometres and
vertices that nearly repeat their neighbour) and ids that a one-id-per-line
file cannot hold: blank, `#`-led or broken over lines. A network that parses
has ids that read back whole and nodes that are not blank.
"""

import re
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from trajmatch.cli import main
from trajmatch.io import ParseError, parse_road_network, read_ids, write_lines
from conftest import FIXTURES

MINI = FIXTURES / "mini"
LINES = (MINI / "network.csv").read_text(encoding="utf-8").splitlines(keepends=True)
NUMBER = re.compile(r"-?\d+\.\d+")

WKT = re.compile(r'"LINESTRING \(.*\)"')

# a replacement for one coordinate
COORD = st.one_of(
    st.sampled_from(["0.0", "-180.0", "180.0", "90.0", "-90.0", "91.0", "1e999",
                     "nan", "", "x", "47.6 47.6", ","]),
    st.floats(-200.0, 200.0).map(repr))
# a step between consecutive vertices, in degrees: from a repeat through a
# few nanometres to 1,000 km, and past the valid range
STEP = st.sampled_from([0.0, 1e-14, 1e-9, 1e-5, 0.003, 1.0, 10.0, 100.0]).flatmap(
    lambda d: st.sampled_from([d, -d]))
# a replacement for an edge_id, node_from or node_to field
ID = st.one_of(st.sampled_from(["", " ", "#a", " #a", '"a\nb"', '"a\rb"', '"a\r\n"', '" "',
                                "a#b", "h0_0", "n0_0"]),
               st.text(alphabet=st.sampled_from(list('# \r\n"ab_0')), max_size=4))
JUNK = st.text(alphabet=st.sampled_from(list(',"()# \n-.0123456789eLINESTRG_hv')),
               max_size=6)


@st.composite
def linestring(draw):
    lon, lat = draw(st.floats(-180.0, 180.0)), draw(st.floats(-90.0, 90.0))
    verts = [(lon, lat)]
    for _ in range(draw(st.integers(1, 3))):
        lon, lat = lon + draw(STEP), lat + draw(STEP)
        verts.append((lon, lat))
    return '"LINESTRING (' + ", ".join(f"{x!r} {y!r}" for x, y in verts) + ')"'


def swap_first_fields(line):
    fields = line.split(",", 2)
    return ",".join([fields[1], fields[0], *fields[2:]]) if len(fields) > 1 else line


@st.composite
def mutated_network(draw):
    lines = list(LINES)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["coord", "wkt", "wkt", "id", "swap", "drop", "copy",
                                     "splice"]))
        if kind == "coord" and NUMBER.search(lines[i]):
            m = draw(st.sampled_from(list(NUMBER.finditer(lines[i]))))
            lines[i] = lines[i][:m.start()] + draw(COORD) + lines[i][m.end():]
        elif kind == "id" and lines[i].count(",") >= 3:
            fields = lines[i].split(",", 3)
            fields[draw(st.integers(0, 2))] = draw(ID)
            lines[i] = ",".join(fields)
        elif kind == "swap":  # edge_id in the second column, where '#' starts no comment
            lines = [swap_first_fields(line) for line in lines]
        elif kind == "wkt":
            lines[i] = WKT.sub(lambda _: draw(linestring()), lines[i])
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
    return "".join(lines)


@settings(max_examples=100, deadline=None)
@given(text=mutated_network())
def test_mutated_network_parses_or_raises_parse_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        net = Path(tmp) / "network.csv"
        net.write_text(text, encoding="utf-8")
        try:
            network = parse_road_network(net)
        except ParseError:
            pass
        else:
            ids = Path(tmp) / "ids.txt"
            write_lines(ids, network.ids)
            assert [token for _, token in read_ids(ids)] == list(network.ids)
            assert all(network.node_from) and all(network.node_to)
        rc = main(["eval", "--network", str(net), "--edges", str(MINI / "truth.txt"),
                   "--truth", str(MINI / "truth.txt")])
        assert rc in (0, 2)
