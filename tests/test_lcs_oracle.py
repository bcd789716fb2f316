"""The bit-parallel correct-link count against the plain LCS dynamic program.

`correct_link_count` must equal `dp_lcs` from tests/oracles.py exactly, for
repeated ids, ids absent from the truth, empty sequences and truths longer
than one 64-bit word.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from trajmatch.evalbench import correct_link_count
from oracles import dp_lcs

ROUTE_IDS = [f"h{i}" for i in range(6)] + [f"v{i}" for i in range(6)]
OFF_ROUTE_IDS = ["x0", "x1", "x2"]  # never in a truth


@settings(max_examples=300, deadline=None)
@given(seq=st.lists(st.sampled_from(ROUTE_IDS + OFF_ROUTE_IDS), max_size=160),
       truth=st.lists(st.sampled_from(ROUTE_IDS), max_size=160))
@example(seq=[], truth=ROUTE_IDS * 12)
@example(seq=OFF_ROUTE_IDS * 30, truth=ROUTE_IDS * 12)
@example(seq=["h0"] * 100, truth=["h0"] * 70)
@example(seq=ROUTE_IDS[::-1] * 12, truth=ROUTE_IDS * 12)
@example(seq=["h1"], truth=[])
def test_correct_link_count_equals_dp(seq, truth):
    got = correct_link_count(seq, truth)
    assert got == dp_lcs(seq, truth)
    assert 0 <= got <= min(len(seq), len(truth))


def test_correct_link_count_long_route():
    # Shaped like a matched sparse trace: a 1,500-link walk over a grid that
    # drives some roads more than once, matched with off-route links put
    # in, links dropped and links repeated, about 1,650 ids in all.
    rng = random.Random(41)
    truth, pos = [], (20, 20)
    for _ in range(1500):
        i, j = pos
        di, dj = rng.choice([(1, 0), (-1, 0), (0, 1), (0, -1)])
        pos = (min(39, max(0, i + di)), min(39, max(0, j + dj)))
        truth.append(f"e{min(pos, (i, j))}-{max(pos, (i, j))}")
    seq = []
    for eid in truth:
        r = rng.random()
        if r < 0.03:
            continue
        seq.append(eid)
        if r > 0.87:
            seq.append(rng.choice([f"off{rng.randrange(50)}", eid, rng.choice(truth)]))
    assert 1600 <= len(seq) <= 1700 and len(truth) == 1500
    want = dp_lcs(seq, truth)
    assert correct_link_count(seq, truth) == want
    assert want < len(truth)
