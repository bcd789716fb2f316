"""Match a trajectory to the road network with the fuzzy-logic matcher.

Prints the fuzzy surface at a few (PD, HE) probes, then matches the
fixture trajectory and reports the edge sequence and phase mix. Run from
the repo root:

    python3 demos/03_fuzzy_matching.py
"""

from collections import Counter
from pathlib import Path

from trajmatch.fuzzy import default_rule_base, evaluate
from trajmatch.io import parse_road_network, parse_trajectory
from trajmatch.matcher import match_trajectory

MINI = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "mini"


def main():
    rules = default_rule_base()
    print("likelihood surface probes:")
    for pd, he in [(0, 0), (10, 10), (40, 20), (20, 90), (80, 170)]:
        print(f"  PD={pd:3d} m, HE={he:3d} deg -> "
              f"{evaluate(rules, {'pd': pd, 'he': he}):.1f}")

    network = parse_road_network(MINI / "network.csv")
    traj = parse_trajectory(MINI / "trajectory.csv")
    result = match_trajectory(network, traj, rules)

    phases = Counter(m.phase_used for m in result.matched)
    print(f"\nmatched {len(result.matched)} points in "
          f"{result.wall_time_s * 1e3:.1f} ms")
    print(f"phase mix: {dict(phases)}")
    print(f"edge sequence ({len(result.edge_sequence)} links): "
          f"{' '.join(result.edge_sequence)}")


if __name__ == "__main__":
    main()
