"""Pick a DBSCAN eps from the k-NN distance curve.

Plots nothing; prints the sorted curve's elbow candidates so the numbers
are easy to eyeball in a terminal. Run from the repo root:

    python3 demos/01_knn_elbow.py
"""

from pathlib import Path

from trajmatch.io import parse_trajectory
from trajmatch.staypoint import elbow_candidates, knn_distance_curve

MINI = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "mini"


def main():
    traj = parse_trajectory(MINI / "trajectory.csv")
    print(f"trajectory: {len(traj)} points")
    for k in (2, 3, 4):
        curve = knn_distance_curve(traj, k)
        print(f"\nk={k}: distance range "
              f"[{curve.min():.2e}, {curve.max():.2e}] deg")
        for cand in elbow_candidates(curve, 3):
            print(f"  elbow candidate at rank {cand.index}: "
                  f"eps ~ {cand.distance:.2e} (score {cand.score:.3f})")
    print("\nThe fixture was clustered with eps=4e-05, min_pts=3.")


if __name__ == "__main__":
    main()
