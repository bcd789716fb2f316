"""Benchmark workloads: how each input is generated from a seed, and which
`trajmatch` commands run on it.

All three workloads drive a random route over the same 40x40 grid network
(3,120 edges of 200 m) at 15 m/s with `evalbench.generate_scenario`. The
seed picks the route, the jitter and the dwell start times; the sizes below
are fixed, so every seed gives the same point count and dwell count.

Regenerate the inputs of one workload and seed:

    python3 perfbench/workloads.py --workload drive --seed 1 --out-dir DIR
"""

from __future__ import annotations

import argparse
import csv
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MINI = ROOT / "tests" / "fixtures" / "mini"

GRID_SIZE = 40
EDGE_LEN_M = 200.0
SPEED_MPS = 15.0
EPS = "0.00004"   # degrees, the degree-euclidean default space
# These random routes drive some roads up to 9 times. With a low min-pts,
# points of repeated passes coincide often enough to form chains of
# clusters that swallow a run of a later pass; at 10, the clusters are the
# dwells, one each, on every seed tried.
MIN_PTS = "10"
# Dwell sites closer than this can merge into one cluster whose mean lies
# between them; keeping them apart lets every dwell be checked against the
# stay point it should produce.
DWELL_SEPARATION_M = 30.0

# The mini fixture is `trajmatch synth --seed 7` with these dwells.
MINI_SEED = 7
MINI_DWELLS = [(47.0, 120.0, 1.5), (113.0, 120.0, 1.5)]


@dataclass(frozen=True)
class Workload:
    route_edges: int
    dwells: int
    dwell_s: float
    dwell_sigma_m: float
    jitter_m: float
    keep_every: int       # keep every n-th 1 Hz sample: 10 gives 0.1 Hz
    pipeline: bool        # `pipeline`, else `staypoints` + `match` + `eval`


WORKLOADS = {
    # Seattle-shaped: 4,001 driving samples plus 100 dwells of 15 s.
    "drive": Workload(300, 100, 15.0, 1.5, 1.5, 1, True),
    # 8,001 driving samples plus 400 dwells of 80 s: 40,001 points.
    "dwell": Workload(600, 400, 80.0, 1.5, 1.5, 1, False),
    # 0.1 Hz, no dwells: 2,001 points, 150 m apart, over 1,500 edges.
    "sparse": Workload(1500, 0, 0.0, 0.0, 5.0, 10, False),
}


def import_trajmatch():
    """Import the package from this checkout's `src`, never from elsewhere."""
    if not (SRC / "trajmatch" / "__init__.py").is_file():
        raise SystemExit(f"error: no trajmatch sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import trajmatch
    if Path(trajmatch.__file__).resolve().parent != SRC / "trajmatch":
        raise SystemExit(f"error: imported trajmatch from {trajmatch.__file__}")
    return trajmatch


def _write_dwells(centers, sigmas, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["lat", "lon", "sigma_m"])
        for c, s in zip(centers, sigmas):
            w.writerow([repr(c.lat), repr(c.lon), repr(s)])


def generate(wl: Workload, seed: int, out_dir: Path):
    """Write network.csv, trajectory.csv, truth.txt and dwells.csv."""
    import_trajmatch()
    import numpy as np
    from trajmatch import evalbench
    from trajmatch.io import Trajectory, TrajectoryRecord

    def scenario(spec):
        return evalbench.generate_scenario(
            seed, grid_size=GRID_SIZE, edge_len_m=EDGE_LEN_M,
            route_edges=wl.route_edges, speed_mps=SPEED_MPS,
            jitter_sigma_m=wl.jitter_m, dwell_spec=spec)

    spec = []
    if wl.dwells:
        # The seed fixes the route whatever the dwells, so a dwell-free
        # pass gives the position at each second of the route.
        drive = scenario(None)
        proj = drive.network.projection
        route = np.array([(p.x, p.y) for p in
                          (proj.project(r.position) for r in drive.trajectory)])
        rng = np.random.default_rng([seed, 0xD3E11])
        sites = np.empty((0, 2))
        starts = []
        while len(starts) < wl.dwells:
            t = int(rng.integers(len(route)))
            if np.all(np.hypot(*(sites - route[t]).T) >= DWELL_SEPARATION_M):
                sites = np.vstack([sites, route[t]])
                starts.append(t)
        spec = [(float(t), wl.dwell_s, wl.dwell_sigma_m) for t in sorted(starts)]
    scn = scenario(spec)
    if wl.keep_every > 1:
        kept = scn.trajectory.records[::wl.keep_every]
        scn.trajectory = Trajectory(
            [TrajectoryRecord(r.timestamp, r.position, i) for i, r in enumerate(kept)],
            traj_id=scn.trajectory.id)
    evalbench.write_scenario(scn, out_dir)
    _write_dwells(scn.dwell_centers, [s for _, _, s in spec], out_dir / "dwells.csv")


def copy_mini(out_dir: Path):
    """The vendored mini fixture, with the dwell centres it was made with."""
    import_trajmatch()
    from trajmatch import evalbench

    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ("network.csv", "trajectory.csv", "truth.txt"):
        shutil.copyfile(MINI / name, out_dir / name)
    scn = evalbench.generate_scenario(MINI_SEED, dwell_spec=MINI_DWELLS)
    _write_dwells(scn.dwell_centers, [s for _, _, s in MINI_DWELLS],
                  out_dir / "dwells.csv")


def commands(wl: Workload, inputs: Path, out: Path) -> list[list[str]]:
    """The `trajmatch` argument lists of one round, as a user would type them."""
    net, traj, truth = (str(inputs / n) for n in ("network.csv", "trajectory.csv",
                                                  "truth.txt"))
    if wl.pipeline:
        return [["pipeline", "--network", net, "--traj", traj, "--truth", truth,
                 "--eps", EPS, "--min-pts", MIN_PTS, "--out-dir", str(out)]]
    return [
        ["staypoints", "--traj", traj, "--eps", EPS, "--min-pts", MIN_PTS,
         "--out-dir", str(out)],
        ["match", "--network", net, "--traj", str(out / "reduced.csv"),
         "--out-dir", str(out)],
        ["eval", "--network", net, "--edges", str(out / "edge_sequence.txt"),
         "--truth", truth],
    ]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", type=Path, required=True)
    args = p.parse_args(argv)
    generate(WORKLOADS[args.workload], args.seed, args.out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
