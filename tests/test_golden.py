"""Golden outputs on the mini fixture, compared byte for byte.

The determinism tests compare two runs of the same code with each other;
these compare every deterministic output file with SHA-256 hashes recorded
from a known-good build, so a refactor that changes any byte fails here.
`report.txt` is hashed without its `timing.` lines. A change that means to
alter outputs updates the hashes and says why.
"""

import hashlib

import numpy as np
import pytest

from trajmatch import evalbench
from trajmatch.cli import main
from trajmatch.io import Trajectory
from conftest import FIXTURES

MINI = FIXTURES / "mini"
NET, TRAJ, TRUTH = (str(MINI / name) for name in ("network.csv", "trajectory.csv",
                                                  "truth.txt"))
CLUSTER = ["--eps", "0.00004", "--min-pts", "3"]

# command name -> (argv with "{out}" for the output directory, {file: sha256})
GOLDEN = {
    "pipeline": (
        ["pipeline", "--network", NET, "--traj", TRAJ, "--truth", TRUTH, *CLUSTER,
         "--out-dir", "{out}"],
        {"report.txt": "632505e7d6bd98b7e37f0808fe2abce3d60287a2ad1f2e1566480def9d7c5081",
         "eps_sweep.csv": "31c7b274f005f643c161b1a52c1cb29873d6bdcd25b21985a22c436f3280722e",
         "volume_pair.csv": "31f20b793c6e9c7dc8e2bd5669cfb20a448d55b4fd5c1f09e6f40c6f80b859c7"}),
    "staypoints": (
        ["staypoints", "--traj", TRAJ, *CLUSTER, "--out-dir", "{out}"],
        {"staypoints.csv": "60868725a1cf3a494135b798dd525f7ea4594e311800a49fd2982d57b0aa7dd2",
         "reduced.csv": "a1999fbd87847f361be94d10d3e37c09ec8675944c86c1c3d242ec50e7628100"}),
    "match": (
        ["match", "--network", NET, "--traj", TRAJ, "--out-dir", "{out}"],
        {"matched.csv": "6c00f28c1fe31b2a3da879eec165a87b80ed6c7d4650eede5797fa43b9cd4bd5",
         "edge_sequence.txt": "aa9f3d4e541513d814831bd93171cb19d2d2f65d2484882ba660ef878813cbb7"}),
    "knn-curve": (
        ["knn-curve", "--traj", TRAJ, "--k", "3", "--out", "{out}/knn.csv"],
        {"knn.csv": "f80b108bf993a81e39ea0537ae15daf53326b40e9d738b672b9c9dc2000f089a"}),
}


def _deterministic_bytes(path):
    data = path.read_bytes()
    if path.name == "report.txt":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(b"timing."))
    return data


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_outputs(tmp_path, command):
    argv, expected = GOLDEN[command]
    assert main([arg.replace("{out}", str(tmp_path)) for arg in argv]) == 0
    got = {name: hashlib.sha256(_deterministic_bytes(tmp_path / name)).hexdigest()
           for name in expected}
    assert got == expected


def test_synth_regenerates_mini_fixture(tmp_path):
    """The mini fixture is `synth` output: seed 7 with two 120 s dwells."""
    assert main(["synth", "--seed", "7", "--dwell", "47:120:1.5", "--dwell", "113:120:1.5",
                 "--out-dir", str(tmp_path)]) == 0
    for name in ("network.csv", "trajectory.csv", "truth.txt"):
        assert (tmp_path / name).read_bytes() == (MINI / name).read_bytes(), name


# Two seeded traces on a 10x10 grid, matched through `trajmatch match`:
# name -> (seed, route edges, dwells, jitter m, keep every n-th sample, {file: sha256}).
# The 1 Hz trace with dwells is mostly on-link tracking; its 0.1 Hz
# counterpart jumps 150 m per point and is mostly junction re-evaluation.
GOLDEN_SCALE = {
    "1hz_dwells": (
        11, 150, [(100.0, 60.0, 1.5), (700.0, 90.0, 2.0), (1500.0, 60.0, 1.5)], 1.5, 1,
        {"matched.csv": "b60cf17d91c0a7462e997fb6f1a1fee20bda45c7ac7fb8b047e7b561c1e4f43e",
         "edge_sequence.txt": "2d7d45f576f0e017a5a58b877ab325d44730e972f7521f2a37d438463cf44994"}),
    "0.1hz": (
        12, 400, None, 5.0, 10,
        {"matched.csv": "ec40781158b800676df0772efbcd77c86a77a920794a656ba9bb511909fa94e7",
         "edge_sequence.txt": "b6c655a71f418be8cab17f0655c85e786d6e5659d90cc74b8d3c08c4b80af27d"}),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SCALE))
def test_golden_match_at_scale(tmp_path, name):
    seed, route_edges, dwells, jitter, keep, expected = GOLDEN_SCALE[name]
    scn = evalbench.generate_scenario(seed, grid_size=10, route_edges=route_edges,
                                      jitter_sigma_m=jitter, dwell_spec=dwells)
    t = scn.trajectory
    scn.trajectory = Trajectory.from_columns(t.t[::keep], t.lat[::keep], t.lon[::keep],
                                             np.arange(len(t.t[::keep])), traj_id=t.id)
    evalbench.write_scenario(scn, tmp_path / "in")
    assert main(["match", "--network", str(tmp_path / "in" / "network.csv"),
                 "--traj", str(tmp_path / "in" / "trajectory.csv"),
                 "--out-dir", str(tmp_path)]) == 0
    got = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in expected}
    assert got == expected
