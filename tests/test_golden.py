"""Golden outputs on the mini fixture, compared byte for byte.

The determinism tests compare two runs of the same code with each other;
these compare every deterministic output file with SHA-256 hashes recorded
from a known-good build, so a refactor that changes any byte fails here.
`report.txt` is hashed without its `timing.` lines. A change that means to
alter outputs updates the hashes and says why.
"""

import hashlib

import pytest

from trajmatch.cli import main
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
