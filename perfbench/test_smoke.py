"""Smoke test of the benchmark on the vendored mini fixture.

Run it on its own, outside the tier-1 suite:

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_every_workload_correct_and_deterministic():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"], capture_output=True,
                          text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] > 0
    digests = {}
    for line in lines[:-1]:
        name, *fields = line.split()
        fields = dict(f.split("=", 1) for f in fields)
        assert fields["correct"] == "True", line
        digests.setdefault(name, set()).add(fields["digest"])
    assert sorted(digests) == ["drive", "dwell", "sparse"]
    # the traced run produces the same outputs as the untraced one
    assert all(len(d) == 1 for d in digests.values()), digests
    for name in digests:
        assert result["metrics"][f"{name}.correct_links"]["value"] == 12
