"""trajmatch benchmark: drive, dwell and sparse traces, timed end to end and
per layer. See README.md.

    python3 perfbench/run.py --workload drive --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

A run generates its inputs from the seed under perfbench/runs/, then runs the
workload in a worker process of its own and prints the worker's result: the
last line is one JSON object with `correct`, `attempted`, `failed` and
`metrics` (end-to-end metrics with `--trace 0`, per-layer with `--trace 1`).
It exits 0 only when it printed a result. `--smoke` runs every workload,
untraced and traced, with no time limit (so two rounds each) on the vendored
tests/fixtures/mini inputs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, copy_mini, generate  # noqa: E402

RUNS = HERE / "runs"
DEADLINE_S = 170.0  # a run ends within 180 s


def run_worker(workload: str, inputs: Path, out: Path, seconds: float, trace: int,
               timeout: float) -> tuple[list[str], dict]:
    """Run one worker; return its stdout lines and its parsed last line."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--inputs", str(inputs), "--out", str(out), "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: {workload} worker did not finish in {timeout:.0f} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {workload} worker exited {proc.returncode}")
    return lines, json.loads(lines[-1])


def smoke() -> int:
    inputs = RUNS / "smoke" / "inputs"
    copy_mini(inputs)
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    t0 = time.perf_counter()
    for name in WORKLOADS:
        for trace in (0, 1):
            left = DEADLINE_S - (time.perf_counter() - t0)
            lines, res = run_worker(name, inputs, RUNS / "smoke" / f"{name}-{trace}",
                                    0, trace, left)
            print(f"{name} trace={trace} {lines[-2]} correct={res['correct']}")
            total["correct"] &= res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
            if not trace:
                for k, v in res["metrics"].items():
                    total["metrics"][f"{name}.{k}"] = v
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None or args.seed is None or args.seconds is None:
        p.error("--workload, --seed and --seconds are required without --smoke")

    t0 = time.perf_counter()
    base = RUNS / args.workload
    inputs = base / "inputs"
    if inputs.exists():
        shutil.rmtree(inputs)
    inputs.mkdir(parents=True)
    generate(WORKLOADS[args.workload], args.seed, inputs)
    left = DEADLINE_S - (time.perf_counter() - t0)
    lines, _ = run_worker(args.workload, inputs, base / f"out-trace{args.trace}",
                          args.seconds, args.trace, left)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
