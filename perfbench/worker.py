"""One benchmark run of one workload, in a process of its own.

It times set-up, then runs whole rounds of the workload's `trajmatch`
commands through `trajmatch.cli.main`, at least MIN_ROUNDS of them and more
while another fits in the time given, reads its peak resident memory,
checks the outputs of the first round with `checks` and prints one JSON
object as its last line. Every time it reports is on the reference scale of
`pace`: its wall time less the speed samples taken in it, times the share
of it in which the process ran and the machine's measured speed over it.
`run.py` starts it; see README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
from pace import Pace, window  # noqa: E402
from probe import Probe  # noqa: E402
from workloads import WORKLOADS, commands, import_trajmatch  # noqa: E402

PHASES = ("IMP", "SMP_ALONG", "SMP_JUNCTION")
COMMANDS = ("pipeline", "staypoints", "match", "eval")
SETUP_REPEATS = 7
SETUP_MIN_S = 1.0
# A `drive` round takes 7 to 14 s of wall time as the machine is fast or
# slow, so with a time limit alone a slow stretch could leave a 30 s run
# with a single round. Two at least
# give every run a median over rounds and a round-to-round output check.
MIN_ROUNDS = 2


def measure_setup(tio, inputs: Path) -> list[tuple[float, ...]]:
    """Time windows of parsing the three input files and building the
    network with its grid index: at least SETUP_REPEATS of them, and more
    until SETUP_MIN_S have gone by, so that the speed samples cover them.
    One untimed parse first warms the code paths."""
    windows = []
    t_begin = time.perf_counter()
    while (len(windows) <= SETUP_REPEATS
           or time.perf_counter() - t_begin < SETUP_MIN_S):
        gc.collect()
        t0, c0 = window()
        net = tio.parse_road_network(inputs / "network.csv")
        tio.parse_trajectory(inputs / "trajectory.csv")
        tio.parse_ground_truth(inputs / "truth.txt", net)
        t1, c1 = window()
        windows.append((t0, t1, c0, c1))
        del net
    return windows[1:]


def _match_arrays(entry) -> dict:
    r = entry["result"]
    return {
        "inputs": np.array([(p.position.lat, p.position.lon) for p in entry["traj"]]),
        "edge_id": np.array([m.edge_id for m in r.matched]),
        "lat": np.array([m.snapped_lat for m in r.matched]),
        "lon": np.array([m.snapped_lon for m in r.matched]),
        "confident": np.array([m.confident for m in r.matched], dtype=bool),
        "phase": [m.phase_used for m in r.matched],
        "reinit": int(sum(m.reinitialized for m in r.matched)),
        "edge_sequence": list(r.edge_sequence),
        "calls": entry["calls"],
        "traj": entry["traj"],
    }


def _deterministic_text(out: Path, names) -> bytes:
    parts = []
    for name in names:
        path = out / name
        if path.exists():
            lines = path.read_bytes().splitlines(keepends=True)
            parts.append(b"".join(l for l in lines if not l.startswith(b"timing.")))
    return b"\0".join(parts)


class Run:
    def __init__(self, wl, inputs: Path, out: Path, probe: Probe):
        self.wl, self.inputs, self.out, self.probe = wl, inputs, out, probe
        self.argvs = commands(wl, inputs, out)
        self.rounds: list[dict] = []
        self.first: dict | None = None   # outputs of round 1, for the checks
        self.errors: list[str] = []

    def round(self, cli):
        probe = self.probe
        first = not self.rounds
        rnd = {"cmd_t": {}, "match_points": 0, "reduced_records": 0,
               "failed": 0, "digest": hashlib.sha256()}
        keep = {"dbscan": [], "summarize": [], "reduce": [], "match": [],
                "stdout": {}} if first else None
        lo = probe.mark()
        for argv in self.argvs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                t0, c0 = window()
                rc = cli.main(argv)
                t1, c1 = window()
            rnd["cmd_t"].setdefault(argv[0], []).append((t0, t1, c0, c1))
            ops = 0
            for c in probe.take_calls():
                if c["name"] == "matcher.match":
                    n = len(c["traj"]) * c["calls"]
                    rnd["match_points"] += n
                    ops += n
                    rnd["digest"].update("\n".join(c["result"].edge_sequence).encode())
                    if first:
                        keep["match"].append(_match_arrays(c))
                elif c["name"] == "staypoint.reduce":
                    traj = c["result"].trajectory
                    rnd["reduced_records"] += len(c["args"][0])
                    ops += len(c["args"][0])
                    rnd["digest"].update(repr([(r.timestamp, r.position)
                                               for r in traj]).encode())
                    if first:
                        keep["reduce"].append({
                            "labels": c["args"][1], "traj": traj,
                            "rows": np.array([(r.timestamp, r.position.lat,
                                               r.position.lon) for r in traj])})
                elif first and c["name"] == "staypoint.dbscan":
                    traj, params = c["args"]
                    keep["dbscan"].append({"params": params, "result": c["result"],
                                           "n": len(traj)})
                elif first and c["name"] == "staypoint.summarize":
                    keep["summarize"].append({"labels": c["args"][1], "rows": np.array(
                        [(s.cluster_id, s.x, s.y, s.t_a, s.t_l, s.member_count)
                         for s in c["result"]]).reshape(-1, 6)})
            if rc != 0:
                rnd["failed"] += ops
                self.errors.append(f"{argv[0]} exited {rc}: {buf.getvalue()[-200:]}")
            if first:
                keep["stdout"][argv[0]] = buf.getvalue()
            if argv[0] in ("staypoints", "eval"):  # the others print timings
                rnd["digest"].update(buf.getvalue().encode())
        rnd["spans"] = (lo, probe.mark())
        rnd["wall_s"] = sum(w[1] - w[0] for ws in rnd["cmd_t"].values() for w in ws)
        rnd["digest"].update(_deterministic_text(self.out, (
            "report.txt", "eps_sweep.csv", "volume_pair.csv", "staypoints.csv",
            "reduced.csv", "matched.csv", "edge_sequence.txt")))
        rnd["digest"] = rnd["digest"].hexdigest()
        if first:
            self.first = keep
        elif rnd["digest"] != self.rounds[0]["digest"]:
            self.errors.append(f"round {len(self.rounds) + 1} outputs differ from round 1")
        self.rounds.append(rnd)

    # -- checks ---------------------------------------------------------

    def check(self, radius: float) -> dict:
        """Run every check on round 1; return the figures read from outputs."""
        k = self.first
        inputs, out = self.inputs, self.out
        net = checks.Network(inputs / "network.csv")
        truth = checks.read_lines(inputs / "truth.txt")
        traj = checks.read_trajectory(inputs / "trajectory.csv")
        dwells = checks.read_dwells(inputs / "dwells.csv")
        errs = self.errors

        for d in k["dbscan"]:
            p = d["params"]
            if p.metric_space != "degree-euclidean" or d["n"] != len(traj):
                errs.append(f"dbscan ran on {d['n']} points in {p.metric_space}")
                continue
            errs += checks.check_dbscan(traj[:, [2, 1]], p.eps, p.min_pts,
                                        d["result"].labels, d["result"].core)
        for r in k["reduce"]:
            stay = [s["rows"] for s in k["summarize"] if s["labels"] is r["labels"]]
            if not stay:
                errs.append("reduce: no summarize call on the same labels")
                continue
            errs += checks.check_reduction(traj, r["labels"].labels, stay[0],
                                           r["rows"], dwells, net)
        if len(k["reduce"]) != 1:
            errs.append(f"{len(k['reduce'])} reductions per round, expected 1")
            return {}
        red = k["reduce"][0]
        labels = red["labels"]
        figures = {"clusters": labels.cluster_count, "noise": labels.noise_count,
                   "reduced": len(red["rows"])}

        if self.wl.pipeline:
            reduced_match = [m for m in k["match"] if m["traj"] is red["traj"]]
            raw_match = [m for m in k["match"] if m["traj"] is not red["traj"]]
        else:
            reduced_match, raw_match = k["match"], []
        if not (len(reduced_match) == 1 and len(raw_match) == self.wl.pipeline
                and np.array_equal(reduced_match[0]["inputs"], red["rows"][:, 1:])
                and all(np.array_equal(m["inputs"], traj[:, 1:]) for m in raw_match)):
            errs.append("match: calls are not one on the reduced trace and, for "
                        "pipeline, one on the raw trace")
            return figures

        if self.wl.pipeline:
            rep = dict(line.split("=", 1) for line in
                       (out / "report.txt").read_text(encoding="utf-8").split())
            correct = {"raw": int(rep["raw.correct_links"]),
                       "reduced": int(rep["reduced.correct_links"])}
            expected = {"raw.input_points": len(traj),
                        "reduced.input_points": figures["reduced"],
                        "total_truth_links": len(truth),
                        "cluster_count": figures["clusters"],
                        "noise_count": figures["noise"],
                        "accuracy_delta": correct["reduced"] - correct["raw"]}
            for key, val in expected.items():
                if int(rep[key]) != val:
                    errs.append(f"report.txt: {key}={rep[key]}, expected {val}")
            sweep = np.loadtxt(out / "eps_sweep.csv", delimiter=",", skiprows=1, ndmin=2)
            sweep_labels = [d["result"].labels for d in k["dbscan"][1:]]
            mine = [(len(traj) - int(np.sum(lab == checks.NOISE)),
                     int(np.sum(lab == checks.NOISE))) for lab in sweep_labels]
            if [tuple(map(int, row[1:])) for row in sweep] != mine:
                errs.append("eps_sweep.csv: counts differ from the sweep's labels")
        else:
            said = dict(line.split("=", 1) for line in k["stdout"]["staypoints"].split())
            if (int(said["cluster_count"]), int(said["noise_count"]),
                    int(said["output_size"])) != (figures["clusters"], figures["noise"],
                                                  figures["reduced"]):
                errs.append(f"staypoints printed {said}, expected {figures}")
            if not np.array_equal(checks.read_trajectory(out / "reduced.csv"), red["rows"]):
                errs.append("reduced.csv differs from the reduced trace")
            said = dict(line.split("=", 1) for line in k["stdout"]["eval"].split())
            correct = {"reduced": int(said["correct_links"])}
        for kind, ms in (("raw", raw_match), ("reduced", reduced_match)):
            for m in ms:
                errs += [f"{kind} {e}" for e in checks.check_match(
                    net, m["inputs"], m, truth, correct[kind], radius)]
        truth_set = set(truth)
        figures["correct_links"] = correct["reduced"]
        figures["raw_correct_links"] = correct.get("raw", 0)
        figures["off_route_links"] = sum(e not in truth_set
                                         for e in reduced_match[0]["edge_sequence"])
        phases = {p: 0 for p in PHASES}
        figures["low_confidence"] = figures["reinit"] = 0
        for m in k["match"]:
            for p in PHASES:
                phases[p] += m["phase"].count(p) * m["calls"]
            figures["low_confidence"] += int(np.sum(~m["confident"])) * m["calls"]
            figures["reinit"] += m["reinit"] * m["calls"]
        figures["phases"] = phases
        return figures

    # -- metrics --------------------------------------------------------

    @staticmethod
    def factor(pace: Pace, rnd) -> float:
        """The factor that puts one round's times on the reference scale."""
        return pace.factor(sorted(w for ws in rnd["cmd_t"].values() for w in ws))

    def durations(self, pace: Pace, rnd):
        """Span durations in one round on the reference scale."""
        f = self.factor(pace, rnd)
        return lambda starts, ends: pace.own(starts, ends) * f

    def command_s(self, pace: Pace, rnd) -> dict[str, float]:
        dur = self.durations(pace, rnd)
        return {c: float(np.sum(dur(*np.array(ws)[:, :2].T)))
                for c, ws in rnd["cmd_t"].items()}

    def end_to_end(self, pace: Pace, n_points: int, setup_s: float, rss_mb: float,
                   figures) -> dict:
        pts, match = [], []
        for r in self.rounds:
            pts.append(n_points / sum(self.command_s(pace, r).values()))
            _, secs = self.probe.summary(*r["spans"], self.durations(pace, r))["matcher.match"]
            match.append(r["match_points"] / secs)
        return {
            "setup_s": (setup_s, "s"),
            "pts_per_s": (statistics.median(pts), "points/s"),
            "match_pts_per_s": (statistics.median(match), "points/s"),
            "peak_rss_mb": (rss_mb, "MB"),
            "correct_links": (figures.get("correct_links", 0), "links"),
        }

    def per_layer(self, pace: Pace, n_points: int, figures) -> dict:
        per_round = []
        for r in self.rounds:
            s = self.probe.summary(*r["spans"], self.durations(pace, r))
            cmd_s = self.command_s(pace, r)
            ev_calls, ev_s = s["fuzzy.evaluate"]
            m = {
                "io.parse_network_s": s["io.parse_network"][1],
                "io.parse_trajectory_s": s["io.parse_trajectory"][1],
                "io.write_s": s["io.write"][1],
                "geo.index_build_s": s["geo.index_build"][1],
                "geo.index_query_calls": s["geo.index_query"][0],
                "geo.project_calls": s["geo.project"][0],
                "geo.project_s": s["geo.project"][1],
                "staypoint.dbscan_calls": s["staypoint.dbscan"][0],
                "staypoint.dbscan_s": s["staypoint.dbscan"][1],
                "staypoint.summarize_s": s["staypoint.summarize"][1],
                "staypoint.reduce_s": s["staypoint.reduce"][1],
                "fuzzy.evaluate_calls": ev_calls,
                "fuzzy.evaluate_s": ev_s,
                "fuzzy.evaluate_us": ev_s / ev_calls * 1e6 if ev_calls else 0.0,
                "matcher.match_calls": s["matcher.match"][0],
                "matcher.match_s": s["matcher.match"][1],
                "matcher.score_link_calls": s["matcher.score_link"][0],
                "matcher.score_link_s": s["matcher.score_link"][1],
                "matcher.candidate_links_calls": s["matcher.candidate_links"][0],
                "matcher.candidate_links_s": s["matcher.candidate_links"][1],
                "matcher.self_s": s["matcher.self"][1],
                "evalbench.run_pipeline_s": s["evalbench.run_pipeline"][1],
                "evalbench.lcs_s": s["evalbench.lcs"][1],
                "traced.pts_per_s": n_points / sum(cmd_s.values()),
            }
            for c in COMMANDS:
                m[f"cli.{c}_s"] = cmd_s.get(c, 0.0)
            per_round.append(m)
        units = {"pts_per_s": "points/s", "_us": "us", "_calls": "count", "_s": "s"}
        out = {}
        for name in per_round[0]:
            unit = next(u for suffix, u in units.items() if name.endswith(suffix))
            median = statistics.median_low if unit == "count" else statistics.median
            out[name] = (median(m[name] for m in per_round), unit)
        counts = {
            "staypoint.clusters": figures.get("clusters", 0),
            "staypoint.noise_points": figures.get("noise", 0),
            "staypoint.reduced_points": figures.get("reduced", 0),
            "evalbench.raw_correct_links": figures.get("raw_correct_links", 0),
            "evalbench.off_route_links": figures.get("off_route_links", 0),
            "matcher.low_confidence_points": figures.get("low_confidence", 0),
            "matcher.reinit_points": figures.get("reinit", 0),
        }
        for p in PHASES:
            counts[f"matcher.phase.{p}"] = figures.get("phases", {}).get(p, 0)
        out.update({k: (v, "count") for k, v in counts.items()})
        return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--inputs", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    import_trajmatch()
    probe = Probe(traced=bool(args.trace))
    probe.install()
    from trajmatch import cli
    from trajmatch import io as tio
    from trajmatch.matcher import MatcherConfig

    wl = WORKLOADS[args.workload]
    run = Run(wl, args.inputs, args.out, probe)
    pace = Pace()
    pace.start()
    setup = measure_setup(tio, args.inputs)
    t_begin = time.perf_counter()
    while True:
        gc.collect()
        run.round(cli)
        if len(run.rounds) == 1:
            # Read after one round, so that it does not depend on how many
            # rounds fit: a second round of `drive` added about 3 MB.
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - t_begin
        # whole rounds only: stop unless another one fits in the time left
        if (len(run.rounds) >= MIN_ROUNDS
                and elapsed + run.rounds[-1]["wall_s"] > args.seconds):
            break
    pace.stop()

    setup_s = statistics.median(float(pace.own(w[0], w[1])) * pace.factor([w])
                                for w in setup)
    n_points = len(checks.read_trajectory(args.inputs / "trajectory.csv"))
    figures = run.check(MatcherConfig().candidate_radius)
    if args.trace:
        metrics = run.per_layer(pace, n_points, figures)
        probe.write_spans(args.out / "spans.npz")
    else:
        metrics = run.end_to_end(pace, n_points, setup_s, rss_mb, figures)
    for e in run.errors:
        print(f"check failed: {e}", file=sys.stderr)
    walls = ",".join(f"{r['wall_s']:.2f}" for r in run.rounds)
    factors = ",".join(f"{run.factor(pace, r):.3f}" for r in run.rounds)
    print(f"rounds={len(run.rounds)} round_s={walls} factor={factors} "
          f"digest={run.rounds[0]['digest']}")
    print(json.dumps({
        "correct": not run.errors,
        "attempted": sum(r["match_points"] + r["reduced_records"] for r in run.rounds),
        "failed": sum(r["failed"] for r in run.rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
