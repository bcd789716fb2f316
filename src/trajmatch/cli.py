"""Command-line front end for the preprocessing + matching pipeline.

Exit codes: 0 success, 1 usage error, 2 input/parse error, 3 domain
precondition violation.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import evalbench, staypoint
from .fuzzy import default_rule_base
from .geo import InvalidCoordinateError, check_coordinate
from .io import ParseError, parse_edge_ids, parse_ground_truth, parse_road_network, \
    parse_trajectory, write_trajectory
from .matcher import MatcherConfig, TooFewPointsError, load_matcher_config, match_trajectory, \
    write_edge_sequence, write_match_result
from .staypoint import DbscanParams, DEGREE_EUCLIDEAN

EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3
MAX_DWELL_S = 86_400.0  # a synthetic dwell emits one point per second


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_matcher(args):
    if getattr(args, "config", None):
        return load_matcher_config(args.config)
    return MatcherConfig(), default_rule_base()


def cmd_knn_curve(args) -> int:
    traj = parse_trajectory(args.traj)
    if args.k >= len(traj):
        print(f"error: --k ({args.k}) must be smaller than the trajectory "
              f"point count ({len(traj)})", file=sys.stderr)
        return EXIT_PARSE
    curve = staypoint.knn_distance_curve(traj, args.k, args.metric_space)
    staypoint.write_knn_curve(curve, args.out)
    print(f"wrote {args.out} ({len(curve.distances)} points)")
    if len(curve.distances) >= 3:  # elbow candidates are advisory; a shorter curve has none
        for cand in staypoint.elbow_candidates(curve, 5):
            print(f"elbow candidate: rank {cand.index}  distance {cand.distance:.8g}  "
                  f"curvature {cand.score:.4g}")
    return 0


def _cluster_reduce(args):
    traj = parse_trajectory(args.traj)
    params = DbscanParams(args.eps, args.min_pts, args.metric_space)
    labels = staypoint.dbscan(traj, params)
    stay_points = staypoint.summarize_clusters(traj, labels)
    reduced = staypoint.reduce_trajectory(traj, labels, stay_points)
    return traj, labels, stay_points, reduced


def cmd_staypoints(args) -> int:
    traj, labels, stay_points, reduced = _cluster_reduce(args)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    staypoint.write_staypoints(stay_points, out / "staypoints.csv")
    write_trajectory(reduced.trajectory, out / "reduced.csv")
    print(f"cluster_count={labels.cluster_count}")
    print(f"noise_count={labels.noise_count}")
    print(f"output_size={len(reduced.trajectory)}")
    return 0


def cmd_reduce(args) -> int:
    _, labels, _, reduced = _cluster_reduce(args)
    write_trajectory(reduced.trajectory, args.out)
    print(f"wrote {args.out} ({len(reduced.trajectory)} records, "
          f"{labels.cluster_count} clusters collapsed)")
    return 0


def cmd_match(args) -> int:
    network = parse_road_network(args.network)
    traj = parse_trajectory(args.traj)
    cfg, rules = _load_matcher(args)
    result = match_trajectory(network, traj, rules, cfg)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_match_result(result, out / "matched.csv")
    write_edge_sequence(result, out / "edge_sequence.txt")
    print(f"matched {len(result.matched)} points onto "
          f"{len(result.edge_sequence)} links in {result.wall_time_s:.3f} s")
    return 0


def cmd_eval(args) -> int:
    network = parse_road_network(args.network)
    truth = parse_ground_truth(args.truth, network)
    correct = evalbench.correct_link_count(parse_edge_ids(args.edges, network), truth)
    print(f"correct_links={correct}")
    print(f"total_truth_links={len(truth)}")
    return 0


def cmd_pipeline(args) -> int:
    network = parse_road_network(args.network)
    traj = parse_trajectory(args.traj)
    truth = parse_ground_truth(args.truth, network)
    cfg, rules = _load_matcher(args)
    if len(traj) < 2:
        raise TooFewPointsError("trajectory must have at least 2 points")
    # checked before the run: eps / 2 can round to 0 and eps * 2 overflow
    sweep_params = [DbscanParams(eps, args.min_pts, args.metric_space)
                    for eps in (args.eps / 2, args.eps, args.eps * 2)]
    report = evalbench.run_pipeline(network, traj, truth, args.eps, args.min_pts,
                                    rules, cfg, args.metric_space)
    sweep = []
    for params in sweep_params:
        labels = staypoint.dbscan(traj, params)
        clustered = len(traj) - labels.noise_count
        sweep.append((params.eps, clustered, labels.noise_count))
    evalbench.export_report(report, args.out_dir, eps_sweep=sweep)
    print(f"volume_reduction_pct={report.volume_reduction_pct:.2f}")
    print(f"time_reduction_pct={report.time_reduction_pct:.2f}")
    print(f"speed_gain_pct={report.speed_gain_pct:.2f}")
    print(f"accuracy_delta={report.accuracy_delta}")
    return 0


def cmd_synth(args) -> int:
    dwells = []
    for spec in args.dwell or []:
        try:
            start, duration, sigma = (float(v) for v in spec.split(":"))
        except ValueError:
            raise ValueError(f"bad --dwell {spec!r}, expected start:duration:sigma") from None
        if not all(map(math.isfinite, (start, duration, sigma))):
            raise ValueError(f"bad --dwell {spec!r}, start, duration and sigma must be finite")
        if not (0.0 <= duration <= MAX_DWELL_S and sigma >= 0.0):
            raise ValueError(f"bad --dwell {spec!r}, duration must lie in [0, {MAX_DWELL_S:g}] "
                             f"and sigma must be >= 0")
        dwells.append((start, duration, sigma))
    scn = evalbench.generate_scenario(args.seed, dwell_spec=dwells)
    try:
        for lat, lon in zip(scn.trajectory.lat.tolist(), scn.trajectory.lon.tolist()):
            check_coordinate(lat, lon)
    except InvalidCoordinateError as exc:
        raise ValueError(f"a --dwell sigma puts points off the globe: {exc}") from None
    evalbench.write_scenario(scn, args.out_dir)
    print(f"wrote scenario to {args.out_dir} "
          f"({len(scn.trajectory)} points, {len(scn.truth)} truth edges)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="trajmatch",
                description="GPS stay-point reduction and fuzzy map matching")
    sub = p.add_subparsers(dest="command", required=True)

    def add_metric(sp):
        sp.add_argument("--metric-space", dest="metric_space",
                        choices=["degree-euclidean", "meter-planar"],
                        default=DEGREE_EUCLIDEAN,
                        help="distance space for clustering (repo default, "
                             "not from the paper: degree-euclidean)")

    sp = sub.add_parser("knn-curve", help="sorted k-NN distance curve")
    sp.add_argument("--traj", required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--out", required=True)
    add_metric(sp)
    sp.set_defaults(func=cmd_knn_curve)

    for name, func in (("staypoints", cmd_staypoints), ("reduce", cmd_reduce)):
        sp = sub.add_parser(name, help=f"DBSCAN stay-point {name}")
        sp.add_argument("--traj", required=True)
        sp.add_argument("--eps", type=float, required=True)
        sp.add_argument("--min-pts", dest="min_pts", type=int, required=True)
        if name == "staypoints":
            sp.add_argument("--out-dir", dest="out_dir", required=True)
        else:
            sp.add_argument("--out", required=True)
        add_metric(sp)
        sp.set_defaults(func=func)

    sp = sub.add_parser("match", help="fuzzy map matching")
    sp.add_argument("--network", required=True)
    sp.add_argument("--traj", required=True)
    sp.add_argument("--config", help="YAML matcher config (defaults embedded)")
    sp.add_argument("--out-dir", dest="out_dir", required=True)
    sp.set_defaults(func=cmd_match)

    sp = sub.add_parser("eval", help="edge sequence vs ground truth")
    sp.add_argument("--network", required=True)
    sp.add_argument("--edges", required=True, help="one edge id per line")
    sp.add_argument("--truth", required=True)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("pipeline", help="raw-vs-reduced comparison run")
    sp.add_argument("--network", required=True)
    sp.add_argument("--traj", required=True)
    sp.add_argument("--truth", required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--min-pts", dest="min_pts", type=int, required=True)
    sp.add_argument("--config")
    sp.add_argument("--out-dir", dest="out_dir", required=True)
    add_metric(sp)
    sp.set_defaults(func=cmd_pipeline)

    sp = sub.add_parser("synth", help="generate a synthetic scenario")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--dwell", action="append",
                    help="start:duration:sigma (seconds, seconds, meters); repeatable")
    sp.add_argument("--out-dir", dest="out_dir", required=True)
    sp.set_defaults(func=cmd_synth)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TooFewPointsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
