import copy
from pathlib import Path

import pytest
import yaml

from trajmatch import matcher
from trajmatch.cli import main
from conftest import FIXTURES
from test_fuzzy_oracle import DEFAULT_CONFIG

MINI = FIXTURES / "mini"
TRUTH = str(MINI / "truth.txt")
NETWORK = str(MINI / "network.csv")
TRAJ = str(MINI / "trajectory.csv")
CONFIG = str(FIXTURES.parent.parent / "demos" / "matcher_config.yaml")


def run(argv):
    return main(argv)


def test_knn_curve_writes_csv(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert run(["knn-curve", "--traj", str(MINI / "trajectory.csv"),
                "--k", "3", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "rank,distance"
    assert len(lines) == 402  # header + one row per point
    assert "elbow candidate" in capsys.readouterr().out


def test_knn_curve_missing_k(tmp_path, capsys):
    assert run(["knn-curve", "--traj", str(MINI / "trajectory.csv"),
                "--out", str(tmp_path / "c.csv")]) == 1


def test_knn_curve_k_too_large(tmp_path, capsys):
    rc = run(["knn-curve", "--traj", str(MINI / "trajectory.csv"),
              "--k", "5000", "--out", str(tmp_path / "c.csv")])
    assert rc == 2
    assert "smaller than" in capsys.readouterr().err


def test_staypoints_prints_counts(tmp_path, capsys):
    assert run(["staypoints", "--traj", str(MINI / "trajectory.csv"),
                "--eps", "0.00004", "--min-pts", "3",
                "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "cluster_count=2" in out
    assert "noise_count=159" in out
    assert "output_size=161" in out
    assert (tmp_path / "staypoints.csv").exists()
    assert (tmp_path / "reduced.csv").exists()


def test_staypoints_eps_zero_usage_error(tmp_path):
    assert run(["staypoints", "--traj", str(MINI / "trajectory.csv"),
                "--eps", "0", "--min-pts", "3",
                "--out-dir", str(tmp_path)]) == 1


def test_staypoints_all_noise_identity(tmp_path):
    assert run(["staypoints", "--traj", str(MINI / "trajectory.csv"),
                "--eps", "1e-12", "--min-pts", "3",
                "--out-dir", str(tmp_path)]) == 0
    reduced = (tmp_path / "reduced.csv").read_text()
    original = (MINI / "trajectory.csv").read_text()
    assert reduced == original


def test_reduce_command(tmp_path):
    out = tmp_path / "reduced.csv"
    assert run(["reduce", "--traj", str(MINI / "trajectory.csv"),
                "--eps", "0.00004", "--min-pts", "3", "--out", str(out)]) == 0
    assert len(out.read_text().strip().splitlines()) == 162  # header + 161


def test_match_straight_fixture(tmp_path, capsys):
    net = tmp_path / "net.csv"
    traj = tmp_path / "traj.csv"
    net.write_text(
        "edge_id,node_from,node_to,wkt\n"
        'e1,a,b,"LINESTRING (-122.3 47.6, -122.3 47.604)"\n')
    rows = ["timestamp,lat,lon"]
    rows += [f"{i},{47.6 + i * 1e-4},-122.3" for i in range(10)]
    traj.write_text("\n".join(rows) + "\n")
    assert run(["match", "--network", str(net), "--traj", str(traj),
                "--out-dir", str(tmp_path / "out")]) == 0
    seq = (tmp_path / "out" / "edge_sequence.txt").read_text().split()
    assert seq == ["e1"]


def test_match_deterministic_outputs(tmp_path):
    args = ["match", "--network", str(MINI / "network.csv"),
            "--traj", str(MINI / "trajectory.csv")]
    assert run(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert run(args + ["--out-dir", str(tmp_path / "b")]) == 0
    for name in ("matched.csv", "edge_sequence.txt"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_match_corrupt_network(tmp_path, capsys):
    net = tmp_path / "net.csv"
    net.write_text('edge_id,node_from,node_to,wkt\ne1,a,b,"not-wkt"\n')
    rc = run(["match", "--network", str(net),
              "--traj", str(MINI / "trajectory.csv"),
              "--out-dir", str(tmp_path / "out")])
    assert rc == 2
    assert "row 2" in capsys.readouterr().err


def test_match_and_eval_duplicate_vertex_network(tmp_path, capsys):
    net = tmp_path / "net.csv"
    net.write_text((MINI / "network.csv").read_text()
                   + 'dup,a,b,"LINESTRING (-122.3 47.6, -122.3 47.6)"\n')
    rows = len((MINI / "network.csv").read_text().splitlines()) + 1
    for argv in (["match", "--traj", str(MINI / "trajectory.csv"),
                  "--out-dir", str(tmp_path / "out")],
                 ["eval", "--edges", str(MINI / "truth.txt"),
                  "--truth", str(MINI / "truth.txt")]):
        assert run(argv + ["--network", str(net)]) == 2
        err = capsys.readouterr().err
        assert f"net.csv: row {rows}: consecutive duplicate vertex" in err


def test_eval_duplicate_edge_network(tmp_path, capsys):
    net = tmp_path / "net.csv"
    net.write_text('edge_id,node_from,node_to,wkt\n'
                   'e1,a,b,"LINESTRING (-122.3 47.6, -122.3 47.601)"\n'
                   'e1,b,c,"LINESTRING (-122.3 47.601, -122.3 47.602)"\n')
    truth = tmp_path / "truth.txt"
    truth.write_text("e1\n")
    assert run(["eval", "--network", str(net), "--edges", str(truth),
                "--truth", str(truth)]) == 2
    assert "net.csv: row 3: duplicate edge_id 'e1' (first at row 2)" in capsys.readouterr().err


def test_match_short_trajectory(tmp_path, capsys):
    traj = tmp_path / "t.csv"
    traj.write_text("timestamp,lat,lon\n0,47.6,-122.295\n")
    rc = run(["match", "--network", str(MINI / "network.csv"),
              "--traj", str(traj), "--out-dir", str(tmp_path / "out")])
    assert rc == 3
    assert capsys.readouterr().err == "error: trajectory must have at least 2 points\n"
    assert not (tmp_path / "out").exists()


def test_eval_command(capsys, tmp_path):
    edges = tmp_path / "seq.txt"
    edges.write_text((MINI / "truth.txt").read_text())
    assert run(["eval", "--network", str(MINI / "network.csv"),
                "--edges", str(edges), "--truth", str(MINI / "truth.txt")]) == 0
    out = capsys.readouterr().out
    assert "correct_links=12" in out
    assert "total_truth_links=12" in out


def test_pipeline_fixture(tmp_path, capsys):
    assert run(["pipeline", "--network", str(MINI / "network.csv"),
                "--traj", str(MINI / "trajectory.csv"),
                "--truth", str(MINI / "truth.txt"),
                "--eps", "0.00004", "--min-pts", "3",
                "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "volume_reduction_pct=" in out
    assert "accuracy_delta=0" in out
    assert (tmp_path / "report.txt").exists()
    assert (tmp_path / "eps_sweep.csv").exists()


def test_pipeline_missing_truth(tmp_path):
    rc = run(["pipeline", "--network", str(MINI / "network.csv"),
              "--traj", str(MINI / "trajectory.csv"),
              "--truth", str(tmp_path / "nope.txt"),
              "--eps", "0.00004", "--min-pts", "3",
              "--out-dir", str(tmp_path)])
    assert rc == 2


def test_pipeline_reduced_to_one_point_exits_3(tmp_path, capsys):
    # An eps this wide merges all 401 points into one stay point; matching
    # the reduced trace used to fail with exit 1, as if the usage were wrong.
    rc = run(["pipeline", "--network", NETWORK, "--traj", TRAJ, "--truth", TRUTH,
              "--eps", "1e300", "--min-pts", "3", "--out-dir", str(tmp_path)])
    assert rc == 3
    assert "reduce the trajectory to 1 point" in capsys.readouterr().err
    assert not (tmp_path / "report.txt").exists()


def test_pipeline_deterministic_excluding_timing(tmp_path):
    args = ["pipeline", "--network", str(MINI / "network.csv"),
            "--traj", str(MINI / "trajectory.csv"),
            "--truth", str(MINI / "truth.txt"),
            "--eps", "0.00004", "--min-pts", "3"]
    assert run(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert run(args + ["--out-dir", str(tmp_path / "b")]) == 0

    def stable_lines(d):
        text = (d / "report.txt").read_text().splitlines()
        return [l for l in text if not l.startswith("timing.")]

    assert stable_lines(tmp_path / "a") == stable_lines(tmp_path / "b")
    for name in ("volume_pair.csv", "eps_sweep.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_synth_roundtrip(tmp_path):
    assert run(["synth", "--seed", "11", "--dwell", "40:60:2.0",
                "--out-dir", str(tmp_path)]) == 0
    for name in ("network.csv", "trajectory.csv", "truth.txt"):
        assert (tmp_path / name).exists()


def test_synth_bad_dwell(tmp_path):
    assert run(["synth", "--seed", "11", "--dwell", "oops",
                "--out-dir", str(tmp_path)]) == 1


@pytest.mark.parametrize("spec", ["0:inf:1", "0:5:inf", "nan:5:1", "-inf:5:1", "0:nan:1"])
def test_synth_non_finite_dwell(tmp_path, capsys, spec):
    # These ended in an OverflowError traceback, wrote inf coordinates that
    # the trajectory parser rejects, or dropped the dwell without a word.
    assert run(["synth", "--seed", "11", f"--dwell={spec}", "--out-dir", str(tmp_path)]) == 1
    assert f"bad --dwell {spec!r}" in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


def test_synth_dwell_after_route_end(tmp_path, capsys):
    # The seed-1 route's last sample is at 160 s: a dwell starting at 500 s
    # was dropped without a word and the run exited 0.
    assert run(["synth", "--seed", "1", "--dwell", "500:60:1.5",
                "--out-dir", str(tmp_path)]) == 1
    assert "dwell 500:60:1.5 starts after the route's last sample at 160 s" \
        in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def _match_with_config(tmp_path, text):
    cfg = tmp_path / "matcher.yaml"
    cfg.write_text(text, encoding="utf-8")
    return run(["match", "--network", str(MINI / "network.csv"),
                "--traj", str(MINI / "trajectory.csv"), "--config", str(cfg),
                "--out-dir", str(tmp_path / "out")])


def test_config_unknown_threshold_key(tmp_path, capsys):
    assert _match_with_config(tmp_path, "thresholds:\n  candidate_radiuss: 80.0\n") == 2
    err = capsys.readouterr().err
    assert "thresholds.candidate_radiuss" in err


def test_config_zero_heading_separation_with_repeated_fix(tmp_path, capsys):
    # With min_heading_separation 0 a repeated fix asked for the bearing
    # between coincident points: exit 1, "bearing undefined".
    rows = (MINI / "trajectory.csv").read_text().splitlines(keepends=True)
    traj = tmp_path / "repeat.csv"
    # file row 3 (t=1.0) again at t=1.5
    traj.write_text("".join(rows[:3]) + "1.5" + rows[2][rows[2].index(","):] + "".join(rows[3:]))
    cfg = tmp_path / "matcher.yaml"
    argv = ["match", "--network", str(MINI / "network.csv"), "--traj", str(traj),
            "--out-dir", str(tmp_path / "out")]
    assert run(argv) == 0
    cfg.write_text("thresholds: {min_heading_separation: 0}\n", encoding="utf-8")
    assert run(argv + ["--config", str(cfg)]) == 2
    assert ("thresholds.min_heading_separation: expected a number > 0, got 0"
            in capsys.readouterr().err)


def test_config_rule_base_without_output(tmp_path, capsys):
    text = ("rule_base:\n"
            "  inputs:\n"
            "    pd:\n"
            "      universe: [0.0, 100.0]\n"
            "      labels:\n"
            "        short: {shape: z, params: [10.0, 40.0]}\n"
            "        long: {shape: s, params: [10.0, 40.0]}\n"
            "  rules:\n"
            "    - {if: [[pd, short]], then: high}\n")
    assert _match_with_config(tmp_path, text) == 2
    err = capsys.readouterr().err
    assert "rule_base: output: missing" in err


def test_config_rule_base_extra_input(tmp_path, capsys):
    # The matcher measures pd and he only. A rule base with another input
    # used to load, then end the match in a KeyError traceback (exit 1).
    doc = copy.deepcopy(DEFAULT_CONFIG)
    doc["inputs"]["speed"] = {"universe": [0.0, 50.0],
                              "labels": {"slow": {"shape": "z", "params": [5.0, 15.0]},
                                         "fast": {"shape": "s", "params": [5.0, 15.0]}}}
    doc["rules"].append({"if": [["speed", "fast"]], "then": "low"})
    assert _match_with_config(tmp_path, yaml.safe_dump({"rule_base": doc})) == 2
    err = capsys.readouterr().err
    assert "rule_base.inputs.speed: unknown input" in err
    assert not (tmp_path / "out").exists()


def test_config_rule_base_without_rules_scores_every_link_50(tmp_path):
    doc = dict(DEFAULT_CONFIG, rules=[])
    assert _match_with_config(tmp_path, yaml.safe_dump({"rule_base": doc})) == 0
    lines = (tmp_path / "out" / "matched.csv").read_text().splitlines()
    likelihood = lines[0].split(",").index("likelihood")
    assert len(lines) == 402
    assert {line.split(",")[likelihood] for line in lines[1:]} == {"50.0"}


def test_config_he_before_pd_matches_like_pd_first(tmp_path, monkeypatch):
    # Compiled rows follow the rule base's own input order, so a config that
    # lists he first scores (he, pd) rows and matches exactly as pd-first.
    scored = {}
    real = matcher.evaluate_rows

    def recording(rules, rows):
        rows = list(rows)
        scored.setdefault(rules.input_names, []).extend(rows)
        return real(rules, rows)

    monkeypatch.setattr(matcher, "evaluate_rows", recording)
    he_first = dict(DEFAULT_CONFIG, inputs=dict(reversed(DEFAULT_CONFIG["inputs"].items())))
    outputs = {}
    for name, doc in (("pd_first", DEFAULT_CONFIG), ("he_first", he_first)):
        (tmp_path / name).mkdir()
        assert _match_with_config(tmp_path / name, yaml.safe_dump({"rule_base": doc},
                                                                   sort_keys=False)) == 0
        outputs[name] = (tmp_path / name / "out" / "matched.csv").read_bytes()
    assert outputs["he_first"] == outputs["pd_first"]
    assert sorted(scored) == [("he", "pd"), ("pd", "he")]
    assert scored["he", "pd"] == [(he, pd) for pd, he in scored["pd", "he"]]


def test_config_broken_yaml(tmp_path, capsys):
    assert _match_with_config(tmp_path, "thresholds: [candidate_radius: 80\n") == 2
    err = capsys.readouterr().err
    assert "malformed YAML" in err


def test_config_not_a_mapping(tmp_path, capsys):
    assert _match_with_config(tmp_path, "- candidate_radius\n- 80.0\n") == 2
    err = capsys.readouterr().err
    assert "expected a mapping" in err


@pytest.mark.parametrize("name, source, argv", [
    ("traj.csv", TRAJ, ["match", "--network", NETWORK, "--traj", "{bad}",
                        "--out-dir", "{out}"]),
    ("net.csv", NETWORK, ["eval", "--network", "{bad}", "--edges", TRUTH,
                          "--truth", TRUTH]),
    ("truth.txt", TRUTH, ["eval", "--network", NETWORK, "--edges", TRUTH,
                          "--truth", "{bad}"]),
    ("edges.txt", TRUTH, ["eval", "--network", NETWORK, "--edges", "{bad}",
                          "--truth", TRUTH]),
    ("matcher.yaml", CONFIG, ["match", "--network", NETWORK, "--traj", TRAJ,
                              "--config", "{bad}", "--out-dir", "{out}"]),
], ids=["trajectory", "network", "truth", "edges", "config"])
def test_invalid_utf8_input_exits_2(tmp_path, capsys, name, source, argv):
    # a copy of a valid input whose third line is the byte 0xff
    lines = Path(source).read_bytes().splitlines(keepends=True)
    bad = tmp_path / name
    bad.write_bytes(b"".join(lines[:2]) + b"\xff\n" + b"".join(lines[2:]))
    assert run([a.format(bad=bad, out=tmp_path / "out") for a in argv]) == 2
    assert f"{name}: not valid UTF-8" in capsys.readouterr().err


def test_network_field_over_csv_field_limit_exits_2(tmp_path, capsys):
    # one edge of 6,000 vertices: its WKT field is longer than the csv
    # module's default field limit of 131,072 characters
    wkt = "LINESTRING (" + ", ".join(f"{-122.3 + i * 1e-5!r} {47.6 + i * 1e-6!r}"
                                     for i in range(6000)) + ")"
    assert len(wkt) > 131072
    net = tmp_path / "net.csv"
    net.write_text(f'edge_id,node_from,node_to,wkt\ne1,a,b,"{wkt}"\n', encoding="utf-8")
    assert run(["eval", "--network", str(net), "--edges", TRUTH, "--truth", TRUTH]) == 2
    assert "net.csv: malformed CSV: field larger than field limit" in capsys.readouterr().err


def test_staypoints_nan_timestamp_exits_2(tmp_path, capsys):
    traj = tmp_path / "traj.csv"
    traj.write_text("timestamp,lat,lon\n0,47.6,-122.3\nnan,47.6,-122.3\n2,47.6,-122.3\n",
                    encoding="utf-8")
    assert run(["staypoints", "--traj", str(traj), "--eps", "0.00004", "--min-pts", "3",
                "--out-dir", str(tmp_path / "out")]) == 2
    assert "traj.csv: row 3: non-finite timestamp 'nan'" in capsys.readouterr().err


@pytest.mark.parametrize("name, text, argv", [
    ("traj.csv", "timestamp,lat,lon\n0,47.6,-122.3\n1,47.6\n",
     ["staypoints", "--traj", "{bad}", "--eps", "0.00004", "--min-pts", "3",
      "--out-dir", "{out}"]),
    ("net.csv", "edge_id,node_from,node_to,wkt\ne1,a,b,\"LINESTRING (0 0, 1 1)\"\ne2,b\n",
     ["eval", "--network", "{bad}", "--edges", TRUTH, "--truth", TRUTH]),
], ids=["trajectory", "network"])
def test_short_row_exits_2(tmp_path, capsys, name, text, argv):
    bad = tmp_path / name
    bad.write_text(text, encoding="utf-8")
    assert run([a.format(bad=bad, out=tmp_path / "out") for a in argv]) == 2
    assert f"{name}: row 3: no field for " in capsys.readouterr().err
