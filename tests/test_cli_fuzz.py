"""CLI arguments fuzzed with Hypothesis: `--eps`, `--min-pts`, `--k` and the
`synth` numbers (`--seed` and each `--dwell start:duration:sigma`) take
nan, inf, negative, huge and junk values on the mini fixture. Every run
exits 0, 1, 2 or 3 and prints no traceback.

The examples stay bounded: the mini trace has 401 points, and a dwell of
more than a day (one point per second) is refused before any is made.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from trajmatch.cli import main
from conftest import FIXTURES

MINI = FIXTURES / "mini"
TRAJ = str(MINI / "trajectory.csv")
PIPELINE = ["--network", str(MINI / "network.csv"), "--traj", TRAJ,
            "--truth", str(MINI / "truth.txt")]

# one number as the command line spells it
NUMBER = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "1e999", "-1e999", "0", "-0",
                     "-1", "1e308", "-1e308", "5e-324", "1e-320", "3", "10", "400", "401",
                     "99999999999999999999999", "-99999999999999999999999", "",
                     "x", "0x10", "1_0", " 3 ", "10**3", "٣", "3.5", "1,5"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(1e-6, 1e-3).map(repr),
    st.integers(-10**30, 10**30).map(str),
    st.text(max_size=6))


def run(argv) -> tuple[int, str]:
    """main(argv)'s exit code and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def check(argv):
    rc, err = run(argv)
    assert rc in (0, 1, 2, 3), (argv, rc, err)
    assert "Traceback" not in err, (argv, err)
    return rc


@example(eps="nan", min_pts="3").via("non-finite eps")
@example(eps="inf", min_pts="3").via("non-finite eps")
@example(eps="1e308", min_pts="3").via("eps beyond the trace")
@example(eps="0.00004", min_pts="99999999999999999999999").via("min-pts beyond int64")
@settings(max_examples=60, deadline=None)
@given(eps=NUMBER, min_pts=NUMBER)
@pytest.mark.parametrize("command", ["staypoints", "reduce"])
def test_clustering_arguments_exit_with_a_code(command, eps, min_pts):
    with tempfile.TemporaryDirectory() as tmp:
        out = ["--out-dir", tmp] if command == "staypoints" else ["--out", f"{tmp}/r.csv"]
        check([command, "--traj", TRAJ, f"--eps={eps}", f"--min-pts={min_pts}", *out])


@example(eps="nan", min_pts="3").via("non-finite eps")
@example(eps="1e300", min_pts="3").via("one cluster: a one-point reduced trace")
@settings(max_examples=8, deadline=None)
@given(eps=NUMBER, min_pts=NUMBER)
def test_pipeline_arguments_exit_with_a_code(eps, min_pts):
    with tempfile.TemporaryDirectory() as tmp:
        check(["pipeline", *PIPELINE, f"--eps={eps}", f"--min-pts={min_pts}",
               "--out-dir", tmp])


@example(k="400").via("the largest valid k")
@example(k="99999999999999999999999").via("k beyond int64")
@settings(max_examples=40, deadline=None)
@given(k=NUMBER)
def test_knn_curve_k_exits_with_a_code(k):
    with tempfile.TemporaryDirectory() as tmp:
        check(["knn-curve", "--traj", TRAJ, f"--k={k}", "--out", f"{tmp}/c.csv"])


@example(seed="-1", dwell=[]).via("negative seed")
@example(seed="1", dwell=[("0", "1e15", "1")]).via("a dwell of 30 million years")
@example(seed="1", dwell=[("0", "-5", "1")]).via("negative duration")
@example(seed="1", dwell=[("0", "5", "1e7")]).via("sigma beyond the globe")
@example(seed="1", dwell=[("0", "5", "1e308")]).via("sigma near the float limit")
@settings(max_examples=40, deadline=None)
@given(seed=NUMBER, dwell=st.lists(st.tuples(NUMBER, NUMBER, NUMBER), max_size=3))
def test_synth_numbers_exit_with_a_code(seed, dwell):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["synth", f"--seed={seed}", "--out-dir", tmp]
        argv += [f"--dwell={':'.join(spec)}" for spec in dwell]
        if check(argv) != 0:
            assert not (Path(tmp) / "trajectory.csv").exists()


def test_synth_refuses_a_dwell_longer_than_a_day(tmp_path):
    rc, err = run(["synth", "--seed", "1", "--dwell=0:86401:1", "--out-dir", str(tmp_path)])
    assert rc == 1 and "bad --dwell '0:86401:1', duration must lie in [0, 86400]" in err


def test_synth_refuses_points_off_the_globe(tmp_path):
    rc, err = run(["synth", "--seed", "1", "--dwell=0:5:1e7", "--out-dir", str(tmp_path)])
    assert rc == 1 and "sigma puts points off the globe" in err
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_non_finite_eps_is_a_usage_error(tmp_path, eps):
    rc, err = run(["staypoints", "--traj", TRAJ, f"--eps={eps}", "--min-pts", "3",
                   "--out-dir", str(tmp_path)])
    assert rc == 1 and f"eps must be a finite number > 0, got {eps}" in err


@pytest.mark.parametrize("eps, bad", [("1e308", "inf"), ("5e-324", "0.0")])
def test_pipeline_checks_its_sweep_eps_before_the_run(tmp_path, eps, bad):
    # 2 * 1e308 overflows and 5e-324 / 2 rounds to 0: the sweep cannot run,
    # so nothing may be written
    rc, err = run(["pipeline", *PIPELINE, f"--eps={eps}", "--min-pts", "500",
                   "--out-dir", str(tmp_path / "out")])
    assert rc == 1 and f"eps must be a finite number > 0, got {bad}" in err
    assert not (tmp_path / "out").exists()
