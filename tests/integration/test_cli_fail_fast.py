"""Bad ``spam-bench`` inputs fail before any simulation runs, naming the
cause."""

import os
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.faults import run_soak

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


def test_run_soak_rejects_a_single_node():
    with pytest.raises(ValueError, match="^soak needs at least 2 nodes, "
                                         "got 1$"):
        run_soak(nodes=1)


def test_soak_single_node_exits_with_the_message():
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "soak", "--nodes", "1",
         "--no-report"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode != 0
    assert "soak needs at least 2 nodes, got 1" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_closed_stdout_exits_141_without_a_traceback(tmp_path):
    """``spam-bench inspect ... | head`` whose reader is gone: the status
    a tool that SIGPIPE ended reports, not the gate's 1 or a traceback."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    trace = tmp_path / "trace.json"
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "roundtrip", "--iters", "2",
         "--no-report", "--trace-out", str(trace)],
        capture_output=True, env=env, timeout=60, check=True)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        # unbuffered, so the first print meets the closed pipe inside main
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "inspect", str(trace)],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(env, PYTHONUNBUFFERED="1"), timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [["soak"], ["check", "--seeds", "1"]])
@pytest.mark.parametrize("bad", ["missing", "a_file"])
def test_unwritable_report_dir_fails_at_argument_time(tmp_path, argv, bad):
    if bad == "missing":
        target = tmp_path / "nonexistent" / "x"
    else:
        target = tmp_path / "a_file"
        target.write_text("")
    t0 = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--report-dir", str(target)])
    assert time.perf_counter() - t0 < 1.0
    assert str(exc.value.code).startswith("spam-bench: cannot write report:")
    assert str(target) in str(exc.value.code)
    assert list(tmp_path.iterdir()) == ([] if bad == "missing" else [target])


@pytest.mark.parametrize("argv,flag", [
    (["check", "--seeds", "1", "--loss", "2", "--no-report"], "--loss"),
    (["check", "--seeds", "3", "--loss", "2", "--no-report"], "--loss"),
    (["check", "--seeds", "1", "--loss", "-0.5", "--no-report"], "--loss"),
    (["soak", "--loss", "1.5", "--no-report"], "--loss"),
    (["soak", "--sample-period-us", "inf", "--no-report"],
     "--sample-period-us"),
    (["soak", "--sample-period-us", "nan", "--no-report"],
     "--sample-period-us"),
    (["soak", "--sample-period-us", "-3", "--no-report"],
     "--sample-period-us"),
    (["nas", "XX"], "kernel"),
    (["table5", "--keys", "0"], "--keys"),
    (["table5", "--keys", "-5"], "--keys"),
])
def test_bad_rate_or_period_fails_at_argument_time(capsys, argv, flag):
    t0 = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert time.perf_counter() - t0 < 1.0
    assert exc.value.code != 0
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err
    assert "Traceback" not in err


def test_nas_kernel_is_case_insensitive(capsys):
    # "ft" is taken as FT; parsing then stops at the unknown flag
    with pytest.raises(SystemExit):
        main(["nas", "ft", "--bogus"])
    err = capsys.readouterr().err
    assert "unrecognized arguments: --bogus" in err
    assert "invalid choice" not in err


def test_zero_sample_period_still_means_off():
    from repro.cli import _period_or_off

    assert _period_or_off("0") == 0.0
    assert _period_or_off("12.5") == 12.5
