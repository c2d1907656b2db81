"""The timed child runs the CLI unchanged and records its own peak memory."""

import os
import subprocess
import sys

import run


def _run(cmd, cwd):
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)


def test_child_matches_the_cli_and_records_its_own_peak(tmp_path):
    args = ["series", "E4", "--order", "12"]
    plain = _run([sys.executable, "-m", "vvmf.cli", *args], tmp_path)
    rss = tmp_path / "rss.txt"
    # Grow this process well past the child's size first: the child's
    # record must not carry it over, as wait4's ru_maxrss would.
    ballast = bytearray(64 * 1024 * 1024)
    ballast[::4096] = b"\1" * len(ballast[::4096])
    child = _run([sys.executable, str(run.HERE / "cli_child.py"), str(rss), *args], tmp_path)
    assert plain.returncode == child.returncode == 0
    assert child.stdout == plain.stdout
    peak_kib = int(rss.read_text())
    assert 1024 < peak_kib < 48 * 1024
    del ballast


def test_child_keeps_the_exit_code_of_a_failing_command(tmp_path):
    rss = tmp_path / "rss.txt"
    child = _run([sys.executable, str(run.HERE / "cli_child.py"), str(rss),
                  "analyze", "missing.json"], tmp_path)
    plain = _run([sys.executable, "-m", "vvmf.cli", "analyze", "missing.json"], tmp_path)
    assert child.returncode == plain.returncode != 0
    assert rss.is_file()
