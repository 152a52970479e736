"""Smoke runs of the scripts under scripts/ and of `python -m denumerant`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import brute_force_count, run_module

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["boundary_table.py", "--parts", "2,3,5"],
        ["verify_sweep.py", "--trials", "20", "--seeds", "0"],
    ],
)
def test_script_exits_zero(argv):
    proc = run_script(*argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_sweep_refuses_oversized_tables_before_the_first_cell():
    proc = run_script(
        "verify_sweep.py", "--max-part", "200", "--max-product", "1000000000"
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")
    assert "cap" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["verify_sweep.py", "--max-part", "1"],
        ["boundary_table.py", "--parts", "2,4"],
        ["boundary_table.py", "--parts", "2,2,3"],
        ["boundary_table.py", "--parts", "7919,7927"],
    ],
)
def test_refused_script_arguments_exit_3_before_any_output(argv):
    # Not coprime, repeated parts, and a product over the oracle's table cap
    # for boundary_table.py; more parts than [1, max-part] holds for the sweep.
    proc = run_script(*argv)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_oracle_refusal_names_routes_not_cli_flags():
    # the script has no --method, so the table refusal must not advise one
    proc = run_script("boundary_table.py", "--parts", "7919,7927")
    assert (proc.returncode, proc.stdout) == (3, "")
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "--method" not in proc.stderr
    assert "waves" in proc.stderr and "routes" in proc.stderr


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["verify_sweep.py", "--seeds", "a"], "--seeds"),
        (["verify_sweep.py", "--seeds", "0,,1"], "--seeds"),
        (["boundary_table.py", "--step", "0"], "--step"),
        (["boundary_table.py", "--step", "-1"], "--step"),
        (["verify_sweep.py", "--trials", "-1"], "--trials"),
        (["verify_sweep.py", "--max-part", "0"], "--max-part"),
        (["boundary_table.py", "--parts", "2,x"], "--parts"),
    ],
)
def test_bad_script_arguments_are_usage_errors(argv, flag):
    proc = run_script(*argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("usage: ") and "Traceback" not in proc.stderr
    assert f"error: argument {flag}: " in proc.stderr.splitlines()[-1]


def test_module_entry_point():
    proc = run_module("count", "--parts", "2,3,5", "--n", "100")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == f"{brute_force_count((2, 3, 5), 100)}\n"

    proc = run_module("--help")
    assert proc.returncode == 0 and proc.stdout.startswith("usage: denumerant")

    proc = run_module("count", "--parts", "2,3,5", "--n", "100", "--method", "nope")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("usage: denumerant count")
    assert "invalid choice: 'nope'" in proc.stderr
