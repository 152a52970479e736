"""Smoke runs of the scripts under scripts/ and of `python -m denumerant`."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import brute_force_count, run_module

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "argv",
    [
        ["boundary_table.py", "--parts", "2,3,5"],
        ["verify_sweep.py", "--trials", "20", "--seeds", "0"],
    ],
)
def test_script_exits_zero(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


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
