"""Smoke runs of the experiment scripts under scripts/.

Each script is run as its own process against the package in src/, the way
the README shows, so a change to the library that breaks a script fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["u2_table.py", "--q", "3"],
    ["census_grid.py", "--q", "3", "5", "--n", "2", "4"],
    ["selfdual_scan.py", "--q", "3", "--n", "4", "--list"],
])
def test_script_runs(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
