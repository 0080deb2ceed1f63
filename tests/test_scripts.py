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


def run_script(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("argv", [
    ["u2_table.py", "--q", "3"],
    ["census_grid.py", "--q", "3", "5", "--n", "2", "4", "6", "8"],
    ["selfdual_scan.py", "--q", "3", "--n", "4", "--list"],
])
def test_script_runs(argv):
    proc = run_script(argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


@pytest.mark.parametrize("argv,message", [
    (["u2_table.py", "--q", "9"],
     "table would have 10000 entries (bound 4096); raise the bound explicitly "
     "to proceed"),
    (["census_grid.py", "--q", "6"], "q must be a prime power >= 2, got 6"),
    (["selfdual_scan.py", "--q", "6"], "6 is not a prime power"),
    (["selfdual_scan.py", "--q", "3", "6"], "6 is not a prime power"),
], ids=["u2_table", "census_grid", "selfdual_scan", "selfdual_scan_second_q"])
def test_script_refusal_is_one_error_line(argv, message):
    # a refusal ends as the CLI's do: exit 1 and one line, no traceback, and
    # nothing on stdout before it
    proc = run_script(argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", f"error: {message}\n")
