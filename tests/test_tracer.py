"""The benchmark's tracer still finds and wraps the layers it times.

perfbench/tracer.py binds a timing wrapper in place of each target function;
a target that is renamed, removed, or called around its wrapper makes a
traced benchmark run incorrect.  These runs catch that in the test suite.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACE_MARKER = "perfbench-trace "


@pytest.mark.parametrize("argv", [
    ["chartable", "--q", "3", "--n", "2"],
    ["verify", "--q", "3", "--max-n", "2"],
])
def test_tracer_finds_every_target(argv):
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "perfbench/tracer.py", *argv], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stderr.splitlines()
             if line.startswith(TRACE_MARKER)]
    assert len(lines) == 1, proc.stderr
    trace = json.loads(lines[0][len(TRACE_MARKER):])
    assert trace["missing"] == []
    assert trace["bypassed"] == []
    for name in ("symfunc.char_row", "symfunc._transform_embedded",
                 "symfunc._transform_terms"):
        assert trace["targets"][name]["calls"] > 0, name
    # class_table is cached: its misses are the tables built, one per degree
    builds = trace["targets"]["conjclasses.class_table"]["misses"]
    assert builds == (2 if argv[0] == "verify" else 0)
