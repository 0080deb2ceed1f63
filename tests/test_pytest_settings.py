"""The suite's pytest settings report a failing property as a failure.

pyproject.toml turns every warning into an error.  When a hypothesis test
fails, hypothesis's pytest plugin writes a patch with the failing example,
and that import path raises a DeprecationWarning of its own; as an error it
ended the whole run with INTERNALERROR, and the tests after the failure never
ran.  This runs a deliberately failing property under the same settings.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_after_the_failure():
    pass
'''


def test_a_failing_property_is_a_failure_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_failing_property.py").write_text(FAILING)
    # run from tmp_path so that hypothesis's example database and patch file
    # stay out of the repository
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-q",
         "-c", str(ROOT / "pyproject.toml"), "test_failing_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out  # 3 is pytest's internal-error code
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
