"""The repository's pytest settings, applied to a throwaway test file."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

ALWAYS_FAILS = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(x):
    assert False
"""


def test_a_failing_hypothesis_test_reports_as_one_failure(tmp_path):
    # the warnings-as-errors filter must not turn Hypothesis's failure report
    # into a plugin traceback, which ends the session with status 3
    (tmp_path / "test_always_fails.py").write_text(ALWAYS_FAILS)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "test_always_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr
