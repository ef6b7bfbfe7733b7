"""Smoke tests of the experiment scripts: each runs at a small budget in a
fresh interpreter, exits 0 and prints its summary line."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, args, summary", [
    pytest.param("classifier_grid_search.py",
                 ["--max-estimators", "2", "--samples", "60", "--top", "3"],
                 r"^scored 81 configurations in \d+\.\ds$", id="classifier_grid_search"),
    pytest.param("recall_census.py", ["--seeds", "1-6"],
                 r"^set 1-5: [0-5]/5 seeds  (pass|FAIL)\nset 6-6: [01]/1 seeds .*\n\n"
                 r"recall final >= warm-up in \d/6 seeds; [01]/1 five-seed sets pass.*\n\n"
                 r"filter on/off: .*\n(seed .*\n){6}set 1-5: hvi no worse .*\nset 6-6: .*\n\n"
                 r"filter hvi no worse in \d/6 seeds, infeasible fraction lower in \d/6 seeds; "
                 r"[01]/1 five-seed sets pass",
                 id="recall_census"),
])
def test_script_runs_and_prints_its_summary(script, args, summary):
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert re.search(summary, proc.stdout, re.MULTILINE), proc.stdout
