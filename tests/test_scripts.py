"""Smoke tests of the experiment scripts: each runs at a small budget in a
fresh interpreter, exits 0 and prints its summary line."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, args, summary", [
    pytest.param("run_toy_fpga.py", ["--seed", "1"],
                 r"^normalized hvi vs true front: \d+\.\d{4}$", id="run_toy_fpga"),
    pytest.param("filter_ablation.py", ["--seeds", "1"],
                 r"^filter no worse on hvi in [01]/1 seeds; "
                 r"strictly fewer infeasible evaluations in [01]/1 seeds$", id="filter_ablation"),
    pytest.param("classifier_grid_search.py",
                 ["--max-estimators", "2", "--samples", "60", "--top", "3"],
                 r"^scored 81 configurations in \d+\.\ds$", id="classifier_grid_search"),
    pytest.param("recall_census.py", ["--seeds", "1-6"],
                 r"^set 1-5: [0-5]/5 seeds  (pass|FAIL)\nset 6-6: [01]/1 seeds .*\n\n"
                 r"recall final >= warm-up in \d/6 seeds; [01]/1 five-seed sets pass",
                 id="recall_census"),
])
def test_script_runs_and_prints_its_summary(script, args, summary):
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert re.search(summary, proc.stdout, re.MULTILINE), proc.stdout
