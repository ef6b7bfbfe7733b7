"""The feasibility filter learns the feasible region as the search goes.

toy_fpga's 240 configurations are enumerable, so the classifier can be
scored on the whole space: one fitted on a run's warm-up records and one
fitted on all of its records, against the true feasibility labels. That
comparison is the whole-space block of scripts/recall_census.py, which runs
here in a fresh interpreter; its last line is parsed, so the census logic
lives in one place.
"""

import re
import subprocess
import sys
from pathlib import Path

CENSUS = Path(__file__).resolve().parent.parent / "scripts" / "recall_census.py"
SEEDS = 40
# The bound: precision is higher in a majority of the seeds, mean precision
# rises, and mean recall does not fall.
MIN_SEEDS_PRECISION_HIGHER = 21

SUMMARY = re.compile(
    r"whole space: precision higher in (\d+)/(\d+) seeds \(mean ([\d.]+) -> ([\d.]+)\); "
    r"recall no lower in \d+/\d+ seeds \(mean ([\d.]+) -> ([\d.]+)\)")


def test_classifier_fitted_on_all_records_is_sharper_on_the_whole_space():
    proc = subprocess.run([sys.executable, str(CENSUS), "--seeds", f"1-{SEEDS}"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    match = SUMMARY.fullmatch(proc.stdout.splitlines()[-1])
    assert match, proc.stdout[-1000:]
    higher, seeds = int(match[1]), int(match[2])
    precision_warmup, precision_all, recall_warmup, recall_all = map(float, match.groups()[2:])
    assert seeds == SEEDS
    assert higher >= MIN_SEEDS_PRECISION_HIGHER
    assert precision_all > precision_warmup
    assert recall_all >= recall_warmup
