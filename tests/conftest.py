import json
import sys
from pathlib import Path

import pytest
from hypothesis import settings

# Hypothesis's built-in "ci" profile (derandomized, no deadline, no example
# database), which GitHub Actions loads by itself: a local run draws the
# examples CI draws, so a CI failure reproduces here.
settings.load_profile("ci")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from dse import brute_force_front, parse_scenario  # noqa: E402

SCENARIO_DIR = ROOT / "scenarios"
ACCEPTANCE_SEEDS = [1, 2, 3, 4, 5]


@pytest.fixture(scope="session")
def toy_scenario_path() -> Path:
    return SCENARIO_DIR / "toy_fpga.json"


@pytest.fixture(scope="session")
def toy_scenario_doc(toy_scenario_path):
    return json.loads(toy_scenario_path.read_text())


@pytest.fixture(scope="session")
def toy_scenario(toy_scenario_doc):
    return parse_scenario(json.dumps(toy_scenario_doc))


@pytest.fixture(scope="session")
def toy_truth(toy_scenario):
    """Exhaustive evaluation of the 240-point toy space: (front, records)."""
    return brute_force_front(toy_scenario)


def scenario_with(doc: dict, **changes):
    """Copy of a scenario document with top-level fields replaced."""
    out = json.loads(json.dumps(doc))
    out.update(changes)
    return parse_scenario(json.dumps(out))
