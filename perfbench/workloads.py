"""The benchmark's three workloads and their set-up.

All three are closed loops: one `dse run` after another in a single process,
each starting when the previous one has written its artifacts.

- fpga_seeds: the bundled 240-point toy_fpga scenario, unchanged, over at
  least 14 consecutive seeds. The pool is the full enumeration, so pool
  sampling and the Pareto sweep stay nearly idle; many small forest fits,
  fixed per-iteration overhead and artifact writing do the work. Per-call
  overhead and the thread policy show here.
- mixed_pool: the 8-parameter mixed space (6 reals, a 3-level categorical,
  an integer 1..64 with a decay prior) at N=50, M=20, S=25000, 2
  iterations, with an in-process evaluator. Candidate pooling, encoding,
  forest prediction and the Pareto sweep on 25k rows do the work; fits on
  50-90 samples are small.
- mixed_fit: the same space at N=200, M=50, S=2000, 2 iterations, with a
  pure-Python child evaluator behind the subprocess protocol. Forest fitting
  on 200-300 rows does the work; pool and Pareto are tiny, while warm-up
  sampling, the request/response CSV code and artifact writing see real row
  counts.

The mixed sizes are well below the paper's defaults so that one invocation
holds several runs: on a shared 2-CPU VM the CPU speed drifts by about 15 %
within seconds, and only a median over several runs stays steady.
"""

from __future__ import annotations

import itertools
import json
import shlex
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from gate import HviScale, non_dominated

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ZDT_BUILTIN = "perfbench_zdt"


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: Path
    builtin: str | None      # in-process evaluator name; None = child process
    quality_runs: int        # runs (consecutive seeds) the HVI metrics average over


WORKLOADS = {
    w.name: w for w in (
        Workload("fpga_seeds", ROOT / "scenarios" / "toy_fpga.json", "toy_fpga", 14),
        Workload("mixed_pool", HERE / "scenarios" / "mixed_pool.json", ZDT_BUILTIN, 5),
        Workload("mixed_fit", HERE / "scenarios" / "mixed_fit.json", None, 4),
    )
}


class BatchClock:
    """Monotonic arrival/return times of every evaluator call in one run."""

    def __init__(self, fn):
        self.fn = fn
        self.calls: list[tuple[float, float]] = []

    def __call__(self, values):
        start = time.monotonic()
        result = self.fn(values)
        self.calls.append((start, time.monotonic()))
        return result


def _column_type(param: dict):
    kind = param["parameter_type"]
    if kind == "real":
        return float
    if kind == "categorical":
        return str
    if kind == "ordinal" and not all(isinstance(v, int) for v in param["values"]):
        return float
    return int


def _enumerate(doc: dict):
    domains = []
    for param in doc["input_parameters"].values():
        if param["parameter_type"] == "integer":
            lo, hi = param["values"]
            domains.append(range(lo, hi + 1))
        else:
            domains.append(param["values"])
    names = list(doc["input_parameters"])
    for combo in itertools.product(*domains):
        yield dict(zip(names, combo))


class Bench:
    """A workload made ready to run: scenario parsed, evaluator registered
    and timed, reference front built. This is the set-up that `setup_s`
    measures, after the interpreter start and `import dse`."""

    def __init__(self, workload: Workload, work_dir: Path):
        import dse
        from dse import evaluators

        import zdt

        self.workload = workload
        self.work_dir = work_dir
        self.child_log = work_dir / "evaluator_times.txt"
        self.overrides: list[str] = []
        if workload.builtin in (ZDT_BUILTIN, None):
            self.evaluate = zdt.evaluate
        else:
            self.evaluate = getattr(evaluators, workload.builtin)
        self.clock = None
        if workload.builtin is not None:
            self.clock = BatchClock(self.evaluate)
            evaluators.BUILTIN_EVALUATORS[workload.builtin] = self.clock
        else:
            command = shlex.join([sys.executable, str(HERE / "zdt_child.py"), str(self.child_log)])
            self.overrides += ["--set", "evaluator=" + json.dumps(
                {"command": command, "timeout_seconds": 600})]

        self.doc = json.loads(workload.scenario.read_text(encoding="utf-8"))
        self.scenario = dse.parse_scenario(json.dumps(self.doc))
        self.objectives = self.scenario.objectives
        self.columns = {name: _column_type(p) for name, p in self.doc["input_parameters"].items()}
        self.budget = (self.scenario.doe_samples
                       + self.scenario.optimization_iterations * self.scenario.evaluations_per_iteration)

        if workload.builtin in (ZDT_BUILTIN, None):
            true_front = zdt.true_front()
        else:
            results = [self.evaluate(v) for v in _enumerate(self.doc)]
            feasible = [tuple(float(r[o]) for o in self.objectives) for r in results if r["feasible"]]
            true_front = [feasible[i] for i in non_dominated(feasible)]
        self.hvi = HviScale(true_front)

    def reset_clock(self) -> None:
        if self.clock is not None:
            self.clock.calls.clear()
        else:
            self.child_log.unlink(missing_ok=True)

    def batch_times(self, tags: list[int]) -> list[tuple[float, float]]:
        """(arrival, return) per evaluated batch, in order. ``tags`` is the
        iteration tag of every evaluated row, in evaluation order."""
        if self.clock is None:
            lines = self.child_log.read_text(encoding="utf-8").split("\n")
            return [(float(a), float(b)) for a, b, _ in (line.split() for line in lines if line)]
        sizes = [len(list(group)) for _, group in itertools.groupby(tags)]
        out, i = [], 0
        for size in sizes:
            out.append((self.clock.calls[i][0], self.clock.calls[i + size - 1][1]))
            i += size
        return out
