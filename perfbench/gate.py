"""The correctness gate for one finished `dse run`, and the benchmark's own
2-D hypervolume. Nothing here calls into dse, so the code under test does
not grade itself.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path


@dataclass
class RunRecord:
    values: dict        # parameter name -> typed value
    objectives: tuple   # floats, in scenario objective order
    feasible: bool
    tag: int


def read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def dominates(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def non_dominated(points) -> list[int]:
    """Indices of the points no other point dominates: the O(n^2) oracle."""
    return [i for i, p in enumerate(points)
            if not any(dominates(q, p) for q in points)]


def check_run(out_dir: Path, columns: dict, objectives: tuple, evaluate,
              budget: int) -> tuple[list[str], list[RunRecord]]:
    """Problems found in a run's artifacts (empty when it passes), and the
    parsed records.

    ``columns`` maps each parameter to the type its CSV text parses to, and
    ``evaluate`` is the workload's evaluator, used to recompute every row.
    """
    problems: list[str] = []
    header, rows = read_rows(out_dir / "samples.csv")
    expected = list(columns) + list(objectives) + ["feasible", "iteration_tag"]
    if header != expected:
        return [f"samples.csv header {header} != {expected}"], []

    records = []
    n_params = len(columns)
    for row in rows:
        values = {name: kind(text) for (name, kind), text in zip(columns.items(), row)}
        objs = tuple(float(t) for t in row[n_params:n_params + len(objectives)])
        records.append(RunRecord(values, objs, row[-2] == "true", int(row[-1])))

    if len(rows) > budget:
        problems.append(f"{len(rows)} evaluations exceed the budget of {budget}")
    keys = [tuple(row[:n_params]) for row in rows]
    if len(set(keys)) != len(keys):
        problems.append(f"{len(keys) - len(set(keys))} configurations evaluated twice")
    for row, rec in zip(rows, records):
        if not all(math.isfinite(v) for v in rec.objectives):
            problems.append(f"non-finite objective in row {row}")
            break
        truth = evaluate(rec.values)
        if tuple(float(truth[o]) for o in objectives) != rec.objectives \
                or bool(truth["feasible"]) != rec.feasible:
            problems.append(f"row {row} disagrees with the evaluator: {truth}")
            break

    feasible_rows = [row for row, rec in zip(rows, records) if rec.feasible]
    feasible_objs = [rec.objectives for rec in records if rec.feasible]
    want = [feasible_rows[i] for i in non_dominated(feasible_objs)]
    front_header, front_rows = read_rows(out_dir / "pareto.csv")
    if front_header != header or front_rows != want:
        problems.append(f"pareto.csv has {len(front_rows)} rows; the feasible "
                        f"non-dominated rows of samples.csv are {len(want)}")
    return problems, records


# ---------------------------------------------------------------------------
# hypervolume
# ---------------------------------------------------------------------------

def hypervolume_2d(points, ref) -> float:
    """Area dominated by ``points`` (minimized) inside the box below ``ref``."""
    area, best_y = 0.0, ref[1]
    for x, y in sorted(p for p in points if p[0] < ref[0] and p[1] < ref[1]):
        if y < best_y:
            area += (ref[0] - x) * (best_y - y)
            best_y = y
    return area


class HviScale:
    """Normalized HVI gap against a fixed true front: objectives are scaled
    so the true front spans [0, 1] in each, the reference point is
    (1.1, 1.1), and the gap is 1 - HV(front) / HV(true front)."""

    REF = (1.1, 1.1)

    def __init__(self, true_front):
        self.lo = [min(p[i] for p in true_front) for i in range(2)]
        self.span = [max(p[i] for p in true_front) - self.lo[i] or 1.0 for i in range(2)]
        self.true_hv = hypervolume_2d([self._scale(p) for p in true_front], self.REF)

    def _scale(self, p):
        return tuple((p[i] - self.lo[i]) / self.span[i] for i in range(2))

    def gap(self, front) -> float:
        hv = hypervolume_2d([self._scale(p) for p in front], self.REF)
        return max(0.0, 1.0 - hv / self.true_hv)

    def trace(self, records: list[RunRecord]) -> list[float]:
        """Gap after the warm-up and after each iteration, in tag order."""
        out = []
        for tag in sorted({r.tag for r in records}):
            front = [r.objectives for r in records if r.feasible and r.tag <= tag]
            out.append(self.gap(front))
        return out
