"""Dominance order, constrained Pareto fronts, and the hypervolume indicator.

All objectives are minimized (maximization is handled by negating values at
ingestion). The hypervolume indicator (HVI) between an approximated front and
a reference front is computed after per-objective standard-deviation
normalization so objectives with large raw ranges do not drown the others.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .space import Configuration

log = logging.getLogger(__name__)

ObjectiveVector = Sequence[float]


@dataclass(frozen=True)
class EvaluationRecord:
    """One evaluated configuration: objectives plus the feasibility flag.

    ``iteration_tag`` is -1 for warm-up samples and the loop index for
    samples evaluated during active learning.
    """

    config: Configuration
    objectives: tuple[float, ...]
    feasible: bool
    iteration_tag: int = -1


@dataclass
class ParetoArchive:
    """Every record seen so far plus the current constrained front."""

    records: list[EvaluationRecord] = field(default_factory=list)

    def configurations(self) -> set[Configuration]:
        return {r.config for r in self.records}

    def front(self) -> list[EvaluationRecord]:
        return constrained_front(self.records)

    def extend(self, new_records: Iterable[EvaluationRecord]) -> None:
        self.records.extend(new_records)


def dominates(a: ObjectiveVector, b: ObjectiveVector) -> bool:
    """Strict Pareto dominance: a is no worse everywhere and better somewhere."""
    if len(a) != len(b):
        raise ValueError("objective vectors must have equal length")
    not_worse = all(x <= y for x, y in zip(a, b))
    return not_worse and any(x < y for x, y in zip(a, b))


def pareto_front(points: Sequence[ObjectiveVector]) -> list[int]:
    """Indices of the non-dominated points, ascending.

    Duplicate objective vectors are all retained (they may correspond to
    distinct configurations). Empty input yields an empty front; NaN input
    is rejected, since a NaN point is never dominated.
    """
    n = len(points)
    if n == 0:
        return []
    P = np.asarray(points, dtype=float)
    if P.ndim != 2:
        raise ValueError("points must share a common objective count")
    if np.isnan(P).any():
        raise ValueError("objective vectors must not contain NaN")
    # a dominator always precedes its victim lexicographically, so a single
    # sweep against the kept set suffices
    order = np.lexsort(P.T[::-1])
    kept = np.empty_like(P)
    kept_idx: list[int] = []
    for i in order:
        row = P[i]
        if kept_idx:
            K = kept[: len(kept_idx)]
            dominated = np.any(np.all(K <= row, axis=1) & np.any(K < row, axis=1))
            if dominated:
                continue
        kept[len(kept_idx)] = row
        kept_idx.append(int(i))
    return sorted(kept_idx)


def constrained_front(records: Sequence[EvaluationRecord]) -> list[EvaluationRecord]:
    """Non-dominated subset of the feasible records.

    Infeasible records never enter the front but stay in the archive: they
    still teach the feasibility classifier where the boundary runs.
    """
    feasible = [r for r in records if r.feasible]
    if not feasible:
        return []
    idx = pareto_front([r.objectives for r in feasible])
    return [feasible[i] for i in idx]


def hypervolume_2d(front: Sequence[ObjectiveVector], ref: ObjectiveVector) -> float:
    """Exact area dominated by a bi-objective front inside the box bounded
    by ``ref``. Points beyond the reference are clipped out."""
    if len(ref) != 2 or any(len(p) != 2 for p in front):
        raise ValueError("hypervolume_2d handles exactly two objectives")
    pts = [(float(p[0]), float(p[1])) for p in front
           if p[0] <= ref[0] and p[1] <= ref[1]]
    if not pts:
        return 0.0
    nd = sorted({pts[i] for i in pareto_front(pts)})
    area = 0.0
    for j, (x, y) in enumerate(nd):
        next_x = nd[j + 1][0] if j + 1 < len(nd) else float(ref[0])
        area += (next_x - x) * (float(ref[1]) - y)
    return area


def objective_stddevs(objectives: Sequence[ObjectiveVector]) -> np.ndarray:
    """Per-objective population standard deviations, the HVI normalization."""
    arr = np.asarray(objectives, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot normalize over an empty record set")
    return arr.std(axis=0)


def hvi(approx_front: Sequence[ObjectiveVector],
        reference_front: Sequence[ObjectiveVector],
        stddevs: Sequence[float]) -> float:
    """Hypervolume indicator of an approximated front against a reference.

    Both fronts are scaled by 1/stddev per objective (zero deviations are
    left unscaled, with a warning), the reference point is the component-wise
    max over both scaled fronts plus a small margin, and the result is
    HV(reference) - HV(approximation), floored at zero.
    """
    if len(approx_front) == 0 or len(reference_front) == 0:
        raise ValueError("hvi requires two non-empty fronts")
    scale = np.asarray(stddevs, dtype=float).copy()
    zero = scale <= 0.0
    if zero.any():
        log.warning("zero standard deviation in objective(s) %s; left unscaled",
                    np.nonzero(zero)[0].tolist())
        scale[zero] = 1.0
    A = np.asarray(approx_front, dtype=float) / scale
    R = np.asarray(reference_front, dtype=float) / scale
    if A.shape[1] != 2 or R.shape[1] != 2:
        raise ValueError("hvi handles exactly two objectives")
    ref_point = np.maximum(A.max(axis=0), R.max(axis=0)) + 1e-6
    value = hypervolume_2d(R, ref_point) - hypervolume_2d(A, ref_point)
    return max(0.0, value)


def reference_front(runs: Sequence[Sequence[EvaluationRecord]]) -> list[EvaluationRecord]:
    """Best-known front: the constrained front of every record accumulated
    across all runs of an experiment."""
    if not runs:
        raise ValueError("reference_front requires at least one run")
    union: list[EvaluationRecord] = []
    for records in runs:
        union.extend(records)
    return constrained_front(union)
