"""Dominance order, constrained Pareto fronts, and the hypervolume indicator.

All objectives are minimized (maximization is handled by negating values at
ingestion). The hypervolume indicator (HVI) between an approximated front and
a reference front is computed after per-objective standard-deviation
normalization so objectives with large raw ranges do not drown the others.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

log = logging.getLogger(__name__)

ObjectiveVector = Sequence[float]


@dataclass(frozen=True)
class EvaluationRecord:
    """One evaluated configuration (its values in canonical parameter order):
    objectives plus the feasibility flag.

    ``iteration_tag`` is -1 for warm-up samples and the loop index for
    samples evaluated during active learning.
    """

    config: tuple
    objectives: tuple[float, ...]
    feasible: bool
    iteration_tag: int = -1


def pareto_front(points: Sequence[ObjectiveVector]) -> list[int]:
    """Indices of the non-dominated points, ascending.

    Duplicate objective vectors are all retained (they may correspond to
    distinct configurations). Empty input yields an empty front; NaN input
    is rejected, since a NaN point is never dominated.

    The front is peeled one member at a time. A dominator precedes its
    victim lexicographically, so the lexicographically first remaining
    point is on the front; it is kept with its exact duplicates, and every
    remaining point that is >= it in every objective is dropped. That costs
    O(n * |front| * p) for n points of p objectives, and O(n^2 * p) when
    every point is on the front.
    """
    n = len(points)
    if n == 0:
        return []
    P = np.asarray(points, dtype=float)
    if P.ndim != 2:
        raise ValueError("points must share a common objective count")
    if np.isnan(P).any():
        raise ValueError("objective vectors must not contain NaN")
    rest = np.lexsort(P.T[::-1])
    # one contiguous array per objective: a reduction across the short row
    # axis of an n x p array costs several times more than p column passes
    columns = list(P[rest].T.copy())
    front: list[int] = []
    while rest.size:
        covered = columns[0] >= columns[0][0]
        same = columns[0] == columns[0][0]
        for c in columns[1:]:
            covered &= c >= c[0]
            same &= c == c[0]
        front.extend(rest[same].tolist())
        keep = ~covered
        rest = rest[keep]
        columns = [c[keep] for c in columns]
    return sorted(front)


def feasible_front(points: Sequence[ObjectiveVector], feasible: Sequence[bool]) -> list[int]:
    """Indices of the non-dominated points among the feasible ones, ascending."""
    keep = [i for i, ok in enumerate(feasible) if ok]
    return [keep[j] for j in pareto_front([points[i] for i in keep])]


def constrained_front(records: Sequence[EvaluationRecord]) -> list[EvaluationRecord]:
    """Non-dominated subset of the feasible records.

    Infeasible records never enter the front but stay in a run's records:
    they still teach the feasibility classifier where the boundary runs.
    """
    idx = feasible_front([r.objectives for r in records], [r.feasible for r in records])
    return [records[i] for i in idx]


def hypervolume(front: Sequence[ObjectiveVector], ref: ObjectiveVector) -> float:
    """Exact volume a front of any number of objectives dominates inside the
    box bounded by ``ref`` (points beyond it are clipped out), by slicing
    objectives (While, Hingston, Barone & Huband, IEEE TEVC 2006): sweep the
    non-dominated points in ascending order; each slab, up to the next
    point's first objective or ``ref[0]``, adds its width times what the
    points so far dominate in the other objectives."""
    R, P = np.asarray(ref, dtype=float), np.asarray(front, dtype=float)
    if len(P) == 0:
        return 0.0
    if P.shape[1:] != R.shape:
        raise ValueError(f"hypervolume: points of shape {P.shape[1:]}, ref of shape {R.shape}")
    P = P[(P <= R).all(axis=1)]
    P = P[np.lexsort(P.T[::-1])]
    nd = P[pareto_front(P)]  # a duplicate point only adds a slab of width 0
    if len(nd) == 0:
        return 0.0
    width = np.append(nd[1:, 0], R[0]) - nd[:, 0]
    if R.size > 2:
        dominated = np.array([hypervolume(nd[:j + 1, 1:], R[1:]) for j in range(len(nd))])
    else:  # ref[1] - y of the slab's point at two objectives, 1 at one
        dominated = R[1] - nd[:, 1] if R.size == 2 else 1.0
    return float(np.cumsum(width * dominated)[-1])  # sweep order: np.sum's pairing moves bits


def objective_stddevs(objectives: Sequence[ObjectiveVector]) -> np.ndarray:
    """Per-objective population standard deviations, the HVI normalization."""
    arr = np.asarray(objectives, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot normalize over an empty record set")
    return arr.std(axis=0)


# the reference point's margin past the reference front's nadir, as a
# fraction of the front's range in each objective
REF_MARGIN = 0.1


def hvi(approx_front: Sequence[ObjectiveVector],
        reference_front: Sequence[ObjectiveVector],
        stddevs: Sequence[float]) -> float:
    """Hypervolume indicator of an approximated front against a reference.

    Both fronts are scaled by 1/stddev per objective (zero deviations are
    left unscaled, with a warning). The reference point comes from the scaled
    reference front alone: its nadir plus :data:`REF_MARGIN` of its range in
    each objective, or plus :data:`REF_MARGIN` itself (a tenth of a standard
    deviation) where that range is zero. So the point does not move as an
    approximation grows, and a front that misses an extreme point of the
    reference loses at least the margin's slab beyond it (Ishibuchi, Imada,
    Setoguchi & Nojima, Evolutionary Computation 26(3), 2018). The result is
    HV(reference) - HV(approximation), floored at zero; approximation points
    beyond the reference point are clipped out.
    """
    A, R = np.asarray(approx_front, dtype=float), np.asarray(reference_front, dtype=float)
    scale = np.array(stddevs, dtype=float)
    if not (len(A) and len(R) and scale.ndim == 1 and A.shape[1:] == R.shape[1:] == scale.shape):
        raise ValueError(f"hvi requires two non-empty fronts and one stddev per objective, got "
                         f"shapes {A.shape}, {R.shape} and {scale.shape}")
    zero = scale <= 0.0
    if zero.any():
        log.warning("zero standard deviation in objective(s) %s; left unscaled",
                    np.nonzero(zero)[0].tolist())
        scale[zero] = 1.0
    A, R = A / scale, R / scale
    span = R.max(axis=0) - R.min(axis=0)
    ref_point = R.max(axis=0) + REF_MARGIN * np.where(span > 0.0, span, 1.0)
    return max(0.0, hypervolume(R, ref_point) - hypervolume(A, ref_point))


def feasible_hvi(points: Sequence[ObjectiveVector], feasible: Sequence[bool],
                 reference_front: Sequence[ObjectiveVector],
                 stddevs: Sequence[float]) -> float:
    """HVI of the feasible front of ``points`` against a reference front;
    ``inf`` when no point is feasible (nothing approximates the reference)."""
    front = [points[i] for i in feasible_front(points, feasible)]
    return hvi(front, reference_front, stddevs) if front else math.inf


def hvi_trace(records: Sequence[EvaluationRecord], reference_front: Sequence[ObjectiveVector],
              stddevs: Sequence[float]) -> list[tuple[int, float]]:
    """(tag, :func:`feasible_hvi` of the records tagged up to it) for each
    iteration tag of ``records``, ascending."""
    trace = []
    for tag in sorted({r.iteration_tag for r in records}):
        upto = [r for r in records if r.iteration_tag <= tag]
        trace.append((tag, feasible_hvi([r.objectives for r in upto], [r.feasible for r in upto],
                                        reference_front, stddevs)))
    return trace
