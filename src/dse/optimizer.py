"""The search loop: warm-up, surrogate fitting, front prediction, batches.

Each iteration predicts a front over a candidate pool with every
already-evaluated configuration excluded, so successive iterations peel
fresh non-dominated layers instead of re-proposing known points. Candidates
predicted infeasible are filtered out before the front is computed. Batches
are capped at M points; a short prediction is topped up with prior-drawn
exploration samples.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .evaluators import EvaluationError, evaluate_batch
from .forest import Forest, fit_classifier, fit_regressor
from .pareto import EvaluationRecord, feasible_hvi, objective_stddevs, pareto_front
from .priors import sample_distinct
from .rng import RngState
from .space import DesignSpace, Scenario, encode_matrix

# fixed substream tags so artifact bytes do not depend on code path details
_STREAM_WARMUP = 1
_STREAM_FIT = 2
_STREAM_POOL = 3
_STREAM_BATCH = 4


@dataclass(frozen=True, eq=False)
class SurrogateBundle:
    """One regression forest per objective plus the optional feasibility
    classifier; absent classifier means every candidate passes the filter."""

    space: DesignSpace
    regressors: tuple[Forest, ...]
    classifier: Forest | None
    threshold: float = 0.5


@dataclass
class RunResult:
    records: list[EvaluationRecord]
    bundle: SurrogateBundle
    hvi_trace: list[tuple[int, float]]
    meta: dict


def candidate_pool(space: DesignSpace, s: int, rng: RngState) -> list[tuple]:
    """The candidate set a prediction pass ranks: the full enumeration when
    the space fits in s points, else s distinct uniform samples (priors play
    no role here; their influence ends with warm-up and batch fill)."""
    if s < 1:
        raise ValueError("pool size must be >= 1")
    return sample_distinct(space, s, rng, uniform=True)


def fit_surrogates(space: DesignSpace, records: list[EvaluationRecord],
                   scenario: Scenario, rng: RngState) -> SurrogateBundle:
    """Refit every model on the full accumulated record set."""
    X = encode_matrix(space, [r.config for r in records])
    unordered = space.unordered_mask
    p = len(scenario.objectives)

    regressors = tuple(
        fit_regressor(X, [r.objectives[j] for r in records], scenario.regressor_hp,
                      rng.substream(j), unordered)
        for j in range(p))
    classifier = None
    if scenario.feasibility is not None and scenario.use_feasibility_filter:
        classifier = fit_classifier(X, [r.feasible for r in records], scenario.classifier_hp,
                                    rng.substream(p), unordered)
    return SurrogateBundle(
        space=space,
        regressors=regressors,
        classifier=classifier,
        threshold=scenario.feasibility_threshold,
    )


def predict_pareto(bundle: SurrogateBundle, pool: list[tuple],
                   exclude: set[tuple]) -> list[tuple]:
    """The candidates whose predicted objectives form the front of the pool.

    Already-evaluated configurations are dropped first, then candidates the
    classifier predicts infeasible; the front is computed over what remains.
    """
    candidates = [c for c in pool if c not in exclude]
    if not candidates:
        return []
    X = encode_matrix(bundle.space, candidates)
    if bundle.classifier is not None:
        keep = bundle.classifier.predict_batch(X) >= bundle.threshold
        candidates = [c for c, k in zip(candidates, keep) if k]
        if not candidates:
            return []
        X = X[keep]
    preds = np.column_stack([reg.predict_batch(X) for reg in bundle.regressors])
    idx = pareto_front(preds)
    return [candidates[i] for i in idx]


def select_batch(predicted: list[tuple], m: int, space: DesignSpace,
                 evaluated: set[tuple], rng: RngState) -> list[tuple]:
    """Pick at most m configurations to evaluate next.

    More predictions than the budget: a uniform random m-subset. Fewer: all
    of them plus fresh prior-drawn samples, distinct from each other and from
    the ``evaluated`` configurations (the exploration half of the
    epsilon-greedy trade-off). On a finite space that is almost exhausted the
    batch may come back short or empty; empty means the search is done.
    """
    if m < 1:
        raise ValueError("batch budget must be >= 1")
    fresh = [c for c in predicted if c not in evaluated]
    if len(fresh) > m:
        gen = rng.generator
        chosen = sorted(gen.choice(len(fresh), size=m, replace=False).tolist())
        return [fresh[i] for i in chosen]
    if len(fresh) == m:
        return fresh
    return fresh + sample_distinct(space, m - len(fresh), rng,
                                   taken=set(fresh) | evaluated, limit=100 * m)


def mono_objective_best(records: list[EvaluationRecord]) -> EvaluationRecord | None:
    """Feasible record with the minimal (single) objective; ties go to the
    earliest evaluation. None when nothing feasible was found."""
    best = None
    for r in records:
        if len(r.objectives) != 1:
            raise ValueError("mono_objective_best requires single-objective records")
        if r.feasible and (best is None or r.objectives[0] < best.objectives[0]):
            best = r
    return best


def run(scenario: Scenario, reference_front=None) -> RunResult:
    """Execute the full search for a scenario.

    Warm-up with doe_samples prior-drawn distinct configurations, evaluate,
    fit surrogates, then loop at most optimization_iterations times: predict
    the front over a fresh pool excluding everything evaluated, evaluate a
    batch of at most evaluations_per_iteration of it, refit on all records.
    The loop stops early when the prediction or the batch comes back empty.
    The last refit is the returned bundle (its importances are reported).

    ``reference_front`` (optional list of objective vectors) enables the
    per-iteration HVI trace; it requires a bi-objective scenario.
    """
    from .priors import warmup_sample

    if reference_front is not None and len(scenario.objectives) != 2:
        raise ValueError(f"the HVI trace needs exactly two objectives, "
                         f"the scenario has {len(scenario.objectives)}")
    t0 = time.perf_counter()
    space = scenario.space
    root = RngState(scenario.seed)
    spec = scenario.evaluator

    warm = warmup_sample(space, scenario.doe_samples, root.substream(_STREAM_WARMUP))
    records: list[EvaluationRecord] = []
    i = 0
    try:
        records += evaluate_batch(spec, space, warm, iteration_tag=-1)
        fit_rng = root.substream(_STREAM_FIT)
        bundle = fit_surrogates(space, records, scenario, fit_rng.substream(0))
        while i < scenario.optimization_iterations:
            evaluated = {r.config for r in records}
            pool = candidate_pool(space, scenario.pareto_prediction_samples,
                                  root.substream(_STREAM_POOL).substream(i))
            predicted = predict_pareto(bundle, pool, evaluated)
            if not predicted:
                break
            batch = select_batch(predicted, scenario.evaluations_per_iteration, space,
                                 evaluated, root.substream(_STREAM_BATCH).substream(i))
            if not batch:
                break
            records += evaluate_batch(spec, space, batch, iteration_tag=i)
            i += 1
            bundle = fit_surrogates(space, records, scenario, fit_rng.substream(i))
    except EvaluationError as e:
        e.partial_records = records
        raise

    meta: dict = {
        "iterations_run": i,
        "evaluations": len(records),
        "duration_seconds": time.perf_counter() - t0,
    }
    hvi_trace: list[tuple[int, float]] = []
    if reference_front is not None:
        ref = [tuple(map(float, p)) for p in reference_front]
        sigma = objective_stddevs([r.objectives for r in records] + ref)
        meta["hvi_stddevs"] = dict(zip(scenario.objectives, sigma.tolist()))
        for tag in sorted({r.iteration_tag for r in records}):
            upto = [r for r in records if r.iteration_tag <= tag]
            hvi_trace.append((tag, feasible_hvi([r.objectives for r in upto],
                                                [r.feasible for r in upto], ref, sigma)))
    return RunResult(records=records, bundle=bundle, hvi_trace=hvi_trace, meta=meta)
