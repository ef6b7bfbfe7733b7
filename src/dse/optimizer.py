"""The search loop: warm-up, surrogate fitting, front prediction, batches.

Each iteration predicts a front over a fresh candidate pool, one that holds
no already-evaluated configuration, so successive iterations peel fresh
non-dominated layers instead of re-proposing known points. Candidates
predicted infeasible are filtered out before the front is computed. Batches
are capped at M points; a short prediction is topped up with prior-drawn
exploration samples.

The warm-up, the candidate pool and the batch fill all draw their distinct
configurations through :func:`~dse.space.distinct_rows`, which keys each
drawn row once and drops repeats and evaluated configurations by row key.
The pool stays one column-major feature matrix from the draw to the front:
the filter keeps its survivors by column, both forests read it by feature
without a copy, and only the front rows are decoded to configuration tuples
(:func:`~dse.space.decode_matrix`).

The archive of evaluated configurations is encoded once, when its batch
returns: :func:`run` grows one matrix with the records, which
:func:`fit_surrogates` fits on and :func:`candidate_pool` and
:func:`select_batch` draw around.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .evaluators import EvaluationError, evaluate_batch
from .forest import Forest, fit_classifier, fit_regressor
from .pareto import EvaluationRecord, feasible_hvi, objective_stddevs, pareto_front
from .priors import prior_rows
from .rng import RngState
from .space import (
    REAL,
    DesignSpace,
    Scenario,
    decode_matrix,
    distinct_rows,
    encode_matrix,
    first_equal,
)

# fixed substream tags so artifact bytes do not depend on code path details
_STREAM_WARMUP = 1
_STREAM_FIT = 2
_STREAM_POOL = 3
_STREAM_BATCH = 4


@dataclass
class RunResult:
    """Every evaluation record in order, the regressor of the run's last
    refit (the forest whose feature importances the CLI writes), the HVI
    trace and the run's metadata."""

    records: list[EvaluationRecord]
    regressor: Forest
    hvi_trace: list[tuple[int, float]]
    meta: dict


def _uniform_rows(space: DesignSpace, k: int, gen) -> np.ndarray:
    """k encoded rows drawn uniformly, one generator call per parameter,
    column-major: one contiguous column per parameter."""
    X = np.empty((k, len(space.parameters)), order="F")
    for j, p in enumerate(space.parameters):
        if p.kind == REAL:
            X[:, j] = p.lower + gen.random(k) * (p.upper - p.lower)
        else:
            X[:, j] = p.code_levels(gen.integers(0, p.domain_size(), size=k))
    return X


def candidate_pool(space: DesignSpace, s: int, X: np.ndarray, rng: RngState) -> np.ndarray:
    """The encoded candidate set a prediction pass ranks: s distinct uniform
    samples, none equal to a row of the encoded archive ``X``, or the
    enumeration without the archive when that leaves at most s points. Priors
    play no role here; their influence ends with warm-up and batch fill.

    The pool is one column-major buffer: drawn in one block that loses no
    row, it is that block itself. Each archive and drawn row is keyed once
    (:func:`~dse.space.distinct_rows`)."""
    if s < 1:
        raise ValueError("pool size must be >= 1")
    return distinct_rows(space, s, lambda k: _uniform_rows(space, k, rng.generator), rng,
                         taken=X)


def fit_surrogates(X: np.ndarray, records: list[EvaluationRecord], scenario: Scenario,
                   rng: RngState, *, classify: bool) -> tuple[Forest, Forest | None]:
    """Refit the models on the encoded archive ``X`` (one row per record):
    one regressor fit whose output j is objective j's forest (seeded
    ``rng.substream(j)``), and, when ``classify`` is set and the scenario
    filters, the feasibility classifier; otherwise the classifier is None
    and every candidate passes the filter. A run clears ``classify`` on a
    refit that no prediction follows."""
    unordered = scenario.space.unordered_mask
    p = len(scenario.objectives)

    regressor = fit_regressor(X, [r.objectives for r in records], scenario.regressor_hp, rng,
                              unordered)
    classifier = None
    if classify and scenario.feasibility is not None and scenario.use_feasibility_filter:
        classifier = fit_classifier(X, [r.feasible for r in records], scenario.classifier_hp,
                                    rng.substream(p), unordered)
    return regressor, classifier


def predict_pareto(space: DesignSpace, pool: np.ndarray, regressor: Forest,
                   classifier: Forest | None, threshold: float) -> list[tuple]:
    """The configurations whose predicted objectives form the front of an
    encoded pool (:func:`candidate_pool` keeps evaluated ones out of it).

    Rows the classifier (if any) predicts feasible with probability below
    ``threshold`` are dropped; the front is computed over what remains, and
    only its rows are decoded. The survivors are kept by column, so a
    column-major pool stays column-major and neither forest copies it to
    read it by feature; the pool's rows are never keyed here.
    """
    if classifier is not None:
        pool = pool.T.compress(classifier.predict_batch(pool) >= threshold, axis=1).T
    return decode_matrix(space, pool[pareto_front(regressor.predict_batch(pool))])


def select_batch(predicted: list[tuple], m: int, space: DesignSpace, X: np.ndarray,
                 rng: RngState) -> list[tuple]:
    """Pick at most m configurations to evaluate next.

    Predictions equal to a row of the encoded archive ``X`` or to an
    earlier prediction are dropped.
    More predictions left than the budget: a uniform random m-subset. Fewer:
    all of them plus fresh prior-drawn samples, distinct from each other and
    from the predictions and the archive (the exploration half of the
    epsilon-greedy trade-off). On a finite space that is almost exhausted
    the batch may come back short or empty; empty means the search is done.
    A predicted configuration outside the domain raises a DomainError.
    """
    if m < 1:
        raise ValueError("batch budget must be >= 1")
    P = encode_matrix(space, predicted)
    new = first_equal(space, np.concatenate([X, P]))[len(X):] == np.arange(len(X), len(X) + len(P))
    fresh = [c for c, keep in zip(predicted, new.tolist()) if keep]
    if len(fresh) > m:
        gen = rng.generator
        chosen = sorted(gen.choice(len(fresh), size=m, replace=False).tolist())
        return [fresh[i] for i in chosen]
    fill = distinct_rows(space, m - len(fresh), lambda k: prior_rows(space, k, rng), rng,
                         taken=np.concatenate([X, P[new]]), limit=100 * m)
    return fresh + decode_matrix(space, fill)


def run(scenario: Scenario, reference_front=None) -> RunResult:
    """Execute the full search for a scenario.

    Warm-up with doe_samples prior-drawn distinct configurations and
    evaluate them. Then loop: refit the surrogates on every record, stop
    after optimization_iterations batches, predict the front over a fresh
    pool that holds nothing evaluated, and evaluate a batch of at most
    evaluations_per_iteration of it. The loop stops early when the
    prediction or the batch comes back empty. The archive is encoded once,
    when its batch returns: one matrix grows with the records, and the
    refit, the pool and the batch selection all read it. Only a refit
    that a prediction follows fits the classifier; the last refit's
    regressor is returned (its importances are reported).

    ``reference_front`` (optional list of objective vectors) enables the
    per-iteration HVI trace; it requires a bi-objective scenario.
    """
    # imported at call time: perfbench's tracer wraps dse.priors.warmup_sample,
    # and a module-level import would bind the unwrapped function
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
        X = encode_matrix(space, [r.config for r in records])
        fit_rng = root.substream(_STREAM_FIT)
        while True:
            predicting = i < scenario.optimization_iterations
            regressor, classifier = fit_surrogates(X, records, scenario, fit_rng.substream(i),
                                                   classify=predicting)
            if not predicting:
                break
            # no name here holds the pool, so the filter's survivors replace it
            predicted = predict_pareto(
                space, candidate_pool(space, scenario.pareto_prediction_samples, X,
                                      root.substream(_STREAM_POOL).substream(i)),
                regressor, classifier, scenario.feasibility_threshold)
            if not predicted:
                break
            batch = select_batch(predicted, scenario.evaluations_per_iteration, space, X,
                                 root.substream(_STREAM_BATCH).substream(i))
            if not batch:
                break
            evaluated = evaluate_batch(spec, space, batch, iteration_tag=i)
            records += evaluated
            X = np.concatenate([X, encode_matrix(space, [r.config for r in evaluated])])
            i += 1
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
    return RunResult(records=records, regressor=regressor, hvi_trace=hvi_trace, meta=meta)
