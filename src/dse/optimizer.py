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

The archive of evaluated configurations is one :class:`~dse.space.RowSet`
that :func:`run` grows with each batch when it returns, encoding and keying
its records once: its rows, in record order, are the matrix
:func:`fit_surrogates` fits on, and its keys are what :func:`candidate_pool`
and :func:`select_batch` draw around. The warm-up is the first batch of the
same cycle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import priors
from .evaluators import EvaluationError, evaluate_batch
from .forest import Forest, fit_classifier, fit_regressor
from .pareto import EvaluationRecord, pareto_front
from .rng import RngState
from .scenario import Scenario
from .space import REAL, DesignSpace, RowSet, decode_matrix, distinct_rows, encode_matrix, row_keys

# fixed substream tags so artifact bytes do not depend on code path details
_STREAM_WARMUP = 1
_STREAM_FIT = 2
_STREAM_POOL = 3
_STREAM_BATCH = 4


@dataclass
class RunResult:
    """Every evaluation record in order, the regressor of the run's last
    refit (the forest whose feature importances the CLI writes) and the
    run's metadata."""

    records: list[EvaluationRecord]
    regressor: Forest
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


def candidate_pool(space: DesignSpace, s: int, evaluated: RowSet, rng: RngState) -> np.ndarray:
    """The encoded candidate set a prediction pass ranks: s distinct uniform
    samples, none in the set of ``evaluated`` rows, or the enumeration
    without them when that leaves at most s points. Priors play no role
    here; their influence ends with warm-up and batch fill.

    The pool is one column-major buffer: drawn in one block that loses no
    row, it is that block itself. Each drawn row is keyed once
    (:func:`~dse.space.distinct_rows`); the evaluated rows are keyed already."""
    if s < 1:
        raise ValueError("pool size must be >= 1")
    return distinct_rows(space, s, lambda k: _uniform_rows(space, k, rng.generator), rng,
                         taken=evaluated)


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
    if classify and scenario.filters_feasibility:
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


def select_batch(predicted: list[tuple], m: int, space: DesignSpace, evaluated: RowSet,
                 rng: RngState) -> list[tuple]:
    """Pick at most m configurations to evaluate next.

    The predictions are keyed once; those in the set of ``evaluated`` rows
    or equal to an earlier prediction are dropped.
    At least as many predictions left as the budget: a uniform random
    m-subset. Fewer: all of them plus fresh prior-drawn samples, distinct
    from each other and from the predictions and the evaluated rows (the
    exploration half of the epsilon-greedy trade-off). On a finite space
    that is almost exhausted the batch may come back short or empty; empty
    means the search is done.
    A predicted configuration outside the domain raises a DomainError.
    """
    if m < 1:
        raise ValueError("batch budget must be >= 1")
    P = encode_matrix(space, predicted)
    keys = row_keys(space, P)
    new = evaluated.new(P, keys)
    fresh = [c for c, keep in zip(predicted, new.tolist()) if keep]
    if len(fresh) >= m:
        gen = rng.generator
        chosen = sorted(gen.choice(len(fresh), size=m, replace=False).tolist())
        return [fresh[i] for i in chosen]
    fill = distinct_rows(space, m - len(fresh), lambda k: priors.prior_rows(space, k, rng), rng,
                         taken=evaluated.union(P[new], keys[new]), limit=100 * m)
    return fresh + decode_matrix(space, fill)


def run(scenario: Scenario) -> RunResult:
    """Execute the full search for a scenario.

    Every batch, the warm-up of doe_samples prior-drawn configurations first
    (tag -1), goes through one cycle: evaluate it, encode and key it once into
    the archive's row set, and refit on the set's rows; then stop after
    optimization_iterations batches or at an empty prediction or batch, or
    predict the front over a fresh pool without evaluated rows and select at
    most evaluations_per_iteration of it. Only a refit that a prediction
    follows fits the classifier; the last refit's regressor is returned.
    """
    t0 = time.perf_counter()
    space = scenario.space
    root = RngState(scenario.seed)
    fit_rng = root.substream(_STREAM_FIT)

    batch = priors.warmup_sample(space, scenario.doe_samples, root.substream(_STREAM_WARMUP))
    records: list[EvaluationRecord] = []
    evaluated = RowSet.of(space, np.empty((0, len(space.parameters))))
    i = -1
    try:
        while True:
            records += evaluate_batch(scenario, batch, iteration_tag=i)
            B = encode_matrix(space, batch)  # the new records' configurations, in order
            evaluated = evaluated.union(B, row_keys(space, B))
            i += 1
            predicting = i < scenario.optimization_iterations
            regressor, classifier = fit_surrogates(evaluated.rows, records, scenario,
                                                   fit_rng.substream(i), classify=predicting)
            if not predicting:
                break
            # no name here holds the pool, so the filter's survivors replace it
            predicted = predict_pareto(
                space, candidate_pool(space, scenario.pareto_prediction_samples, evaluated,
                                      root.substream(_STREAM_POOL).substream(i)),
                regressor, classifier, scenario.feasibility_threshold)
            if not predicted:
                break
            batch = select_batch(predicted, scenario.evaluations_per_iteration, space,
                                 evaluated, root.substream(_STREAM_BATCH).substream(i))
            if not batch:
                break
    except EvaluationError as e:
        e.partial_records = records
        raise

    return RunResult(records=records, regressor=regressor, meta={
        "iterations_run": i,
        "evaluations": len(records),
        "duration_seconds": time.perf_counter() - t0,
    })
