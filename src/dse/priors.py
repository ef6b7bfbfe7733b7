"""Beta-distribution priors and the warm-up sampling phase.

Numeric parameters draw a Beta(alpha, beta) variate on [0, 1], rescale it
onto the parameter's range and snap to the closest allowed value. Categorical
parameters draw a level from their prior's probability table, or uniformly
when ``probs`` is None. Priors shape only the warm-up phase and the random
fill of undersized batches; the surrogates and the front prediction never
see them.

Both prior-guided draws go through :func:`~dse.space.distinct_rows`, the one
sampler of distinct configurations, with the one draw budget that the uniform
candidate pool has too: :func:`prior_rows` supplies its blocks of encoded
rows. It draws the unit variates one value at a time in row-major order and
maps each column onto its domain with numpy, so no value passes through a
configuration tuple.
"""

from __future__ import annotations

import math

import numpy as np

from .rng import RngState
from .space import (
    CATEGORICAL,
    INTEGER,
    REAL,
    DesignSpace,
    decode_matrix,
    distinct_rows,
)


def _gamma_variate(shape: float, gen) -> float:
    # Marsaglia-Tsang squeeze method; valid for every shape > 0.
    if shape < 1.0:
        u = gen.random()
        return _gamma_variate(shape + 1.0, gen) * u ** (1.0 / shape)
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = gen.standard_normal()
        v = 1.0 + c * x
        if v <= 0.0:
            continue
        v = v * v * v
        u = gen.random()
        if u < 1.0 - 0.0331 * x * x * x * x:
            return d * v
        if u > 0.0 and math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
            return d * v


def sample_beta(alpha: float, beta: float, rng: RngState) -> float:
    """One Beta(alpha, beta) variate via the ratio of two Gamma variates."""
    if not (alpha > 0 and beta > 0):
        raise ValueError("sample_beta requires alpha > 0 and beta > 0")
    gen = rng.generator
    while True:
        x = _gamma_variate(alpha, gen)
        y = _gamma_variate(beta, gen)
        if x + y > 0.0:
            return x / (x + y)


def prior_rows(space: DesignSpace, k: int, rng: RngState) -> np.ndarray:
    """k encoded rows drawn from the priors.

    The draws are scalars in row-major order, one :func:`sample_beta` per
    numeric value and one ``random()`` per categorical value, so a block of
    k rows is the next k configurations of a one-at-a-time draw. Each column
    is then mapped onto its domain: reals rescale (capped at the upper bound,
    which rounding can pass), integers rescale and round (halves to even),
    ordinals snap to the nearest value (exact ties to the lower one), and a
    categorical takes the first level whose cumulative probability exceeds
    its draw (the last level if none does).
    """
    gen, params = rng.generator, space.parameters
    U = np.array([[gen.random() if p.kind == CATEGORICAL
                   else sample_beta(p.prior.alpha, p.prior.beta, rng) for p in params]
                  for _ in range(k)], dtype=float).reshape(k, len(params))
    X = np.empty_like(U)
    for j, (p, u) in enumerate(zip(params, U.T)):
        if p.kind == REAL:  # the rounded rescale can pass the upper bound
            X[:, j] = np.minimum(p.lower + u * (p.upper - p.lower), p.upper)
        elif p.kind == INTEGER:  # + 0.0 turns -0.0 into 0.0, as the int 0 encodes
            X[:, j] = np.round(p.lower + u * (p.upper - p.lower)) + 0.0
        elif p.kind == CATEGORICAL:
            n = len(p.values)
            probs = [1.0 / n] * n if p.prior.probs is None else p.prior.probs
            X[:, j] = np.minimum(np.searchsorted(np.cumsum(probs), u, side="right"), n - 1)
        else:
            values = np.array(p.values, dtype=float)
            target = values[0] + u * (values[-1] - values[0])
            i = np.searchsorted(values[1:-1], target)  # the nearest is values[i] or values[i + 1]
            below, above = values[i], values.take(i + 1, mode="clip")
            X[:, j] = np.where(abs(target - below) <= abs(target - above), below, above)
    return X


def warmup_sample(space: DesignSpace, n: int, rng: RngState) -> list[tuple]:
    """The design-of-experiments phase: min(n, cardinality) distinct
    configurations drawn from the per-parameter priors (a finite space that
    n covers comes back whole, in enumeration order)."""
    if n < 1:
        raise ValueError("warm-up size must be >= 1")
    rows = distinct_rows(space, n, lambda k: prior_rows(space, k, rng), rng)
    return decode_matrix(space, rows)
