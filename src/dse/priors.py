"""Beta-distribution priors and the warm-up sampling phase.

Numeric parameters draw a Beta(alpha, beta) variate on [0, 1], rescale it
onto the parameter's range and snap to the closest allowed value. Categorical
parameters draw a level from an explicit probability table. Priors shape only
the warm-up phase and the random fill of undersized batches; the surrogates
and the front prediction never see them.
"""

from __future__ import annotations

import math
from typing import AbstractSet, Any

from .rng import RngState
from .space import (
    CATEGORICAL,
    INTEGER,
    REAL,
    ENUMERATION_CAP,
    Configuration,
    DesignSpace,
    Parameter,
    enumerate_space,
)


def beta_pdf(x: float, alpha: float, beta: float) -> float:
    """Density of Beta(alpha, beta) at x in [0, 1].

    Where a negative exponent makes the density blow up at an endpoint
    (alpha < 1 at x=0, beta < 1 at x=1) the positive-infinity marker is
    returned. The normalizing constant goes through log-gamma, good to
    well over ten significant digits.
    """
    if not (alpha > 0 and beta > 0):
        raise ValueError("beta_pdf requires alpha > 0 and beta > 0")
    if not (0.0 <= x <= 1.0):
        raise ValueError("beta_pdf is defined on [0, 1]")
    log_norm = math.lgamma(alpha + beta) - math.lgamma(alpha) - math.lgamma(beta)
    if x == 0.0:
        if alpha < 1.0:
            return math.inf
        if alpha > 1.0:
            return 0.0
        return math.exp(log_norm + (beta - 1.0) * math.log1p(-x))
    if x == 1.0:
        if beta < 1.0:
            return math.inf
        if beta > 1.0:
            return 0.0
        return math.exp(log_norm + (alpha - 1.0) * math.log(x))
    return math.exp(log_norm + (alpha - 1.0) * math.log(x) + (beta - 1.0) * math.log1p(-x))


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


def _snap_ordinal(target: float, values: tuple) -> Any:
    # nearest allowed value; exact ties resolve to the lower one
    best = values[0]
    best_dist = abs(target - float(best))
    for v in values[1:]:
        dist = abs(target - float(v))
        if dist < best_dist:
            best, best_dist = v, dist
    return best


def _pick_level(levels: tuple, probs, gen) -> Any:
    u = gen.random()
    acc = 0.0
    for level, p in zip(levels, probs):
        acc += p
        if u < acc:
            return level
    return levels[-1]


def sample_parameter(param: Parameter, rng: RngState) -> Any:
    """Draw one value from the parameter's prior, inside its domain."""
    if param.kind == CATEGORICAL:
        if param.prior.shape == "categorical":
            return _pick_level(param.values, param.prior.probs, rng.generator)
        k = len(param.values)
        return _pick_level(param.values, [1.0 / k] * k, rng.generator)
    u = sample_beta(param.prior.alpha, param.prior.beta, rng)
    if param.kind == REAL:
        return param.lower + u * (param.upper - param.lower)
    if param.kind == INTEGER:
        return int(round(param.lower + u * (param.upper - param.lower)))
    lo, hi = float(param.values[0]), float(param.values[-1])
    return _snap_ordinal(lo + u * (hi - lo), param.values)


def sample_uniform(param: Parameter, rng: RngState) -> Any:
    """Prior-free draw, uniform over the parameter's domain."""
    gen = rng.generator
    if param.kind == REAL:
        return param.lower + gen.random() * (param.upper - param.lower)
    if param.kind == INTEGER:
        return int(gen.integers(param.lower, param.upper + 1))
    return param.values[int(gen.integers(0, len(param.values)))]


def sample_configuration(space: DesignSpace, rng: RngState, uniform: bool = False) -> Configuration:
    draw = sample_uniform if uniform else sample_parameter
    return Configuration(tuple(draw(p, rng) for p in space.parameters))


def sample_distinct(space: DesignSpace, n: int, rng: RngState, uniform: bool = False,
                    taken: AbstractSet[Configuration] = frozenset(),
                    limit: int | None = None) -> list[Configuration]:
    """Up to n distinct configurations, none of them in ``taken``.

    With nothing taken, a finite space that n covers comes back whole, in
    enumeration order. Otherwise draws (prior or uniform) that repeat are
    rejected; after ``limit`` attempts (default 100*n) a finite space is
    topped up with a random order of its unused configurations, so the
    result is short only when the space runs out (spaces with real
    parameters do not collide in practice).
    """
    card = space.cardinality()
    finite = card is not None and card <= ENUMERATION_CAP
    if finite and not taken and n >= card:
        return list(enumerate_space(space))
    seen = set(taken)
    out: list[Configuration] = []
    attempts = 0
    limit = 100 * n if limit is None else limit
    while len(out) < n and attempts < limit:
        attempts += 1
        cfg = sample_configuration(space, rng, uniform)
        if cfg not in seen:
            seen.add(cfg)
            out.append(cfg)
    if len(out) < n and finite:
        remaining = [c for c in enumerate_space(space) if c not in seen]
        order = rng.generator.permutation(len(remaining))
        out.extend(remaining[int(i)] for i in order[: n - len(out)])
    return out


def warmup_sample(space: DesignSpace, n: int, rng: RngState) -> list[Configuration]:
    """The design-of-experiments phase: min(n, cardinality) distinct
    configurations drawn from the per-parameter priors."""
    if n < 1:
        raise ValueError("warm-up size must be >= 1")
    return sample_distinct(space, n, rng)
