"""Independent oracles the tests check the library against.

These deliberately take different routes than the implementation: the front
oracle is a full O(n^2) pairwise dominance matrix, the Beta CDF comes
from numerically integrating the density (piecewise Gauss-Legendre, with a
change of variable taming the endpoint singularities) instead of any closed
form, tree splits are scored one candidate at a time with plain loops
over two-pass variance and class-weighted Gini, not from cumulative sums,
the uniform candidate pool is drawn as value tuples deduplicated through
a set, not as an encoded matrix with row keys, a prior draw snaps and picks
one value at a time with plain loops, not column by column with
``searchsorted``, and a forest predicts by walking its linked TreeNode view,
not its node arrays, and the hypervolume is the inclusion-exclusion sum over
every subset of the points, not a sweep.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from dse.forest import Forest
from dse.priors import beta_pdf, sample_beta
from dse.space import CATEGORICAL, ENUMERATION_CAP, INTEGER, REAL, enumerate_space


def pairwise_front(points) -> set[int]:
    """Indices of non-dominated points via the full pairwise matrix."""
    P = np.asarray(points, dtype=float)
    n = len(P)
    if n == 0:
        return set()
    le = np.ones((n, n), dtype=bool)   # [i, j]: point i <= point j everywhere
    lt = np.zeros((n, n), dtype=bool)  # [i, j]: point i <  point j somewhere
    for j in range(P.shape[1]):
        col = P[:, j]
        le &= col[:, None] <= col[None, :]
        lt |= col[:, None] < col[None, :]
    dominated = (le & lt).any(axis=0)
    return {int(i) for i in np.nonzero(~dominated)[0]}


def inclusion_exclusion_hypervolume(points, ref) -> float:
    """Volume dominated by ``points`` inside the box bounded by ``ref``: the
    alternating sum, over every non-empty subset, of the box between the
    subset's component-wise max and ``ref`` (empty where the max passes it)."""
    total = 0.0
    for k in range(1, len(points) + 1):
        for subset in itertools.combinations(points, k):
            corner = [max(column) for column in zip(*subset)]
            total += (-1) ** (k + 1) * math.prod(max(0.0, r - c) for r, c in zip(ref, corner))
    return total


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
_GL_NODES_FINE, _GL_WEIGHTS_FINE = np.polynomial.legendre.leggauss(200)


def _eval_density(ts: np.ndarray, a: float, b: float) -> np.ndarray:
    return np.array([beta_pdf(float(t), a, b) for t in ts])


def _first_piece(x: float, a: float, b: float) -> float:
    """Integral of the density over [0, x]; substitutes t = s**(1/a) when the
    density is singular at zero so the integrand stays bounded."""
    if x <= 0.0:
        return 0.0
    if a >= 1.0:
        mid, half = 0.5 * x, 0.5 * x
        ts = mid + half * _GL_NODES_FINE
        return float(half * np.dot(_GL_WEIGHTS_FINE, _eval_density(ts, a, b)))
    inv = 1.0 / a
    upper = x ** a
    mid, half = 0.5 * upper, 0.5 * upper
    ss = mid + half * _GL_NODES_FINE
    ts = ss ** inv
    jac = inv * ss ** (inv - 1.0)
    return float(half * np.dot(_GL_WEIGHTS_FINE, _eval_density(ts, a, b) * jac))


def _lower_cdf(xs_sorted: np.ndarray, a: float, b: float) -> np.ndarray:
    """CDF of Beta(a, b) at ascending points in [0, 0.5]: the first segment
    handles the possible singularity at 0, the rest is piecewise quadrature
    between consecutive points, accumulated."""
    if len(xs_sorted) == 0:
        return np.array([])
    pieces = np.empty(len(xs_sorted))
    pieces[0] = _first_piece(float(xs_sorted[0]), a, b)
    if len(xs_sorted) > 1:
        lo = xs_sorted[:-1]
        hi = xs_sorted[1:]
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        ts = mid[:, None] + half[:, None] * _GL_NODES[None, :]
        dens = _eval_density(ts.ravel(), a, b).reshape(ts.shape)
        pieces[1:] = half * (dens @ _GL_WEIGHTS)
    return np.cumsum(pieces)


def beta_cdf_numeric(xs, alpha: float, beta: float):
    """CDF of Beta(alpha, beta) by numeric integration of beta_pdf.

    Points above one half go through the mirror identity
    F(x) = 1 - F_swapped(1 - x), so singular endpoints are always integrated
    with the substitution branch.
    """
    arr = np.atleast_1d(np.asarray(xs, dtype=float))
    out = np.empty(len(arr))
    out[arr <= 0.0] = 0.0
    out[arr >= 1.0] = 1.0

    low = (arr > 0.0) & (arr <= 0.5)
    if low.any():
        vals, inverse = np.unique(arr[low], return_inverse=True)
        out[low] = _lower_cdf(vals, alpha, beta)[inverse]
    high = (arr > 0.5) & (arr < 1.0)
    if high.any():
        vals, inverse = np.unique(1.0 - arr[high], return_inverse=True)
        out[high] = (1.0 - _lower_cdf(vals, beta, alpha))[inverse]
    return out if np.ndim(xs) else float(out[0])


def weighted_variance(y, w) -> float:
    """Two-pass weighted variance of the targets."""
    total = sum(w)
    mean = sum(wi * yi for yi, wi in zip(y, w)) / total
    return sum(wi * (yi - mean) ** 2 for yi, wi in zip(y, w)) / total


def weighted_gini(labels, w) -> float:
    """Gini impurity of boolean labels under sample weights."""
    total = sum(w)
    p = sum(wi for yi, wi in zip(labels, w) if yi) / total
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


def split_decrease(y, w, left, impurity) -> float:
    """Parent impurity minus the weight-averaged impurity of the two children
    that the boolean ``left`` mask separates."""
    child = 0.0
    for side in (True, False):
        part = [i for i in range(len(y)) if left[i] == side]
        w_part = [w[i] for i in part]
        child += sum(w_part) * impurity([y[i] for i in part], w_part)
    return impurity(y, w) - child / sum(w)


def candidate_splits(X, unordered):
    """Left-branch masks of every candidate split of a node: midpoints between
    consecutive distinct values for ordered features, one level versus the
    rest for unordered ones."""
    for f in range(len(X[0])):
        column = [row[f] for row in X]
        levels = sorted(set(column))
        if unordered[f]:
            masks = [[v == level for v in column] for level in levels]
        else:
            masks = [[v <= 0.5 * (a + b) for v in column] for a, b in zip(levels, levels[1:])]
        for left in masks:
            if any(left) and not all(left):
                yield left


def prior_value(param, rng):
    """One value from a parameter's prior. A categorical draws one
    ``random()`` and walks its cumulative probabilities to the first that
    exceeds it (the last level if none does); a numeric parameter rescales
    one :func:`sample_beta` variate onto its range, then rounds it (integer)
    or scans the ordinal values for the nearest, the first on a tie."""
    if param.kind == CATEGORICAL:
        k = len(param.values)
        probs = param.prior.probs if param.prior.shape == "categorical" else [1.0 / k] * k
        u, acc = rng.generator.random(), 0.0
        for level, p in zip(param.values, probs):
            acc += p
            if u < acc:
                return level
        return param.values[-1]
    u = sample_beta(param.prior.alpha, param.prior.beta, rng)
    if param.kind == REAL:
        return param.lower + u * (param.upper - param.lower)
    if param.kind == INTEGER:
        return int(round(param.lower + u * (param.upper - param.lower)))
    lo, hi = float(param.values[0]), float(param.values[-1])
    target = lo + u * (hi - lo)
    best = param.values[0]
    for v in param.values[1:]:
        if abs(target - float(v)) < abs(target - float(best)):
            best = v
    return best


def prior_config(space, rng) -> tuple:
    """One configuration from the priors, its values drawn in parameter order."""
    return tuple(prior_value(p, rng) for p in space.parameters)


def tuple_pool(space, n: int, rng, taken=()) -> list[tuple]:
    """The uniform candidate pool as value tuples, none equal to a ``taken``
    configuration: the full enumeration without the taken ones when n covers
    what a finite space has left, else blocks of one numpy call per parameter
    column, first occurrences of untaken values kept through a set, redrawn
    until n are distinct or 100*n were drawn; a finite space is then topped
    up with a random order of its configurations neither taken nor kept."""
    card = space.cardinality()
    finite = card is not None and card <= ENUMERATION_CAP
    seen = set(taken)
    if finite and n >= card - len(seen):
        return [c for c in enumerate_space(space) if c not in seen]
    out: list[tuple] = []
    attempts = 0
    limit = 100 * n
    while len(out) < n and attempts < limit:
        k = min(n - len(out), limit - attempts)  # a block never overshoots n
        attempts += k
        gen = rng.generator
        columns = [(p.lower + gen.random(k) * (p.upper - p.lower) if p.kind == REAL
                    else gen.integers(p.lower, p.upper + 1, size=k) if p.kind == INTEGER
                    else np.array(p.values, dtype=object)[gen.integers(0, len(p.values), size=k)]
                    ).tolist() for p in space.parameters]
        for values in zip(*columns):
            if values not in seen:
                seen.add(values)
                out.append(values)
    if len(out) < n and finite:
        remaining = [c for c in enumerate_space(space) if c not in seen]
        order = rng.generator.permutation(len(remaining))
        out.extend(remaining[int(i)] for i in order[: n - len(out)])
    return out


def tree_walk(forest, X) -> np.ndarray:
    """(trees, rows) value of the leaf each row reaches in each tree, walking
    the ``forest.trees`` view: a stack of (node, rows) pairs per tree, each
    inner node splitting its rows in two."""
    XT = np.ascontiguousarray(np.asarray(X, dtype=float).T)
    out = np.empty((len(forest.trees), XT.shape[1]))
    for root, values in zip(forest.trees, out):
        stack = [(root, np.arange(XT.shape[1]))]
        while stack:
            node, rows = stack.pop()
            if node.is_leaf:
                values[rows] = node.value
                continue
            column = XT[node.feature].take(rows)
            mask = (column == node.threshold) if node.unordered else (column <= node.threshold)
            left = rows.compress(mask)
            right = rows.compress(~mask)
            if left.size:
                stack.append((node.left, left))
            if right.size:
                stack.append((node.right, right))
    return out


def forest_of_trees(kind, n_features, unordered, trees, raw_importance) -> Forest:
    """A Forest of linked TreeNodes, flattened into node arrays: the roots,
    then each inner node's right and left child in the order the inner
    nodes are numbered."""
    nodes, child = list(trees), []
    for node in nodes:  # the loop reaches the children it appends
        child.append(-1 if node.is_leaf else len(nodes))
        if not node.is_leaf:
            nodes += [node.right, node.left]
    return Forest(kind=kind, n_features=n_features, unordered=unordered, n_trees=len(trees),
                  feature=np.array([n.feature for n in nodes]),
                  threshold=np.array([n.threshold for n in nodes], dtype=float),
                  child=np.array(child), value=np.array([n.value for n in nodes], dtype=float),
                  raw_importance=raw_importance)
