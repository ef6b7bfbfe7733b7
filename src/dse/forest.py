"""Randomized decision forests, built from scratch.

A regression forest with one output per objective acts as the surrogate; a
binary classification forest acts as the feasibility filter. Trees are grown
on bootstrap resamples with per-node feature subsampling. Ordered features
split on thresholds (midpoints between consecutive distinct values);
features flagged unordered (categorical level indices) split on level
equality, never on thresholds.
Both kinds grow by one criterion, the weight-averaged variance of the
targets in the two children: on the classifier's class-weighted 0/1 labels
that variance is half the weighted Gini impurity, so it picks the splits
Gini would (Breiman et al., Classification and Regression Trees, 1984).

The trees of one fit, of every output of a regressor fitted on an (n, p)
target matrix alike, grow together in passes over an array frontier of open
nodes, each pass one vectorized sweep: level by level, every open node of
every tree at once, when each node considers every feature (regressors
under "auto"); otherwise each tree's newest open node, so that each node's
feature draw comes from its tree's generator in depth-first order.
Level-wise growth follows LightGBM (Ke et al., NeurIPS 2017); the splits
are exact, and every sum covers one node's rows, so the trees do not depend
on the batch. A fitted forest is the node arrays the builder records; no
node objects are built. A small batch descends every tree one level per
pass, all (tree, row) pairs at once; a large one walks each tree node by
node. Both sum leaf values tree by tree, so the two agree bit for bit.

Determinism: tree t of a fit seeded with RngState(seed, stream) draws from
RngState(seed ^ t, stream), so each tree is a pure function of the training
data, the seed, the stream and t. Output j of a matrix fit is seeded
rng.substream(j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .rng import RngState


class FitError(ValueError):
    """Training data violates the fit preconditions."""


@dataclass(frozen=True)
class ForestHyperparams:
    """Knobs shared by regression and classification forests.

    ``max_features`` is either the literal "auto" (all features for
    regressors, ceil(sqrt(d)) for classifiers) or a fraction of the feature
    count in (0, 1]. ``class_weight`` is (feasible, infeasible) and only
    affects classifiers.
    """

    n_estimators: int = 10
    max_depth: int | None = None
    max_features: float | str = "auto"
    class_weight: tuple[float, float] = (0.75, 0.25)
    bootstrap: bool = True
    min_samples_split: int = 2

    def __post_init__(self):
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1 or None")
        if isinstance(self.max_features, str):
            if self.max_features != "auto":
                raise ValueError("max_features must be 'auto' or a fraction in (0, 1]")
        elif not (0.0 < float(self.max_features) <= 1.0):
            raise ValueError("max_features fraction must lie in (0, 1]")
        w_t, w_f = self.class_weight
        if not (w_t > 0 and w_f > 0):
            raise ValueError("class weights must be positive")
        if abs(w_t + w_f - 1.0) > 1e-9:
            raise ValueError("class weights must sum to 1")
        if self.min_samples_split < 1:
            raise ValueError("min_samples_split must be >= 1")

    def resolve_max_features(self, d: int, classifier: bool) -> int:
        if self.max_features == "auto":
            return int(math.ceil(math.sqrt(d))) if classifier else d
        return max(1, int(float(self.max_features) * d))


class TreeNode:
    """A node of the linked view of a fitted tree (``Forest.trees``); a leaf
    iff ``left`` is None."""

    __slots__ = ("feature", "threshold", "unordered", "left", "right", "value")

    def __init__(self, value):
        self.value, self.feature, self.threshold, self.unordered = value, -1, 0.0, False
        self.left = self.right = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _variance(w, wy, wyy):
    """Weighted variance of the targets from the sums of w, w*y and w*y*y."""
    mean = wy / w
    return wyy / w - mean ** 2


def _gain(total, left):
    """Weighted variance decrease of splitting nodes with sums ``total`` into
    a ``left`` part and the rest, which is taken as total minus left; both
    are 3 x cuts arrays, and both parts weigh more than zero."""
    right = total - left
    child = (left[0] * np.maximum(_variance(*left), 0.0)
             + right[0] * np.maximum(_variance(*right), 0.0))
    return _variance(*total) - child / total[0]


def _first_best(g, axis):
    """Index of the first candidate along ``axis`` within 1e-15 of the best
    gain: the one tie rule for cuts, levels and features."""
    return (g >= g.max(axis=axis, keepdims=True) - 1e-15).argmax(axis=axis)


# cells in one padded chunk of lanes: bounds the memory of a pass
_CELLS = 1 << 12


def _chunks(widths):
    """Index arrays (or one slice) that cover ``widths``, each chunk padded
    to its widest member and at most _CELLS cells large."""
    width = int(widths.max())
    if width * len(widths) <= _CELLS:
        yield slice(None), width
        return
    by_width = np.argsort(-widths, kind="stable")
    done = 0
    while done < len(widths):
        width = int(widths[by_width[done]])
        chunk = by_width[done:done + max(1, _CELLS // width)]
        done += len(chunk)
        yield chunk, width


def _select(front, mask):
    """The nodes of a frontier (id, tree, depth, size, sums, rows) in ``mask``."""
    ids, trees, depths, sizes, sums, rows = front
    return (ids[mask], trees[mask], depths[mask], sizes[mask], sums[:, mask],
            rows[np.repeat(mask, sizes)])


class _TreeBuilder:
    """Grows the trees of one fit together, in passes over an array
    frontier; adds each split's impurity decrease to its tree's importance
    of the split feature.

    Every split minimizes one criterion, the weight-averaged variance of the
    targets in the two children. Node impurity, leaf value and every split
    gain come from sums over one 3 x (trees * n) matrix with rows w, w*y and
    w*y*y, one block of n columns per tree's (bootstrap) sample and targets.
    Regression samples weigh 1.0. The classifier fits its 0/1 labels with
    class weights; for such labels the weighted variance p(1 - p) is half
    the weighted Gini impurity 2p(1 - p), so both criteria pick the same
    splits, and the leaf mean is the weighted feasible fraction.

    The open nodes are arrays in the order they were opened: node id, tree,
    depth, size, moment sums, and their rows grouped by node. When every
    node chooses every feature (k == d: regressors under "auto") nothing is
    drawn, and a pass takes every open node: the trees grow one depth per
    pass. Otherwise (the classifier) a pass takes each tree's newest open
    node, so every tree draws its nodes' k features from its generator in
    depth-first order. A pass splits or closes the nodes it takes and opens
    their children, right before left. Values and splits are recorded in
    arrays, which are the fitted forest.

    A pass scores every chosen (feature, node) pair, a lane, at once.
    Ordered lanes: one stable argsort of each lane's values, one gather of
    the sums matrix into a 3 x lanes x width stack (lanes of similar size
    share a chunk of at most _CELLS cells, padded to its widest lane), one
    cumulative sum along the last axis, and the gain of every cut of every
    lane in one expression; cuts between equal values or past a lane's end
    score -inf. Categorical features score each level against the rest
    from the sums of every (node, level). Node and level sums are taken in
    sequence over a node's rows in sample order (``np.bincount``), and the
    right side of every cut is the node's sums minus the left side's. Every
    sum covers one node's rows only, so a tree does not depend on the trees
    it grows with. Ties, among the cuts of a lane, the levels of a feature
    and the features of a node alike, go to the first candidate within
    1e-15 of the best gain.
    """

    def __init__(self, X, y, w, unordered, hp: ForestHyperparams, gens, k: int):
        # X, y and w hold one block of n samples per tree, in tree order
        self.XT = np.ascontiguousarray(X.T)  # one row per feature
        self.y = y
        wy = w * y
        self.M = np.stack([w, wy, wy * y])
        self.unordered = np.asarray(unordered, dtype=bool)
        # each categorical feature's sorted levels and every sample's level index
        self.levels = {f: np.unique(self.XT[f], return_inverse=True)
                       for f in np.flatnonzero(self.unordered).tolist()}
        self.hp = hp
        self.gens = gens
        self.k = k
        self.n = len(y) // len(gens)
        self.root_weight = w.reshape(len(gens), self.n).sum(axis=1)
        self.importance = np.zeros((len(gens), len(self.XT)))

    def build(self):
        """The node arrays (feature, threshold, child, value) of the grown
        trees, numbered as opened: the roots, then each split's right and
        left child; feature and child are -1 at a leaf."""
        count, d = len(self.gens), len(self.XT)
        if self.k < d:  # row i of a tree's draws: the features of the i-th node it scores
            self.draws, self.drawn = self._draw(16), np.zeros(count, dtype=np.intp)
        self.values, self.splits, self.size = [], [], 0
        front = self._open(np.arange(count), np.zeros(count, dtype=np.intp),
                           np.full(count, self.n), np.arange(count * self.n))
        while len(front[0]):
            if self.k < d:
                newest = np.full(count, -1)
                np.maximum.at(newest, front[1], np.arange(len(front[1])))
                take = newest[front[1]] == np.arange(len(front[1]))
                children = self._split(_select(front, take))
                front = tuple(np.concatenate(pair, axis=-1)
                              for pair in zip(_select(front, ~take), children))
            else:
                front = self._split(front)
        feature, child = np.full(self.size, -1), np.full(self.size, -1)
        threshold = np.zeros(self.size)
        for ids, f, test, right in self.splits:
            feature[ids], threshold[ids], child[ids] = f, test, right
        return feature, threshold, child, np.concatenate(self.values)

    def _draw(self, m):
        """Each tree's next m permutation(d) draws, one row each, cut to k."""
        perms = np.tile(np.arange(len(self.XT)), (m, 1))
        return np.stack([gen.permuted(perms, axis=1)[:, :self.k] for gen in self.gens])

    def _sums(self, rows, segment, count):
        """3 x count sums of the moments of ``rows`` by ``segment`` label,
        each taken in sequence in row order."""
        return np.stack([np.bincount(segment, weights=m, minlength=count)
                         for m in self.M.take(rows, axis=1)])

    def _open(self, trees, depths, sizes, rows):
        """Numbers and records the new nodes of ``trees``, whose ``sizes``
        rows are consecutive in ``rows``; returns the frontier of those that
        can split. A node whose targets are all equal is a leaf even where
        rounding leaves its variance a little above zero."""
        ids = np.arange(self.size, self.size + len(sizes))
        self.size += len(sizes)
        starts = np.cumsum(sizes) - sizes
        sums = self._sums(rows, np.repeat(np.arange(len(sizes)), sizes), len(sizes))
        y = self.y[rows]
        grow = ((sizes >= max(2, self.hp.min_samples_split)) & ~(_variance(*sums) <= 0.0)
                & (np.maximum.reduceat(y, starts) > np.minimum.reduceat(y, starts)))
        if self.hp.max_depth is not None:
            grow &= depths < self.hp.max_depth
        self.values.append(sums[1] / sums[0])
        return _select((ids, trees, depths, sizes, sums, rows), grow)

    def _split(self, front):
        """Splits each node of the frontier ``front`` at its best cut, or
        leaves it a leaf; returns the frontier its children open."""
        ids, trees, depths, sizes, sums, rows = front
        gain, feature, threshold = self._best_splits(trees, rows, sizes, sums)
        split = gain > 0.0
        np.add.at(self.importance, (trees[split], feature[split]),
                  (sums[0] / self.root_weight[trees] * gain)[split])
        # the rows of every split node, right child then left child
        rows = rows[np.repeat(split, sizes)]
        column = np.repeat(feature[split], sizes[split])
        value = self.XT[column, rows]
        test = np.repeat(threshold[split], sizes[split])
        count = int(split.sum())
        side = np.repeat(2 * np.arange(count), sizes[split])
        side += np.where(self.unordered[column], value == test, value <= test)
        self.splits.append((ids[split], feature[split], threshold[split],
                            self.size + 2 * np.arange(count)))
        return self._open(np.repeat(trees[split], 2), np.repeat(depths[split] + 1, 2),
                          np.bincount(side, minlength=2 * count),
                          rows[side.argsort(kind="stable")])

    def _best_splits(self, trees, rows, sizes, sums):
        """(gain, feature, threshold) arrays of the best split of each node
        whose rows, grouped by node in ascending order, are ``rows``; the
        gain is -inf where no chosen feature separates the node's rows."""
        d = len(self.XT)
        if self.k < d:
            if self.drawn.max() == self.draws.shape[1]:  # a tree has used its draws up
                self.draws = np.concatenate([self.draws, self._draw(self.draws.shape[1])], axis=1)
            chosen = np.zeros((d, len(sizes)), dtype=bool)
            chosen[self.draws[trees, self.drawn[trees]].T, np.arange(len(sizes))] = True
            self.drawn[trees] += 1  # a pass takes one node per tree
        else:  # every feature is chosen, so a draw could not change the tree
            chosen = np.ones((d, len(sizes)), dtype=bool)
        # gain and threshold of the best cut of every chosen (feature, node)
        gains = np.full((d, len(sizes)), -np.inf)
        tests = np.zeros((d, len(sizes)))
        lanes = np.nonzero(chosen & np.logical_not(self.unordered)[:, None])
        if lanes[0].size:
            gains[lanes], tests[lanes] = self._score_thresholds(*lanes, rows, sizes, sums)
        self._score_levels(chosen, rows, sizes, sums, gains, tests)
        feature = _first_best(gains, axis=0)
        node = np.arange(len(sizes))
        return gains[feature, node], feature, tests[feature, node]

    def _score_thresholds(self, features, nodes, rows, sizes, sums):
        """(gain, threshold) arrays of the best threshold cut of each (ordered
        feature, node) lane, scanned in chunks of lanes of similar size."""
        S = self.M.take(rows, axis=1)
        starts = np.cumsum(sizes) - sizes
        n = sizes[nodes]
        gain = np.empty(len(nodes))
        threshold = np.empty(len(nodes))
        for chunk, width in _chunks(n):
            lanes = nodes[chunk]
            gain[chunk], threshold[chunk] = self._scan(
                features[chunk], n[chunk, None], starts[lanes, None], sums[:, lanes], width,
                rows, S)
        return gain, threshold

    def _scan(self, features, m, starts, total, width, rows, S):
        """(gain, threshold) of the best cut of each lane of m rows with sums
        ``total``, padded to ``width``: feature ``features[i]`` over
        ``rows[starts[i]:][:m[i]]``."""
        cut = np.arange(width)
        at = starts + np.minimum(cut, m - 1)
        # padding sorts last as +inf; stable order keeps ties in row order
        sv = np.where(cut < m, self.XT[features[:, None], rows[at]], np.inf)
        lane = np.arange(len(features))
        order = lane[:, None], sv.argsort(axis=1, kind="stable")
        sv = sv[order]
        boundary = (sv[:, :-1] < sv[:, 1:]) & (cut[1:] < m)
        left = S.take(at[order][:, :-1], axis=1)
        del at, order
        left = left.cumsum(axis=2, out=left)
        # only cuts between distinct values are scored
        lanes, cuts = np.nonzero(boundary)
        g = np.full(boundary.shape, -np.inf)
        g[lanes, cuts] = _gain(total[:, lanes], left[:, lanes, cuts])
        best = _first_best(g, axis=1)
        lo, hi = sv[lane, best], sv[lane, best + 1]
        mid = 0.5 * (lo + hi)
        # adjacent floats: the midpoint rounded up; fall back to the lower
        # value so both children stay non-empty
        return g[lane, best], np.where(mid >= hi, lo, mid)

    def _score_levels(self, chosen, rows, sizes, sums, gains, tests):
        """Writes into ``gains`` and ``tests`` the best one-level-versus-rest
        split of each categorical feature at each node that chose it, from
        the sums of every (node, level)."""
        count = len(sizes)
        node = np.repeat(np.arange(count), sizes)
        for f, (levels, index) in self.levels.items():
            nodes = np.flatnonzero(chosen[f])
            if not nodes.size:
                continue
            left = self._sums(rows, node * len(levels) + index[rows], count * len(levels))
            left = left.reshape(3, count, len(levels))[:, nodes]
            present = left[0] > 0.0  # every sample weighs more than zero
            i, level = np.nonzero(present & (present.sum(axis=1, keepdims=True) >= 2))
            g = np.full(present.shape, -np.inf)
            g[i, level] = _gain(sums[:, nodes[i]], left[:, i, level])
            level = _first_best(g, axis=1)
            gains[f, nodes] = g[np.arange(len(nodes)), level]
            tests[f, nodes] = levels[level]


_DESCENT = 12  # predict_batch descends while rows * trees < _DESCENT * nodes, else walks


@dataclass(frozen=True, eq=False)
class Forest:
    """An immutable fitted ensemble with one output, or with p outputs (a
    regressor fitted on a target matrix): then each output's trees come in
    turn and ``raw_importance`` has one row per output.

    The trees are node arrays whose nodes 0..n_trees-1 are the roots. An
    inner node sends a row left, to ``child + 1``, when its ``feature``
    value is <= ``threshold`` (== for an unordered feature), else right, to
    ``child``; ``child`` and ``feature`` are -1 at a leaf. ``value`` is a
    node's target mean or weighted feasible-class probability. ``trees`` is
    a linked TreeNode view, built on first read; no run step reads it."""

    kind: str  # "regressor" | "classifier"
    unordered: tuple[bool, ...]  # one flag per feature
    n_trees: int
    feature: np.ndarray
    threshold: np.ndarray
    child: np.ndarray
    value: np.ndarray
    raw_importance: np.ndarray  # mean per-feature impurity decrease over trees: (d,) or (p, d)

    @property
    def n_features(self) -> int:
        return len(self.unordered)

    @cached_property
    def trees(self) -> tuple[TreeNode, ...]:
        """The root of each tree's linked TreeNode view."""
        nodes = [TreeNode(v) for v in self.value.tolist()]
        for node, f, test, right in zip(nodes, self.feature.tolist(), self.threshold.tolist(),
                                        self.child.tolist()):
            if right >= 0:
                node.feature, node.threshold, node.unordered = f, test, self.unordered[f]
                node.right, node.left = nodes[right], nodes[right + 1]
        return tuple(nodes[:self.n_trees])

    def predict_batch(self, X) -> np.ndarray:
        """Per-row forest prediction, (rows,) or (rows, p): mean over an
        output's trees of the reached leaf value (target mean or
        feasible-class probability), summed tree by tree in order."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"feature matrix must have {self.n_features} columns")
        XT = np.ascontiguousarray(X.T)  # one contiguous row per feature
        small = len(X) * self.n_trees < _DESCENT * len(self.value)
        reached = self._descend(XT) if small else self._walk(XT)
        outputs = self.raw_importance.shape[:-1]
        out = np.zeros((len(X),) + outputs)
        columns = out.reshape(len(X), math.prod(outputs))  # a view with one column per output
        per_output = self.n_trees // columns.shape[1]
        for i, values in enumerate(reached):
            columns[:, i // per_output] += values
        return out / per_output

    def _descend(self, XT) -> np.ndarray:
        """(trees, rows) values of the leaves reached: every (tree, row) lane
        steps one level per pass, each pass over the lanes not yet at a leaf."""
        rows = XT.shape[1]
        node = np.repeat(np.arange(self.n_trees), rows)
        row = np.tile(np.arange(rows), self.n_trees)
        unordered = np.asarray(self.unordered)
        lanes = np.arange(len(node))
        while lanes.size:
            right = self.child[node[lanes]]
            inner = right >= 0
            lanes, right = lanes[inner], right[inner]
            at = node[lanes]
            f, test = self.feature[at], self.threshold[at]
            x = XT[f, row[lanes]]
            node[lanes] = right + np.where(unordered[f], x == test, x <= test)
        return self.value[node].reshape(self.n_trees, rows)

    def _walk(self, XT):
        """Each tree's (rows,) values of the leaves reached, tree by tree, node by node."""
        feature, threshold, child = (a.tolist() for a in (self.feature, self.threshold, self.child))
        for tree in range(self.n_trees):
            out = np.empty(XT.shape[1])
            stack = [(tree, np.arange(XT.shape[1]))]
            while stack:
                node, rows = stack.pop()
                right = child[node]
                if right < 0:
                    out[rows] = self.value[node]
                    continue
                column, test = XT[feature[node]].take(rows), threshold[node]
                mask = (column == test) if self.unordered[feature[node]] else (column <= test)
                left = rows.compress(mask)
                rows = rows.compress(~mask)
                if left.size:
                    stack.append((right + 1, left))
                if rows.size:
                    stack.append((right, rows))
            yield out


def _prepare(X, y) -> tuple[np.ndarray, np.ndarray]:
    """X and y as float arrays, or a FitError: for an empty set, a target
    shape that does not match, or the first sample with a NaN or infinite
    feature or target (such a fit would predict NaN or inf everywhere)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise FitError("training set must contain at least one sample")
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2) or y.shape[0] != X.shape[0] or y.shape[1:] == (0,):
        raise FitError(f"targets must give each of the {len(X)} samples a value or a row")
    finite = np.isfinite(X).all(axis=1) & np.isfinite(y.reshape(len(X), -1)).all(axis=1)
    if not finite.all():
        i = int(finite.argmin())
        raise FitError(f"sample {i} has a non-finite feature or target: "
                       f"{X[i].tolist()} -> {y[i].tolist()}")
    return X, y


def _fit(X, y, hp: ForestHyperparams, rng: RngState, unordered, classifier: bool) -> Forest:
    X, y = _prepare(X, y)
    if classifier:  # every nonzero label is the feasible class
        y = (y != 0.0) * 1.0
    n, d = X.shape
    unordered = tuple(bool(u) for u in (unordered if unordered is not None else [False] * d))
    if len(unordered) != d:
        raise FitError("unordered mask length does not match feature count")

    k = hp.resolve_max_features(d, classifier)
    vector, Y = y.ndim == 1, y.reshape(n, -1)  # one column per output
    rngs = [rng] if vector else [rng.substream(j) for j in range(Y.shape[1])]
    gens = [RngState(r.seed ^ t, r.stream_id).generator
            for r in rngs for t in range(hp.n_estimators)]
    sample = np.concatenate([gen.integers(0, n, size=n) if hp.bootstrap else np.arange(n)
                             for gen in gens])
    y = Y[sample, np.arange(len(rngs)).repeat(hp.n_estimators * n)]
    w = np.ones(len(y))
    if classifier:  # class c weighs class_weight[c] / (count of c in the tree's sample)
        pos = (y > 0.5).reshape(len(gens), n)
        n_pos = pos.sum(axis=1, keepdims=True)
        w = np.where(pos, hp.class_weight[0] / np.maximum(n_pos, 1),
                     hp.class_weight[1] / np.maximum(n - n_pos, 1)).ravel()
    builder = _TreeBuilder(X[sample], y, w, unordered, hp, gens, k)
    feature, threshold, child, value = builder.build()
    importance = builder.importance.reshape(len(rngs), hp.n_estimators, d).mean(axis=1)
    return Forest(kind="classifier" if classifier else "regressor", unordered=unordered,
                  n_trees=len(gens), feature=feature, threshold=threshold, child=child,
                  value=value, raw_importance=importance[0] if vector else importance)


def fit_regressor(X, y, hp: ForestHyperparams, rng: RngState,
                  unordered: Sequence[bool] | None = None) -> Forest:
    """Fit a regression forest: bootstrap bagging, per-node feature
    subsampling, splits minimizing weighted child variance, mean leaves.

    ``y`` is a target vector, or an (n, p) matrix with one column per
    output. Output j's trees are then, bit for bit, those of a fit on
    ``y[:, j]`` seeded ``rng.substream(j)``, and all p outputs grow in the
    same passes. A NaN or infinite feature or target raises a FitError.
    """
    return _fit(X, y, hp, rng, unordered, classifier=False)


def fit_classifier(X, labels, hp: ForestHyperparams, rng: RngState,
                   unordered: Sequence[bool] | None = None) -> Forest:
    """Fit a binary feasibility classifier.

    Splits minimize class-weighted Gini impurity, as a regression tree on
    the 0/1 labels: their weighted variance is half the Gini impurity. Each
    sample of class c weighs class_weight[c] / (count of c in the tree's
    bootstrap sample), so per-tree class mass matches the configured weights.
    Leaves store the weighted feasible-class probability (the weighted label
    mean); a single-class training set yields a constant classifier. Any
    nonzero label is feasible; a NaN or infinite feature or label raises a
    FitError.
    """
    return _fit(X, np.asarray(labels, dtype=float).ravel(), hp, rng, unordered, classifier=True)


def feature_importance(forest: Forest) -> np.ndarray:
    """Impurity-decrease importances, normalized to sum to one.

    Forests of single-leaf trees carry no split information and return the
    uniform vector.
    """
    if not forest.n_trees:
        raise ValueError("forest has no trees")
    raw = np.asarray(forest.raw_importance, dtype=float)
    total = raw.sum(axis=-1, keepdims=True)
    return np.divide(raw, total, out=np.full_like(raw, 1.0 / forest.n_features),
                     where=total > 0.0)


def kfold_recall(X, labels, hp: ForestHyperparams, k: int, rng: RngState,
                 unordered: Sequence[bool] | None = None) -> float:
    """Mean held-out recall (TP / (TP + FN)) over k shuffled folds; a
    positive is recalled when its predicted probability is at least 0.5.

    Folds that contain no positive sample contribute recall 1.0 (there is
    nothing to miss).
    """
    X = np.asarray(X, dtype=float)
    labels = np.asarray([bool(v) for v in np.asarray(labels).ravel()])
    n = len(labels)
    if k < 2:
        raise ValueError("k-fold requires k >= 2")
    if n < k:
        raise ValueError("need at least k samples")
    if not labels.any():
        raise ValueError("need at least one positive label")
    perm = rng.generator.permutation(n)
    folds = np.array_split(perm, k)
    recalls = []
    for i, fold in enumerate(folds):
        mask = np.zeros(n, dtype=bool)
        mask[fold] = True
        train_idx = np.nonzero(~mask)[0]
        forest = fit_classifier(X[train_idx], labels[train_idx], hp, rng.substream(i), unordered)
        positives = fold[labels[fold]]
        if positives.size == 0:
            recalls.append(1.0)
            continue
        probs = forest.predict_batch(X[positives])
        tp = int((probs >= 0.5).sum())
        recalls.append(tp / positives.size)
    return float(np.mean(recalls))
