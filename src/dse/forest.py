"""Randomized decision forests, built from scratch.

Regression forests act as per-objective surrogates; a binary classification
forest acts as the feasibility filter. Trees are grown on bootstrap resamples
with per-node feature subsampling. Ordered features split on thresholds
(midpoints between consecutive distinct values); features flagged unordered
(categorical level indices) split on level equality, never on thresholds.
Both kinds grow by one criterion, the weight-averaged variance of the
targets in the two children: on the classifier's class-weighted 0/1 labels
that variance is half the weighted Gini impurity, so it picks the splits
Gini would (Breiman et al., Classification and Regression Trees, 1984).

The trees of one fit grow together, in passes that each score a batch of
open nodes in one vectorized sweep: level by level, every open node of every
tree at once, when each node considers every feature (regressors under
"auto"); otherwise the next depth-first node of each tree, so that each
node's feature draw comes from its tree's generator in depth-first order.
Level-wise growth follows LightGBM (Ke et al., NeurIPS 2017); the splits
are exact, and every sum covers one node's rows, so the trees do not depend
on the batch.

Determinism: tree t of a fit seeded with RngState(seed, stream) draws from
RngState(seed ^ t, stream), so each tree is a pure function of the training
data, the seed, the stream and t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .rng import RngState
from .space import ValidationError, require_bool, require_int, require_number


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


def parse_hyperparams(raw: dict, classifier: bool) -> ForestHyperparams:
    """Hyperparameters from the scenario JSON ``surrogate`` section."""
    where = "surrogate.classifier" if classifier else "surrogate.regressor"
    if not isinstance(raw, dict):
        raise ValidationError(f"{where} must be an object")
    allowed = {"n_estimators", "max_depth", "max_features", "bootstrap", "min_samples_split"}
    if classifier:
        allowed = allowed | {"class_weight"}
    unknown = set(raw) - allowed
    if unknown:
        raise ValidationError(f"{where}: unknown key {sorted(unknown)[0]!r}")
    kwargs: dict = {}
    for key in ("n_estimators", "min_samples_split"):
        if key in raw:
            kwargs[key] = require_int(raw[key], f"{where}.{key}")
    if raw.get("max_depth") is not None:
        kwargs["max_depth"] = require_int(raw["max_depth"], f"{where}.max_depth")
    if "max_features" in raw:
        mf = raw["max_features"]
        kwargs["max_features"] = mf if mf == "auto" else require_number(mf, f"{where}.max_features")
    if "bootstrap" in raw:
        kwargs["bootstrap"] = require_bool(raw["bootstrap"], f"{where}.bootstrap")
    if "class_weight" in raw:
        cw = raw["class_weight"]
        if not isinstance(cw, dict) or set(cw) != {"true", "false"}:
            raise ValidationError(f'{where}.class_weight must be {{"true": w, "false": w}}')
        kwargs["class_weight"] = tuple(require_number(cw[k], f"{where}.class_weight.{k}")
                                       for k in ("true", "false"))
    try:
        return ForestHyperparams(**kwargs)
    except ValueError as e:
        raise ValidationError(f"{where}: {e}") from e


class TreeNode:
    """Binary tree node; a leaf iff ``left`` is None.

    Internal nodes test one feature: ordered features go left when
    value <= threshold, unordered features go left when value == threshold.
    Leaves carry the training-target mean (regression) or the weighted
    feasible-class probability (classification).
    """

    __slots__ = ("feature", "threshold", "unordered", "left", "right", "value")

    def __init__(self, value=None, feature=-1, threshold=0.0, unordered=False,
                 left=None, right=None):
        self.feature = feature
        self.threshold = threshold
        self.unordered = unordered
        self.left = left
        self.right = right
        self.value = value

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _variance(w, wy, wyy):
    """Weighted variance of the targets from the sums of w, w*y and w*y*y."""
    mean = wy / w
    return wyy / w - mean ** 2


def _gain(total, left):
    """Weighted variance decrease of splitting each node with sums ``total``
    (3 x nodes) into each ``left`` part (3 x nodes x parts) and the rest,
    which is taken as total minus left."""
    right = total[..., None] - left
    with np.errstate(divide="ignore", invalid="ignore"):
        child = (left[0] * np.maximum(_variance(*left), 0.0)
                 + right[0] * np.maximum(_variance(*right), 0.0))
        return _variance(*total)[..., None] - child / total[0][..., None]


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


class _TreeBuilder:
    """Grows the trees of one fit together; adds each split's impurity
    decrease to its tree's importance of the split feature.

    Every split minimizes one criterion, the weight-averaged variance of the
    targets in the two children. Node impurity, leaf value and every split
    gain come from sums over one 3 x (trees * n) matrix with rows w, w*y and
    w*y*y, one block of n columns per tree's (bootstrap) sample. Regression
    samples weigh 1.0. The classifier fits its 0/1 labels with class
    weights; for such labels the weighted variance p(1 - p) is half the
    weighted Gini impurity 2p(1 - p), so both criteria pick the same splits,
    and the leaf mean is the weighted feasible fraction.

    Open nodes wait on one stack per tree, and growth runs in passes over
    batches of them. When every node chooses every feature (k == d:
    regressors under "auto") no feature is drawn, and a pass takes every
    open node of every tree: the trees grow level by level, one depth per
    pass. Otherwise (the classifier) each node draws its k features from its
    tree's generator, and a pass takes the next node of each tree in
    depth-first order, so every tree draws from its own generator in
    depth-first order. Both are the one pass below; only the batch differs.

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

    def build(self) -> list[TreeNode]:
        count = len(self.gens)
        roots = [TreeNode() for _ in range(count)]
        stacks = [[] for _ in range(count)]
        self._open(roots, range(count), np.arange(count * self.n), np.full(count, self.n),
                   np.zeros(count, dtype=np.intp), stacks)
        while any(stacks):
            if self.k < len(self.XT):
                batch = [stack.pop() for stack in stacks if stack]
            else:
                batch = [entry for stack in stacks for entry in stack]
                stacks = [[] for _ in stacks]
            self._split(batch, stacks)
        return roots

    def _sums(self, rows, segment, count):
        """3 x count sums of the moments of ``rows`` by ``segment`` label,
        each taken in sequence in row order."""
        return np.stack([np.bincount(segment, weights=m, minlength=count)
                         for m in self.M.take(rows, axis=1)])

    def _open(self, nodes, trees, rows, sizes, depths, stacks):
        """Closes each new node whose ``sizes`` rows (consecutive in
        ``rows``) cannot be split as a leaf, and pushes the others onto their
        tree's stack, in order. A node whose targets are all equal is a leaf
        even where rounding leaves its variance a little above zero."""
        starts = np.cumsum(sizes) - sizes
        sums = self._sums(rows, np.repeat(np.arange(len(sizes)), sizes), len(sizes))
        y = self.y[rows]
        grow = ((sizes >= max(2, self.hp.min_samples_split)) & ~(_variance(*sums) <= 0.0)
                & (np.maximum.reduceat(y, starts) > np.minimum.reduceat(y, starts)))
        if self.hp.max_depth is not None:
            grow &= depths < self.hp.max_depth
        values = (sums[1] / sums[0]).tolist()
        for node, t, start, end, depth, g, v, s in zip(
                nodes, trees, starts.tolist(), (starts + sizes).tolist(), depths.tolist(),
                grow.tolist(), values, sums.T.tolist()):
            if g:
                stacks[t].append((node, t, rows[start:end], depth, s))
            else:
                node.value = v

    def _split(self, batch, stacks):
        """Splits each (node, tree, rows, depth, sums) of ``batch`` at its best
        cut, or closes it as a leaf; opens the children, right before left."""
        nodes, trees, idxs, depths, sums = zip(*batch)
        trees = np.array(trees)
        sizes = np.array([len(idx) for idx in idxs])
        rows = np.concatenate(idxs)
        sums = np.array(sums).T
        gain, feature, threshold = self._best_splits(trees, rows, sizes, sums)
        split = gain > 0.0
        np.add.at(self.importance, (trees[split], feature[split]),
                  (sums[0] / self.root_weight[trees] * gain)[split])
        # the rows of every split node, right child then left child
        keep = np.repeat(split, sizes)
        rows = rows[keep]
        column = np.repeat(feature[split], sizes[split])
        value = self.XT[column, rows]
        test = np.repeat(threshold[split], sizes[split])
        side = np.repeat(2 * np.arange(split.sum()), sizes[split])
        side += np.where(self.unordered[column], value == test, value <= test)
        rows = rows[side.argsort(kind="stable")]
        values = (sums[1] / sums[0]).tolist()
        children, child_trees, child_depths = [], [], []
        for j, (node, t, depth, f, test) in enumerate(zip(nodes, trees.tolist(), depths,
                                                          feature.tolist(), threshold.tolist())):
            if not split[j]:
                node.value = values[j]
                continue
            node.feature = f
            node.threshold = test
            node.unordered = bool(self.unordered[f])
            node.left = TreeNode()
            node.right = TreeNode()
            children += (node.right, node.left)
            child_trees += (t, t)
            child_depths += (depth + 1, depth + 1)
        if children:
            self._open(children, child_trees, rows, np.bincount(side, minlength=len(children)),
                       np.array(child_depths), stacks)

    def _best_splits(self, trees, rows, sizes, sums):
        """(gain, feature, threshold) arrays of the best split of each node
        whose rows, grouped by node in ascending order, are ``rows``; the
        gain is -inf where no chosen feature separates the node's rows."""
        d = len(self.XT)
        if self.k < d:
            chosen = np.zeros((d, len(sizes)), dtype=bool)
            for j, t in enumerate(trees):
                chosen[self.gens[t].permutation(d)[: self.k], j] = True
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
        order = sv.argsort(axis=1, kind="stable")
        sv = np.take_along_axis(sv, order, axis=1)
        boundary = (sv[:, :-1] < sv[:, 1:]) & (cut[1:] < m)
        left = S.take(np.take_along_axis(at, order, axis=1)[:, :-1], axis=1)
        del at, order
        g = np.where(boundary, _gain(total, left.cumsum(axis=2, out=left)), -np.inf)
        best = _first_best(g, axis=1)
        lane = np.arange(len(features))
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
            left = left.reshape(3, count, len(levels))
            present = left[0] > 0.0  # every sample weighs more than zero
            g = np.where(present & (present.sum(axis=1, keepdims=True) >= 2),
                         _gain(sums, left), -np.inf)[nodes]
            level = _first_best(g, axis=1)
            gains[f, nodes] = g[np.arange(len(nodes)), level]
            tests[f, nodes] = levels[level]


@dataclass(frozen=True, eq=False)
class Forest:
    """An immutable fitted ensemble."""

    kind: str  # "regressor" | "classifier"
    n_features: int
    unordered: tuple[bool, ...]
    trees: tuple[TreeNode, ...]
    raw_importance: np.ndarray  # mean per-feature impurity decrease over trees

    def predict_batch(self, X) -> np.ndarray:
        """Per-row forest prediction: mean over trees of the reached leaf
        value (target mean or feasible-class probability)."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(f"feature matrix must have {self.n_features} columns")
        XT = np.ascontiguousarray(X.T)  # one contiguous row per feature
        out = np.zeros(len(X))
        scratch = np.empty(len(X))
        for tree in self.trees:
            _tree_predict(tree, XT, scratch, np.arange(len(X)))
            out += scratch
        return out / len(self.trees)


def _tree_predict(root: TreeNode, XT, out, idx):
    stack = [(root, idx)]
    while stack:
        node, rows = stack.pop()
        if node.is_leaf:
            out[rows] = node.value
            continue
        column = XT[node.feature].take(rows)
        mask = (column == node.threshold) if node.unordered else (column <= node.threshold)
        left = rows.compress(mask)
        right = rows.compress(~mask)
        if left.size:
            stack.append((node.left, left))
        if right.size:
            stack.append((node.right, right))


def _prepare(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise FitError("training set must contain at least one sample")
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise FitError("feature matrix and targets disagree on sample count")
    return X, y


def _fit(X, y, hp: ForestHyperparams, rng: RngState, unordered, classifier: bool) -> Forest:
    X, y = _prepare(X, y)
    n, d = X.shape
    unordered = tuple(bool(u) for u in (unordered if unordered is not None else [False] * d))
    if len(unordered) != d:
        raise FitError("unordered mask length does not match feature count")

    k = hp.resolve_max_features(d, classifier)
    gens, samples, weights = [], [], []
    for t in range(hp.n_estimators):
        gen = RngState(rng.seed ^ t, rng.stream_id).generator
        sample = gen.integers(0, n, size=n) if hp.bootstrap else np.arange(n)
        if classifier:
            pos = y[sample] > 0.5
            n_pos = int(pos.sum())
            weights.append(np.where(pos, hp.class_weight[0] / max(n_pos, 1),
                                    hp.class_weight[1] / max(n - n_pos, 1)))
        else:
            weights.append(np.ones(n))
        gens.append(gen)
        samples.append(sample)
    sample = np.concatenate(samples)
    builder = _TreeBuilder(X[sample], y[sample], np.concatenate(weights), unordered, hp, gens, k)
    trees = builder.build()
    return Forest(
        kind="classifier" if classifier else "regressor",
        n_features=d,
        unordered=unordered,
        trees=tuple(trees),
        raw_importance=np.mean(builder.importance, axis=0),
    )


def fit_regressor(X, y, hp: ForestHyperparams, rng: RngState,
                  unordered: Sequence[bool] | None = None) -> Forest:
    """Fit a regression forest: bootstrap bagging, per-node feature
    subsampling, splits minimizing weighted child variance, mean leaves."""
    return _fit(X, y, hp, rng, unordered, classifier=False)


def fit_classifier(X, labels, hp: ForestHyperparams, rng: RngState,
                   unordered: Sequence[bool] | None = None) -> Forest:
    """Fit a binary feasibility classifier.

    Splits minimize class-weighted Gini impurity, as a regression tree on
    the 0/1 labels: their weighted variance is half the Gini impurity. Each
    sample of class c weighs class_weight[c] / (count of c in the tree's
    bootstrap sample), so per-tree class mass matches the configured weights.
    Leaves store the weighted feasible-class probability (the weighted label
    mean); a single-class training set yields a constant classifier.
    """
    labels = np.asarray([1.0 if bool(v) else 0.0 for v in np.asarray(labels).ravel()])
    return _fit(X, labels, hp, rng, unordered, classifier=True)


def feature_importance(forest: Forest) -> np.ndarray:
    """Impurity-decrease importances, normalized to sum to one.

    Forests of single-leaf trees carry no split information and return the
    uniform vector.
    """
    if not forest.trees:
        raise ValueError("forest has no trees")
    raw = np.asarray(forest.raw_importance, dtype=float)
    total = raw.sum()
    if total <= 0.0:
        return np.full(forest.n_features, 1.0 / forest.n_features)
    return raw / total


def kfold_recall(X, labels, hp: ForestHyperparams, k: int, rng: RngState,
                 unordered: Sequence[bool] | None = None,
                 threshold: float = 0.5) -> float:
    """Mean held-out recall (TP / (TP + FN)) over k shuffled folds.

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
        tp = int((probs >= threshold).sum())
        recalls.append(tp / positives.size)
    return float(np.mean(recalls))


def classifier_grid() -> list[ForestHyperparams]:
    """The 81-point classifier tuning grid: every combination of
    n_estimators in {10, 100, 1000}, max_depth in {None, 4, 8},
    max_features in {auto, 0.5, 0.75} and three (feasible, infeasible)
    class weightings."""
    grid = []
    for n_estimators in (10, 100, 1000):
        for max_depth in (None, 4, 8):
            for max_features in ("auto", 0.5, 0.75):
                for class_weight in ((0.5, 0.5), (0.75, 0.25), (0.9, 0.1)):
                    grid.append(ForestHyperparams(
                        n_estimators=n_estimators,
                        max_depth=max_depth,
                        max_features=max_features,
                        class_weight=class_weight,
                    ))
    return grid
