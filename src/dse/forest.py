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


def hyperparams_to_json(hp: ForestHyperparams, classifier: bool) -> dict:
    doc = {
        "n_estimators": hp.n_estimators,
        "max_depth": hp.max_depth,
        "max_features": hp.max_features,
        "bootstrap": hp.bootstrap,
        "min_samples_split": hp.min_samples_split,
    }
    if classifier:
        doc["class_weight"] = {"true": hp.class_weight[0], "false": hp.class_weight[1]}
    return doc


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
    """Weighted variance of the targets from the sums of w, w*y and w*y*y.

    ``** 2`` multiplies for arrays but calls libm ``pow`` for numpy scalars,
    and the two can differ in the last bit: the threshold scan's parent terms
    pass scalars, every other caller arrays, which keeps trees reproducible.
    """
    mean = wy / w
    return wyy / w - mean ** 2


class _TreeBuilder:
    """Grows one tree; collects per-feature impurity decreases on the way.

    Every split minimizes one criterion, the weight-averaged variance of the
    targets in the two children. Node impurity, leaf value and every split
    gain come from sums over one 3 x n matrix with rows w, w*y and w*y*y.
    Regression samples weigh 1.0. The classifier fits its 0/1 labels with
    class weights; for such labels the weighted variance p(1 - p) is half
    the weighted Gini impurity 2p(1 - p), so both criteria pick the same
    splits, and the leaf mean is the weighted feasible fraction.

    A node scores all f of its chosen ordered features in one pass: one
    stable argsort of the f x n node columns, one gather of the sums matrix
    into a 3 x f x n stack, one cumulative sum along the samples, and the
    gain of every cut of every feature at once; cuts between equal values
    score -inf. The cumulative sum runs sequentially along each row, so the
    floats are those of a scan of one feature at a time. Each feature's
    parent term, the variance of its cumulative totals, stays scalar
    arithmetic: ``** 2`` is libm ``pow`` on scalars but a multiply on arrays,
    and the two differ in the last bit on about 0.1 % of values.
    Categorical features are scored level by level. The winner is the
    first feature, in ascending order, that no later one beats by more than
    1e-15. When every feature is chosen (regressors under "auto") the
    feature draw is skipped: it could not change the tree.
    """

    def __init__(self, X, y, w, unordered, hp: ForestHyperparams, gen, k: int):
        self.XT = np.ascontiguousarray(X.T)  # one row per feature
        wy = w * y
        self.M = np.stack([w, wy, wy * y])
        self.unordered = unordered
        self.ordered_features = np.flatnonzero(np.logical_not(unordered))
        self.categorical_features = [f for f, u in enumerate(unordered) if u]
        self.rows = np.arange(len(unordered))[:, None]
        self.hp = hp
        self.gen = gen
        self.k = k
        self.importance = np.zeros(len(self.XT))
        self.root_weight = float(w.sum())

    def build(self) -> TreeNode:
        # explicit stack: pathological trees can be as deep as the sample count
        root = TreeNode()
        stack = [(root, np.arange(self.M.shape[1]), 0)]
        while stack:
            node, idx, depth = stack.pop()
            self._grow(node, idx, depth, stack)
        return root

    def _grow(self, node: TreeNode, idx, depth, stack) -> None:
        # take and compress copy to contiguous rows, whose sums run in
        # numpy's pairwise order (M[:, idx] would sum column-strided)
        S = self.M.take(idx, axis=1)
        sums = S.sum(axis=1, keepdims=True)
        impurity = _variance(*sums)[0]
        stop = (
            len(idx) < max(2, self.hp.min_samples_split)
            or impurity <= 0.0
            or (self.hp.max_depth is not None and depth >= self.hp.max_depth)
        )
        split = None if stop else self._best_split(idx, S, impurity)
        if split is None:
            node.value = float(sums[1, 0] / sums[0, 0])
            return
        gain, feature, test_value, left_mask = split
        self.importance[feature] += (sums[0, 0] / self.root_weight) * gain
        node.feature = feature
        node.threshold = test_value
        node.unordered = self.unordered[feature]
        node.left = TreeNode()
        node.right = TreeNode()
        stack.append((node.right, idx[~left_mask], depth + 1))
        stack.append((node.left, idx[left_mask], depth + 1))

    def _best_split(self, idx, S, impurity):
        d = len(self.XT)
        if self.k < d:
            chosen = sorted(self.gen.permutation(d)[: self.k].tolist())
            ordered = np.array([f for f in chosen if not self.unordered[f]], dtype=np.intp)
            categorical = [f for f in chosen if self.unordered[f]]
        else:  # every feature is chosen, so a draw could not change the tree
            ordered, categorical = self.ordered_features, self.categorical_features
        # (feature, gain, row of the best cut) or (feature, gain, level, left mask)
        candidates = []
        if ordered.size:
            X = self.XT[ordered[:, None], idx]
            order = X.argsort(axis=1, kind="stable")
            rows = self.rows[: ordered.size]
            sv = X[rows, order]
            boundary = sv[:, :-1] < sv[:, 1:]
            if boundary.any():
                C = S[:, order].cumsum(axis=2)
                left = C[:, :, :-1]
                total = C[:, :, -1:]
                right = total - left
                parent = [[max(_variance(*t), 0.0)] for t in total[:, :, 0].T.tolist()]
                child = (left[0] * np.maximum(_variance(*left), 0.0)
                         + right[0] * np.maximum(_variance(*right), 0.0))
                gains = np.where(boundary, np.asarray(parent) - child / total[0], -np.inf)
                # ties between equal gains resolve to the lowest threshold
                best_i = (gains >= gains.max(axis=1, keepdims=True) - 1e-15).argmax(axis=1)
                best_gains = gains[rows[:, 0], best_i].tolist()
                candidates = [(f, gain, r) for r, (f, gain) in
                              enumerate(zip(ordered.tolist(), best_gains)) if gain != -np.inf]
        for f in categorical:
            level_split = self._best_level_split(self.XT[f].take(idx), S, impurity)
            if level_split is not None:
                candidates.append((f, *level_split))
        if categorical and ordered.size:
            candidates.sort(key=lambda c: c[0])
        best = None
        for c in candidates:
            if best is None or c[1] > best[1] + 1e-15:
                best = c
        if best is None or best[1] <= 0.0:
            return None
        if self.unordered[best[0]]:
            feature, gain, level, left_mask = best
            return gain, feature, level, left_mask
        feature, gain, r = best
        lo, hi = sv[r, best_i[r]], sv[r, best_i[r] + 1]
        threshold = 0.5 * (lo + hi)
        if threshold >= hi:
            # adjacent floats: the midpoint rounded up; fall back to the
            # lower value so both children stay non-empty
            threshold = lo
        return gain, feature, float(threshold), X[r] <= threshold

    def _best_level_split(self, values, S, impurity):
        """Best one-level-versus-rest split, from masked sums per level."""
        levels = sorted(set(values.tolist()))
        if len(levels) < 2:
            return None
        masks = [values == level for level in levels]
        left = np.empty((3, len(levels)))
        right = np.empty((3, len(levels)))
        for i, m in enumerate(masks):
            left[:, i] = S.compress(m, axis=1).sum(axis=1)
            right[:, i] = S.compress(~m, axis=1).sum(axis=1)
        child = left[0] * _variance(*left) + right[0] * _variance(*right)
        gains = (impurity - child / (left[0] + right[0])).tolist()
        best = 0
        for i in range(1, len(levels)):
            if gains[i] > gains[best] + 1e-15:
                best = i
        return gains[best], levels[best], masks[best]


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
        out = np.zeros(len(X))
        scratch = np.empty(len(X))
        for tree in self.trees:
            _tree_predict(tree, X, scratch, np.arange(len(X)))
            out += scratch
        return out / len(self.trees)


def _tree_predict(root: TreeNode, X, out, idx):
    stack = [(root, idx)]
    while stack:
        node, rows = stack.pop()
        if node.is_leaf:
            out[rows] = node.value
            continue
        column = X[rows, node.feature]
        mask = (column == node.threshold) if node.unordered else (column <= node.threshold)
        left = rows[mask]
        right = rows[~mask]
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
    trees = []
    importances = []
    for t in range(hp.n_estimators):
        gen = RngState(rng.seed ^ t, rng.stream_id).generator
        if hp.bootstrap:
            sample = gen.integers(0, n, size=n)
        else:
            sample = np.arange(n)
        Xs, ys = X[sample], y[sample]
        if classifier:
            pos = ys > 0.5
            n_pos = int(pos.sum())
            ws = np.where(pos, hp.class_weight[0] / max(n_pos, 1),
                          hp.class_weight[1] / max(n - n_pos, 1))
        else:
            ws = np.ones(n)
        builder = _TreeBuilder(Xs, ys, ws, unordered, hp, gen, k)
        trees.append(builder.build())
        importances.append(builder.importance)
    return Forest(
        kind="classifier" if classifier else "regressor",
        n_features=d,
        unordered=unordered,
        trees=tuple(trees),
        raw_importance=np.mean(importances, axis=0),
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
