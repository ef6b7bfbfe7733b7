"""Randomized decision forests, built from scratch.

Regression forests act as per-objective surrogates; a binary classification
forest acts as the feasibility filter. Trees are grown on bootstrap resamples
with per-node feature subsampling. Ordered features split on thresholds
(midpoints between consecutive distinct values); features flagged unordered
(categorical level indices) split on level equality, never on thresholds.

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
    if not isinstance(raw, dict):
        raise ValueError("surrogate entries must be objects")
    allowed = {"n_estimators", "max_depth", "max_features", "bootstrap", "min_samples_split"}
    if classifier:
        allowed = allowed | {"class_weight"}
    unknown = set(raw) - allowed
    if unknown:
        raise ValueError(f"unknown surrogate key {sorted(unknown)[0]!r}")
    kwargs: dict = {}
    if "n_estimators" in raw:
        kwargs["n_estimators"] = int(raw["n_estimators"])
    if "max_depth" in raw:
        kwargs["max_depth"] = None if raw["max_depth"] is None else int(raw["max_depth"])
    if "max_features" in raw:
        mf = raw["max_features"]
        kwargs["max_features"] = mf if mf == "auto" else float(mf)
    if "bootstrap" in raw:
        kwargs["bootstrap"] = bool(raw["bootstrap"])
    if "min_samples_split" in raw:
        kwargs["min_samples_split"] = int(raw["min_samples_split"])
    if "class_weight" in raw:
        cw = raw["class_weight"]
        if not isinstance(cw, dict) or set(cw) != {"true", "false"}:
            raise ValueError('class_weight must be {"true": w, "false": w}')
        kwargs["class_weight"] = (float(cw["true"]), float(cw["false"]))
    return ForestHyperparams(**kwargs)


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


def _variance_impurity(y: np.ndarray) -> float:
    if y.size == 0:
        return 0.0
    m = y.mean()
    return float(np.mean(y * y) - m * m)


def _gini_impurity(w_pos: float, w_total: float) -> float:
    if w_total <= 0.0:
        return 0.0
    p = w_pos / w_total
    return 1.0 - (p * p + (1.0 - p) * (1.0 - p))


class _TreeBuilder:
    """Grows one tree; collects per-feature impurity decreases on the way."""

    def __init__(self, X, y, w, unordered, hp: ForestHyperparams, gen, classifier: bool):
        self.X = X
        self.y = y
        self.w = w  # sample weights; None for regression
        self.unordered = unordered
        self.hp = hp
        self.gen = gen
        self.classifier = classifier
        self.k = hp.resolve_max_features(X.shape[1], classifier)
        self.importance = np.zeros(X.shape[1])
        self.root_weight = float(w.sum()) if classifier else float(len(y))

    def build(self) -> TreeNode:
        # explicit stack: pathological trees can be as deep as the sample count
        root = TreeNode()
        stack = [(root, np.arange(len(self.y)), 0)]
        while stack:
            node, idx, depth = stack.pop()
            self._grow(node, idx, depth, stack)
        return root

    def _make_leaf(self, node: TreeNode, idx) -> None:
        y = self.y[idx]
        if self.classifier:
            w = self.w[idx]
            total = float(w.sum())
            node.value = float(w[y > 0.5].sum()) / total if total > 0 else 0.5
        else:
            node.value = float(y.mean())

    def _node_impurity(self, idx) -> tuple[float, float]:
        # returns (impurity, node weight)
        if self.classifier:
            w = self.w[idx]
            total = float(w.sum())
            pos = float(w[self.y[idx] > 0.5].sum())
            return _gini_impurity(pos, total), total
        return _variance_impurity(self.y[idx]), float(len(idx))

    def _grow(self, node: TreeNode, idx, depth, stack) -> None:
        impurity, weight = self._node_impurity(idx)
        if (
            len(idx) < self.hp.min_samples_split
            or len(idx) < 2
            or impurity <= 0.0
            or (self.hp.max_depth is not None and depth >= self.hp.max_depth)
        ):
            self._make_leaf(node, idx)
            return

        split = self._best_split(idx)
        if split is None:
            self._make_leaf(node, idx)
            return
        feature, test_value, gain, left_mask = split
        self.importance[feature] += (weight / self.root_weight) * gain
        node.feature = feature
        node.threshold = test_value
        node.unordered = self.unordered[feature]
        node.left = TreeNode()
        node.right = TreeNode()
        stack.append((node.right, idx[~left_mask], depth + 1))
        stack.append((node.left, idx[left_mask], depth + 1))

    def _best_split(self, idx):
        d = self.X.shape[1]
        chosen = np.sort(self.gen.permutation(d)[: self.k])
        best = None  # (gain, feature, test_value, left_mask)
        y = self.y[idx]
        w = self.w[idx] if self.classifier else None
        for f in chosen:
            values = self.X[idx, f]
            if self.unordered[f]:
                candidate = self._best_level_split(values, y, w)
            else:
                candidate = self._best_threshold_split(values, y, w)
            if candidate is None:
                continue
            gain, test_value, left_mask = candidate
            if best is None or gain > best[0] + 1e-15:
                best = (gain, int(f), test_value, left_mask)
        if best is None or best[0] <= 0.0:
            return None
        gain, feature, test_value, left_mask = best
        return feature, test_value, gain, left_mask

    def _split_score(self, y_sorted, w_sorted, boundaries):
        """Impurity decrease of every candidate boundary, vectorized.

        ``boundaries[i]`` = number of samples routed left; the score is the
        parent impurity minus the weighted mean child impurity.
        """
        n = len(y_sorted)
        if self.classifier:
            cw = np.cumsum(w_sorted)
            cwp = np.cumsum(w_sorted * y_sorted)
            total_w, total_p = cw[-1], cwp[-1]
            wl = cw[boundaries - 1]
            pl = cwp[boundaries - 1]
            wr = total_w - wl
            pr = total_p - pl
            gini_l = 1.0 - ((pl / wl) ** 2 + ((wl - pl) / wl) ** 2)
            gini_r = 1.0 - ((pr / wr) ** 2 + ((wr - pr) / wr) ** 2)
            parent = _gini_impurity(total_p, total_w)
            return parent - (wl * gini_l + wr * gini_r) / total_w
        s1 = np.cumsum(y_sorted)
        s2 = np.cumsum(y_sorted * y_sorted)
        nl = boundaries.astype(float)
        nr = n - nl
        sl1, sl2 = s1[boundaries - 1], s2[boundaries - 1]
        var_l = np.maximum(sl2 / nl - (sl1 / nl) ** 2, 0.0)
        var_r = np.maximum((s2[-1] - sl2) / nr - ((s1[-1] - sl1) / nr) ** 2, 0.0)
        parent = np.maximum(s2[-1] / n - (s1[-1] / n) ** 2, 0.0)
        return parent - (nl * var_l + nr * var_r) / n

    def _best_threshold_split(self, values, y, w):
        order = np.argsort(values, kind="stable")
        sv = values[order]
        distinct = np.nonzero(sv[:-1] < sv[1:])[0]
        if distinct.size == 0:
            return None
        boundaries = distinct + 1
        gains = self._split_score(y[order], w[order] if w is not None else None, boundaries)
        best_i = int(np.argmax(gains))
        # ties between equal gains resolve to the lowest threshold
        for i in range(best_i):
            if gains[i] >= gains[best_i] - 1e-15:
                best_i = i
                break
        cut = boundaries[best_i]
        threshold = 0.5 * (sv[cut - 1] + sv[cut])
        if threshold >= sv[cut]:
            # adjacent floats: the midpoint rounded up; fall back to the
            # lower value so both children stay non-empty
            threshold = sv[cut - 1]
        return float(gains[best_i]), float(threshold), values <= threshold

    def _best_level_split(self, values, y, w):
        levels = np.unique(values)
        if levels.size < 2:
            return None
        best = None
        for level in levels:
            mask = values == level
            gain = self._two_group_gain(mask, y, w)
            if gain is None:
                continue
            if best is None or gain > best[0] + 1e-15:
                best = (gain, float(level), mask)
        return best

    def _two_group_gain(self, left_mask, y, w):
        n_l = int(left_mask.sum())
        if n_l == 0 or n_l == len(y):
            return None
        if self.classifier:
            wl = float(w[left_mask].sum())
            wr = float(w[~left_mask].sum())
            pl = float(w[left_mask & (y > 0.5)].sum())
            pr = float(w[~left_mask & (y > 0.5)].sum())
            total = wl + wr
            parent = _gini_impurity(pl + pr, total)
            child = (wl * _gini_impurity(pl, wl) + wr * _gini_impurity(pr, wr)) / total
            return parent - child
        parent = _variance_impurity(y)
        child = (
            n_l * _variance_impurity(y[left_mask])
            + (len(y) - n_l) * _variance_impurity(y[~left_mask])
        ) / len(y)
        return parent - child


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

    trees = []
    importances = []
    for t in range(hp.n_estimators):
        gen = RngState(rng.seed ^ t, rng.stream_id).generator
        if hp.bootstrap:
            sample = gen.integers(0, n, size=n)
        else:
            sample = np.arange(n)
        Xs, ys = X[sample], y[sample]
        ws = None
        if classifier:
            pos = ys > 0.5
            n_pos, n_neg = int(pos.sum()), int((~pos).sum())
            ws = np.empty(n)
            if n_pos:
                ws[pos] = hp.class_weight[0] / n_pos
            if n_neg:
                ws[~pos] = hp.class_weight[1] / n_neg
        builder = _TreeBuilder(Xs, ys, ws, unordered, hp, gen, classifier)
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

    Splits minimize class-weighted Gini impurity; each sample of class c
    weighs class_weight[c] / (count of c in the tree's bootstrap sample), so
    per-tree class mass matches the configured weights. Leaves store the
    weighted feasible-class probability; a single-class training set yields
    a constant classifier.
    """
    labels = np.asarray([1.0 if bool(v) else 0.0 for v in np.asarray(labels).ravel()])
    return _fit(X, labels, hp, rng, unordered, classifier=True)


def predict_regression(forest: Forest, x) -> float:
    if forest.kind != "regressor":
        raise ValueError("predict_regression requires a regression forest")
    return float(forest.predict_batch(np.asarray(x, dtype=float).reshape(1, -1))[0])


def predict_feasible_prob(forest: Forest, x) -> float:
    """Mean over trees of the leaf feasible-class probability; the optimizer
    treats prob >= threshold (default 0.5) as feasible."""
    if forest.kind != "classifier":
        raise ValueError("predict_feasible_prob requires a classification forest")
    return float(forest.predict_batch(np.asarray(x, dtype=float).reshape(1, -1))[0])


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
