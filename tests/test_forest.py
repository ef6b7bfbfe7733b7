import numpy as np
import pytest

from dse import (
    ForestHyperparams,
    RngState,
    feature_importance,
    fit_classifier,
    fit_regressor,
    kfold_recall,
    predict_feasible_prob,
    predict_regression,
)
from dse.forest import FitError, Forest, TreeNode, classifier_grid
from dse.space import encode_matrix

PURE_TREE = ForestHyperparams(n_estimators=1, max_depth=None, max_features=1.0,
                              bootstrap=False, min_samples_split=2)


def test_constant_targets_predict_exactly():
    X = [[0.0], [1.0], [2.0], [3.0]]
    forest = fit_regressor(X, [7.0, 7.0, 7.0, 7.0], ForestHyperparams(), RngState(0))
    for x in X:
        assert predict_regression(forest, x) == 7.0


def test_pure_tree_interpolates_training_data():
    X = [[float(i)] for i in range(10)]
    y = [float(i) for i in range(10)]
    forest = fit_regressor(X, y, PURE_TREE, RngState(1))
    for xi, yi in zip(X, y):
        assert predict_regression(forest, xi) == yi


def test_empty_training_set_is_a_fit_error():
    with pytest.raises(FitError):
        fit_regressor([], [], ForestHyperparams(), RngState(0))


def test_dimension_mismatch_is_a_fit_error():
    with pytest.raises(FitError):
        fit_regressor([[1.0], [2.0]], [1.0], ForestHyperparams(), RngState(0))


def test_prediction_dimension_mismatch():
    forest = fit_regressor([[1.0], [2.0]], [1.0, 2.0], ForestHyperparams(), RngState(0))
    with pytest.raises(ValueError):
        predict_regression(forest, [1.0, 2.0])


def test_mean_of_two_manual_trees():
    forest = Forest(kind="regressor", n_features=1, unordered=(False,),
                    trees=(TreeNode(value=2.0), TreeNode(value=4.0)),
                    raw_importance=np.zeros(1))
    assert predict_regression(forest, [0.0]) == 3.0


def test_mean_of_two_manual_classifier_leaves():
    forest = Forest(kind="classifier", n_features=1, unordered=(False,),
                    trees=(TreeNode(value=0.2), TreeNode(value=0.6)),
                    raw_importance=np.zeros(1))
    assert predict_feasible_prob(forest, [0.0]) == pytest.approx(0.4)


def test_single_class_training_yields_constant_classifier():
    X = [[float(i)] for i in range(6)]
    forest = fit_classifier(X, [True] * 6, ForestHyperparams(), RngState(2))
    for xi in X:
        assert predict_feasible_prob(forest, xi) == 1.0


def test_separable_data_reaches_full_training_recall():
    X = [[float(i)] for i in range(20)]
    labels = [i <= 5 for i in range(20)]
    forest = fit_classifier(X, labels, ForestHyperparams(n_estimators=10), RngState(3))
    probs = forest.predict_batch(np.asarray(X))
    predicted = probs >= 0.5
    tp = sum(1 for p, t in zip(predicted, labels) if p and t)
    fn = sum(1 for p, t in zip(predicted, labels) if not p and t)
    assert tp / (tp + fn) == 1.0
    assert predict_feasible_prob(forest, [0.0]) >= 0.5  # deep inside feasible side


def test_feasible_heavy_class_weight_raises_recall(toy_scenario, toy_truth):
    _, records = toy_truth
    space = toy_scenario.space
    X = encode_matrix(space, [r.config for r in records])
    labels = [r.feasible for r in records]
    heavy = ForestHyperparams(class_weight=(0.9, 0.1))
    even = ForestHyperparams(class_weight=(0.5, 0.5))
    wins = 0
    for seed in range(1, 6):
        r_heavy = kfold_recall(X, labels, heavy, 5, RngState(seed, 100), space.unordered_mask)
        r_even = kfold_recall(X, labels, even, 5, RngState(seed, 100), space.unordered_mask)
        wins += r_heavy >= r_even
    assert wins >= 4


def test_classifier_probabilities_lie_in_unit_interval(toy_scenario, toy_truth):
    _, records = toy_truth
    space = toy_scenario.space
    X = encode_matrix(space, [r.config for r in records])
    labels = [r.feasible for r in records]
    forest = fit_classifier(X, labels, ForestHyperparams(), RngState(4), space.unordered_mask)
    probs = forest.predict_batch(X)
    assert np.all((probs >= 0.0) & (probs <= 1.0))


def test_regression_predictions_bounded_by_targets():
    gen = np.random.default_rng(5)
    X = gen.random((80, 3))
    y = gen.normal(size=80) * 10
    forest = fit_regressor(X, y, ForestHyperparams(), RngState(5))
    preds = forest.predict_batch(gen.random((200, 3)))
    assert preds.min() >= y.min() - 1e-12
    assert preds.max() <= y.max() + 1e-12


def test_two_point_split_threshold_lies_strictly_between():
    forest = fit_classifier([[1.0], [3.0]], [True, False], PURE_TREE, RngState(6))
    root = forest.trees[0]
    assert not root.is_leaf
    assert 1.0 < root.threshold < 3.0


def test_categorical_features_split_on_level_equality():
    # feature is a level index flagged unordered; y depends on level 2 only
    X = [[float(i % 3)] for i in range(12)]
    y = [1.0 if i % 3 == 2 else 0.0 for i in range(12)]
    forest = fit_regressor(X, y, PURE_TREE, RngState(7), unordered=[True])
    root = forest.trees[0]
    assert not root.is_leaf
    assert root.unordered
    for xi, yi in zip(X, y):
        assert predict_regression(forest, xi) == yi


# --- feature importance -------------------------------------------------------

def test_importance_concentrates_on_driving_feature():
    gen = np.random.default_rng(8)
    X = gen.random((200, 4))
    y = X[:, 0].copy()  # only feature 0 matters
    forest = fit_regressor(X, y, ForestHyperparams(), RngState(8))
    imp = feature_importance(forest)
    assert imp[0] >= 0.9
    assert imp.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(imp >= 0.0)


def test_importance_of_constant_forest_is_uniform():
    X = [[float(i), float(-i)] for i in range(8)]
    forest = fit_regressor(X, [3.0] * 8, ForestHyperparams(), RngState(9))
    assert np.allclose(feature_importance(forest), [0.5, 0.5])


# --- k-fold recall --------------------------------------------------------------

def test_kfold_recall_perfect_on_separable_data():
    X = [[float(i)] for i in range(30)]
    labels = [i < 15 for i in range(30)]
    value = kfold_recall(X, labels, ForestHyperparams(), 5, RngState(10))
    assert value == 1.0


def test_recall_definition_tp_over_tp_plus_fn():
    # three positives, one missed: recall must be 2/3
    tp, fn = 2, 1
    assert tp / (tp + fn) == pytest.approx(2 / 3)
    # a fold without positives contributes 1.0: all-negative test fold below
    X = [[0.0], [0.1], [10.0], [10.1]]
    labels = [False, False, True, True]
    # k=2 with a seed that groups both positives into the training fold once
    value = kfold_recall(X, labels, PURE_TREE, 2, RngState(3))
    assert 0.0 <= value <= 1.0


def test_kfold_preconditions():
    X = [[0.0], [1.0]]
    with pytest.raises(ValueError):
        kfold_recall(X, [True, False], ForestHyperparams(), 1, RngState(0))
    with pytest.raises(ValueError):
        kfold_recall(X, [False, False], ForestHyperparams(), 2, RngState(0))
    with pytest.raises(ValueError):
        kfold_recall([[0.0]], [True], ForestHyperparams(), 2, RngState(0))


def test_classifier_grid_has_81_documented_combos(toy_scenario, toy_truth):
    grid = classifier_grid()
    assert len(grid) == 81
    assert ForestHyperparams(n_estimators=10, max_depth=8, max_features="auto",
                             class_weight=(0.75, 0.25)) in grid
    # desk-scale spot check: a slice of the grid scores sane recalls on toy data
    _, records = toy_truth
    space = toy_scenario.space
    X = encode_matrix(space, [r.config for r in records[:120]])
    labels = [r.feasible for r in records[:120]]
    for hp in grid[::13]:
        small = ForestHyperparams(n_estimators=min(hp.n_estimators, 20),
                                  max_depth=hp.max_depth,
                                  max_features=hp.max_features,
                                  class_weight=hp.class_weight)
        value = kfold_recall(X, labels, small, 5, RngState(11), space.unordered_mask)
        assert 0.0 <= value <= 1.0


# --- determinism ------------------------------------------------------------------

def test_identical_seed_gives_identical_forest():
    gen = np.random.default_rng(13)
    X = gen.random((50, 2))
    y = gen.random(50)
    a = fit_regressor(X, y, ForestHyperparams(), RngState(99, 1))
    b = fit_regressor(X, y, ForestHyperparams(), RngState(99, 1))
    assert np.array_equal(a.predict_batch(X), b.predict_batch(X))
    assert np.array_equal(a.raw_importance, b.raw_importance)
