import numpy as np
import pytest

from dse import (
    ForestHyperparams,
    RngState,
    feature_importance,
    fit_classifier,
    fit_regressor,
    kfold_recall,
)
from dse.forest import FitError, TreeNode, _TreeBuilder, classifier_grid
from dse.optimizer import _STREAM_FIT, fit_surrogates, run
from dse.space import encode_matrix

from conftest import scenario_with
from oracles import (
    candidate_splits,
    forest_of_trees,
    split_decrease,
    tree_walk,
    weighted_gini,
    weighted_variance,
)

PURE_TREE = ForestHyperparams(n_estimators=1, max_depth=None, max_features=1.0,
                              bootstrap=False, min_samples_split=2)


def test_constant_targets_predict_exactly():
    X = [[0.0], [1.0], [2.0], [3.0]]
    forest = fit_regressor(X, [7.0, 7.0, 7.0, 7.0], ForestHyperparams(), RngState(0))
    for x in X:
        assert forest.predict_batch([x])[0] == 7.0


def test_pure_tree_interpolates_training_data():
    X = [[float(i)] for i in range(10)]
    y = [float(i) for i in range(10)]
    forest = fit_regressor(X, y, PURE_TREE, RngState(1))
    for xi, yi in zip(X, y):
        assert forest.predict_batch([xi])[0] == yi


def test_empty_training_set_is_a_fit_error():
    with pytest.raises(FitError):
        fit_regressor([], [], ForestHyperparams(), RngState(0))


def test_dimension_mismatch_is_a_fit_error():
    with pytest.raises(FitError):
        fit_regressor([[1.0], [2.0]], [1.0], ForestHyperparams(), RngState(0))


@pytest.mark.parametrize("y", [np.ones((3, 2)), np.ones((2, 2, 1)), np.ones((2, 0))],
                         ids=["row-count", "3-d", "no-outputs"])
def test_target_matrix_shape_is_a_fit_error(y):
    with pytest.raises(FitError):
        fit_regressor([[1.0], [2.0]], y, ForestHyperparams(), RngState(0))


def test_prediction_dimension_mismatch():
    forest = fit_regressor([[1.0], [2.0]], [1.0, 2.0], ForestHyperparams(), RngState(0))
    with pytest.raises(ValueError):
        forest.predict_batch([[1.0, 2.0]])


def test_mean_of_two_manual_trees():
    forest = forest_of_trees(kind="regressor", n_features=1, unordered=(False,),
                             trees=(TreeNode(value=2.0), TreeNode(value=4.0)),
                             raw_importance=np.zeros(1))
    assert forest.predict_batch([[0.0]])[0] == 3.0


def test_mean_of_two_manual_classifier_leaves():
    forest = forest_of_trees(kind="classifier", n_features=1, unordered=(False,),
                             trees=(TreeNode(value=0.2), TreeNode(value=0.6)),
                             raw_importance=np.zeros(1))
    assert forest.predict_batch([[0.0]])[0] == pytest.approx(0.4)


def test_single_class_training_yields_constant_classifier():
    X = [[float(i)] for i in range(6)]
    forest = fit_classifier(X, [True] * 6, ForestHyperparams(), RngState(2))
    for xi in X:
        assert forest.predict_batch([xi])[0] == 1.0


def test_separable_data_reaches_full_training_recall():
    X = [[float(i)] for i in range(20)]
    labels = [i <= 5 for i in range(20)]
    forest = fit_classifier(X, labels, ForestHyperparams(n_estimators=10), RngState(3))
    probs = forest.predict_batch(np.asarray(X))
    predicted = probs >= 0.5
    tp = sum(1 for p, t in zip(predicted, labels) if p and t)
    fn = sum(1 for p, t in zip(predicted, labels) if not p and t)
    assert tp / (tp + fn) == 1.0
    assert forest.predict_batch([[0.0]])[0] >= 0.5  # deep inside feasible side


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
        assert forest.predict_batch([xi])[0] == yi


FITS = {"regressor": fit_regressor,
        "classifier": lambda X, y, *args: fit_classifier(X, [v > 0.5 for v in y], *args)}


@pytest.mark.parametrize("kind", FITS)
def test_identical_columns_tie_to_the_lower_feature(kind):
    X = [[float(i), float(i)] for i in range(8)]
    y = [0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]
    root = FITS[kind](X, y, PURE_TREE, RngState(14)).trees[0]
    assert (root.feature, root.threshold) == (0, 2.5)


@pytest.mark.parametrize("kind", FITS)
@pytest.mark.parametrize("categorical_first", [False, True])
def test_threshold_and_level_split_tie_to_the_lower_feature(kind, categorical_first):
    # an ordered 0/1 column and a 2-level categorical column, same partition
    bits = [0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0]
    y = [0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0]
    X = [[b, b] for b in bits]
    unordered = [categorical_first, not categorical_first]
    root = FITS[kind](X, y, PURE_TREE, RngState(15), unordered).trees[0]
    assert root.feature == 0
    assert root.unordered == categorical_first


@pytest.mark.parametrize("kind", FITS)
def test_level_split_when_no_ordered_feature_varies(kind):
    X = [[5.0, float(i % 3), 2.0] for i in range(9)]
    y = [1.0 if i % 3 == 1 else 0.0 for i in range(9)]
    forest = FITS[kind](X, y, PURE_TREE, RngState(16), [False, True, False])
    root = forest.trees[0]
    assert (root.feature, root.threshold, root.unordered) == (1, 1.0, True)
    assert forest.predict_batch(X).tolist() == y


def _oracle_case(kind, gen, hp):
    """A random mixed data set, its targets and sample weights, the fitted
    forest and the impurity the brute-force oracle scores splits with. With
    bootstrap off and every feature chosen, a fit draws nothing at random."""
    n, d = int(gen.integers(2, 25)), int(gen.integers(1, 4))
    unordered = [bool(gen.random() < 0.4) for _ in range(d)]
    X = np.column_stack([
        gen.integers(0, int(gen.integers(2, 5)), n) if u or gen.random() < 0.5
        else np.round(gen.random(n), 2)
        for u in unordered
    ]).astype(float)
    if kind == "regressor":
        y = np.round(gen.normal(size=n), int(gen.integers(0, 3))).tolist()
        forest = fit_regressor(X, y, hp, RngState(0), unordered)
        return X.tolist(), unordered, y, [1.0] * n, forest, weighted_variance
    # each sample of class c weighs class_weight[c] / (count of c)
    y = (gen.random(n) < gen.random()).tolist()
    n_pos = sum(y)
    w = [hp.class_weight[0] / n_pos if yi else hp.class_weight[1] / (n - n_pos) for yi in y]
    forest = fit_classifier(X, y, hp, RngState(0), unordered)
    return X.tolist(), unordered, y, w, forest, weighted_gini


@pytest.mark.parametrize("kind", ["regressor", "classifier"])
def test_root_split_reaches_the_brute_force_maximum(kind):
    # regressors minimize variance; classifiers class-weighted Gini
    hp = ForestHyperparams(n_estimators=1, max_depth=1, max_features=1.0, bootstrap=False)
    gen = np.random.default_rng(21 if kind == "regressor" else 22)
    for case in range(300):
        rows, unordered, y, w, forest, impurity = _oracle_case(kind, gen, hp)
        best = max((split_decrease(y, w, left, impurity)
                    for left in candidate_splits(rows, unordered)), default=0.0)
        root = forest.trees[0]
        if root.is_leaf:
            assert best <= 1e-12, case
            continue
        column = [row[root.feature] for row in rows]
        left = [v == root.threshold if root.unordered else v <= root.threshold for v in column]
        assert split_decrease(y, w, left, impurity) >= best - 1e-12, case


@pytest.mark.parametrize("kind", ["regressor", "classifier"])
@pytest.mark.parametrize("max_depth", [None, 3])
@pytest.mark.parametrize("min_samples_split", [2, 4])
def test_every_node_split_reaches_the_brute_force_maximum(kind, max_depth, min_samples_split):
    hp = ForestHyperparams(n_estimators=2, max_depth=max_depth, max_features=1.0,
                           bootstrap=False, min_samples_split=min_samples_split)
    gen = np.random.default_rng([23, max_depth or 0, min_samples_split, kind == "regressor"])
    for case in range(25):
        rows, unordered, y, w, forest, impurity = _oracle_case(kind, gen, hp)
        for tree in forest.trees:
            stack = [(tree, list(range(len(rows))), 0)]
            while stack:
                node, idx, depth = stack.pop()
                assert max_depth is None or depth <= max_depth, case
                ys, ws = [y[i] for i in idx], [w[i] for i in idx]
                best = max((split_decrease(ys, ws, left, impurity)
                            for left in candidate_splits([rows[i] for i in idx], unordered)),
                           default=0.0)
                if node.is_leaf:
                    mean = sum(wi * yi for wi, yi in zip(ws, ys)) / sum(ws)
                    assert node.value == pytest.approx(mean, rel=1e-12, abs=1e-12), case
                    if len(idx) >= min_samples_split and (max_depth is None or depth < max_depth):
                        assert best <= 1e-12, case  # a leaf only where no split gains
                    continue
                assert len(idx) >= min_samples_split, case
                column = [rows[i][node.feature] for i in idx]
                left = [v == node.threshold if node.unordered else v <= node.threshold
                        for v in column]
                assert split_decrease(ys, ws, left, impurity) >= best - 1e-12, case
                stack.append((node.left, [i for i, go in zip(idx, left) if go], depth + 1))
                stack.append((node.right, [i for i, go in zip(idx, left) if not go], depth + 1))


# --- prediction paths -------------------------------------------------------------

def _path_forests():
    """A 1-output and a 2-output regressor (one output constant, so its trees
    are single leaves), a classifier, and a max_depth=1 regressor, on ordered
    and categorical columns."""
    gen = np.random.default_rng(41)
    n = 90
    X = np.column_stack([gen.random(n), gen.integers(0, 4, n), gen.integers(1, 9, n),
                         np.round(gen.random(n), 1)]).astype(float)
    unordered = [False, True, False, False]
    y = X[:, 0] + (X[:, 1] == 2) + 0.3 * X[:, 2] * gen.random(n)
    hp = ForestHyperparams(n_estimators=5)
    return X, {
        "regressor": fit_regressor(X, y, hp, RngState(1), unordered),
        "2-output": fit_regressor(X, np.column_stack([y, np.full(n, 1.5)]), hp, RngState(2),
                                  unordered),
        "classifier": fit_classifier(X, y > np.median(y), hp, RngState(3), unordered),
        "depth-1": fit_regressor(X, y, ForestHyperparams(n_estimators=5, max_depth=1),
                                 RngState(4), unordered),
    }


@pytest.mark.parametrize("rows", [0, 1, 7, 3000])
def test_both_predict_paths_match_the_node_walk(rows):
    X, forests = _path_forests()
    gen = np.random.default_rng(rows)
    Q = X[gen.integers(0, len(X), rows)]  # training values, so tests hit thresholds exactly
    Q[::2, [0, 2]] = gen.random((len(Q[::2]), 2)) * [1.0, 9.0]  # and values between them
    XT = np.ascontiguousarray(Q.T)
    for name, forest in forests.items():
        reference = tree_walk(forest, Q)
        descent, walk = forest._descend(XT), np.array(list(forest._walk(XT)))
        assert np.array_equal(descent, reference), name
        assert np.array_equal(walk, reference), name
        # the prediction sums each output's leaf values tree by tree in order
        p = forest.raw_importance.reshape(-1, X.shape[1]).shape[0]
        expected = np.zeros((rows, p))
        for i, values in enumerate(reference):
            expected[:, i // (forest.n_trees // p)] += values
        assert np.array_equal(forest.predict_batch(Q).reshape(rows, p),
                              expected / (forest.n_trees // p)), name
    assert all(tree.is_leaf for tree in forests["2-output"].trees[5:])


def test_a_run_builds_no_tree_nodes(toy_scenario_doc, monkeypatch):
    built = []
    original = TreeNode.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(TreeNode, "__init__", counted)
    scenario = scenario_with(toy_scenario_doc, seed=1)
    result = run(scenario)
    assert not built
    # the view of the returned regressor is that of a refit on the same records
    X = encode_matrix(scenario.space, [r.config for r in result.records])
    refit, _ = fit_surrogates(X, result.records, scenario,
                              RngState(1).substream(_STREAM_FIT).substream(
                                  result.meta["iterations_run"]), classify=False)
    assert [_preorder(t) for t in result.regressor.trees] == [
        _preorder(t) for t in refit.trees]
    assert built


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


@pytest.mark.parametrize("y", [[0.1] * 7, [0.3] * 10, [7.1] * 3])
def test_constant_targets_whose_sums_round_grow_single_leaves(y):
    # the sums of w*y and w*y*y round, so the node variance comes out a
    # little above zero; equal targets must still close the root
    X = [[float(i), float(-i)] for i in range(len(y))]
    hp = ForestHyperparams(n_estimators=3, bootstrap=False)
    forest = fit_regressor(X, y, hp, RngState(4))
    assert all(tree.is_leaf and tree.value == pytest.approx(y[0]) for tree in forest.trees)
    assert forest.raw_importance.tolist() == [0.0, 0.0]
    assert feature_importance(forest).tolist() == [0.5, 0.5]


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

def _preorder(tree):
    """(feature, threshold, unordered) of every internal node and the value of
    every leaf, in depth-first preorder."""
    out, stack = [], [tree]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            out.append(node.value)
        else:
            out.append((node.feature, node.threshold, node.unordered))
            stack += [node.right, node.left]
    return out


@pytest.mark.parametrize("kind", FITS)
def test_identical_seed_gives_identical_forest(kind):
    gen = np.random.default_rng(13)
    X = np.column_stack([gen.random(60), gen.integers(0, 3, 60), gen.integers(1, 9, 60),
                         gen.random(60)]).astype(float)
    y = X[:, 0] + (X[:, 1] == 1) + gen.random(60)
    unordered = [False, True, False, False]
    a = FITS[kind](X, y / y.max(), ForestHyperparams(), RngState(99, 1), unordered)
    b = FITS[kind](X, y / y.max(), ForestHyperparams(), RngState(99, 1), unordered)
    assert [_preorder(t) for t in a.trees] == [_preorder(t) for t in b.trees]
    assert np.array_equal(a.raw_importance, b.raw_importance)


@pytest.mark.parametrize("kind", FITS)
@pytest.mark.parametrize("max_features", ["auto", 0.5])
def test_each_tree_grows_as_if_fitted_alone(kind, max_features):
    # tree t of a fit seeded (seed, stream) is tree 0 of a one-tree fit seeded
    # (seed ^ t, stream): growing the trees together leaks nothing between them
    gen = np.random.default_rng(17)
    X = np.column_stack([gen.random(80), gen.integers(0, 4, 80), gen.integers(1, 9, 80),
                         gen.random(80)]).astype(float)
    y = X[:, 0] + (X[:, 1] == 2) + 0.5 * gen.random(80)
    unordered = [False, True, False, False]
    hp = ForestHyperparams(n_estimators=6, max_features=max_features, bootstrap=True)
    alone = ForestHyperparams(n_estimators=1, max_features=max_features, bootstrap=True)
    forest = FITS[kind](X, y / y.max(), hp, RngState(99, 1), unordered)
    singles = [FITS[kind](X, y / y.max(), alone, RngState(99 ^ t, 1), unordered)
               for t in range(hp.n_estimators)]
    for t, single in enumerate(singles):
        assert _preorder(forest.trees[t]) == _preorder(single.trees[0]), t
    assert np.array_equal(forest.raw_importance,
                          np.mean([single.raw_importance for single in singles], axis=0))
    if kind == "regressor":  # tree t of output j: a one-tree fit seeded substream(j).seed ^ t
        Y = np.column_stack([y / y.max(), X[:, 3]])
        fused = fit_regressor(X, Y, hp, RngState(99, 1), unordered)
        for j in range(2):
            sub = RngState(99, 1).substream(j)
            for t in range(hp.n_estimators):
                single = fit_regressor(X, Y[:, j], alone, RngState(sub.seed ^ t, sub.stream_id),
                                       unordered)
                assert _preorder(fused.trees[j * hp.n_estimators + t]) == _preorder(
                    single.trees[0]), (j, t)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("hp", [
    ForestHyperparams(n_estimators=4),
    ForestHyperparams(n_estimators=3, max_depth=3, min_samples_split=5),
    ForestHyperparams(n_estimators=2, bootstrap=False, max_features=0.5),
], ids=["default", "depth-and-split-limits", "no-bootstrap-half-features"])
def test_matrix_fit_equals_per_column_fits(p, hp):
    # output j of a fit on an (n, p) target matrix is, bit for bit, a fit on
    # column j seeded substream(j); the constant column stops at its roots
    gen = np.random.default_rng([31, p])
    n = 70
    X = np.column_stack([gen.random(n), gen.integers(0, 3, n), gen.integers(1, 9, n),
                         gen.random(n)]).astype(float)
    X = np.column_stack([X, X[:, 2]])  # a duplicate column
    unordered = [False, True, False, False, False]
    Y = np.column_stack([X[:, 0] + (X[:, 1] == 1) + gen.random(n), np.full(n, 2.5),
                         X[:, 2] * gen.random(n)])[:, :p]
    forest = fit_regressor(X, Y, hp, RngState(5, 3), unordered)
    rows = X[gen.integers(0, n, 40)]
    rows[:20, [0, 3]] = gen.random((20, 2))  # real values the fit has not seen
    preds = forest.predict_batch(rows)
    assert preds.shape == (len(rows), p)
    assert forest.raw_importance.shape == (p, 5)
    T = hp.n_estimators
    for j in range(p):
        alone = fit_regressor(X, Y[:, j], hp, RngState(5, 3).substream(j), unordered)
        assert [_preorder(t) for t in forest.trees[j * T:(j + 1) * T]] == [
            _preorder(t) for t in alone.trees], j
        assert np.array_equal(forest.raw_importance[j], alone.raw_importance), j
        assert alone.predict_batch(rows).shape == (len(rows),)
        assert np.array_equal(preds[:, j], alone.predict_batch(rows)), j
        assert np.array_equal(feature_importance(forest)[j], feature_importance(alone)), j
    if p > 1:
        assert all(tree.is_leaf for tree in forest.trees[T:2 * T])
        assert feature_importance(forest)[1].tolist() == [0.2] * 5


@pytest.mark.parametrize("d", range(1, 10))
def test_one_permuted_call_draws_successive_permutations(d):
    # a classifier tree draws its nodes' features in blocks, one
    # Generator.permuted call each; its rows must be the permutation(d) calls
    # of a node-by-node draw, and leave the generator where those leave it
    a, b = RngState(d, 7).generator, RngState(d, 7).generator
    rows = np.vstack([a.permuted(np.tile(np.arange(d), (m, 1)), axis=1) for m in (13, 5)])
    assert rows.tolist() == [b.permutation(d).tolist() for _ in range(18)]
    assert a.bit_generator.state == b.bit_generator.state


def test_classifier_draws_each_node_features_in_depth_first_order(monkeypatch):
    # reference: one permutation(d) call per node a tree scores, all drawn
    # before the first pass; the fit draws them in blocks as trees need them
    gen = np.random.default_rng(19)
    X = np.column_stack([gen.random((120, 5)), gen.integers(0, 3, 120)]).astype(float)
    labels = X[:, 0] + X[:, 1] * X[:, 2] + 0.3 * gen.random(120) > 0.8
    unordered = [False] * 5 + [True]
    hp = ForestHyperparams(n_estimators=4)
    fitted = fit_classifier(X, labels, hp, RngState(3), unordered)
    assert max(sum(not isinstance(v, float) for v in _preorder(t)) for t in fitted.trees) > 16

    def up_front(self, m):
        return np.array([[g.permutation(len(self.XT))[:self.k] for _ in range(2 * self.n)]
                         for g in self.gens])

    monkeypatch.setattr(_TreeBuilder, "_draw", up_front)
    reference = fit_classifier(X, labels, hp, RngState(3), unordered)
    assert [_preorder(t) for t in fitted.trees] == [_preorder(t) for t in reference.trees]
