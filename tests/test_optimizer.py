import json
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from dse import (
    DesignSpace,
    DomainError,
    EvaluationRecord,
    ForestHyperparams,
    Parameter,
    Prior,
    RngState,
    candidate_pool,
    constrained_front,
    fit_classifier,
    fit_regressor,
    predict_pareto,
    run,
    select_batch,
)
from dse.pareto import feasible_front
from dse.space import RowSet, decode_matrix, distinct_rows, encode_matrix, enumerate_space

from conftest import scenario_with
from oracles import dominates, pairwise_front, tuple_pool

PURE_TREE = ForestHyperparams(n_estimators=1, max_depth=None, max_features=1.0,
                              bootstrap=False)


def count_rows(monkeypatch, original, rows):
    """Wrap ``original`` in every dse module that binds it, so a call through
    any of them is seen; each call appends ``rows(args, result)`` to the
    returned list."""
    counts = []

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        counts.append(rows(args, result))
        return result

    name = original.__name__
    bound = [module for key, module in list(sys.modules.items())
             if key.split(".")[0] == "dse" and getattr(module, name, None) is original]
    assert sys.modules[original.__module__] in bound
    for module in bound:
        monkeypatch.setattr(module, name, counted)
    return counts


def count_keyed_rows(monkeypatch):
    """The row count of every :func:`dse.space.row_keys` call, through every binding."""
    import dse.space

    return count_rows(monkeypatch, dse.space.row_keys, lambda args, keys: len(keys))


# --- candidate_pool ---------------------------------------------------------------

def test_pool_enumerates_small_spaces(toy_scenario):
    space = toy_scenario.space
    nothing = RowSet.of(space, encode_matrix(space, []))
    pool = decode_matrix(space, candidate_pool(space, 100_000, nothing, RngState(1)))
    assert len(pool) == 240
    assert len(set(pool)) == 240


def test_enumerated_pool_builds_no_generator(toy_scenario):
    rng, nothing = RngState(1), RowSet.of(toy_scenario.space, encode_matrix(toy_scenario.space, []))
    candidate_pool(toy_scenario.space, 240, nothing, rng)
    assert rng._gen is None  # the generator is built only when the pool is drawn
    candidate_pool(toy_scenario.space, 239, nothing, rng)
    assert rng._gen is not None


def test_pool_samples_large_spaces_distinctly():
    space = DesignSpace(tuple(
        Parameter(f"p{i}", "integer", lower=1, upper=1000) for i in range(3)))
    assert space.cardinality() == 10 ** 9
    nothing = RowSet.of(space, encode_matrix(space, []))
    pool = decode_matrix(space, candidate_pool(space, 1000, nothing, RngState(2)))
    assert len(pool) == 1000
    assert len(set(pool)) == 1000


def test_pool_of_one():
    space = DesignSpace((Parameter("x", "real", lower=0.0, upper=1.0),))
    nothing = RowSet.of(space, encode_matrix(space, []))
    assert len(candidate_pool(space, 1, nothing, RngState(3))) == 1


@pytest.mark.parametrize("lower, upper", [
    pytest.param(-5, 10 ** 9, id="range-below-2**32"),  # numpy's 32-bit bounded draw
    pytest.param(-2 ** 53, 2 ** 53, id="range-above-2**32"),  # its 64-bit bounded draw
])
def test_uniform_pool_draws_integers_as_numpy_does(lower, upper):
    space = DesignSpace((Parameter("x", "integer", lower=lower, upper=upper),))
    pool = candidate_pool(space, 200, RowSet.of(space, encode_matrix(space, [])), RngState(5, 3))
    expected = RngState(5, 3).generator.integers(lower, upper + 1, size=200)
    assert len(set(expected.tolist())) == 200  # no repeat, so the pool draws no second block
    assert pool[:, 0].tolist() == expected.astype(float).tolist()


MIXED = DesignSpace((
    Parameter("x", "real", lower=-2.0, upper=3.0),
    Parameter("n", "integer", lower=-3, upper=6),
    Parameter("o", "ordinal", values=(1, 2.5, 8, 20)),
    Parameter("c", "categorical", values=("a", "b", "c")),
    Parameter("y", "real", lower=0.0, upper=1e-3),
))
FIFTY = DesignSpace((Parameter("n", "integer", lower=1, upper=5),
                     Parameter("c", "categorical", values=tuple("abcdefghij"))))


class NarrowDraws:
    """An RngState stand-in whose integer draws hit only the two lowest levels
    of a parameter, so a pool from it keeps colliding and needs the top-up."""

    def __init__(self, seed):
        self.generator = self
        self._gen = np.random.default_rng(seed)

    def integers(self, low, high, size):
        return self._gen.integers(low, min(high, low + 2), size=size)

    def random(self, size):
        return self._gen.random(size)

    def permutation(self, n):
        return self._gen.permutation(n)


@pytest.mark.parametrize("space, s, make_rng", [
    pytest.param(DesignSpace((Parameter("o", "ordinal", values=(1, 2.5, 8)),
                              Parameter("c", "categorical", values=("x", "y")),
                              Parameter("n", "integer", lower=-2, upper=2))),
                 100, lambda: RngState(1), id="enumeration"),
    pytest.param(FIFTY, 45, lambda: RngState(2), id="collisions"),
    pytest.param(FIFTY, 45, lambda: NarrowDraws(3), id="top-up"),
    pytest.param(DesignSpace(tuple(Parameter(f"p{i}", "integer", lower=1, upper=1000)
                                   for i in range(3))),
                 5000, lambda: RngState(4), id="billion"),
    pytest.param(DesignSpace(tuple(Parameter(f"p{i}", "integer", lower=0, upper=10 ** 6)
                                   for i in range(4))),
                 2000, lambda: RngState(5), id="hashed-finite"),
    pytest.param(MIXED, 5000, lambda: RngState(6), id="mixed"),
])
def test_pool_matrix_decodes_to_the_tuple_stream(space, s, make_rng):
    nothing = RowSet.of(space, encode_matrix(space, []))
    got = decode_matrix(space, candidate_pool(space, s, nothing, make_rng()))
    want = tuple_pool(space, s, make_rng())
    assert len(want) == min(s, space.cardinality() or s)
    assert got == want
    assert [tuple(map(type, c)) for c in got] == [tuple(map(type, c)) for c in want]


@pytest.mark.parametrize("space, s, make_rng", [
    pytest.param(FIFTY, 100, lambda: RngState(1), id="enumeration"),
    pytest.param(FIFTY, 30, lambda: RngState(2), id="collisions"),
    pytest.param(FIFTY, 45, lambda: RngState(2), id="what-is-left"),
    pytest.param(FIFTY, 30, lambda: NarrowDraws(3), id="top-up"),
    pytest.param(DesignSpace(tuple(Parameter(f"p{i}", "integer", lower=0, upper=10 ** 6)
                                   for i in range(4))),
                 2000, lambda: RngState(5), id="hashed-finite"),
    pytest.param(MIXED, 5000, lambda: RngState(6), id="mixed"),
])
def test_pool_never_holds_an_archive_row(space, s, make_rng):
    # the archive takes every third row the pool would hold without it
    archive = tuple_pool(space, s, make_rng())[::3]
    evaluated = RowSet.of(space, encode_matrix(space, archive))
    got = decode_matrix(space, candidate_pool(space, s, evaluated, make_rng()))
    assert got == tuple_pool(space, s, make_rng(), taken=archive)
    assert not set(got) & set(archive)
    assert len(set(got)) == len(got) == min(s, (space.cardinality() or s + len(archive))
                                            - len(archive))


def test_mixed_pool_is_the_parents_pool_then_exclusion():
    nothing = RowSet.of(MIXED, encode_matrix(MIXED, []))
    pool = decode_matrix(MIXED, candidate_pool(MIXED, 3000, nothing, RngState(6)))
    archive = decode_matrix(MIXED, candidate_pool(MIXED, 500, nothing, RngState(7)))
    evaluated = RowSet.of(MIXED, encode_matrix(MIXED, archive))
    got = decode_matrix(MIXED, candidate_pool(MIXED, 3000, evaluated, RngState(6)))
    assert got == [c for c in pool if c not in set(archive)] == pool  # no draw hits the archive
    # an archive row that is drawn is replaced by a later draw, not left as a gap
    evaluated = RowSet.of(MIXED, encode_matrix(MIXED, pool[:10]))
    got = decode_matrix(MIXED, candidate_pool(MIXED, 3000, evaluated, RngState(6)))
    assert got[:2990] == pool[10:] and len(set(got)) == 3000 and not set(got) & set(pool[:10])


def test_decode_inverts_encode_with_exact_types():
    configs = [(-2.0, -3, 1, "a", 0.0), (3.0, 6, 2.5, "c", 1e-3),
               (0.1 + 0.2, 0, 20, "b", 5e-324), (-0.0, 2, 8, "a", 2.5e-4)]
    decoded = decode_matrix(MIXED, encode_matrix(MIXED, configs))
    assert decoded == configs
    assert [tuple(map(type, c)) for c in decoded] == [tuple(map(type, c)) for c in configs]
    assert decode_matrix(MIXED, encode_matrix(MIXED, [])) == []


class FixedDraws:
    """An RngState stand-in whose uniform draws repeat a fixed cycle of values
    and whose integer draws are all the lowest level."""

    def __init__(self, values):
        self.generator = self
        self.values = values

    def random(self, size):
        return np.resize(self.values, size)

    def integers(self, low, high, size):
        return np.full(size, low)


def test_pool_keeps_rows_one_ulp_apart():
    space = DesignSpace((Parameter("x", "real", lower=0.0, upper=1.0),
                         Parameter("c", "categorical", values=("a", "b"))))
    half, above = 0.5, float(np.nextafter(0.5, 1.0))
    pool = candidate_pool(space, 3, RowSet.of(space, encode_matrix(space, [])),
                          FixedDraws([half, above]))
    assert decode_matrix(space, pool) == [(half, "a"), (above, "a")]  # the repeats are dropped

    flat = fit_regressor(pool, [[1.0, 1.0], [1.0, 1.0]], PURE_TREE, RngState(0))
    for evaluated, rest in [(half, above), (above, half)]:
        X = RowSet.of(space, encode_matrix(space, [(evaluated, "a")]))
        fresh = candidate_pool(space, 3, X, FixedDraws([half, above]))
        assert predict_pareto(space, fresh, flat, None, 0.5) == [(rest, "a")]


def test_rows_that_share_a_hash_are_compared(monkeypatch):
    import dse.space

    space = DesignSpace((Parameter("x", "real", lower=-1.0, upper=1.0),
                         Parameter("c", "categorical", values=("a", "b"))))
    X = np.array([[0.5, 0], [0.25, 1], [0.5, 0], [-0.0, 1], [0.0, 1], [0.25, 1], [0.5, 1]])

    def check():
        keys = dse.space.row_keys(space, X)
        new = RowSet.of(space, X[:0]).new(X, keys)
        assert new.tolist() == [True, True, False, True, False, False, True]
        rows = RowSet.of(space, X)
        assert len(rows) == 4
        assert not rows.new(X, keys).any()

    check()
    monkeypatch.setattr(dse.space, "row_keys", lambda space, X: np.zeros(len(X), dtype=np.uint64))
    check()


# --- distinct_rows ----------------------------------------------------------------

ORD = DesignSpace((Parameter("o", "ordinal", values=(1, 5, 8)),
                   Parameter("n", "integer", lower=0, upper=1)))
REAL_CAT = DesignSpace((Parameter("x", "real", lower=-1.0, upper=1.0),
                        Parameter("c", "categorical", values=("a", "b"))))


def unused_in_random_order(space, taken, seed):
    """Oracle for the top-up: the configurations not taken, in enumeration
    order, permuted by a generator seeded ``seed``."""
    remaining = [c for c in enumerate_space(space) if c not in set(taken)]
    return [remaining[i] for i in np.random.default_rng(seed).permutation(len(remaining))]


DISTINCT_CASES = [
    pytest.param(ORD, [(8, 0)], [(8.0, 0), (1, 0), (8.0, 1)], 2, [(1, 0), (8, 1)],
                 id="ordinal-8-vs-8.0"),
    pytest.param(REAL_CAT, [(-0.0, "a")], [(0.0, "a"), (0.5, "a"), (-0.0, "b")], 2,
                 [(0.5, "a"), (-0.0, "b")], id="real-minus-zero"),
    pytest.param(ORD, [(1, 0), (1, 0), (5, 1), (1, 0)],
                 [(1, 0), (5, 1), (5, 0), (5, 0), (8, 0)], 2, [(5, 0), (8, 0)],
                 id="repeated-taken"),
    # the top-up follows 100 drawn rows per row asked for, here 300
    pytest.param(ORD, [(1, 0), (8, 1)], [(1, 0), (8, 1)] * 150, 3,
                 unused_in_random_order(ORD, [(1, 0), (8, 1)], 7)[:3], id="spent-budget-tops-up"),
    pytest.param(ORD, [(1, 0), (8, 1)],
                 [(1, 0), (5, 1), (5, 1)] + [(1, 0), (5, 1), (8, 1)] * 99, 3,
                 [(5, 1)] + unused_in_random_order(ORD, [(1, 0), (8, 1), (5, 1)], 7)[:2],
                 id="top-up-after-kept-draws"),
    pytest.param(REAL_CAT, [(0.25, "a"), (0.75, "b"), (0.25, "b")],
                 [(0.75, "b"), (0.25, "a"), (0.75, "a"), (0.75, "a"), (0.25, "b"), (-1.0, "b")],
                 2, [(0.75, "a"), (-1.0, "b")], id="hashed-keys"),
    pytest.param(ORD, [(8, 1), (1, 0)], [], 6, [(1, 1), (5, 0), (5, 1), (8, 0)],
                 id="whole-space-but-taken"),
    pytest.param(ORD, [(8, 1), (1, 0)], [], 4, [(1, 1), (5, 0), (5, 1), (8, 0)],
                 id="all-that-is-left"),
]


@pytest.mark.parametrize("space, taken, draws, n, expected", DISTINCT_CASES)
def test_distinct_rows_never_returns_a_taken_row(space, taken, draws, n, expected):
    check_distinct_rows(space, taken, draws, n, expected)


@pytest.mark.parametrize("space, taken, draws, n, expected",
                         [case for case in DISTINCT_CASES
                          if case.id in ("real-minus-zero", "hashed-keys")])
def test_distinct_rows_compares_rows_that_share_a_hash(monkeypatch, space, taken, draws, n,
                                                       expected):
    import dse.space

    monkeypatch.setattr(dse.space, "row_keys", lambda space, X: np.zeros(len(X), dtype=np.uint64))
    check_distinct_rows(space, taken, draws, n, expected)


def check_distinct_rows(space, taken, draws, n, expected):
    for order in (taken, taken[::-1]):
        script = iter(draws)

        def draw(k):
            assert k >= 1
            return encode_matrix(space, [next(script) for _ in range(k)])

        rng = SimpleNamespace(generator=np.random.default_rng(7))
        taken = RowSet.of(space, encode_matrix(space, order))
        got = decode_matrix(space, distinct_rows(space, n, draw, rng, taken=taken))
        assert got == expected
        assert next(script, None) is None  # blocks of exactly the rows still missing


def test_each_drawn_row_is_keyed_once(monkeypatch):
    import dse.optimizer
    import dse.space

    # a pool that barely fills its space: about 300 small blocks of draws
    space = DesignSpace((Parameter("x", "integer", lower=0, upper=299),))
    evaluated = encode_matrix(space, [(i,) for i in range(0, 294, 6)])
    keyed, drawn = [], []
    row_keys, uniform_rows = dse.space.row_keys, dse.optimizer._uniform_rows
    monkeypatch.setattr(dse.space, "row_keys",
                        lambda space, X: keyed.append(len(X)) or row_keys(space, X))
    monkeypatch.setattr(dse.optimizer, "_uniform_rows",
                        lambda space, k, gen: drawn.append(k) or uniform_rows(space, k, gen))
    pool = decode_matrix(space, candidate_pool(space, 250, RowSet.of(space, evaluated),
                                               RngState(0)))
    assert len(set(pool)) == 250 and not set(pool) & set(decode_matrix(space, evaluated))
    assert len(drawn) > 100
    assert sum(keyed) <= len(evaluated) + sum(drawn)


def test_pool_drawn_in_one_block_is_column_major():
    evaluated = RowSet.of(MIXED, encode_matrix(MIXED, [(0.5, 1, 8, "b", 0.0)]))
    pool = candidate_pool(MIXED, 500, evaluated, RngState(6))
    assert pool.shape == (500, 5)
    assert pool.flags.f_contiguous


def test_predict_pareto_hands_the_forests_column_major_rows(monkeypatch):
    from dse.forest import Forest

    layouts, original = [], Forest.predict_batch
    monkeypatch.setattr(Forest, "predict_batch",
                        lambda self, X: layouts.append(X.T.flags.c_contiguous) or original(self, X))
    X = candidate_pool(MIXED, 40, RowSet.of(MIXED, encode_matrix(MIXED, [])), RngState(1))
    regressor = fit_regressor(X, np.c_[X[:, 0], -X[:, 1]], ForestHyperparams(), RngState(2))
    classifier = fit_classifier(X, X[:, 0] > 0.0, ForestHyperparams(), RngState(3))
    pool = candidate_pool(MIXED, 300, RowSet.of(MIXED, X), RngState(4))
    assert predict_pareto(MIXED, pool, regressor, classifier, 0.5)
    assert layouts == [True, True]


# --- predict_pareto ----------------------------------------------------------------

def four_point_regressor():
    """A regressor trained to interpolate hand-set predictions exactly."""
    space = DesignSpace((Parameter("x", "integer", lower=0, upper=3),))
    configs = [(i,) for i in range(4)]
    X = encode_matrix(space, configs)
    targets = [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0), (2.0, 3.0)]
    return space, configs, X, fit_regressor(X, targets, PURE_TREE, RngState(4))


def test_predict_pareto_returns_nondominated_configs():
    space, configs, pool, regressor = four_point_regressor()
    predicted = predict_pareto(space, pool, regressor, None, 0.5)
    assert predicted == configs[:3]  # (2,3) is dominated by (2,2)


def test_predict_pareto_excludes_evaluated_configs():
    space, _, pool, regressor = four_point_regressor()
    fresh = candidate_pool(space, 4, RowSet.of(space, pool), RngState(0))
    assert len(fresh) == 0
    assert predict_pareto(space, fresh, regressor, None, 0.5) == []


def test_predict_pareto_keys_no_rows(monkeypatch):
    keyed = count_keyed_rows(monkeypatch)
    space, configs, pool, regressor = four_point_regressor()
    classifier = fit_classifier(pool, [True] * 4, ForestHyperparams(), RngState(5))
    assert predict_pareto(space, pool, regressor, classifier, 0.5) == configs[:3]
    assert keyed == []
    RowSet.of(space, pool)
    assert keyed == [4]  # the spy sees a keying


def test_predict_pareto_filters_predicted_infeasible():
    space, _, pool, regressor = four_point_regressor()
    classifier = fit_classifier(pool, [False] * 4, ForestHyperparams(), RngState(5))
    assert predict_pareto(space, pool, regressor, classifier, 0.5) == []


# --- select_batch -----------------------------------------------------------------

def test_batch_passes_through_when_sizes_match(toy_scenario):
    space = toy_scenario.space
    nothing = RowSet.of(space, encode_matrix(space, []))
    predicted = decode_matrix(space, candidate_pool(space, 100_000, nothing, RngState(6)))[:5]
    batch = select_batch(predicted, 5, space, nothing, RngState(7))
    assert batch == predicted


def test_a_batch_the_predictions_fill_keys_nothing_else(toy_scenario, monkeypatch):
    import dse.optimizer

    space = toy_scenario.space
    nothing = RowSet.of(space, encode_matrix(space, []))
    predicted = decode_matrix(space, candidate_pool(space, 100_000, nothing, RngState(6)))[:6]
    evaluated = RowSet.of(space, encode_matrix(space, predicted[2:3]))
    keyed = count_keyed_rows(monkeypatch)
    fills = count_rows(monkeypatch, dse.optimizer.distinct_rows, lambda args, X: len(X))
    batch = select_batch(predicted, 5, space, evaluated, RngState(7))
    assert batch == predicted[:2] + predicted[3:]
    assert keyed == [6]  # the predictions, once
    assert fills == []


def test_batch_keeps_one_of_equal_predictions(toy_scenario):
    space = toy_scenario.space
    nothing = RowSet.of(space, encode_matrix(space, []))
    predicted = [(2, 1, "true", 1), (2, 1, "true", 1), (4, 2, "false", 3)]
    batch = select_batch(predicted, 5, space, nothing, RngState(7))
    assert batch[:2] == [(2, 1, "true", 1), (4, 2, "false", 3)]
    assert len(set(batch)) == len(batch) == 5
    # a repeat of an archive row is dropped with it
    batch = select_batch(predicted, 2, space, RowSet.of(space, encode_matrix(space, predicted[:1])),
                         RngState(7))
    assert batch[0] == (4, 2, "false", 3) and len(set(batch)) == 2
    assert (2, 1, "true", 1) not in batch


def test_batch_fills_with_fresh_prior_samples(toy_scenario):
    space = toy_scenario.space
    pool = candidate_pool(space, 100_000, RowSet.of(space, encode_matrix(space, [])), RngState(8))
    archive = set(decode_matrix(space, pool)[:30])
    batch = select_batch([], 3, space, RowSet.of(space, encode_matrix(space, list(archive))),
                         RngState(9))
    assert len(batch) == 3
    assert len(set(batch)) == 3
    assert not set(batch) & archive


def test_batch_subset_is_deterministic(toy_scenario):
    space = toy_scenario.space
    nothing = RowSet.of(space, encode_matrix(space, []))
    predicted = decode_matrix(space, candidate_pool(space, 100_000, nothing, RngState(10)))[:10]
    a = select_batch(predicted, 4, space, nothing, RngState(11, 2))
    b = select_batch(predicted, 4, space, nothing, RngState(11, 2))
    assert a == b
    assert len(a) == 4
    assert set(a) <= set(predicted)


def test_batch_fill_falls_back_to_enumeration_when_the_prior_runs_dry():
    # the prior never draws "b"; both "a" configurations are already taken
    space = DesignSpace((
        Parameter("v", "categorical", values=("a", "b"),
                  prior=Prior(probs=(1.0, 0.0))),
        Parameter("n", "integer", lower=0, upper=1),
    ))
    archive = {("a", 0), ("a", 1)}
    batch = select_batch([], 2, space, RowSet.of(space, encode_matrix(space, list(archive))),
                         RngState(13))
    assert len(batch) == 2
    assert set(batch) == {("b", 0), ("b", 1)}


def test_batch_returns_short_when_space_is_exhausted():
    space = DesignSpace((Parameter("x", "integer", lower=0, upper=3),))
    everything = {(i,) for i in range(4)}
    batch = select_batch([], 5, space, RowSet.of(space, encode_matrix(space, list(everything))),
                         RngState(12))
    assert batch == []


@pytest.mark.parametrize("predicted, m", [([(2,)], 1), ([(2,)], 3), ([], 2)])
def test_batch_rejects_an_evaluated_configuration_outside_the_domain(predicted, m):
    space = DesignSpace((Parameter("x", "integer", lower=0, upper=3),))
    # an evaluated configuration is rejected where its batch is encoded into the archive
    with pytest.raises(DomainError, match="value 7 outside domain"):
        encode_matrix(space, [(1,), (7,)])
    with pytest.raises(DomainError, match="value 7 outside domain"):
        select_batch(predicted + [(7,)], m, space, RowSet.of(space, encode_matrix(space, [(1,)])),
                     RngState(12))


# --- run --------------------------------------------------------------------------

def test_run_with_zero_iterations_is_warmup_only(toy_scenario_doc):
    scenario = scenario_with(toy_scenario_doc, optimization_iterations=0, seed=5)
    result = run(scenario)
    assert len(result.records) == 30
    assert all(r.iteration_tag == -1 for r in result.records)
    front = constrained_front(result.records)
    idx = feasible_front([r.objectives for r in result.records],
                         [r.feasible for r in result.records])
    assert front == [result.records[i] for i in idx]
    feasible = [r for r in result.records if r.feasible]
    assert front == [feasible[i] for i in sorted(pairwise_front([r.objectives for r in feasible]))]
    assert all(r.feasible for r in front)


def test_run_terminates_once_finite_space_is_exhausted(toy_scenario_doc):
    doc = json.loads(json.dumps(toy_scenario_doc))
    doc["input_parameters"] = {
        "a": {"parameter_type": "ordinal", "values": [1, 5, 8]},
        "b": {"parameter_type": "integer", "values": [1, 2]},
    }
    doc["optimization_objectives"] = ["latency", "area"]
    doc["input_parameters"]["a"]["prior"] = "decay"
    doc["evaluator"] = {"builtin": "toy_linear"}
    doc["input_parameters"] = {
        "A": {"parameter_type": "integer", "values": [1, 3]},
        "B": {"parameter_type": "integer", "values": [1, 2]},
        "C": {"parameter_type": "categorical", "values": ["on"]},
    }
    del doc["feasible_output"]
    doc["design_of_experiment"] = {"number_of_samples": 6}
    scenario = scenario_with(doc)
    result = run(scenario)
    # warm-up already covers all 6 configurations; the loop must stop at once
    assert len(result.records) == 6
    assert result.tag + 1 == 0
    fronts = {r.objectives for r in constrained_front(result.records)}
    assert fronts == {(101.0 + 5.0, 101.0)} or all(
        not dominates(a, b) for a in fronts for b in fronts if a != b)


def test_run_respects_budget_and_never_reevaluates(toy_scenario_doc):
    scenario = scenario_with(toy_scenario_doc, seed=6)
    result = run(scenario)
    records = result.records
    n, max_iterations, m = scenario.doe_samples, scenario.optimization_iterations, \
        scenario.evaluations_per_iteration
    assert len(records) <= n + max_iterations * m
    configs = [r.config for r in records]
    assert len(set(configs)) == len(configs)
    tags = {r.iteration_tag for r in records}
    assert tags <= set(range(-1, max_iterations))


def test_run_front_comes_from_actual_evaluations(toy_scenario_doc, toy_truth):
    _, all_records = toy_truth
    truth = {r.config: r for r in all_records}
    scenario = scenario_with(toy_scenario_doc, seed=7)
    result = run(scenario)
    for r in constrained_front(result.records):
        assert r.feasible
        assert truth[r.config].objectives == r.objectives


def test_steps_add_one_batch_each_and_end_at_the_run(toy_scenario_doc):
    from dse.optimizer import steps

    scenario = scenario_with(toy_scenario_doc, seed=3)
    seen = list(steps(scenario))  # every step held while later ones arrive
    assert [step.tag for step in seen] == list(range(-1, scenario.optimization_iterations))
    for before, after in zip(seen, seen[1:]):
        assert len(after.records) > len(before.records)
        assert after.records[:len(before.records)] == before.records
        assert {r.iteration_tag for r in after.records[len(before.records):]} == {after.tag}
    assert seen[-1].records == run(scenario).records


def test_run_is_deterministic(toy_scenario_doc):
    scenario = scenario_with(toy_scenario_doc, seed=8)
    a = run(scenario)
    b = run(scenario)
    # the HVI trace is a function of the records, so equal records give an equal trace
    assert a.records == b.records


def test_archive_knowledge_grows_monotonically(toy_scenario_doc, toy_truth):
    """Against a fixed reference box, the hypervolume of the archive front
    never shrinks as records accumulate."""
    from dse.pareto import constrained_front, hvi_trace, hypervolume, objective_stddevs

    front, all_records = toy_truth
    ref = [r.objectives for r in front]
    box = tuple(max(r.objectives[j] for r in all_records) + 1.0 for j in range(2))
    for seed in [1, 2, 3]:
        scenario = scenario_with(toy_scenario_doc, seed=seed)
        result = run(scenario)
        sigma = objective_stddevs([r.objectives for r in result.records] + ref)
        trace = [value for _, value in hvi_trace(result.records, ref, sigma)]
        volumes = []
        for tag in sorted({r.iteration_tag for r in result.records}):
            fr = constrained_front([r for r in result.records if r.iteration_tag <= tag])
            volumes.append(hypervolume([r.objectives for r in fr], box))
        assert all(b >= a - 1e-9 for a, b in zip(volumes, volumes[1:]))
        assert trace[-1] <= trace[0]


def test_disabling_the_filter_skips_the_classifier(toy_scenario_doc, monkeypatch):
    import dse.optimizer as optimizer

    counts, fits, original = count_loop_calls(monkeypatch), [], optimizer.fit_surrogates

    def fit_surrogates(*args, **kwargs):
        regressor, classifier = original(*args, **kwargs)
        if classifier is not None:
            fits.append(1)
        return regressor, classifier

    monkeypatch.setattr(optimizer, "fit_surrogates", fit_surrogates)
    for use_filter, iterations in [(False, 5), (True, 5), (True, 0)]:
        counts.update(dict.fromkeys(counts, 0))
        fits.clear()
        result = run(scenario_with(toy_scenario_doc, use_feasibility_filter=use_filter,
                                   optimization_iterations=iterations, seed=9))
        assert counts["predict_pareto"] == iterations
        # one classifier per prediction with the filter on, none for the final refit
        assert len(fits) == (iterations if use_filter else 0)
        if not use_filter:
            assert all(r.feasible for r in constrained_front(result.records))


LOOP_CALLS = ("candidate_pool", "predict_pareto", "select_batch", "fit_surrogates")


def count_loop_calls(monkeypatch):
    """Wrap the loop's dse.optimizer functions with call counters."""
    import dse.optimizer as optimizer

    counts = dict.fromkeys(LOOP_CALLS, 0)
    for name in LOOP_CALLS:
        def counted(*args, _name=name, _original=getattr(optimizer, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(optimizer, name, counted)
    return counts


def test_loop_pools_and_predicts_once_per_batch(toy_scenario_doc, monkeypatch):
    counts = count_loop_calls(monkeypatch)
    result = run(scenario_with(toy_scenario_doc, optimization_iterations=3, seed=4))
    assert result.tag + 1 == 3
    assert counts == {"candidate_pool": 3, "predict_pareto": 3, "select_batch": 3,
                      "fit_surrogates": 4}


def test_loop_stops_at_an_empty_prediction(toy_scenario_doc, monkeypatch):
    import dse.optimizer as optimizer

    original, calls = optimizer.predict_pareto, []

    def second_is_empty(*args):
        calls.append(args)
        return [] if len(calls) == 2 else original(*args)

    monkeypatch.setattr(optimizer, "predict_pareto", second_is_empty)
    counts = count_loop_calls(monkeypatch)
    result = run(scenario_with(toy_scenario_doc, optimization_iterations=3, seed=4))
    assert result.tag + 1 == 1
    assert counts == {"candidate_pool": 2, "predict_pareto": 2, "select_batch": 1,
                      "fit_surrogates": 2}


def test_each_evaluated_configuration_is_encoded_once(toy_scenario_doc, monkeypatch):
    import sys

    import dse.optimizer as optimizer

    calls, original = [], optimizer.encode_matrix

    def counted(space, configs):
        calls.append((sys._getframe(1).f_code.co_name, len(configs)))
        return original(space, configs)

    monkeypatch.setattr(optimizer, "encode_matrix", counted)
    result = run(scenario_with(toy_scenario_doc, seed=1))
    iterations = result.tag + 1
    assert iterations > 0
    # the warm-up, each returned batch, and the predictions of each select_batch
    assert len(calls) == 1 + 2 * iterations
    assert [name for name, _ in calls].count("select_batch") == iterations
    assert sum(rows for name, rows in calls if name == "steps") == len(result.records)


def test_a_run_keys_each_row_once(toy_scenario_doc, monkeypatch):
    import dse.optimizer
    import dse.priors

    keyed = count_keyed_rows(monkeypatch)
    prior = count_rows(monkeypatch, dse.priors.prior_rows, lambda args, X: len(X))
    uniform = count_rows(monkeypatch, dse.optimizer._uniform_rows, lambda args, X: len(X))
    predicted = count_rows(monkeypatch, dse.optimizer.select_batch, lambda args, _: len(args[0]))
    result = run(scenario_with(toy_scenario_doc, seed=1))
    assert result.tag + 1 > 0 and prior and predicted
    # each drawn row, each prediction and each evaluated configuration at most once
    assert sum(keyed) <= sum(prior) + sum(uniform) + sum(predicted) + len(result.records)


MIXED_RUN = {
    "application_name": "mixed",
    "optimization_objectives": ["f1", "f2"],
    "feasible_output": {"name": "feasible"},
    "input_parameters": {
        "x": {"parameter_type": "real", "values": [0.0, 1.0]},
        "c": {"parameter_type": "categorical", "values": ["a", "b", "c"]},
        "o": {"parameter_type": "ordinal", "values": [1, 2.5, 4]},
        "k": {"parameter_type": "integer", "values": [1, 64]},
    },
    "design_of_experiment": {"number_of_samples": 20},
    "optimization_iterations": 3,
    "evaluations_per_optimization_iteration": 5,
    "pareto_prediction_samples": 2000,
    "evaluator": {"builtin": "mixed"},
}


@pytest.mark.parametrize("mixed", [False, True], ids=["toy_fpga", "mixed"])
def test_each_refit_reads_the_archive_in_record_order(toy_scenario_doc, monkeypatch, mixed):
    import dse.optimizer as optimizer
    from dse import evaluators

    monkeypatch.setitem(evaluators.BUILTIN_EVALUATORS, "mixed", lambda v: {
        "f1": v["x"] + v["k"], "f2": (1.0 - v["x"]) * v["o"], "feasible": v["c"] != "b"})
    scenario = scenario_with(MIXED_RUN if mixed else toy_scenario_doc, seed=1)
    fitted, original = [], optimizer.fit_surrogates

    def captured(X, *args, **kwargs):
        fitted.append(X.copy())
        return original(X, *args, **kwargs)

    monkeypatch.setattr(optimizer, "fit_surrogates", captured)
    result = run(scenario)
    records, iterations = result.records, result.tag + 1
    assert iterations == scenario.optimization_iterations
    # first the warm-up rows, then one more batch per refit
    assert [len(X) for X in fitted] == [sum(r.iteration_tag <= tag for r in records)
                                        for tag in range(-1, iterations)]
    for X in fitted:
        assert np.array_equal(X, encode_matrix(scenario.space,
                                               [r.config for r in records[:len(X)]]))


@pytest.mark.parametrize("space, hashed", [(FIFTY, False), (MIXED, True)],
                         ids=["exact", "hashed"])
def test_row_set_holds_first_occurrences_in_order(space, hashed):
    from dse.space import row_keys

    X = candidate_pool(space, 8, RowSet.of(space, encode_matrix(space, [])), RngState(2))
    order = [5, 2, 5, 0, 7, 2, 2, 1, 0, 6, 3, 4, 7]
    grown, rest = RowSet.of(space, X[order[:4]]), X[order[4:]]
    keys = row_keys(space, rest)
    keep = grown.new(rest, keys)
    grown = grown.union(rest[keep], keys[keep])
    for rows in (RowSet.of(space, X[order]), grown):  # in one step, and in two
        assert (rows.keys.dtype == np.uint64) == hashed
        assert np.array_equal(rows.rows, X[[5, 2, 0, 7, 1, 6, 3, 4]])
        assert np.array_equal(rows.keys, row_keys(space, rows.rows))
        assert np.array_equal(rows.known, np.sort(rows.keys))


# --- mono-objective ----------------------------------------------------------------

def record(value, feasible=True, key=None, tag=-1):
    return EvaluationRecord(key or (value,), (float(value),), feasible, tag)


def test_one_objective_front_starts_at_the_earliest_minimum():
    records = [record(5), record(3, key=("first",)), record(9), record(3, key=("second",)),
               record(1, feasible=False)]
    assert constrained_front(records)[0] is records[1]


def test_one_objective_front_with_no_feasible_is_empty():
    assert constrained_front([record(5, feasible=False)]) == []


def test_mono_objective_run_matches_exhaustive_minimum(toy_scenario_doc, toy_truth):
    _, all_records = toy_truth
    true_best = min((r.objectives[0] for r in all_records if r.feasible))
    scenario = scenario_with(toy_scenario_doc, optimization_objectives=["cycles"], seed=10)
    result = run(scenario)
    assert constrained_front(result.records)[0].objectives[0] == true_best == 576.0
