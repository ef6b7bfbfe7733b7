import json

from dse import (
    Configuration,
    DesignSpace,
    EvaluationRecord,
    ForestHyperparams,
    Parameter,
    ParetoArchive,
    Prior,
    RngState,
    candidate_pool,
    fit_classifier,
    fit_regressor,
    mono_objective_best,
    predict_pareto,
    run,
    select_batch,
)
from dse.optimizer import SurrogateBundle
from dse.pareto import dominates
from dse.space import encode_matrix

from conftest import scenario_with

PURE_TREE = ForestHyperparams(n_estimators=1, max_depth=None, max_features=1.0,
                              bootstrap=False)


# --- candidate_pool ---------------------------------------------------------------

def test_pool_enumerates_small_spaces(toy_scenario):
    pool = candidate_pool(toy_scenario.space, 100_000, RngState(1))
    assert len(pool) == 240
    assert len(set(pool)) == 240


def test_pool_samples_large_spaces_distinctly():
    space = DesignSpace(tuple(
        Parameter(f"p{i}", "integer", lower=1, upper=1000) for i in range(3)))
    assert space.cardinality() == 10 ** 9
    pool = candidate_pool(space, 1000, RngState(2))
    assert len(pool) == 1000
    assert len(set(pool)) == 1000


def test_pool_of_one():
    space = DesignSpace((Parameter("x", "real", lower=0.0, upper=1.0),))
    assert len(candidate_pool(space, 1, RngState(3))) == 1


# --- predict_pareto ----------------------------------------------------------------

def four_point_bundle():
    """Surrogates trained to interpolate hand-set predictions exactly."""
    space = DesignSpace((Parameter("x", "integer", lower=0, upper=3),))
    configs = [Configuration((i,)) for i in range(4)]
    X = encode_matrix(space, configs)
    targets = [(1.0, 3.0), (2.0, 2.0), (3.0, 1.0), (2.0, 3.0)]
    regressors = tuple(
        fit_regressor(X, [t[j] for t in targets], PURE_TREE, RngState(4, j))
        for j in range(2))
    return space, configs, SurrogateBundle(space, regressors, classifier=None)


def test_predict_pareto_returns_nondominated_configs():
    space, configs, bundle = four_point_bundle()
    predicted = predict_pareto(bundle, configs, exclude=set())
    assert predicted == configs[:3]  # (2,3) is dominated by (2,2)


def test_predict_pareto_excludes_evaluated_configs():
    space, configs, bundle = four_point_bundle()
    assert predict_pareto(bundle, configs, exclude=set(configs)) == []


def test_predict_pareto_filters_predicted_infeasible():
    space, configs, bundle = four_point_bundle()
    X = encode_matrix(space, configs)
    classifier = fit_classifier(X, [False] * 4, ForestHyperparams(), RngState(5))
    filtered = SurrogateBundle(space, bundle.regressors, classifier)
    assert predict_pareto(filtered, configs, exclude=set()) == []


# --- select_batch -----------------------------------------------------------------

def test_batch_passes_through_when_sizes_match(toy_scenario):
    space = toy_scenario.space
    predicted = candidate_pool(space, 100_000, RngState(6))[:5]
    batch = select_batch(predicted, 5, space, set(), RngState(7))
    assert batch == predicted


def test_batch_fills_with_fresh_prior_samples(toy_scenario):
    space = toy_scenario.space
    archive = set(candidate_pool(space, 100_000, RngState(8))[:30])
    batch = select_batch([], 3, space, archive, RngState(9))
    assert len(batch) == 3
    assert len(set(batch)) == 3
    assert not set(batch) & archive


def test_batch_subset_is_deterministic(toy_scenario):
    space = toy_scenario.space
    predicted = candidate_pool(space, 100_000, RngState(10))[:10]
    a = select_batch(predicted, 4, space, set(), RngState(11, 2))
    b = select_batch(predicted, 4, space, set(), RngState(11, 2))
    assert a == b
    assert len(a) == 4
    assert set(a) <= set(predicted)


def test_batch_fill_falls_back_to_enumeration_when_the_prior_runs_dry():
    # the prior never draws "b"; both "a" configurations are already taken
    space = DesignSpace((
        Parameter("v", "categorical", values=("a", "b"),
                  prior=Prior("categorical", probs=(1.0, 0.0))),
        Parameter("n", "integer", lower=0, upper=1),
    ))
    archive = {Configuration(("a", 0)), Configuration(("a", 1))}
    batch = select_batch([], 2, space, archive, RngState(13))
    assert len(batch) == 2
    assert set(batch) == {Configuration(("b", 0)), Configuration(("b", 1))}


def test_batch_returns_short_when_space_is_exhausted():
    space = DesignSpace((Parameter("x", "integer", lower=0, upper=3),))
    everything = {Configuration((i,)) for i in range(4)}
    batch = select_batch([], 5, space, everything, RngState(12))
    assert batch == []


# --- run --------------------------------------------------------------------------

def test_run_with_zero_iterations_is_warmup_only(toy_scenario_doc):
    scenario = scenario_with(toy_scenario_doc, optimization_iterations=0, seed=5)
    result = run(scenario)
    assert len(result.archive.records) == 30
    assert all(r.iteration_tag == -1 for r in result.archive.records)
    front = result.archive.front()
    assert front == [r for r in result.archive.front()]
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
    assert len(result.archive.records) == 6
    assert result.meta["iterations_run"] == 0
    fronts = {r.objectives for r in result.archive.front()}
    assert fronts == {(101.0 + 5.0, 101.0)} or all(
        not dominates(a, b) for a in fronts for b in fronts if a != b)


def test_run_respects_budget_and_never_reevaluates(toy_scenario_doc):
    scenario = scenario_with(toy_scenario_doc, seed=6)
    result = run(scenario)
    records = result.archive.records
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
    for r in result.archive.front():
        assert r.feasible
        assert truth[r.config].objectives == r.objectives


def test_run_is_deterministic(toy_scenario_doc):
    scenario = scenario_with(toy_scenario_doc, seed=8)
    a = run(scenario)
    b = run(scenario)
    assert a.archive.records == b.archive.records
    assert a.hvi_trace == b.hvi_trace


def test_archive_knowledge_grows_monotonically(toy_scenario_doc, toy_truth):
    """Against a fixed reference box, the hypervolume of the archive front
    never shrinks as records accumulate (the raw hvi trace can tick up when
    a fresh extreme trade-off point widens its data-driven reference box)."""
    from dse.pareto import constrained_front, hypervolume_2d

    front, all_records = toy_truth
    ref = [r.objectives for r in front]
    box = tuple(max(r.objectives[j] for r in all_records) + 1.0 for j in range(2))
    for seed in [1, 2, 3]:
        scenario = scenario_with(toy_scenario_doc, seed=seed)
        result = run(scenario, reference_front=ref)
        volumes = []
        for tag in sorted({r.iteration_tag for r in result.archive.records}):
            upto = [r for r in result.archive.records if r.iteration_tag <= tag]
            fr = constrained_front(upto)
            volumes.append(hypervolume_2d([r.objectives for r in fr], box))
        assert all(b >= a - 1e-9 for a, b in zip(volumes, volumes[1:]))
        trace = [v for _, v in result.hvi_trace]
        assert trace[-1] <= trace[0]


def test_disabling_the_filter_skips_the_classifier(toy_scenario_doc):
    scenario = scenario_with(toy_scenario_doc, use_feasibility_filter=False, seed=9)
    result = run(scenario)
    assert result.bundle.classifier is None
    assert all(r.feasible for r in result.archive.front())


# --- mono-objective ----------------------------------------------------------------

def record(value, feasible=True, key=None, tag=-1):
    return EvaluationRecord(Configuration(key or (value,)), (float(value),), feasible, tag)


def test_mono_objective_best_takes_minimal_feasible():
    archive = ParetoArchive([record(5), record(3), record(9)])
    assert mono_objective_best(archive).objectives == (3.0,)


def test_mono_objective_best_with_no_feasible_is_none():
    archive = ParetoArchive([record(5, feasible=False)])
    assert mono_objective_best(archive) is None


def test_mono_objective_run_matches_exhaustive_minimum(toy_scenario_doc, toy_truth):
    _, all_records = toy_truth
    true_best = min((r.objectives[0] for r in all_records if r.feasible))
    scenario = scenario_with(toy_scenario_doc, optimization_objectives=["cycles"], seed=10)
    result = run(scenario)
    best = mono_objective_best(result.archive)
    assert best is not None
    assert best.objectives[0] == true_best == 576.0
