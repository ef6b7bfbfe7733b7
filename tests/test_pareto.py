import itertools
import logging

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dse import (
    EvaluationRecord,
    constrained_front,
    hvi,
    hypervolume,
    objective_stddevs,
    pareto_front,
)
from dse.pareto import feasible_front, feasible_hvi, hvi_trace
from oracles import (
    dominates, hvi_reference_point, inclusion_exclusion_hypervolume, pairwise_front,
    reference_front,
)


def rec(objectives, feasible=True, tag=-1, key=None):
    return EvaluationRecord(key or tuple(objectives),
                            tuple(float(v) for v in objectives), feasible, tag)


# --- dominance ------------------------------------------------------------------

def test_dominates_examples():
    assert dominates((1, 2), (2, 2))
    assert not dominates((1, 3), (2, 2))
    assert not dominates((2, 2), (1, 3))
    assert not dominates((1, 2), (1, 2))


def test_dominates_length_mismatch():
    with pytest.raises(ValueError):
        dominates((1, 2), (1, 2, 3))


objective_vectors = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=2, max_size=3)


@given(st.lists(objective_vectors, min_size=3, max_size=3).filter(
    lambda vs: len({len(v) for v in vs}) == 1))
@settings(max_examples=200, deadline=None)
def test_dominates_is_a_strict_partial_order(vectors):
    a, b, c = (tuple(v) for v in vectors)
    assert not dominates(a, a)
    if dominates(a, b):
        assert not dominates(b, a)
    if dominates(a, b) and dominates(b, c):
        assert dominates(a, c)


# --- pareto_front ------------------------------------------------------------------

def test_front_example():
    pts = [(1, 3), (2, 2), (3, 1), (2, 3)]
    assert pareto_front(pts) == [0, 1, 2]


def test_front_empty():
    assert pareto_front([]) == []


def test_front_rejects_nan():
    # a NaN point is never dominated, so it would silently join the front
    with pytest.raises(ValueError, match="NaN"):
        pareto_front([(1, 1), (float("nan"), 5), (2, 2)])


def test_front_keeps_duplicates():
    assert pareto_front([(1, 1), (1, 1), (2, 2)]) == [0, 1]


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("kind", ["real", "integer", "anti-correlated"])
def test_front_matches_pairwise_oracle_on_random_points(p, kind):
    gen = np.random.default_rng(99 + p)
    if kind == "real":
        pts = gen.random((1000, p))
    elif kind == "integer":  # many ties and exact duplicates
        pts = gen.integers(0, 6, size=(1000, p)).astype(float)
    else:  # all on the front: integer points with coordinate sum 20, for p = 1 copies of one
        grid = [v for v in itertools.product(range(21), repeat=p) if sum(v) == 20]
        if p == 1:
            grid *= 300
        pts = np.asarray(grid, dtype=float)[gen.permutation(len(grid))]
    pts = pts.tolist()
    front = pareto_front(pts)
    assert front == sorted(pairwise_front(pts))
    if kind == "anti-correlated":
        assert len(front) == len(pts)


def test_every_excluded_point_is_dominated():
    gen = np.random.default_rng(102)
    pts = [tuple(row) for row in gen.integers(0, 12, size=(300, 3))]
    front = set(pareto_front(pts))
    for i, p in enumerate(pts):
        if i not in front:
            assert any(dominates(pts[j], p) for j in front)


# --- constrained_front ----------------------------------------------------------------

def test_all_infeasible_gives_empty_front():
    records = [rec((1, 1), feasible=False, key=("a",)), rec((0, 0), feasible=False, key=("b",))]
    assert constrained_front(records) == []


def test_single_feasible_record_is_the_front():
    records = [rec((9, 9), feasible=True, key=("a",)), rec((0, 0), feasible=False, key=("b",))]
    assert constrained_front(records) == [records[0]]


def test_feasible_front_matches_pairwise_oracle_on_the_feasible_subset():
    gen = np.random.default_rng(105)
    pts = [tuple(row) for row in gen.integers(0, 6, size=(60, 2)).astype(float)]
    feasible = (gen.random(60) < 0.6).tolist()
    keep = [i for i, ok in enumerate(feasible) if ok]
    oracle = {keep[j] for j in pairwise_front([pts[i] for i in keep])}
    assert feasible_front(pts, feasible) == sorted(oracle)


def test_toy_front_matches_exhaustive_oracle(toy_truth):
    front, records = toy_truth
    feasible = [r for r in records if r.feasible]
    oracle = pairwise_front([r.objectives for r in feasible])
    assert {r.config for r in front} == {feasible[i].config for i in oracle}
    # frozen from an independent plain-loop enumeration of the cost model
    assert {r.objectives for r in front} == {
        (576.0, 95.0), (1088.0, 51.0), (2112.0, 29.0), (4160.0, 23.0), (8256.0, 18.0)}


def test_archive_front_members_are_feasible(toy_truth):
    front, records = toy_truth
    archive = list(records)
    assert all(r.feasible for r in constrained_front(archive))
    fronts = [r.objectives for r in constrained_front(archive)]
    assert not any(dominates(a, b) for a in fronts for b in fronts if a != b)


# --- hypervolume -------------------------------------------------------------------

def test_hypervolume_full_box():
    assert hypervolume([(0, 0)], (2, 2)) == 4.0


def test_hypervolume_single_inner_point():
    assert hypervolume([(1, 1)], (2, 2)) == 1.0


def test_hypervolume_two_point_union():
    assert hypervolume([(0, 1), (1, 0)], (2, 2)) == 3.0


def test_hypervolume_clips_points_beyond_reference():
    assert hypervolume([(0, 1), (3, 0)], (2, 2)) == 2.0


@pytest.mark.parametrize("front, ref", [
    ([(0, 0, 0)], (1, 1)),
    ([(0, 0)], (1, 1, 1)),
    ([(0, 0), (0, 0, 0)], (1, 1)),
    ([0, 0, 1, 1], (2, 2)),
    ([(0, 0)], [(1, 1)]),
], ids=["longer-points", "shorter-points", "ragged-front", "flat-list-not-refolded",
        "ref-not-a-point"])
def test_hypervolume_rejects_a_point_whose_length_differs_from_ref(front, ref):
    with pytest.raises(ValueError):
        hypervolume(front, ref)


@given(st.integers(1, 4).flatmap(lambda p: st.tuples(
    st.just(p), st.lists(st.lists(st.integers(0, 5), min_size=p, max_size=p), max_size=7))))
@settings(max_examples=200, deadline=None)
def test_hypervolume_matches_inclusion_exclusion(case):
    p, points = case
    ref = (5,) * p
    assert hypervolume(points, ref) == inclusion_exclusion_hypervolume(points, ref)


def test_hypervolume_monotone_under_point_addition():
    gen = np.random.default_rng(103)
    for _ in range(200):
        pts = gen.random((6, 2)) * 10
        ref = (12.0, 12.0)
        base = hypervolume(pts[:-1].tolist(), ref)
        extended = hypervolume(pts.tolist(), ref)
        assert extended >= base - 1e-12


# --- hvi ---------------------------------------------------------------------------

def test_hvi_of_identical_fronts_is_exactly_zero():
    front = [(1.0, 5.0), (2.0, 3.0), (4.0, 1.0)]
    assert hvi(front, front, (2.0, 2.0)) == 0.0


def test_hvi_positive_for_dominated_approximation():
    reference = [(0.0, 0.0)]
    approx = [(1.0, 1.0)]
    assert hvi(approx, reference, (1.0, 1.0)) > 0.0


def test_hvi_floors_at_zero_when_approximation_dominates():
    reference = [(1.0, 1.0)]
    approx = [(0.0, 0.0)]
    assert hvi(approx, reference, (1.0, 1.0)) == 0.0


def test_hvi_invariant_to_point_order():
    gen = np.random.default_rng(104)
    pts = [tuple(row) for row in gen.random((8, 2))]
    ref = [tuple(row) for row in gen.random((5, 2)) + 1.0]
    sigma = (0.5, 0.8)
    direct = hvi(pts, ref, sigma)
    shuffled = hvi(pts[::-1], ref, sigma)
    assert direct == shuffled


def test_hvi_treats_zero_stddev_as_unscaled(caplog):
    front = [(1.0, 2.0)]
    reference = [(0.0, 1.0)]
    with caplog.at_level(logging.WARNING, logger="dse.pareto"):
        with_flat = hvi(front, reference, (0.0, 1.0))
    assert any("zero standard deviation" in m for m in caplog.messages)
    assert with_flat == hvi(front, reference, (1.0, 1.0))


def test_hvi_requires_non_empty_fronts():
    with pytest.raises(ValueError):
        hvi([], [(0.0, 0.0)], (1.0, 1.0))


@pytest.mark.parametrize("approx, reference, stddevs", [
    ([(1.0, 2.0)], [(1.0, 2.0, 3.0)], (1.0, 1.0)),
    ([(1.0, 2.0, 3.0)], [(1.0, 2.0)], (1.0, 1.0, 1.0)),
    ([(1.0, 2.0)], [(0.0, 1.0)], (1.0,)),
    ([(1.0, 2.0)], [(0.0, 1.0)], (1.0, 1.0, 1.0)),
], ids=["reference-longer", "approx-longer", "one-stddev-not-broadcast", "extra-stddev"])
def test_hvi_rejects_mismatched_objective_counts(approx, reference, stddevs):
    with pytest.raises(ValueError):
        hvi(approx, reference, stddevs)


def test_hvi_reference_point_has_a_floor_on_a_flat_reference_front():
    # a single reference point has no range: the margin is a tenth of one
    # standard deviation, and a missed point loses that box
    assert hvi([(1.0, 1.0)], [(0.0, 0.0)], (1.0, 1.0)) == pytest.approx(0.1 * 0.1)
    assert hvi([(0.0, 1.0)], [(0.0, 0.0), (0.0, 0.0)], (2.0, 2.0)) == pytest.approx(0.1 * 0.1)


def objective_lists(p, min_size):
    return st.lists(st.tuples(*[st.integers(0, 6)] * p), min_size=min_size, max_size=8)


@given(st.integers(1, 3).flatmap(lambda p: st.tuples(
    st.lists(st.tuples(st.tuples(*[st.integers(0, 6)] * p), st.booleans(), st.integers(-1, 3)),
             min_size=1, max_size=12),
    objective_lists(p, 1))))
@settings(max_examples=200, deadline=None)
def test_hvi_trace_never_rises(case):
    # each tag only adds records, and the reference point comes from the
    # reference front alone, so the gap can only close
    rows, reference = case
    records = [rec(objectives, feasible, tag, key=(i,))
               for i, (objectives, feasible, tag) in enumerate(rows)]
    sigma = objective_stddevs([r.objectives for r in records] + reference)
    values = [value for _, value in hvi_trace(records, reference, sigma)]
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


@given(st.integers(2, 3).flatmap(lambda p: objective_lists(p, 2)))
@settings(max_examples=200, deadline=None)
def test_a_front_missing_an_extreme_point_loses_at_least_the_margin_slab(points):
    # the point with the least first objective is missing; what only it
    # dominates includes the box from it to the next least first objective,
    # and out to the reference point, at least one margin past it, in the others
    reference = sorted({points[i] for i in pareto_front(points)})
    assume(len(reference) >= 2 and reference[0][0] < reference[1][0])
    extreme, approx = reference[0], reference[1:]
    ref_point = hvi_reference_point(reference)
    volume = inclusion_exclusion_hypervolume(reference, ref_point)
    value = hvi(approx, reference, (1.0,) * len(extreme))
    assert value == pytest.approx(volume - inclusion_exclusion_hypervolume(approx, ref_point),
                                  rel=1e-12, abs=1e-12 * volume)
    slab = (approx[0][0] - extreme[0]) * np.prod(
        [r - max(column) for r, column in zip(ref_point[1:], list(zip(*reference))[1:])])
    assert value >= slab * (1 - 1e-12)


def test_feasible_hvi_scores_the_feasible_front_and_inf_without_one():
    points = [(1.0, 1.0), (0.0, 0.0), (3.0, 3.0)]
    reference = [(0.5, 0.5)]
    # the infeasible (0, 0) must not count; (3, 3) is dominated by (1, 1)
    assert feasible_hvi(points, [True, False, True], reference, (1.0, 1.0)) == \
        hvi([(1.0, 1.0)], reference, (1.0, 1.0))
    assert feasible_hvi(points, [False] * 3, reference, (1.0, 1.0)) == float("inf")


def test_objective_stddevs_population_convention():
    sig = objective_stddevs([(0.0, 1.0), (2.0, 1.0)])
    assert sig[0] == pytest.approx(1.0)
    assert sig[1] == 0.0


# --- reference_front ------------------------------------------------------------------

def test_reference_front_of_single_run(toy_truth):
    front, records = toy_truth
    assert {r.objectives for r in reference_front([records])} == {r.objectives for r in front}


def test_reference_front_unions_disjoint_runs():
    run_a = [rec((0, 2), key=("a",))]
    run_b = [rec((2, 0), key=("b",)), rec((3, 3), key=("c",))]
    merged = reference_front([run_a, run_b])
    assert {r.objectives for r in merged} == {(0.0, 2.0), (2.0, 0.0)}
