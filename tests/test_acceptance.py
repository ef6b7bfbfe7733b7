"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 2-4 share one batch of five seeded runs (filter on and off) over the
240-point toy accelerator space, checked against the exhaustive ground truth.
"""

import math
import os
import subprocess
import sys
import textwrap
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from dse import (
    EvaluatorSpec,
    ForestHyperparams,
    RngState,
    constrained_front,
    fit_regressor,
    feature_importance,
    hvi,
    hypervolume,
    kfold_recall,
    pareto_front,
    run,
    sample_beta,
)
from dse.evaluators import brute_force_front, evaluate_batch
from dse.pareto import objective_stddevs
from dse.space import encode_matrix

from conftest import ACCEPTANCE_SEEDS, ROOT, SCENARIO_DIR, scenario_with
from oracles import beta_cdf_numeric, dominates, pairwise_front, reference_front

TOY = SCENARIO_DIR / "toy_fpga.json"


def criterion(number: int, name: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


@pytest.fixture(scope="module")
def five_runs(toy_scenario_doc):
    """(filter-on result, filter-off result) per acceptance seed, timed."""
    t0 = time.perf_counter()
    out = {}
    for seed in ACCEPTANCE_SEEDS:
        on = run(scenario_with(toy_scenario_doc, seed=seed))
        off = run(scenario_with(toy_scenario_doc, seed=seed, use_feasibility_filter=False))
        out[seed] = (on, off)
    return out, time.perf_counter() - t0


# -- 1 -------------------------------------------------------------------------

def test_acceptance_1_pareto_oracle_equivalence():
    gen = np.random.default_rng(2024)
    t0 = time.perf_counter()
    ok = True
    for _ in range(200):
        n = int(gen.integers(1, 2001))
        p = int(gen.integers(2, 5))
        pts = gen.integers(0, 50, size=(n, p)).astype(float)  # ints force ties too
        pts[gen.random(n) < 0.5] += gen.random(2)[0]
        if set(pareto_front(pts.tolist())) != pairwise_front(pts):
            ok = False
            break
    elapsed = time.perf_counter() - t0
    criterion(1, f"pareto oracle equivalence in {elapsed:.1f}s", ok and elapsed < 10.0)


# -- 2 -------------------------------------------------------------------------

def test_acceptance_2_desk_scale_pareto_recovery(five_runs, toy_truth):
    runs, elapsed = five_runs
    true_front, _ = toy_truth
    ref = [r.objectives for r in true_front]
    union = [r.objectives for seed in ACCEPTANCE_SEEDS
             for r in runs[seed][0].records]
    sigma = objective_stddevs(union + ref)
    hits = 0
    for seed in ACCEPTANCE_SEEDS:
        result = runs[seed][0]
        assert len(result.records) <= 130
        value = hvi([r.objectives for r in constrained_front(result.records)], ref, sigma)
        print(f"seed {seed}: normalized hvi {value:.4f}")
        hits += value <= 0.1
    # the accumulated best-known front over the five runs recovers the truth
    accumulated = reference_front([runs[s][0].records for s in ACCEPTANCE_SEEDS])
    assert {r.objectives for r in accumulated} == {r.objectives for r in true_front}
    criterion(2, f"pareto recovery {hits}/5 within 0.1, runs took {elapsed:.1f}s",
              hits >= 4 and elapsed < 60.0)


# -- 3 -------------------------------------------------------------------------

def test_acceptance_3_feasibility_filter_value(five_runs, toy_truth):
    runs, _ = five_runs
    true_front, _ = toy_truth
    ref = [r.objectives for r in true_front]

    def post_warmup_infeasible_fraction(result):
        al = [r for r in result.records if r.iteration_tag >= 0]
        return sum(1 for r in al if not r.feasible) / len(al)

    hvi_wins = frac_wins = 0
    for seed in ACCEPTANCE_SEEDS:
        on, off = runs[seed]
        pool = [r.objectives for r in on.records] + \
               [r.objectives for r in off.records]
        sigma = objective_stddevs(pool + ref)
        v_on = hvi([r.objectives for r in constrained_front(on.records)], ref, sigma)
        v_off = hvi([r.objectives for r in constrained_front(off.records)], ref, sigma)
        f_on = post_warmup_infeasible_fraction(on)
        f_off = post_warmup_infeasible_fraction(off)
        print(f"seed {seed}: hvi on/off {v_on:.4f}/{v_off:.4f}, "
              f"infeasible frac on/off {f_on:.2f}/{f_off:.2f}")
        hvi_wins += v_on <= v_off
        frac_wins += f_on < f_off
    criterion(3, f"filter value: hvi {hvi_wins}/5, infeasible fraction {frac_wins}/5",
              hvi_wins >= 4 and frac_wins >= 4)


# -- 4 -------------------------------------------------------------------------

def test_acceptance_4_recall_improves_with_active_learning(five_runs, toy_scenario):
    runs, _ = five_runs
    space = toy_scenario.space
    hp = toy_scenario.classifier_hp
    wins = 0
    for seed in ACCEPTANCE_SEEDS:
        records = runs[seed][0].records
        warm = [r for r in records if r.iteration_tag == -1]
        initial = kfold_recall(encode_matrix(space, [r.config for r in warm]),
                               [r.feasible for r in warm], hp, 5,
                               RngState(seed, 500), space.unordered_mask)
        final = kfold_recall(encode_matrix(space, [r.config for r in records]),
                             [r.feasible for r in records], hp, 5,
                             RngState(seed, 500), space.unordered_mask)
        print(f"seed {seed}: recall warm-up {initial:.3f} -> full {final:.3f}")
        wins += final >= initial
    criterion(4, f"classifier recall final >= initial in {wins}/5 seeds", wins >= 4)


# -- 5 -------------------------------------------------------------------------

def test_acceptance_5_beta_prior_statistics():
    shapes = [(1.0, 1.0), (3.0, 3.0), (0.5, 1.5), (1.5, 0.5)]
    ok = True
    for a, b in shapes:
        rng = RngState(77, int(a * 10 + b))
        draws = np.array([sample_beta(a, b, rng) for _ in range(10_000)])
        mean = a / (a + b)
        se = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)) / 10_000)
        mean_ok = abs(draws.mean() - mean) < 3 * se
        ks = stats.kstest(draws, lambda x: beta_cdf_numeric(x, a, b))
        print(f"Beta({a},{b}): mean {draws.mean():.4f} (target {mean:.4f}), "
              f"ks p={ks.pvalue:.4f}")
        ok = ok and mean_ok and ks.pvalue > 0.001
    criterion(5, "beta prior statistics (mean + KS at 0.001)", ok)


# -- 6 -------------------------------------------------------------------------

def test_acceptance_6_feature_importance():
    gen = np.random.default_rng(6)
    X = gen.random((300, 5))
    y = X[:, 0].copy()
    forest = fit_regressor(X, y, ForestHyperparams(), RngState(66))
    imp = feature_importance(forest)
    sums_ok = abs(imp.sum() - 1.0) <= 1e-9
    print(f"importance vector {np.round(imp, 4).tolist()}")
    criterion(6, f"feature importance (sum 1, driver {imp[0]:.3f} >= 0.9)",
              sums_ok and imp[0] >= 0.9)


# -- 7 -------------------------------------------------------------------------

def test_acceptance_7_hvi_properties():
    gen = np.random.default_rng(7)
    identity_ok = True
    for _ in range(50):
        front = [tuple(row) for row in gen.random((6, 2)) * 5]
        if hvi(front, front, (1.3, 0.7)) != 0.0:
            identity_ok = False
    monotone_ok = True
    for _ in range(1000):
        pts = gen.random((5, 2)) * 10
        ref = (11.0, 11.0)
        if hypervolume(pts.tolist(), ref) < hypervolume(pts[:-1].tolist(), ref) - 1e-12:
            monotone_ok = False
    hand_ok = hypervolume([(0, 1), (1, 0)], (2, 2)) == 3.0
    criterion(7, "hvi identity, monotonicity, hand-computed value",
              identity_ok and monotone_ok and hand_ok)


# -- 8 -------------------------------------------------------------------------

def test_acceptance_8_budget_and_wall_invariants(five_runs, tmp_path):
    runs, _ = five_runs
    ok = True
    for seed in ACCEPTANCE_SEEDS:
        for result in runs[seed]:
            records = result.records
            ok = ok and len(records) <= 30 + 5 * 20
            ok = ok and len({r.config for r in records}) == len(records)
            front = constrained_front(result.records)
            ok = ok and all(r.feasible for r in front)
            objs = [r.objectives for r in front]
            ok = ok and not any(dominates(a, b) for a in objs for b in objs if a != b)
    # the same audit on emitted artifacts
    out = tmp_path / "audit"
    code = _cli(["run", str(TOY), "--seed", "21", "--set", f"output_dir={out}"])
    ok = ok and code == 0
    sample_rows = _read_rows(out / "samples.csv")
    keys = [tuple(row[k] for k in ("T", "P", "S", "B")) for row in sample_rows]
    ok = ok and len(sample_rows) <= 130 and len(set(keys)) == len(keys)
    pareto_rows = _read_rows(out / "pareto.csv")
    ok = ok and all(r["feasible"] == "true" for r in pareto_rows)
    pts = [(float(r["cycles"]), float(r["logic"])) for r in pareto_rows]
    ok = ok and len(pareto_front(pts)) == len(pts)
    criterion(8, "evaluation budget, no re-evaluation, clean front", ok)


# -- 9 -------------------------------------------------------------------------

def _cli(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "dse", *args],
                          capture_output=True, text=True, env=env, timeout=600)
    if proc.returncode != 0:
        print(proc.stdout, proc.stderr)
    return proc.returncode


def _read_rows(path):
    import csv

    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_acceptance_9_byte_identical_determinism(tmp_path):
    truth = tmp_path / "truth"
    assert _cli(["brute-force", str(TOY), "--set", f"output_dir={truth}"]) == 0
    outs = []
    for name in ("a", "b", "c", "d"):
        out = tmp_path / name
        code = _cli(["run", str(TOY), "--seed", "17", "--set", f"output_dir={out}",
                     "--reference-front", str(truth / "true_front.csv")])
        assert code == 0
        outs.append(out)
    ok = True
    baseline = outs[0]
    for other in outs[1:]:
        for name in ("samples.csv", "pareto.csv", "hvi_trace.csv"):
            ok = ok and (baseline / name).read_bytes() == (other / name).read_bytes()
    criterion(9, "byte-identical artifacts across four reruns", ok)


# -- 10 ------------------------------------------------------------------------

ECHO = textwrap.dedent("""\
    import csv, sys
    rows = [r for r in csv.reader(sys.stdin) if r]
    out = csv.writer(sys.stdout, lineterminator="\\n")
    out.writerow(rows[0] + ["cycles", "logic", "feasible"])
    for row in rows[1:]:
        out.writerow(row + ["7.5", "3.25", "true"])
""")

EXTERNAL_TOY = textwrap.dedent("""\
    import csv, math, sys
    rows = [r for r in csv.reader(sys.stdin) if r]
    idx = {name: i for i, name in enumerate(rows[0])}
    out = csv.writer(sys.stdout, lineterminator="\\n")
    out.writerow(rows[0] + ["cycles", "logic", "feasible"])
    for row in reversed(rows[1:]):   # out of order on purpose: join is by key
        t = int(row[idx["T"]]); p = int(row[idx["P"]])
        s = row[idx["S"]] == "true"; b = int(row[idx["B"]])
        cycles = math.ceil(4096 / t) * math.ceil(t / p) * (1 if s else 2) + 64 * b
        logic = 5 * p + 3 * t * (2 if s else 1) + 7 * b
        out.writerow(row + [repr(float(cycles)), repr(float(logic)),
                            "true" if logic <= 120 else "false"])
""")


def test_acceptance_10_subprocess_protocol(tmp_path, toy_scenario, toy_truth):
    from dse import EvaluationError

    def spec_for(body, name):
        path = tmp_path / name
        path.write_text(body)
        return replace(toy_scenario, evaluator=EvaluatorSpec(
            command=f"{sys.executable} {path}", timeout_seconds=120))

    batch = [(2, 1, "true", 1), (8, 4, "false", 3),
             (64, 16, "true", 1)]

    echoed = evaluate_batch(spec_for(ECHO, "echo.py"), batch, iteration_tag=2)
    echo_ok = all(r.objectives == (7.5, 3.25) and r.feasible for r in echoed) \
        and [r.config for r in echoed] == batch

    _, builtin_records = toy_truth
    _, external_records = brute_force_front(spec_for(EXTERNAL_TOY, "toy.py"))
    external_ok = external_records == builtin_records

    missing = spec_for(ECHO.replace("rows[1:]", "rows[1:-1]"), "missing.py")
    try:
        evaluate_batch(missing, batch)
        missing_ok = False
    except EvaluationError as e:
        missing_ok = "omitted" in str(e)

    failing = spec_for("import sys; sys.exit(9)", "failing.py")
    try:
        evaluate_batch(failing, batch)
        exit_ok = False
    except EvaluationError as e:
        exit_ok = "status 9" in str(e)

    criterion(10, "subprocess protocol (echo, reimplementation, error paths)",
              echo_ok and external_ok and missing_ok and exit_ok)
