#!/usr/bin/env python3
"""Census of acceptance 4 (classifier recall improves with active learning).

For every seed of a range, runs the bundled toy_fpga scenario with the
feasibility filter on and compares the feasibility classifier's 5-fold
recall on the warm-up evaluations with its 5-fold recall on all evaluations,
both shuffled by RngState(seed, 500), as the acceptance test does. A seed
passes when the final recall is no lower than the warm-up recall. Seeds are
grouped into consecutive five-seed sets from the first seed; a set passes
when at least 4 of its 5 seeds do (a trailing set of fewer seeds is shown but
not judged).

A second, whole-space measure follows: toy_fpga's 240 configurations are
enumerable, so a classifier fitted on the warm-up records and one fitted on
all records (both seeded RngState(seed, 501)) are scored against the
feasibility labels of brute_force_front at the scenario's threshold. Each
seed gets the two fits' precision and recall, and one more summary line
counts the seeds where precision rose and where recall did not fall.

Usage: python3 scripts/recall_census.py --seeds 1-40
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dse import (RngState, brute_force_front, encode_matrix, fit_classifier, kfold_recall,
                 parse_scenario, run)

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "toy_fpga.json"
SET_SIZE, SET_BOUND = 5, 4


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    try:
        lo, hi = int(first), int(last or first)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a seed range like 1-40, got {text!r}")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return range(lo, hi + 1)


def scenario_for(doc: dict, seed: int):
    """The scenario of the document at a seed, with the feasibility filter on."""
    return parse_scenario(json.dumps({**doc, "seed": seed, "use_feasibility_filter": True}))


def recalls(scenario, seed: int, truth) -> tuple[float, float, list[tuple[float, float]]]:
    """(warm-up, final) 5-fold recall of one filter-on run, and the
    (precision, recall) on the whole space of a classifier fitted on its
    warm-up records and of one fitted on all its records."""
    space, hp = scenario.space, scenario.classifier_hp
    records = run(scenario).records
    X_all = encode_matrix(space, [r.config for r in truth])
    feasible = np.array([r.feasible for r in truth])
    out, whole = [], []
    for subset in ([r for r in records if r.iteration_tag == -1], records):
        X = encode_matrix(space, [r.config for r in subset])
        labels = [r.feasible for r in subset]
        out.append(kfold_recall(X, labels, hp, 5, RngState(seed, 500), space.unordered_mask))
        classifier = fit_classifier(X, labels, hp, RngState(seed, 501), space.unordered_mask)
        predicted = classifier.predict_batch(X_all) >= scenario.feasibility_threshold
        tp = int((predicted & feasible).sum())
        whole.append((tp / max(int(predicted.sum()), 1), tp / int(feasible.sum())))
    return out[0], out[1], whole


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-40"),
                        help="inclusive seed range a-b (default 1-40)")
    args = parser.parse_args()

    doc = json.loads(SCENARIO.read_text())
    scenario = scenario_for(doc, 0)
    truth = brute_force_front(scenario)[1]
    passed, whole = {}, {}
    for seed in args.seeds:
        initial, final, whole[seed] = recalls(scenario_for(doc, seed), seed, truth)
        passed[seed] = final >= initial
        print(f"seed {seed:>3}: recall warm-up {initial:.3f} -> final {final:.3f}  "
              f"{'pass' if passed[seed] else 'FAIL'}")

    seeds = list(args.seeds)
    judged = []
    for i in range(0, len(seeds), SET_SIZE):
        group = seeds[i:i + SET_SIZE]
        wins = sum(passed[s] for s in group)
        name = f"{group[0]}-{group[-1]}"
        if len(group) < SET_SIZE:
            print(f"set {name}: {wins}/{len(group)} seeds (fewer than {SET_SIZE}, not judged)")
            continue
        ok = wins >= SET_BOUND
        judged.append((name, ok))
        print(f"set {name}: {wins}/{SET_SIZE} seeds  {'pass' if ok else 'FAIL'}")
    passing = [name for name, ok in judged if ok]
    print(f"\nrecall final >= warm-up in {sum(passed.values())}/{len(seeds)} seeds; "
          f"{len(passing)}/{len(judged)} five-seed sets pass"
          + (f" ({', '.join(passing)})" if passing else ""))

    print(f"\nwhole space ({len(truth)} configurations), classifier fitted on the warm-up "
          f"-> all records:")
    for seed in seeds:
        (p0, r0), (p1, r1) = whole[seed]
        print(f"seed {seed:>3}: precision {p0:.3f} -> {p1:.3f}  recall {r0:.3f} -> {r1:.3f}")
    (p0, r0), (p1, r1) = np.mean([whole[s] for s in seeds], axis=0)
    rose = sum(w[1][0] > w[0][0] for w in whole.values())
    held = sum(w[1][1] >= w[0][1] for w in whole.values())
    print(f"\nwhole space: precision higher in {rose}/{len(seeds)} seeds (mean {p0:.3f} -> "
          f"{p1:.3f}); recall no lower in {held}/{len(seeds)} seeds (mean {r0:.3f} -> {r1:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
