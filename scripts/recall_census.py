#!/usr/bin/env python3
"""Census of acceptances 4 (classifier recall improves with active
learning) and 3 (the feasibility filter's value) on toy_fpga.

For every seed of a range, runs the bundled toy_fpga scenario with the
feasibility filter on and compares the feasibility classifier's 5-fold
recall on the warm-up evaluations with its 5-fold recall on all evaluations,
both shuffled by RngState(seed, 500), as the acceptance test does. A seed
passes when the final recall is no lower than the warm-up recall. Seeds are
grouped into consecutive five-seed sets from the first seed; a set passes
when at least 4 of its 5 seeds do (a trailing set of fewer seeds is shown but
not judged).

Acceptance 3 also runs each seed with the filter off. Both runs get their
HVI against the true front (deviations over both runs and the true front)
and their infeasible fraction after the warm-up; as in the acceptance test,
a set passes when in 4 of 5 seeds the filter's HVI is no worse, and in 4
its fraction lower.

A whole-space measure follows: toy_fpga's 240 configurations are
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

from dse import (RngState, brute_force_front, constrained_front, encode_matrix, fit_classifier,
                 hvi, kfold_recall, objective_stddevs, parse_scenario, run)

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


def scenario_for(doc: dict, seed: int, use_filter: bool = True):
    """The scenario of the document at a seed, with the feasibility filter on or off."""
    return parse_scenario(json.dumps({**doc, "seed": seed, "use_feasibility_filter": use_filter}))


def recalls(scenario, seed: int, records, truth) -> tuple[float, float, list[tuple[float, float]]]:
    """(warm-up, final) 5-fold recall of one filter-on run's records, and
    the (precision, recall) on the whole space of a classifier fitted on its
    warm-up records and of one fitted on all its records."""
    space, hp = scenario.space, scenario.classifier_hp
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


def filter_value(on, off, ref) -> tuple[float, float, float, float]:
    """HVI vs ``ref`` of filter-on and -off records, then infeasible fractions after warm-up."""
    sigma = objective_stddevs([r.objectives for r in on + off] + ref)
    hvis = [hvi([r.objectives for r in constrained_front(rs)], ref, sigma) for rs in (on, off)]
    fractions = [np.mean([not r.feasible for r in rs if r.iteration_tag >= 0]) for rs in (on, off)]
    return (*hvis, *fractions)


def judge_sets(seeds: list[int], counts: dict[str, dict[int, bool]]) -> str:
    """Print each five-seed set's count of passing seeds under every label of
    ``counts``; a set passes when each count reaches SET_BOUND. Returns which pass."""
    passing = []
    for i in range(0, len(seeds), SET_SIZE):
        group = seeds[i:i + SET_SIZE]
        wins = [sum(passed[s] for s in group) for passed in counts.values()]
        name = f"{group[0]}-{group[-1]}"
        tally = ", ".join(f"{label}{n}/{len(group)} seeds" for label, n in zip(counts, wins))
        if len(group) < SET_SIZE:
            print(f"set {name}: {tally} (fewer than {SET_SIZE}, not judged)")
            continue
        ok = min(wins) >= SET_BOUND
        passing += [name] if ok else []
        print(f"set {name}: {tally}  {'pass' if ok else 'FAIL'}")
    return (f"{len(passing)}/{len(seeds) // SET_SIZE} five-seed sets pass"
            + (f" ({', '.join(passing)})" if passing else ""))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-40"),
                        help="inclusive seed range a-b (default 1-40)")
    args = parser.parse_args()

    doc = json.loads(SCENARIO.read_text())
    scenario = scenario_for(doc, 0)
    true_front, truth = brute_force_front(scenario)
    ref = [r.objectives for r in true_front]
    passed, value, whole = {}, {}, {}
    for seed in args.seeds:
        on, off = (run(scenario_for(doc, seed, use_filter)).records for use_filter in (True, False))
        initial, final, whole[seed] = recalls(scenario, seed, on, truth)
        value[seed] = filter_value(on, off, ref)
        passed[seed] = final >= initial
        print(f"seed {seed:>3}: recall warm-up {initial:.3f} -> final {final:.3f}  "
              f"{'pass' if passed[seed] else 'FAIL'}")

    seeds = list(args.seeds)
    summary = judge_sets(seeds, {"": passed})
    print(f"\nrecall final >= warm-up in {sum(passed.values())}/{len(seeds)} seeds; {summary}")

    print("\nfilter on/off: hvi vs the true front, infeasible fraction after the warm-up:")
    for seed in seeds:
        print(f"seed {seed:>3}: hvi {value[seed][0]:.4f}/{value[seed][1]:.4f}, "
              f"infeasible fraction {value[seed][2]:.2f}/{value[seed][3]:.2f}")
    no_worse = {s: v[0] <= v[1] for s, v in value.items()}
    fewer = {s: v[2] < v[3] for s, v in value.items()}
    summary = judge_sets(seeds, {"hvi no worse ": no_worse, "infeasible fraction lower ": fewer})
    print(f"\nfilter hvi no worse in {sum(no_worse.values())}/{len(seeds)} seeds, infeasible "
          f"fraction lower in {sum(fewer.values())}/{len(seeds)} seeds; {summary}")

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
