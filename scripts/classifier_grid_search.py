#!/usr/bin/env python3
"""Exhaustive sweep of the 81-point classifier hyperparameter grid.

Scores every combination by 5-fold cross-validated recall of the feasibility
classifier on warm-up-sized toy-benchmark data and prints the ranked table.
The full grid includes 1000-tree forests, so expect a couple of minutes;
--max-estimators caps the ensemble size for a quick look.
"""

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dse import RngState, kfold_recall, parse_scenario
from dse.evaluators import evaluate_batch
from dse.forest import ForestHyperparams
from dse.priors import warmup_sample
from dse.space import encode_matrix

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "toy_fpga.json"


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=120,
                        help="warm-up draws used as training data")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--max-estimators", type=int, default=None,
                        help="cap n_estimators (default: run the grid as-is)")
    parser.add_argument("--top", type=int, default=10)
    args = parser.parse_args()

    scenario = parse_scenario(SCENARIO.read_text())
    space = scenario.space
    configs = warmup_sample(space, args.samples, RngState(args.seed, 1))
    records = evaluate_batch(scenario, configs)
    X = encode_matrix(space, [r.config for r in records])
    labels = [r.feasible for r in records]
    print(f"training data: {len(records)} samples, "
          f"{sum(labels)} feasible / {len(labels) - sum(labels)} infeasible")

    grid = classifier_grid()
    scored = []
    t0 = time.perf_counter()
    for i, hp in enumerate(grid):
        if args.max_estimators is not None:
            hp = replace(hp, n_estimators=min(hp.n_estimators, args.max_estimators))
        recall = kfold_recall(X, labels, hp, 5, RngState(args.seed, 2),
                              space.unordered_mask)
        scored.append((recall, i, hp))
    scored.sort(key=lambda item: (-item[0], item[1]))

    print(f"\nscored {len(grid)} configurations in {time.perf_counter() - t0:.1f}s")
    print(f"{'rank':>4} {'recall':>7}  {'trees':>5} {'depth':>5} {'features':>8} "
          f"{'w_feasible':>10}")
    for rank, (recall, i, hp) in enumerate(scored[: args.top], start=1):
        depth = "none" if hp.max_depth is None else hp.max_depth
        print(f"{rank:>4} {recall:>7.3f}  {hp.n_estimators:>5} {depth:>5} "
              f"{str(hp.max_features):>8} {hp.class_weight[0]:>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
