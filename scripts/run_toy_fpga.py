#!/usr/bin/env python3
"""End-to-end demo on the bundled toy accelerator benchmark.

Exhaustively evaluates the 240-point space, runs the guided search with the
given seed, and prints the recovered front next to the true one with the
normalized hypervolume gap.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dse import brute_force_front, constrained_front, hvi, objective_stddevs, parse_scenario, run
from dse.pareto import hvi_trace

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "toy_fpga.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    doc = json.loads(SCENARIO.read_text())
    doc["seed"] = args.seed
    scenario = parse_scenario(json.dumps(doc))

    true_front, all_records = brute_force_front(scenario)
    ref = [r.objectives for r in true_front]
    print(f"space: {scenario.space.cardinality()} points, "
          f"{sum(r.feasible for r in all_records)} feasible")

    result = run(scenario)
    front = constrained_front(result.records)
    sigma = objective_stddevs([r.objectives for r in result.records] + ref)
    gap = hvi([r.objectives for r in front], ref, sigma)

    print(f"evaluated {len(result.records)} configurations over "
          f"{result.tag + 1} iterations")
    print(f"normalized hvi vs true front: {gap:.4f}")
    print(f"{'config':<28} {'cycles':>9} {'logic':>7}  on true front?")
    truth = {r.objectives for r in true_front}
    for r in sorted(front, key=lambda r: r.objectives):
        name = ", ".join(f"{k}={v}" for k, v in zip(scenario.space.names, r.config))
        print(f"{name:<28} {r.objectives[0]:>9.0f} {r.objectives[1]:>7.0f}  "
              f"{'yes' if r.objectives in truth else 'no'}")
    trace = hvi_trace(result.records, ref, sigma)
    print("hvi trace:", " ".join(f"{tag}:{value:.3f}" for tag, value in trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
