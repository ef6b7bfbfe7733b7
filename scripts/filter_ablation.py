#!/usr/bin/env python3
"""Feasibility-filter ablation on the toy accelerator benchmark.

Runs the same seeded searches with the classifier filter enabled and
disabled, then compares the normalized hypervolume gap to the true front and
the fraction of post-warm-up evaluations wasted on infeasible designs.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dse import brute_force_front, constrained_front, hvi, objective_stddevs, parse_scenario, run

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "toy_fpga.json"


def infeasible_fraction(result) -> float:
    al = [r for r in result.records if r.iteration_tag >= 0]
    return sum(1 for r in al if not r.feasible) / len(al) if al else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    args = parser.parse_args()

    base = json.loads(SCENARIO.read_text())
    scenario0 = parse_scenario(json.dumps(base))
    true_front, _ = brute_force_front(scenario0)
    ref = [r.objectives for r in true_front]

    print(f"{'seed':>4} {'hvi on':>8} {'hvi off':>8} {'infeas on':>10} {'infeas off':>11}")
    hvi_wins = frac_wins = 0
    for seed in args.seeds:
        doc = dict(base)
        doc["seed"] = seed
        on = run(parse_scenario(json.dumps(doc)))
        doc["use_feasibility_filter"] = False
        off = run(parse_scenario(json.dumps(doc)))
        pool = [r.objectives for r in on.records + off.records]
        sigma = objective_stddevs(pool + ref)
        v_on = hvi([r.objectives for r in constrained_front(on.records)], ref, sigma)
        v_off = hvi([r.objectives for r in constrained_front(off.records)], ref, sigma)
        f_on, f_off = infeasible_fraction(on), infeasible_fraction(off)
        hvi_wins += v_on <= v_off
        frac_wins += f_on < f_off
        print(f"{seed:>4} {v_on:>8.4f} {v_off:>8.4f} {f_on:>10.2f} {f_off:>11.2f}")
    n = len(args.seeds)
    print(f"\nfilter no worse on hvi in {hvi_wins}/{n} seeds; "
          f"strictly fewer infeasible evaluations in {frac_wins}/{n} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
