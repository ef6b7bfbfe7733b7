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

Usage: python3 scripts/recall_census.py --seeds 1-40
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dse import RngState, encode_matrix, kfold_recall, parse_scenario, run

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


def recalls(doc: dict, seed: int) -> tuple[float, float]:
    """(warm-up, final) 5-fold recall of one filter-on run."""
    scenario = parse_scenario(json.dumps({**doc, "seed": seed, "use_feasibility_filter": True}))
    space, hp = scenario.space, scenario.classifier_hp
    records = run(scenario).records
    out = []
    for subset in ([r for r in records if r.iteration_tag == -1], records):
        X = encode_matrix(space, [r.config for r in subset])
        out.append(kfold_recall(X, [r.feasible for r in subset], hp, 5,
                                RngState(seed, 500), space.unordered_mask))
    return out[0], out[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-40"),
                        help="inclusive seed range a-b (default 1-40)")
    args = parser.parse_args()

    doc = json.loads(SCENARIO.read_text())
    passed = {}
    for seed in args.seeds:
        initial, final = recalls(doc, seed)
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
