#!/usr/bin/env python3
"""Fingerprint the artifacts of a fixed set of seeded runs.

Runs `dse run` in-process, with `dse` imported from this checkout, over:

- toy_fpga seeds 1-20 with --reference-front (the brute-force true front);
- toy_fpga seeds 1-10 with the feasibility filter off;
- toy_fpga mono-objective (cycles) seeds 1-3;
- toy_linear seeds 1-5;
- the benchmark's mixed_pool and mixed_fit scenarios, seeds 1-3, with the
  in-process perfbench/zdt.py objective and a 2001-point zdt reference front.

It prints the sha256 of samples.csv, pareto.csv, hvi_trace.csv and
feature_importance.csv for every run, then one digest per run family
(toy_fpga/ref, toy_fpga/nofilter, toy_fpga/cycles, toy_linear, mixed_pool,
mixed_fit) and one combined digest over all those per-file lines. Two
checkouts that print the same combined digest produce byte-identical
artifacts on this set; equal family lines show which families a change
left alone.

Artifacts can stay equal while trees change, so it then prints forest
digests: the sha256 over the preorder structure (feature, threshold,
unordered flag, leaf value, all floats in hex) and the raw importances of
forests fitted on a fixed set of seeded datasets, one line per forest kind
(forests/regressor, forests/classifier) and one over all fits (forests).
The set mixes real, integer-valued, categorical and duplicated columns, and
fits regressors and classifiers under max_features "auto" (k = d and k < d)
and 0.5.

Usage: python3 scripts/artifact_digest.py
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

from dse import (  # noqa: E402
    ForestHyperparams, RngState, brute_force_front, evaluators, fit_classifier, fit_regressor,
    parse_scenario,
)
from dse.cli import main as dse_main, records_to_csv  # noqa: E402

import zdt  # noqa: E402

ARTIFACTS = ("samples.csv", "pareto.csv", "hvi_trace.csv", "feature_importance.csv")
TOY_FPGA = ROOT / "scenarios" / "toy_fpga.json"
TOY_LINEAR = ROOT / "scenarios" / "toy_linear.json"
ZDT_BUILTIN = "perfbench_zdt"


def run_set(tmp: Path):
    """(label, scenario path, extra CLI arguments) of every run."""
    fpga = parse_scenario(TOY_FPGA.read_text(encoding="utf-8"))
    true_front, _ = brute_force_front(fpga)
    fpga_ref = tmp / "toy_fpga_front.csv"
    fpga_ref.write_text(records_to_csv(fpga.space, fpga.objectives, true_front, with_tag=False),
                        encoding="utf-8")
    zdt_ref = tmp / "zdt_front.csv"
    zdt_ref.write_text("f1,f2\n" + "".join(f"{a!r},{b!r}\n" for a, b in zdt.true_front(2001)),
                       encoding="utf-8")
    zdt_eval = ["--set", "evaluator=" + json.dumps({"builtin": ZDT_BUILTIN})]

    for seed in range(1, 21):
        yield f"toy_fpga/ref/{seed}", TOY_FPGA, [
            "--seed", str(seed), "--reference-front", str(fpga_ref)]
    for seed in range(1, 11):
        yield f"toy_fpga/nofilter/{seed}", TOY_FPGA, [
            "--seed", str(seed), "--set", "use_feasibility_filter=false"]
    for seed in range(1, 4):
        yield f"toy_fpga/cycles/{seed}", TOY_FPGA, [
            "--seed", str(seed), "--set", 'optimization_objectives=["cycles"]']
    for seed in range(1, 6):
        yield f"toy_linear/{seed}", TOY_LINEAR, ["--seed", str(seed)]
    for name in ("mixed_pool", "mixed_fit"):
        scenario = ROOT / "perfbench" / "scenarios" / f"{name}.json"
        for seed in range(1, 4):
            yield f"{name}/{seed}", scenario, [
                "--seed", str(seed), "--reference-front", str(zdt_ref), *zdt_eval]


def forest_fits():
    """Forests fitted on the fixed seeded datasets of the forest digest."""
    for case in range(40):
        gen = np.random.default_rng(case)
        n, d = int(gen.integers(20, 300)), int(gen.integers(2, 9))
        columns, unordered = [gen.random(n)], [False]
        for _ in range(d - 1):
            kind = int(gen.integers(0, 4))
            if kind == 0:
                columns.append(gen.random(n))
            elif kind == 1:
                columns.append(gen.integers(1, 65, n).astype(float))
            elif kind == 2:  # categorical level index
                columns.append(gen.integers(0, 3, n).astype(float))
            else:  # duplicate of the previous column
                columns.append(columns[-1].copy())
            unordered.append(kind == 2 or (kind == 3 and unordered[-1]))
        X = np.column_stack(columns)
        y = X @ gen.normal(size=d) + gen.normal(size=n)
        labels = y > np.median(y)
        for max_features in ("auto", 0.5):
            hp = ForestHyperparams(n_estimators=5, max_features=max_features)
            yield fit_regressor(X, y, hp, RngState(case, 1), unordered)
            yield fit_classifier(X, labels, hp, RngState(case, 2), unordered)


def forest_digests() -> dict[str, tuple[str, int]]:
    """sha256 and fit count over every tree's preorder structure and the raw
    importances, per forest kind and (key "") over all fits in fit order."""
    hashes, counts = {}, {}
    for forest in forest_fits():
        lines = []
        for tree in forest.trees:
            stack = [tree]
            while stack:
                node = stack.pop()
                if node.is_leaf:
                    lines.append(f"L {float(node.value).hex()}\n")
                else:
                    lines.append(f"N {node.feature} {float(node.threshold).hex()} "
                                 f"{int(node.unordered)}\n")
                    stack += [node.right, node.left]
        lines.append(" ".join(float(v).hex() for v in forest.raw_importance) + "\n")
        for key in ("", forest.kind):
            hashes.setdefault(key, hashlib.sha256()).update("".join(lines).encode())
            counts[key] = counts.get(key, 0) + 1
    return {key: (h.hexdigest(), counts[key]) for key, h in hashes.items()}


def _digest_lines(lines: list[str]) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def main() -> int:
    evaluators.BUILTIN_EVALUATORS[ZDT_BUILTIN] = zdt.evaluate
    lines, families = [], {}
    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        for label, scenario, args in run_set(tmp):
            out_dir = tmp / label.replace("/", "_")
            argv = ["run", str(scenario), *args, "--set", f"output_dir={json.dumps(str(out_dir))}"]
            with contextlib.redirect_stdout(io.StringIO()):
                status = dse_main(argv)
            if status != 0:
                print(f"error: run {label} exited {status}", file=sys.stderr)
                return 1
            for artifact in ARTIFACTS:
                digest = hashlib.sha256((out_dir / artifact).read_bytes()).hexdigest()
                lines.append(f"{digest}  {label}/{artifact}")
                families.setdefault(label.rsplit("/", 1)[0], []).append(lines[-1])
                print(lines[-1], flush=True)
    for family, family_lines in families.items():
        print(f"{_digest_lines(family_lines)}  {family} ({len(family_lines)} files)")
    print(f"{_digest_lines(lines)}  combined ({len(lines)} files)")
    forests = forest_digests()
    for kind in ("regressor", "classifier"):
        print(f"{forests[kind][0]}  forests/{kind} ({forests[kind][1]} fits)")
    print(f"{forests[''][0]}  forests ({forests[''][1]} fits)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
