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
feature_importance.csv for every run, then one combined digest over those
lines. Two checkouts that print the same combined digest produce
byte-identical artifacts on this set. Usage: python3 scripts/artifact_digest.py
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

from dse import brute_force_front, evaluators, parse_scenario  # noqa: E402
from dse.cli import main as dse_main, records_to_csv  # noqa: E402

import zdt  # noqa: E402

ARTIFACTS = ("samples.csv", "pareto.csv", "hvi_trace.csv", "feature_importance.csv")
TOY_FPGA = ROOT / "scenarios" / "toy_fpga.json"
TOY_LINEAR = ROOT / "scenarios" / "toy_linear.json"
ZDT_BUILTIN = "perfbench_zdt"


def run_set(tmp: Path):
    """(label, scenario path, extra CLI arguments) of every run."""
    fpga = parse_scenario(TOY_FPGA.read_text(encoding="utf-8"))
    true_front, _ = brute_force_front(fpga.space, fpga.evaluator)
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


def main() -> int:
    evaluators.BUILTIN_EVALUATORS[ZDT_BUILTIN] = zdt.evaluate
    lines = []
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
                print(lines[-1], flush=True)
    combined = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
    print(f"{combined}  combined ({len(lines)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
