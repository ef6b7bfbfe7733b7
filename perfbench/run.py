"""Benchmark for `dse run`: end-to-end metrics, or per-layer metrics from a
traced run, for one workload.

    python3 perfbench/run.py --workload fpga_seeds --seed 1 --seconds 25 --trace 0

Run from anywhere; the package is imported from ../src relative to this file.
Each invocation is one fresh process at the default thread setting
(DSE_THREADS unset). It runs `dse run` in-process over consecutive seeds
derived from --seed, checks every run's artifacts (gate.py), repeats the
first seed with DSE_THREADS=1 and requires byte-identical samples.csv and
pareto.csv, and prints one line per metric followed by a JSON summary as the
last line. It exits 1 if any run failed.

--trace 0 reports the end-to-end metrics. --trace 1 runs the workload's
fixed seed set untraced and then traced (tracer.py) and reports per-layer
metrics as means per run, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from gate import check_run
from tracer import LAYER_NAMES, Tracer, run_layers
from workloads import ROOT, WORKLOADS, Bench

SETUP_PROBES = 7
SEED_STRIDE = 1000  # --seed n runs dse seeds n*1000, n*1000+1, ...

LAYER_COUNTS = (
    "optimizer.candidate_pool.configs",
    "space.encode_matrix.rows",
    "forest.predict_batch.rows",
    "pareto.pareto_front.points",
    "pareto.pareto_front.front_size",
    "forest.fit.samples",
    "forest.fit.nodes",
    "optimizer.predict_pareto.excluded",
    "priors.warmup_sample.configs",
    "evaluators.evaluate_batch.configs",
)
LAYER_RATIOS = {  # name: (numerator, denominator) over the totals of all runs
    "forest.fit.overlap": ("forest.fit.span_sum_s", "forest.fit.union_s"),
    "optimizer.predict_pareto.filter_pass_ratio": (
        "forest.predict_batch.classifier_pass", "forest.predict_batch.classifier_rows"),
    "optimizer.select_batch.exploit_share": (
        "optimizer.select_batch.exploit", "optimizer.select_batch.batch"),
    "trace.coverage": ("run.covered_s", "run.s"),
}


def import_dse():
    """Import dse from this checkout's src/, and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import dse
    except ImportError as e:
        raise SystemExit(f"error: cannot import dse from {src}: {e}")
    if not Path(dse.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: dse was imported from {dse.__file__}, not from {src}")
    return dse


@dataclass
class Outcome:
    seed: int
    run_s: float
    problems: list[str] = field(default_factory=list)
    decisions: list[float] = field(default_factory=list)
    hvi_trace: list[float] = field(default_factory=list)
    artifacts: tuple[bytes, bytes] = (b"", b"")
    layers: dict | None = None


def run_once(bench: Bench, seed: int, tracer: Tracer | None = None) -> Outcome:
    """One `dse run` through the CLI entry point, then the gate on its output."""
    from dse import cli

    out_dir = bench.work_dir / "run"
    shutil.rmtree(out_dir, ignore_errors=True)
    bench.reset_clock()
    args = ["run", str(bench.workload.scenario), "--seed", str(seed),
            "--set", f"output_dir={out_dir}", *bench.overrides]
    rc, root, problems = None, None, []
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                rc = cli.main(args)
            else:
                tracer.spans.clear()
                with tracer.span("run") as root:
                    rc = cli.main(args)
    except Exception:
        problems.append(traceback.format_exc(limit=4))
    outcome = Outcome(seed, time.perf_counter() - t0, problems)
    if rc != 0:
        problems.append(f"seed {seed}: dse run exited with status {rc}")
        return outcome

    found, records = check_run(out_dir, bench.columns, bench.objectives, bench.evaluate,
                               bench.budget)
    problems += [f"seed {seed}: {p}" for p in found]
    if not records:
        return outcome
    tags = [r.tag for r in records]
    batches = bench.batch_times(tags)
    groups = len([k for k, _ in itertools.groupby(tags)])
    if len(batches) != groups:
        problems.append(f"seed {seed}: evaluator saw {len(batches)} batches, samples.csv {groups}")
    outcome.decisions = [nxt[0] - prev[1] for prev, nxt in zip(batches, batches[1:])]
    outcome.hvi_trace = bench.hvi.trace(records)
    outcome.artifacts = ((out_dir / "samples.csv").read_bytes(),
                         (out_dir / "pareto.csv").read_bytes())
    if tracer is not None:
        outcome.layers = run_layers(tracer.spans, root)
    return outcome


def determinism_probe(bench: Bench, reference: Outcome) -> Outcome:
    """Repeat ``reference``'s seed with DSE_THREADS=1; artifacts must match."""
    os.environ["DSE_THREADS"] = "1"
    try:
        probe = run_once(bench, reference.seed)
    finally:
        del os.environ["DSE_THREADS"]
    if not probe.problems and probe.artifacts != reference.artifacts:
        probe.problems.append(f"seed {reference.seed}: samples.csv or pareto.csv differ "
                              "between DSE_THREADS=1 and the default")
    return probe


def setup_time(workload: str) -> float:
    """Process start to ready-to-run in a fresh interpreter: interpreter
    start, `import dse`, scenario parse and reference-front construction."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload],
        capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - start


def timed_runs(bench: Bench, base_seed: int, seconds: float) -> tuple[list[Outcome], list[float]]:
    """Consecutive seeds until the next run would end past ``seconds``, and at
    least the workload's quality runs. The set-up probes are spread between
    the runs, so that their median does not hang on one moment's load."""
    runs: list[Outcome] = []
    setups: list[float] = []
    t0 = time.perf_counter()
    for seed in itertools.count(base_seed):
        elapsed = time.perf_counter() - t0
        if len(runs) >= bench.workload.quality_runs and elapsed * (1 + 1 / len(runs)) > seconds:
            break
        if len(setups) < SETUP_PROBES:
            setups.append(setup_time(bench.workload.name))
        runs.append(run_once(bench, seed))
    while len(setups) < SETUP_PROBES:
        setups.append(setup_time(bench.workload.name))
    return runs, setups


def end_to_end(runs: list[Outcome], quality: list[Outcome], setup: list[float]) -> dict:
    return {
        "run_s": (statistics.median(r.run_s for r in runs), "s"),
        "decision_s": (statistics.median(d for r in runs for d in r.decisions), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "hvi_auc": (statistics.mean(statistics.mean(r.hvi_trace) for r in quality), "1"),
    }


def per_layer(untraced: list[Outcome], traced: list[Outcome]) -> dict:
    totals: dict[str, float] = {}
    for r in traced:
        for key, value in r.layers.items():
            totals[key] = totals.get(key, 0) + value
    n = len(traced)
    out: dict[str, tuple[float, str]] = {}
    for layer in LAYER_NAMES:
        out[f"{layer}.calls"] = (totals[f"{layer}.calls"] / n, "count")
        out[f"{layer}.s"] = (totals[f"{layer}.s"] / n, "s")
        out[f"{layer}.self_s"] = (totals[f"{layer}.self_s"] / n, "s")
    for key in LAYER_COUNTS:
        out[key] = (totals.get(key, 0) / n, "count")
    for key, (num, den) in LAYER_RATIOS.items():
        out[key] = (totals.get(num, 0) / totals[den] if totals.get(den) else 0.0, "ratio")
    traced_s = statistics.median(r.run_s for r in traced)
    out["trace.run_s"] = (traced_s, "s")
    out["trace.overhead_s"] = (traced_s - statistics.median(r.run_s for r in untraced), "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    threads_env = os.environ.pop("DSE_THREADS", None)
    dse = import_dse()
    workload = WORKLOADS[args.workload]
    work_root = ROOT / ".perfbench_work"
    work_dir = work_root / f"{workload.name}-{os.getpid()}"
    bench = Bench(workload, work_dir)
    if args.setup_probe:
        print(repr(time.monotonic()))
        return 0

    import numpy

    print(f"env nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} dse={dse.__version__} "
          f"DSE_THREADS={'unset' if threads_env is None else repr(threads_env) + ' (unset for the runs)'}")
    base_seed = args.seed * SEED_STRIDE
    quality_seeds = range(base_seed, base_seed + workload.quality_runs)
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            # each seed runs untraced and traced, in alternating order, so
            # that neither drift in CPU speed nor a repeat's warm allocator
            # favours one side of the overhead
            tracer = Tracer(bench.scenario.feasibility_threshold)
            runs, traced = [], []
            for i, seed in enumerate(quality_seeds):
                for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                    if not with_trace:
                        runs.append(run_once(bench, seed))
                        continue
                    tracer.install()
                    try:
                        traced.append(run_once(bench, seed, tracer))
                    finally:
                        tracer.uninstall()
            for plain, tr in zip(runs, traced):
                if not tr.problems and tr.artifacts != plain.artifacts:
                    tr.problems.append(f"seed {tr.seed}: tracing changed the artifacts")
            probe = determinism_probe(bench, runs[0])
            attempted = runs + traced + [probe]
        else:
            runs, setup = timed_runs(bench, base_seed, args.seconds)
            probe = determinism_probe(bench, runs[0])
            attempted = runs + [probe]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    failed = [r for r in attempted if r.problems]
    for r in failed:
        for problem in r.problems:
            print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {workload.name}: {len(runs)} runs from seed {base_seed}, "
          f"HVI over the first {workload.quality_runs}, {len(attempted)} attempted, "
          f"{len(failed)} failed")

    print(f"{'error_rate':<46} {len(failed) / len(attempted):>16.6g} 1")
    metrics: dict[str, tuple[float, str]] = {}
    if not failed and args.trace:
        metrics = per_layer(runs, traced)
    elif not failed:
        quality = runs[:workload.quality_runs]
        print("run_s per run:", " ".join(f"{r.run_s:.3f}" for r in runs))
        print(f"{'decision_s samples':<46} {sum(len(r.decisions) for r in runs):>16}")
        print(f"{'hvi_final':<46} {statistics.mean(r.hvi_trace[-1] for r in quality):>16.6g} 1")
        metrics = end_to_end(runs, quality, setup)
    for name, (value, unit) in metrics.items():
        print(f"{name:<46} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(attempted),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
