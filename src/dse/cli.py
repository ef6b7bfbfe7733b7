"""Command-line entry points and plot-ready CSV artifacts.

Subcommands:
  dse run <scenario.json> [--seed N] [--set key=value]... [--reference-front f]
  dse brute-force <scenario.json>
  dse report <run_dir>... [--reference-front f] [--output report.csv]

A run writes samples.csv (every evaluation, tagged by iteration), pareto.csv
(final constrained front), hvi_trace.csv, feature_importance.csv and
run_meta.json into the scenario's output directory. Artifacts are
byte-reproducible for a fixed scenario and seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import platform
import sys
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import __version__
from .evaluators import EvaluationError, brute_force_front
from .forest import feature_importance
from .optimizer import RunResult, mono_objective_best, run
from .pareto import EvaluationRecord, hvi, objective_stddevs, pareto_front
from .space import (
    CATEGORICAL,
    INTEGER,
    ORDINAL,
    Configuration,
    DesignSpace,
    DomainError,
    EnumerationError,
    Parameter,
    Scenario,
    ValidationError,
    canonical_str,
    parse_scenario,
)


# ---------------------------------------------------------------------------
# CSV artifacts
# ---------------------------------------------------------------------------

def record_columns(space: DesignSpace, objectives: Sequence[str],
                   with_tag: bool = True) -> list[str]:
    cols = list(space.names) + list(objectives) + ["feasible"]
    if with_tag:
        cols.append("iteration_tag")
    return cols


def records_to_csv(space: DesignSpace, objectives: Sequence[str],
                   records: Sequence[EvaluationRecord], with_tag: bool = True) -> str:
    buf = io.StringIO()
    buf.write(",".join(record_columns(space, objectives, with_tag)) + "\n")
    for r in records:
        cells = [canonical_str(v) for v in r.config.values]
        cells += [canonical_str(v) for v in r.objectives]
        cells.append(canonical_str(r.feasible))
        if with_tag:
            cells.append(str(r.iteration_tag))
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


def parse_value(param: Parameter, text: str) -> Any:
    """Invert canonical_str for one parameter value."""
    if param.kind == CATEGORICAL:
        if text not in param.values:
            raise DomainError(f"{param.name}: unknown level {text!r}")
        return text
    if param.kind == INTEGER:
        return int(text)
    if param.kind == ORDINAL:
        for v in param.values:
            if canonical_str(v) == text:
                return v
        raise DomainError(f"{param.name}: {text!r} is not an allowed ordinal value")
    return float(text)


def read_records_csv(path: Path, space: DesignSpace,
                     objectives: Sequence[str]) -> list[EvaluationRecord]:
    """Parse a records CSV back into typed EvaluationRecords."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    records = []
    for row in rows:
        values = tuple(parse_value(p, row[p.name]) for p in space.parameters)
        objs = tuple(float(row[o]) for o in objectives)
        feasible = row["feasible"] == "true"
        tag = int(row["iteration_tag"]) if "iteration_tag" in row and row["iteration_tag"] else -1
        records.append(EvaluationRecord(Configuration(values), objs, feasible, tag))
    return records


def read_raw_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_front_csv(path: Path, objectives: Sequence[str]) -> list[tuple[float, ...]]:
    """Objective vectors of a reference-front CSV; keeps feasible rows and
    reduces to the non-dominated subset so any records file works too."""
    rows = read_raw_rows(path)
    pts = []
    for row in rows:
        missing = [o for o in objectives if o not in row]
        if missing:
            raise ValidationError(f"{path} has no column {missing[0]!r}")
        if "feasible" in row and row["feasible"] != "true":
            continue
        pts.append(tuple(float(row[o]) for o in objectives))
    if not pts:
        return []
    return [pts[i] for i in pareto_front(pts)]


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _apply_override(doc: dict, dotted_key: str, raw_value: str) -> None:
    try:
        value = json.loads(raw_value)
    except json.JSONDecodeError:
        value = raw_value
    node = doc
    parts = dotted_key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ValidationError(f"cannot override through non-object field {part!r}")
    node[parts[-1]] = value


def load_scenario(path: str, overrides: Sequence[str] = (), seed: int | None = None) -> Scenario:
    text = Path(path).read_text(encoding="utf-8")
    if not overrides and seed is None:
        return parse_scenario(text)
    doc = json.loads(text)
    for item in overrides:
        if "=" not in item:
            raise ValidationError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        _apply_override(doc, key.strip(), value.strip())
    if seed is not None:
        doc["seed"] = seed
    return parse_scenario(json.dumps(doc))


def write_run_artifacts(out_dir: Path, scenario: Scenario, result: RunResult,
                        reference_path: str | None) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    space, objectives = scenario.space, scenario.objectives
    records = result.archive.records

    (out_dir / "samples.csv").write_text(
        records_to_csv(space, objectives, records), encoding="utf-8")
    (out_dir / "pareto.csv").write_text(
        records_to_csv(space, objectives, result.archive.front()), encoding="utf-8")

    trace = io.StringIO()
    trace.write("iteration,hvi\n")
    for tag, value in result.hvi_trace:
        trace.write(f"{tag},{canonical_str(float(value))}\n")
    (out_dir / "hvi_trace.csv").write_text(trace.getvalue(), encoding="utf-8")

    imp = io.StringIO()
    imp.write("objective," + ",".join(space.names) + "\n")
    for name, forest in zip(objectives, result.bundle.regressors):
        vec = feature_importance(forest)
        imp.write(name + "," + ",".join(canonical_str(float(v)) for v in vec) + "\n")
    (out_dir / "feature_importance.csv").write_text(imp.getvalue(), encoding="utf-8")

    meta = {
        "application_name": scenario.application_name,
        "seed": scenario.seed,
        "parameters": list(space.names),
        "objectives": list(objectives),
        "feasibility_filter": scenario.use_feasibility_filter and scenario.feasibility is not None,
        "reference_front": reference_path,
        "versions": {
            "package": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        **result.meta,
    }
    (out_dir / "run_meta.json").write_text(json.dumps(meta, indent=2), encoding="utf-8")


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario, args.set or [], args.seed)
    reference = None
    if args.reference_front:
        reference = read_front_csv(Path(args.reference_front), scenario.objectives)
        if not reference:
            print("error: ReferenceFrontError: reference front file has no feasible rows",
                  file=sys.stderr)
            return 1
    out_dir = Path(scenario.output_dir)
    try:
        result = run(scenario, reference_front=reference)
    except EvaluationError as e:
        partial = getattr(e, "partial_records", [])
        if partial:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "samples.csv").write_text(
                records_to_csv(scenario.space, scenario.objectives, partial),
                encoding="utf-8")
        print(f"error: EvaluationError: {e}", file=sys.stderr)
        return 1
    write_run_artifacts(out_dir, scenario, result, args.reference_front)
    front = result.archive.front()
    if not front:
        print("warning: no feasible point found; pareto.csv is empty", file=sys.stderr)
    if len(scenario.objectives) == 1:
        best = mono_objective_best(result.archive)
        if best is not None:
            print(f"best {scenario.objectives[0]}: {canonical_str(best.objectives[0])} "
                  f"at {dict(zip(scenario.space.names, best.config.values))}")
        else:
            print("no feasible point found")
    print(f"wrote {len(result.archive.records)} samples, front of {len(front)}, "
          f"to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# brute-force
# ---------------------------------------------------------------------------

def cmd_brute_force(args) -> int:
    scenario = load_scenario(args.scenario, args.set or [], None)
    front, records = brute_force_front(scenario.space, scenario.evaluator)
    out_dir = Path(scenario.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "all_points.csv").write_text(
        records_to_csv(scenario.space, scenario.objectives, records, with_tag=False),
        encoding="utf-8")
    (out_dir / "true_front.csv").write_text(
        records_to_csv(scenario.space, scenario.objectives, front, with_tag=False),
        encoding="utf-8")
    print(f"evaluated {len(records)} configurations; true front has {len(front)} points; "
          f"wrote {out_dir}/all_points.csv and {out_dir}/true_front.csv")
    return 0


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def cmd_report(args) -> int:
    run_dirs = [Path(d) for d in args.run_dir]
    metas = []
    for d in run_dirs:
        meta_path = d / "run_meta.json"
        if not meta_path.exists():
            print(f"error: ReportError: {d} has no run_meta.json", file=sys.stderr)
            return 1
        metas.append(json.loads(meta_path.read_text(encoding="utf-8")))
    objective_sets = {tuple(m["objectives"]) for m in metas}
    if len(objective_sets) != 1:
        print("error: ReportError: runs disagree on objective sets", file=sys.stderr)
        return 1
    objectives = list(objective_sets.pop())
    if len(objectives) != 2:
        print("error: ReportError: the hypervolume report needs exactly two objectives",
              file=sys.stderr)
        return 1
    param_names = metas[0]["parameters"]

    per_run: list[list[tuple[tuple[float, ...], bool]]] = []
    for d in run_dirs:
        rows = read_raw_rows(d / "samples.csv")
        if rows and any(o not in rows[0] for o in objectives):
            print(f"error: ReportError: {d}/samples.csv is missing an objective column",
                  file=sys.stderr)
            return 1
        per_run.append([
            (tuple(float(row[o]) for o in objectives), row["feasible"] == "true")
            for row in rows
        ])

    all_points = [objs for records in per_run for objs, _ in records]
    if args.reference_front:
        reference = read_front_csv(Path(args.reference_front), objectives)
        sigma_pool = all_points + list(reference)
    else:
        feas = [objs for records in per_run for objs, ok in records if ok]
        if not feas:
            print("error: ReportError: no feasible record in any run", file=sys.stderr)
            return 1
        reference = [feas[i] for i in pareto_front(feas)]
        sigma_pool = all_points
    sigma = objective_stddevs(sigma_pool)

    values = []
    for d, records in zip(run_dirs, per_run):
        feas = [objs for objs, ok in records if ok]
        if not feas:
            values.append((str(d), math.inf))
            continue
        front = [feas[i] for i in pareto_front(feas)]
        values.append((str(d), hvi(front, reference, sigma)))

    buf = io.StringIO()
    buf.write("run,hvi\n")
    for name, value in values:
        buf.write(f"{name},{canonical_str(float(value))}\n")
    hvis = [v for _, v in values]
    mean = float(np.mean(hvis))
    buf.write(f"mean,{canonical_str(mean)}\n")
    if len(hvis) >= 2:
        from scipy import stats

        half = float(stats.t.ppf(0.9, len(hvis) - 1) * np.std(hvis, ddof=1) / math.sqrt(len(hvis)))
        buf.write(f"ci80_half_width,{canonical_str(half)}\n")
    out_path = Path(args.output)
    out_path.write_text(buf.getvalue(), encoding="utf-8")
    print(buf.getvalue().rstrip("\n"))
    print(f"wrote {out_path}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dse",
        description="Multi-objective design-space exploration with random-forest "
                    "surrogates and a feasibility filter.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a scenario field (dotted keys for nesting)")
    p_run.add_argument("--reference-front", default=None,
                       help="CSV with the reference front; enables the HVI trace")
    p_run.set_defaults(fn=cmd_run)

    p_bf = sub.add_parser("brute-force", help="exhaustively evaluate a finite space")
    p_bf.add_argument("scenario")
    p_bf.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_bf.set_defaults(fn=cmd_brute_force)

    p_rep = sub.add_parser("report", help="aggregate HVI over finished runs")
    p_rep.add_argument("run_dir", nargs="+")
    p_rep.add_argument("--reference-front", default=None)
    p_rep.add_argument("--output", default="report.csv")
    p_rep.set_defaults(fn=cmd_report)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValidationError, DomainError, EnumerationError, EvaluationError, OSError,
            ValueError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
