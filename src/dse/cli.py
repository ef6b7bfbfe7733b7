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
from .optimizer import RunResult, run
from .pareto import (
    EvaluationRecord, constrained_front, feasible_front, feasible_hvi, objective_stddevs,
)
from .space import (
    CATEGORICAL,
    INTEGER,
    ORDINAL,
    DesignSpace,
    DomainError,
    Parameter,
    Scenario,
    ValidationError,
    canonical_str,
    decode_scenario,
    scenario_from_doc,
)


# ---------------------------------------------------------------------------
# CSV artifacts
# ---------------------------------------------------------------------------

def records_to_csv(space: DesignSpace, objectives: Sequence[str],
                   records: Sequence[EvaluationRecord], with_tag: bool = True) -> str:
    buf = io.StringIO()
    cols = list(space.names) + list(objectives) + ["feasible"]
    if with_tag:
        cols.append("iteration_tag")
    buf.write(",".join(cols) + "\n")
    for r in records:
        cells = [canonical_str(v) for v in r.config]
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
        records.append(EvaluationRecord(values, objs, feasible, tag))
    return records


class ReferenceFrontError(ValueError):
    """A reference-front file that yields no feasible point."""


def read_points_csv(path: Path, objectives: Sequence[str]
                    ) -> tuple[list[tuple[float, ...]], list[bool]]:
    """Objective vectors and feasibility flags of a records CSV; a file with
    no ``feasible`` column counts every row as feasible. Every objective
    cell must hold a finite number."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [o for o in objectives if o not in (reader.fieldnames or ())]
        if missing:
            raise ValidationError(f"{path} has no column {missing[0]!r}")
        points, feasible = [], []
        for row in reader:
            where = f"{path} line {reader.line_num}"
            if None in row.values():
                # csv.DictReader fills the cells a short row lacks with None
                raise ValidationError(f"{where}: row has fewer cells than the header")
            points.append(tuple(_finite_cell(row[o], f"{where}, column {o!r}")
                                for o in objectives))
            feasible.append(row.get("feasible", "true") == "true")
    return points, feasible


def _finite_cell(cell: str, where: str) -> float:
    # NaN and inf pass float() but break dominance and the hypervolume
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValidationError(f"{where}: {cell!r} is not a finite number")
    return value


def read_front_csv(path: Path, objectives: Sequence[str]) -> list[tuple[float, ...]]:
    """Objective vectors of a reference-front CSV; keeps feasible rows and
    reduces to the non-dominated subset so any records file works too."""
    points, feasible = read_points_csv(path, objectives)
    front = [points[i] for i in feasible_front(points, feasible)]
    if not front:
        raise ReferenceFrontError("reference front file has no feasible rows")
    return front


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
    doc = decode_scenario(Path(path).read_text(encoding="utf-8"))
    for item in overrides:
        if "=" not in item:
            raise ValidationError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        _apply_override(doc, key.strip(), value.strip())
    if seed is not None:
        doc["seed"] = seed
    return scenario_from_doc(doc)


def write_run_artifacts(out_dir: Path, scenario: Scenario, result: RunResult,
                        reference_path: str | None) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    space, objectives = scenario.space, scenario.objectives
    (out_dir / "samples.csv").write_text(
        records_to_csv(space, objectives, result.records), encoding="utf-8")
    (out_dir / "pareto.csv").write_text(
        records_to_csv(space, objectives, constrained_front(result.records)), encoding="utf-8")

    trace = io.StringIO()
    trace.write("iteration,hvi\n")
    for tag, value in result.hvi_trace:
        trace.write(f"{tag},{canonical_str(float(value))}\n")
    (out_dir / "hvi_trace.csv").write_text(trace.getvalue(), encoding="utf-8")

    imp = io.StringIO()
    imp.write("objective," + ",".join(space.names) + "\n")
    for name, vec in zip(objectives, feature_importance(result.regressor)):
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
    front = constrained_front(result.records)
    if not front:
        print("warning: no feasible point found; pareto.csv is empty", file=sys.stderr)
    if len(scenario.objectives) == 1:
        if front:  # on one objective the front's first record is the earliest minimum
            best = front[0]
            print(f"best {scenario.objectives[0]}: {canonical_str(best.objectives[0])} "
                  f"at {dict(zip(scenario.space.names, best.config))}")
        else:
            print("no feasible point found")
    print(f"wrote {len(result.records)} samples, front of {len(front)}, "
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

class ReportError(ValueError):
    """Run directories that cannot be reported on together."""


def _run_objectives(run_dir: Path) -> tuple[str, ...]:
    """The objective names recorded in a run directory's run_meta.json."""
    meta_path = run_dir / "run_meta.json"
    if not meta_path.exists():
        raise ReportError(f"{run_dir} has no run_meta.json")
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ReportError(f"{meta_path}: not valid JSON: {e}") from e
    objectives = meta.get("objectives") if isinstance(meta, dict) else None
    if not (isinstance(objectives, list) and all(isinstance(o, str) for o in objectives)):
        raise ReportError(f"{meta_path}: no list of objective names under 'objectives'")
    return tuple(objectives)


def cmd_report(args) -> int:
    """Per-run HVI of each run's feasible front, their mean and, for two or
    more runs, the 80 % confidence half-width.

    The reference is the --reference-front file or, without one, the
    feasible front of every run's samples pooled; objectives are scaled by
    standard deviations over all samples plus the given reference. A run
    with no feasible sample scores ``inf``, and so does the half-width of a
    set of runs that holds one.
    """
    run_dirs = [Path(d) for d in args.run_dir]
    objective_sets = {_run_objectives(d) for d in run_dirs}
    if len(objective_sets) != 1:
        raise ReportError("runs disagree on objective sets")
    objectives = list(objective_sets.pop())
    if len(objectives) != 2:
        raise ReportError("the hypervolume report needs exactly two objectives")

    per_run = [read_points_csv(d / "samples.csv", objectives) for d in run_dirs]
    all_points = [p for points, _ in per_run for p in points]
    if args.reference_front:
        reference = read_front_csv(Path(args.reference_front), objectives)
        sigma = objective_stddevs(all_points + reference)
    else:
        all_feasible = [ok for _, feasible in per_run for ok in feasible]
        reference = [all_points[i] for i in feasible_front(all_points, all_feasible)]
        if not reference:
            raise ReportError("no feasible record in any run")
        sigma = objective_stddevs(all_points)
    values = [(str(d), feasible_hvi(points, feasible, reference, sigma))
              for d, (points, feasible) in zip(run_dirs, per_run)]

    buf = io.StringIO()
    buf.write("run,hvi\n")
    for name, value in values:
        buf.write(f"{name},{canonical_str(float(value))}\n")
    hvis = [v for _, v in values]
    mean = float(np.mean(hvis))
    buf.write(f"mean,{canonical_str(mean)}\n")
    if len(hvis) >= 2:
        from scipy import stats

        half = math.inf  # a run with no feasible sample leaves the spread unbounded
        if all(map(math.isfinite, hvis)):
            half = float(stats.t.ppf(0.9, len(hvis) - 1) * np.std(hvis, ddof=1)
                         / math.sqrt(len(hvis)))
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
    except (EvaluationError, OSError, ValueError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
