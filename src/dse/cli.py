"""Command-line entry points and plot-ready CSV artifacts.

Subcommands:
  dse run <scenario.json> [--seed N] [--set key=value]... [--reference-front f]
  dse brute-force <scenario.json>
  dse report <run_dir>... [--reference-front f] [--output report.csv]

A run writes samples.csv (every evaluation, tagged by iteration), pareto.csv
(final constrained front), hvi_trace.csv, feature_importance.csv and
run_meta.json into the scenario's output directory. samples.csv is replaced
after every batch, so a run that fails or is killed keeps every completed
batch; the other four are written once, at the end. Before its first batch
a run deletes the five (and a leftover samples.csv.tmp), so what a failed
run leaves is its own. Artifacts are byte-reproducible for a fixed scenario
and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import platform
import re
import sys
import time
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from . import __version__
from .evaluators import EvaluationError, brute_force_front
from .forest import feature_importance
from .optimizer import Step, steps
from .pareto import (
    EvaluationRecord, constrained_front, feasible_front, feasible_hvi, hvi_trace, objective_stddevs,
)
from .scenario import Scenario, decode_scenario, scenario_from_doc
from .space import INTEGER, ORDINAL, REAL, DesignSpace, Parameter, ValidationError, canonical_str


# ---------------------------------------------------------------------------
# CSV artifacts
# ---------------------------------------------------------------------------

def records_to_csv(space: DesignSpace, objectives: Sequence[str],
                   records: Sequence[EvaluationRecord], with_tag: bool = True) -> str:
    """The header line, then :func:`_record_lines`."""
    cols = [*space.names, *objectives, "feasible"] + (["iteration_tag"] if with_tag else [])
    return ",".join(cols) + "\n" + _record_lines(records, with_tag)


def _record_lines(records: Sequence[EvaluationRecord], with_tag: bool = True) -> str:
    """One CSV line per record: its values, objectives, feasibility and tag."""
    return "".join(",".join(map(canonical_str, (*r.config, *r.objectives, r.feasible,
                                                *((r.iteration_tag,) if with_tag else ()))))
                   + "\n" for r in records)


def _canonical_int(cell: str) -> int:
    """The integer ``canonical_str`` wrote as ``cell``, else a ValueError:
    ``int`` alone also reads ``0_2`` and `` 2 `` as 2."""
    value = int(cell)
    if canonical_str(value) != cell:
        raise ValueError(f"{cell!r} is not an integer in canonical form")
    return value


_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def _decimal(cell: str) -> float:
    """The float of a cell holding an optional sign, digits with at most one
    point and an optional exponent, as ``canonical_str`` writes one; else a
    ValueError (``float`` alone also reads ``1_0.0`` and `` 2.0 ``)."""
    if not _DECIMAL.fullmatch(cell):
        raise ValueError(f"{cell!r} is not a decimal number")
    return float(cell)


def parse_value(param: Parameter, text: str) -> Any:
    """Invert canonical_str for one parameter value. A value outside the
    domain raises the DomainError ``encode_matrix`` would raise; a number
    that does not parse, or an integer not in canonical form, a ValueError."""
    if param.kind == INTEGER:
        value = _canonical_int(text)
    elif param.kind == REAL:
        value = _decimal(text)
    elif param.kind == ORDINAL:  # the value written as text, if there is one
        value = next((v for v in param.values if canonical_str(v) == text), text)
    else:
        value = text
    param.encode_column([value])
    return value


def read_records_csv(path: Path, space: DesignSpace,
                     objectives: Sequence[str]) -> list[EvaluationRecord]:
    """The typed records of a CSV with every parameter, objective and
    ``feasible`` column, checked as :func:`read_points_csv` checks its rows;
    parameter cells must lie in the space (:func:`parse_value`) and tags
    must be integers in canonical form (-1 without an ``iteration_tag``
    column)."""
    return [EvaluationRecord(
        tuple(_cell(row, p.name, where, partial(parse_value, p), "in the parameter's domain")
              for p in space.parameters),
        tuple(_cell(row, o, where, _finite, "a finite number") for o in objectives),
        _cell(row, "feasible", where, {"true": True, "false": False}.get, "true or false"),
        _cell(row, "iteration_tag", where, _canonical_int, "an integer")
        if "iteration_tag" in row else -1)
        for where, row in _csv_rows(path, [*space.names, *objectives, "feasible"])]


class ReferenceFrontError(ValueError):
    """A reference-front file that yields no feasible point."""


def read_points_csv(path: Path, objectives: Sequence[str]
                    ) -> tuple[list[tuple[float, ...]], list[bool]]:
    """Objective vectors and feasibility flags of a records CSV (all feasible
    without a ``feasible`` column). Rows must be as long as the header,
    objectives finite numbers and feasible cells ``true`` or ``false``."""
    points, feasible = [], []
    for where, row in _csv_rows(path, objectives):
        points.append(tuple(_cell(row, o, where, _finite, "a finite number") for o in objectives))
        feasible.append("feasible" not in row or _cell(
            row, "feasible", where, {"true": True, "false": False}.get, "true or false"))
    return points, feasible


def _csv_rows(path: Path, columns: Sequence[str]) -> Iterator[tuple[str, dict]]:
    """Each row, after its "<path> line <n>", of a CSV file that has ``columns``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in columns if c not in header]
        if missing:
            raise ValidationError(f"{path} has no column {missing[0]!r}")
        # a row's dict keeps the last copy's cell, unnoticed
        repeated = [c for i, c in enumerate(header) if c in header[:i]]
        if repeated:
            raise ValidationError(f"{path} has column {repeated[0]!r} more than once")
        for row in reader:
            where = f"{path} line {reader.line_num}"
            # csv.DictReader files a long row's extra cells under the key None
            # and fills the cells a short row lacks with None
            if None in row or None in row.values():
                count = "more" if None in row else "fewer"
                raise ValidationError(f"{where}: row has {count} cells than the header")
            yield where, row


def _finite(cell: str) -> float | None:
    # a cell that overflows to inf breaks dominance and the hypervolume
    value = _decimal(cell)
    return value if math.isfinite(value) else None


def _cell(row: dict, column: str, where: str, parse: Callable[[str], Any], kind: str) -> Any:
    """``parse(row[column])``; a cell it rejects (ValueError or None) fails."""
    try:
        value = parse(row[column])
    except ValueError:
        value = None
    if value is None:
        raise ValidationError(f"{where}, column {column!r}: {row[column]!r} is not {kind}")
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


def write_run_artifacts(out_dir: Path, scenario: Scenario, last: Step, duration_seconds: float,
                        reference_path: str | None,
                        reference: list[tuple[float, ...]] | None) -> None:
    """Write the artifacts but samples.csv of a run whose last step is ``last``
    into ``out_dir``; with ``reference`` (read from ``reference_path``)
    hvi_trace.csv holds the HVI of the records up to each iteration tag."""
    space, objectives, records = scenario.space, scenario.objectives, last.records
    (out_dir / "pareto.csv").write_text(
        records_to_csv(space, objectives, constrained_front(records)), encoding="utf-8")

    trace = []
    if reference is not None:
        sigma = objective_stddevs([r.objectives for r in records] + reference)
        trace = hvi_trace(records, reference, sigma)
    (out_dir / "hvi_trace.csv").write_text("iteration,hvi\n" + "".join(
        f"{tag},{canonical_str(value)}\n" for tag, value in trace), encoding="utf-8")

    rows = [["objective", *space.names]] + [
        [name, *(canonical_str(float(v)) for v in vec)]
        for name, vec in zip(objectives, feature_importance(last.regressor))]
    (out_dir / "feature_importance.csv").write_text(
        "".join(",".join(row) + "\n" for row in rows), encoding="utf-8")

    meta = {
        "application_name": scenario.application_name,
        "seed": scenario.seed,
        "parameters": list(space.names),
        "objectives": list(objectives),
        "feasibility_filter": scenario.filters_feasibility,
        "reference_front": reference_path,
        "versions": {
            "package": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "iterations_run": last.tag + 1,
        "evaluations": len(records),
        "duration_seconds": duration_seconds,
    }
    if reference is not None:
        meta["hvi_stddevs"] = dict(zip(objectives, sigma.tolist()))
    (out_dir / "run_meta.json").write_text(json.dumps(meta, indent=2), encoding="utf-8")


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario, args.set or [], args.seed)
    reference = None
    if args.reference_front:
        reference = read_front_csv(Path(args.reference_front), scenario.objectives)
    out_dir = Path(scenario.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0, tmp = time.perf_counter(), out_dir / "samples.csv.tmp"
    # an earlier run's metadata beside this run's partial samples.csv would
    # be reported as one run
    for name in ("samples.csv", "pareto.csv", "hvi_trace.csv", "feature_importance.csv",
                 "run_meta.json", tmp.name):
        (out_dir / name).unlink(missing_ok=True)
    # each record is formatted once, and after each step samples.csv is replaced
    # whole by renaming a file over it: a failed or killed run keeps every batch
    # it completed
    samples, written = records_to_csv(scenario.space, scenario.objectives, ()), 0
    for step in steps(scenario):
        samples += _record_lines(step.records[written:])
        written = len(step.records)
        tmp.write_text(samples, encoding="utf-8")
        tmp.replace(out_dir / "samples.csv")
    write_run_artifacts(out_dir, scenario, step, time.perf_counter() - t0,
                        args.reference_front, reference)
    front = constrained_front(step.records)
    if not front:
        print("warning: no feasible point found; pareto.csv is empty", file=sys.stderr)
    if len(scenario.objectives) == 1:
        if front:  # on one objective the front's first record is the earliest minimum
            best = front[0]
            print(f"best {scenario.objectives[0]}: {canonical_str(best.objectives[0])} "
                  f"at {dict(zip(scenario.space.names, best.config))}")
        else:
            print("no feasible point found")
    print(f"wrote {len(step.records)} samples, front of {len(front)}, to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# brute-force
# ---------------------------------------------------------------------------

def cmd_brute_force(args) -> int:
    scenario = load_scenario(args.scenario, args.set or [], None)
    front, records = brute_force_front(scenario)
    out_dir = Path(scenario.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, rows in (("all_points.csv", records), ("true_front.csv", front)):
        (out_dir / name).write_text(
            records_to_csv(scenario.space, scenario.objectives, rows, with_tag=False),
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

    hvis = [v for _, v in values]
    values.append(("mean", np.mean(hvis)))
    if len(hvis) >= 2:
        from scipy import stats

        half = math.inf  # a run with no feasible sample leaves the spread unbounded
        if all(map(math.isfinite, hvis)):
            half = stats.t.ppf(0.9, len(hvis) - 1) * np.std(hvis, ddof=1) / math.sqrt(len(hvis))
        values.append(("ci80_half_width", half))
    text = "run,hvi\n" + "".join(f"{name},{canonical_str(float(v))}\n" for name, v in values)
    out_path = Path(args.output)
    out_path.write_text(text, encoding="utf-8")
    print(text.rstrip("\n"))
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
