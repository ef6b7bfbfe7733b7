"""The black-box boundary: builtin benchmarks and the subprocess protocol.

External evaluators are one-shot child processes: they receive a request CSV
(parameter columns, canonical formatting) on stdin and answer on stdout with
the same parameter columns plus one column per objective and, optionally, the
feasibility column. Rows are joined back to configurations by the parameter
columns, never by row order, so children may answer out of order.
"""

from __future__ import annotations

import csv
import io
import math
import shlex
import subprocess
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from .pareto import EvaluationRecord, constrained_front
from .space import (
    Configuration,
    DesignSpace,
    DomainError,
    FeasibleOutput,
    canonical_str,
    enumerate_space,
)


class EvaluationError(RuntimeError):
    """The evaluator broke the protocol; carries its raw output for diagnosis."""

    def __init__(self, message: str, raw_output: str = ""):
        super().__init__(message)
        self.raw_output = raw_output


@dataclass(frozen=True)
class EvaluatorSpec:
    """How to evaluate a batch: an in-process builtin or a child command."""

    mode: str  # "builtin" | "subprocess"
    name: str | None = None
    command: str | None = None
    working_dir: str | None = None
    timeout_seconds: float = 300.0
    objectives: tuple[str, ...] = ()
    feasibility: FeasibleOutput | None = None

    def __post_init__(self):
        if self.mode not in ("builtin", "subprocess"):
            raise ValueError(f"unknown evaluator mode {self.mode!r}")
        if self.mode == "builtin" and self.name not in BUILTIN_EVALUATORS:
            raise ValueError(f"unknown builtin evaluator {self.name!r}")
        if self.mode == "subprocess" and not self.command:
            raise ValueError("subprocess evaluator needs a command line")
        if self.timeout_seconds <= 0:
            raise ValueError("evaluator timeout must be positive")


def parse_evaluator(raw: Any, objectives: tuple[str, ...],
                    feasibility: FeasibleOutput | None) -> EvaluatorSpec:
    """Evaluator section of the scenario JSON: either {"builtin": name} or
    {"command": "...", "working_dir": "...", "timeout_seconds": s}."""
    if not isinstance(raw, dict):
        raise ValueError("evaluator must be an object")
    if "builtin" in raw:
        extra = set(raw) - {"builtin"}
        if extra:
            raise ValueError(f"unknown evaluator key {sorted(extra)[0]!r}")
        return EvaluatorSpec("builtin", name=str(raw["builtin"]),
                             objectives=objectives, feasibility=feasibility)
    if "command" in raw:
        extra = set(raw) - {"command", "working_dir", "timeout_seconds"}
        if extra:
            raise ValueError(f"unknown evaluator key {sorted(extra)[0]!r}")
        return EvaluatorSpec(
            "subprocess",
            command=str(raw["command"]),
            working_dir=raw.get("working_dir"),
            timeout_seconds=float(raw.get("timeout_seconds", 300.0)),
            objectives=objectives,
            feasibility=feasibility,
        )
    raise ValueError("evaluator needs either a 'builtin' name or a 'command'")


def evaluator_to_json(spec: EvaluatorSpec) -> dict:
    if spec.mode == "builtin":
        return {"builtin": spec.name}
    doc: dict[str, Any] = {"command": spec.command, "timeout_seconds": spec.timeout_seconds}
    if spec.working_dir is not None:
        doc["working_dir"] = spec.working_dir
    return doc


# ---------------------------------------------------------------------------
# Builtin benchmarks
# ---------------------------------------------------------------------------

def toy_fpga(values: Mapping[str, Any]) -> dict[str, Any]:
    """Synthetic accelerator cost model over a 240-point space.

    T (tile size) and P (parallelism) are ordinals, S (pipelining) is a
    categorical flag, B (buffer depth) an integer. Parallelism and pipelining
    cut cycles but cost logic, and designs only fit while logic <= 120, so
    the two objectives conflict and a sizable fraction of the space is
    infeasible.
    """
    t, p, s, b = values["T"], values["P"], values["S"], values["B"]
    if t not in (2, 4, 8, 16, 32, 64):
        raise DomainError(f"T={t!r} outside domain")
    if p not in (1, 2, 4, 8, 16):
        raise DomainError(f"P={p!r} outside domain")
    if s not in ("true", "false"):
        raise DomainError(f"S={s!r} outside domain")
    if not (isinstance(b, int) and 1 <= b <= 4):
        raise DomainError(f"B={b!r} outside domain")
    pipelined = s == "true"
    cycles = math.ceil(4096 / t) * math.ceil(t / p) * (1 if pipelined else 2) + 64 * b
    logic = 5 * p + 3 * t * (2 if pipelined else 1) + 7 * b
    return {"cycles": float(cycles), "logic": float(logic), "feasible": logic <= 120}


def toy_linear(values: Mapping[str, Any]) -> dict[str, Any]:
    """Two-objective synthetic with one dominant knob per objective and no
    feasibility constraint; exercises the unconstrained code path."""
    a, b, c = values["A"], values["B"], values["C"]
    if not (isinstance(a, int) and 1 <= a <= 10):
        raise DomainError(f"A={a!r} outside domain")
    if not (isinstance(b, int) and 1 <= b <= 10):
        raise DomainError(f"B={b!r} outside domain")
    if c not in ("on", "off"):
        raise DomainError(f"C={c!r} outside domain")
    latency = 100.0 * a + b + (5.0 if c == "on" else 0.0)
    area = 100.0 * b + a
    return {"latency": latency, "area": area, "feasible": True}


BUILTIN_EVALUATORS: dict[str, Callable[[Mapping[str, Any]], dict[str, Any]]] = {
    "toy_fpga": toy_fpga,
    "toy_linear": toy_linear,
}


# ---------------------------------------------------------------------------
# Batch evaluation
# ---------------------------------------------------------------------------

def _config_key(space: DesignSpace, config: Configuration) -> tuple[str, ...]:
    return tuple(canonical_str(v) for v in config.values)


def request_csv(space: DesignSpace, batch: Sequence[Configuration]) -> str:
    """The CSV document sent to a child evaluator's stdin."""
    buf = io.StringIO()
    buf.write(",".join(space.names) + "\n")
    for config in batch:
        buf.write(",".join(_config_key(space, config)) + "\n")
    return buf.getvalue()


def _require_finite(spec: EvaluatorSpec, key: tuple[str, ...],
                    objectives: tuple[float, ...], raw_output: str = "") -> None:
    # a NaN is never dominated and would land on the front unnoticed
    for name, value in zip(spec.objectives, objectives):
        if not math.isfinite(value):
            raise EvaluationError(
                f"non-finite objective {name}={value!r} for configuration {key}", raw_output)


def _evaluate_builtin(spec: EvaluatorSpec, space: DesignSpace,
                      batch: Sequence[Configuration], iteration_tag: int):
    fn = BUILTIN_EVALUATORS[spec.name]
    records = []
    for config in batch:
        outputs = fn(config.as_dict(space))
        missing = [o for o in spec.objectives if o not in outputs]
        if missing:
            raise EvaluationError(
                f"builtin {spec.name!r} does not produce objective {missing[0]!r}")
        objectives = tuple(float(outputs[o]) for o in spec.objectives)
        _require_finite(spec, _config_key(space, config), objectives)
        feasible = bool(outputs.get("feasible", True)) if spec.feasibility is not None else True
        records.append(EvaluationRecord(config, objectives, feasible, iteration_tag))
    return records


def _parse_response(spec: EvaluatorSpec, space: DesignSpace,
                    batch: Sequence[Configuration], text: str, iteration_tag: int):
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row]
    if not rows:
        raise EvaluationError("evaluator produced no CSV output", text)
    header = [h.strip() for h in rows[0]]
    col = {name: i for i, name in enumerate(header)}
    for name in list(space.names) + list(spec.objectives):
        if name not in col:
            raise EvaluationError(f"response is missing column {name!r}", text)
    fea_name = spec.feasibility.name if spec.feasibility is not None else None
    if fea_name is not None and fea_name not in col:
        raise EvaluationError(f"response is missing feasibility column {fea_name!r}", text)

    by_key: dict[tuple[str, ...], list[str]] = {}
    for row in rows[1:]:
        if len(row) != len(header):
            raise EvaluationError(f"malformed response row: {row!r}", text)
        key = tuple(row[col[n]].strip() for n in space.names)
        if key in by_key:
            raise EvaluationError(f"duplicate response row for configuration {key}", text)
        by_key[key] = row

    records = []
    for config in batch:
        key = _config_key(space, config)
        row = by_key.get(key)
        if row is None:
            raise EvaluationError(f"evaluator omitted configuration {key}", text)
        try:
            objectives = tuple(float(row[col[o]]) for o in spec.objectives)
        except ValueError as e:
            raise EvaluationError(f"unparseable objective value for {key}: {e}", text)
        _require_finite(spec, key, objectives, text)
        if fea_name is not None:
            feasible = row[col[fea_name]].strip() == spec.feasibility.true_value
        else:
            feasible = True
        records.append(EvaluationRecord(config, objectives, feasible, iteration_tag))
    return records


def evaluate_batch(spec: EvaluatorSpec, space: DesignSpace,
                   batch: Sequence[Configuration],
                   iteration_tag: int = -1) -> list[EvaluationRecord]:
    """Evaluate a batch of configurations, one record per configuration.

    Builtin mode computes in-process; subprocess mode ships the whole batch
    to one child and joins the answer by parameter columns. Every requested
    configuration must come back exactly once.
    """
    if not batch:
        raise EvaluationError("evaluate_batch requires a non-empty batch")
    if spec.mode == "builtin":
        return _evaluate_builtin(spec, space, batch, iteration_tag)

    request = request_csv(space, batch)
    try:
        proc = subprocess.run(
            shlex.split(spec.command),
            input=request,
            capture_output=True,
            text=True,
            timeout=spec.timeout_seconds,
            cwd=spec.working_dir,
        )
    except subprocess.TimeoutExpired as e:
        raise EvaluationError(
            f"evaluator timed out after {spec.timeout_seconds}s",
            (e.stdout or "") + (e.stderr or ""),
        )
    except OSError as e:
        raise EvaluationError(f"failed to launch evaluator: {e}")
    if proc.returncode != 0:
        raise EvaluationError(
            f"evaluator exited with status {proc.returncode}",
            proc.stdout + proc.stderr,
        )
    return _parse_response(spec, space, batch, proc.stdout, iteration_tag)


def brute_force_front(space: DesignSpace, spec: EvaluatorSpec,
                      cap: int | None = None):
    """Evaluate the whole (finite) space; the ground-truth oracle.

    Returns (front_records, all_records). Raises EnumerationError when the
    space has real parameters or exceeds the enumeration cap.
    """
    configs = list(enumerate_space(space) if cap is None else enumerate_space(space, cap))
    records = evaluate_batch(spec, space, configs, iteration_tag=-1)
    return constrained_front(records), records
