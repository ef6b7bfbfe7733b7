"""The black-box boundary: builtin benchmarks and the subprocess protocol.

External evaluators are one-shot child processes: they receive a request CSV
(parameter columns, canonical formatting) on stdin and answer on stdout with
the same parameter columns plus one column per objective and, when the
scenario declares one, the feasibility column. Rows are joined back to
configurations by the parameter columns, never by row order, so children may
answer out of order.

A builtin's result dict and a child's response row are read by the same
rules (:func:`_records`): every objective and the named feasibility output
must be present, objectives must be finite numbers, and a configuration is
feasible iff its feasibility output, in canonical form, equals
``true_value``. Anything else fails the batch with an ``EvaluationError``.
"""

from __future__ import annotations

import csv
import io
import math
import shlex
import subprocess
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from .pareto import EvaluationRecord, constrained_front
from .space import (
    DesignSpace,
    DomainError,
    FeasibleOutput,
    ValidationError,
    canonical_str,
    enumerate_space,
    require_number,
    require_str,
)


class EvaluationError(RuntimeError):
    """The evaluator broke the protocol; carries its raw output for diagnosis."""

    def __init__(self, message: str, raw_output: str = ""):
        super().__init__(message)
        self.raw_output = raw_output
        self.partial_records: list[EvaluationRecord] = []  # run's records before the failure


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
        if not 0 < self.timeout_seconds < math.inf:  # NaN too
            raise ValueError("evaluator timeout must be positive and finite")


def parse_evaluator(raw: Any, objectives: tuple[str, ...],
                    feasibility: FeasibleOutput | None) -> EvaluatorSpec:
    """Evaluator section of the scenario JSON: either {"builtin": name} or
    {"command": "...", "working_dir": "...", "timeout_seconds": s}."""
    if not isinstance(raw, dict):
        raise ValidationError("evaluator must be an object")
    if "builtin" in raw:
        allowed = {"builtin"}
    elif "command" in raw:
        allowed = {"command", "working_dir", "timeout_seconds"}
    else:
        raise ValidationError("evaluator needs either a 'builtin' name or a 'command'")
    extra = set(raw) - allowed
    if extra:
        raise ValidationError(f"evaluator: unknown key {sorted(extra)[0]!r}")
    if "builtin" in raw:
        kwargs = {"mode": "builtin", "name": require_str(raw["builtin"], "evaluator.builtin")}
    else:
        working_dir = raw.get("working_dir")
        if working_dir is not None:
            require_str(working_dir, "evaluator.working_dir")
        kwargs = {
            "mode": "subprocess",
            "command": require_str(raw["command"], "evaluator.command"),
            "working_dir": working_dir,
            "timeout_seconds": require_number(raw.get("timeout_seconds", 300.0),
                                              "evaluator.timeout_seconds"),
        }
    try:
        return EvaluatorSpec(**kwargs, objectives=objectives, feasibility=feasibility)
    except ValueError as e:
        raise ValidationError(f"evaluator: {e}") from e


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

def _config_key(config: tuple) -> tuple[str, ...]:
    return tuple(canonical_str(v) for v in config)


def request_csv(space: DesignSpace, batch: Sequence[tuple]) -> str:
    """The CSV document sent to a child evaluator's stdin."""
    buf = io.StringIO()
    buf.write(",".join(space.names) + "\n")
    for config in batch:
        buf.write(",".join(_config_key(config)) + "\n")
    return buf.getvalue()


def _response_rows(space: DesignSpace, batch: Sequence[tuple], text: str) -> list[dict[str, str]]:
    """The child's answer to each configuration of ``batch``, in batch order,
    as a column -> cell map. Only the CSV itself is checked here; the cells
    are read by :func:`_records`."""
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if not rows:
        raise EvaluationError("evaluator produced no CSV output", text)
    header = [h.strip() for h in rows[0]]
    col = {name: i for i, name in enumerate(header)}
    for name in space.names:
        if name not in col:
            raise EvaluationError(f"response is missing column {name!r}", text)

    by_key: dict[tuple[str, ...], list[str]] = {}
    for row in rows[1:]:
        if len(row) != len(header):
            raise EvaluationError(f"malformed response row: {row!r}", text)
        key = tuple(row[col[n]].strip() for n in space.names)
        if key in by_key:
            raise EvaluationError(f"duplicate response row for configuration {key}", text)
        by_key[key] = row

    answers = []
    for config in batch:
        key = _config_key(config)
        if key not in by_key:
            raise EvaluationError(f"evaluator omitted configuration {key}", text)
        answers.append(dict(zip(header, by_key[key])))
    return answers


def _records(spec: EvaluatorSpec, batch: Sequence[tuple], outputs: Iterable[Mapping[str, Any]],
             iteration_tag: int, raw_output: str = "") -> list[EvaluationRecord]:
    """One record per configuration of ``batch`` from its output mapping (a
    builtin's result or a child's response row), by the module's rules."""
    fea = spec.feasibility
    required = spec.objectives + ((fea.name,) if fea is not None else ())
    records = []
    for config, out in zip(batch, outputs):
        missing = [name for name in required if name not in out]
        if missing:
            raise EvaluationError(f"evaluator output is missing column {missing[0]!r} "
                                  f"for configuration {_config_key(config)}", raw_output)
        try:
            objectives = tuple(float(out[o]) for o in spec.objectives)
        except (TypeError, ValueError) as e:
            raise EvaluationError(
                f"unparseable objective value for {_config_key(config)}: {e}", raw_output)
        # a NaN is never dominated and would land on the front unnoticed
        for name, value in zip(spec.objectives, objectives):
            if not math.isfinite(value):
                raise EvaluationError(f"non-finite objective {name}={value!r} for "
                                      f"configuration {_config_key(config)}", raw_output)
        feasible = fea is None or canonical_str(out[fea.name]).strip() == fea.true_value
        records.append(EvaluationRecord(config, objectives, feasible, iteration_tag))
    return records


def evaluate_batch(spec: EvaluatorSpec, space: DesignSpace,
                   batch: Sequence[tuple],
                   iteration_tag: int = -1) -> list[EvaluationRecord]:
    """Evaluate a batch of configurations, one record per configuration.

    Builtin mode computes in-process; subprocess mode ships the whole batch
    to one child and joins the answer by parameter columns. Every requested
    configuration must come back exactly once.
    """
    if not batch:
        raise EvaluationError("evaluate_batch requires a non-empty batch")
    if spec.mode == "builtin":
        fn, names = BUILTIN_EVALUATORS[spec.name], space.names
        # a generator, so each call is followed by its own record
        return _records(spec, batch, (fn(dict(zip(names, c))) for c in batch), iteration_tag)

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
        # on POSIX the output captured before the timeout is bytes, even with text=True
        output = [out.decode(errors="replace") if isinstance(out, bytes) else out
                  for out in (e.stdout, e.stderr) if out]
        raise EvaluationError(f"evaluator timed out after {spec.timeout_seconds}s",
                              "".join(output))
    except OSError as e:
        raise EvaluationError(f"failed to launch evaluator: {e}")
    if proc.returncode != 0:
        raise EvaluationError(
            f"evaluator exited with status {proc.returncode}",
            proc.stdout + proc.stderr,
        )
    return _records(spec, batch, _response_rows(space, batch, proc.stdout),
                    iteration_tag, proc.stdout)


def brute_force_front(space: DesignSpace, spec: EvaluatorSpec):
    """Evaluate the whole (finite) space; the ground-truth oracle.

    Returns (front_records, all_records). Raises EnumerationError when the
    space has real parameters or exceeds the enumeration cap.
    """
    configs = list(enumerate_space(space))
    records = evaluate_batch(spec, space, configs, iteration_tag=-1)
    return constrained_front(records), records
