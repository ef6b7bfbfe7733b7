"""The black-box boundary: builtin benchmarks and the subprocess protocol.

External evaluators are one-shot child processes: they receive a request CSV
(parameter columns, canonical formatting) on stdin and answer on stdout with
the same parameter columns plus one column per objective and, when the
scenario declares one, the feasibility column. Rows are joined back to
configurations by the parameter columns, never by row order, so children may
answer out of order. A child that times out, or whose run is ended by
SIGTERM or SIGHUP, is killed with its whole process group, so the processes
it started die with it.

A builtin's result dict and a child's response row are read by the same
rules (:func:`_records`): every objective and the named feasibility output
must be present, objectives must be finite numbers, and a configuration is
feasible iff its feasibility output, in canonical form, equals
``true_value``. Anything else fails the batch with an ``EvaluationError``,
and so does an exception a builtin raises.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import shlex
import signal
import subprocess
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, Sequence

from .pareto import EvaluationRecord, constrained_front
from .space import DesignSpace, DomainError, canonical_str, enumerate_space

if TYPE_CHECKING:  # the scenario reader builds an EvaluatorSpec, so it imports this module
    from .scenario import Scenario


class EvaluationError(RuntimeError):
    """The evaluator broke the protocol; carries its raw output for diagnosis."""

    def __init__(self, message: str, raw_output: str = ""):
        super().__init__(message)
        self.raw_output = raw_output


@dataclass(frozen=True)
class EvaluatorSpec:
    """How to run the evaluator: exactly one of the builtin ``name`` (in-process)
    and the child ``command``; ``working_dir`` and a ``timeout_seconds`` other
    than the default apply to a command only. What it measures is the
    scenario's to say."""

    name: str | None = None
    command: str | None = None
    working_dir: str | None = None
    timeout_seconds: float = 300.0

    def __post_init__(self):
        if (self.name is None) == (self.command is None):
            raise ValueError("evaluator needs exactly one of a builtin name and a command")
        if self.name is not None:
            if self.name not in BUILTIN_EVALUATORS:
                raise ValueError(f"unknown builtin evaluator {self.name!r}")
            default = EvaluatorSpec.timeout_seconds  # the class attribute holds the field's default
            if self.working_dir is not None or self.timeout_seconds != default:
                raise ValueError("a builtin evaluator runs in-process and takes no working_dir "
                                 "or timeout_seconds")
        if self.command is not None and not shlex.split(self.command):  # unbalanced quotes raise
            raise ValueError("evaluator command line is empty")
        if not 0 < self.timeout_seconds < math.inf:  # NaN too
            raise ValueError("evaluator timeout must be positive and finite")


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
    return "".join(",".join(row) + "\n" for row in [space.names, *map(_config_key, batch)])


def _response_rows(space: DesignSpace, batch: Sequence[tuple], text: str) -> list[dict[str, str]]:
    """The child's answer to each configuration of ``batch``, in batch order,
    as a column -> cell map. Only the CSV itself is checked here; the cells
    are read by :func:`_records`."""
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if not rows:
        raise EvaluationError("evaluator produced no CSV output", text)
    header = [h.strip() for h in rows[0]]
    col = {name: i for i, name in enumerate(header)}
    # a row's column -> cell map keeps the last copy's cell, unnoticed
    repeated = [name for i, name in enumerate(header) if name in header[:i]]
    if repeated:
        raise EvaluationError(f"response has column {repeated[0]!r} more than once", text)
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


def _records(scenario: Scenario, batch: Sequence[tuple], outputs: Iterable[Mapping[str, Any]],
             iteration_tag: int, raw_output: str = "") -> list[EvaluationRecord]:
    """One record per configuration of ``batch`` from its output mapping (a
    builtin's result or a child's response row), by the module's rules."""
    objective_names, fea = scenario.objectives, scenario.feasibility
    required = objective_names + ((fea.name,) if fea is not None else ())
    records = []
    for config, out in zip(batch, outputs):
        missing = [name for name in required if name not in out]
        if missing:
            raise EvaluationError(f"evaluator output is missing column {missing[0]!r} "
                                  f"for configuration {_config_key(config)}", raw_output)
        try:
            objectives = tuple(float(out[o]) for o in objective_names)
        except (TypeError, ValueError) as e:
            raise EvaluationError(
                f"unparseable objective value for {_config_key(config)}: {e}", raw_output)
        # a NaN is never dominated and would land on the front unnoticed
        for name, value in zip(objective_names, objectives):
            if not math.isfinite(value):
                raise EvaluationError(f"non-finite objective {name}={value!r} for "
                                      f"configuration {_config_key(config)}", raw_output)
        feasible = fea is None or canonical_str(out[fea.name]).strip() == fea.true_value
        records.append(EvaluationRecord(config, objectives, feasible, iteration_tag))
    return records


def _builtin_outputs(name: str, space: DesignSpace,
                     batch: Sequence[tuple]) -> Iterator[Mapping[str, Any]]:
    """The builtin's result for each configuration, computed as it is read;
    an exception the builtin raises fails the batch, naming the configuration."""
    fn = BUILTIN_EVALUATORS[name]
    for config in batch:
        try:
            yield fn(dict(zip(space.names, config)))
        except Exception as e:
            raise EvaluationError(f"builtin evaluator {name!r} failed on configuration "
                                  f"{_config_key(config)}: {type(e).__name__}: {e}") from e


def evaluate_batch(scenario: Scenario, batch: Sequence[tuple],
                   iteration_tag: int = -1) -> list[EvaluationRecord]:
    """One record per configuration of ``batch``, by the scenario's evaluator,
    objectives and feasibility output. A builtin computes in-process; a
    command gets the whole batch in one child, whose answer is joined back
    by parameter columns. Every requested configuration must come back once.
    """
    if not batch:
        raise EvaluationError("evaluate_batch requires a non-empty batch")
    spec, space = scenario.evaluator, scenario.space
    if spec.name is not None:
        return _records(scenario, batch, _builtin_outputs(spec.name, space, batch), iteration_tag)

    child, received = None, []

    def unwind(signum, frame):
        # until Popen returns, the child's pid is unknown and a kill could not
        # reach it: the signal is held, and raised once the child has a pid;
        # only the first one raises, so a second cannot cut the cleanup short
        received.append(signum)
        if child is not None and len(received) == 1:
            raise SystemExit(128 + signum)

    # SIGTERM (a job scheduler) and SIGHUP (a closing terminal) unwind the
    # guarded region below, so the child's process group dies with the run.
    # Only a signal at its default action is caught: one that nohup ignores,
    # or that someone else handles, is theirs. Only the main thread may set
    # a handler.
    caught = []
    if threading.current_thread() is threading.main_thread():
        caught = [s for s in (signal.SIGTERM, signal.SIGHUP)
                  if signal.getsignal(s) is signal.SIG_DFL]
    for signum in caught:
        signal.signal(signum, unwind)
    try:
        # a session of its own, so that a kill reaches the processes the child
        # starts (a synthesis tool's workers) along with it
        child = subprocess.Popen(shlex.split(spec.command), stdin=subprocess.PIPE,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                 cwd=spec.working_dir, start_new_session=True)
        if received:
            raise SystemExit(128 + received[0])
        stdout, stderr = child.communicate(request_csv(space, batch),
                                           timeout=spec.timeout_seconds)
    except BaseException as e:
        if child is None:
            if isinstance(e, OSError):
                raise EvaluationError(f"failed to launch evaluator: {e}")
            raise
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
        with child:  # closes the pipes and reaps the child
            pass
        if not isinstance(e, subprocess.TimeoutExpired):
            raise
        # on POSIX the output captured before the timeout is bytes, even with text=True
        output = [out.decode(errors="replace") if isinstance(out, bytes) else out
                  for out in (e.stdout, e.stderr) if out]
        raise EvaluationError(f"evaluator timed out after {spec.timeout_seconds}s",
                              "".join(output))
    finally:
        for signum in caught:
            signal.signal(signum, signal.SIG_DFL)
    if child.returncode != 0:
        raise EvaluationError(f"evaluator exited with status {child.returncode}",
                              stdout + stderr)
    return _records(scenario, batch, _response_rows(space, batch, stdout), iteration_tag, stdout)


def brute_force_front(scenario: Scenario):
    """Evaluate the scenario's whole (finite) space; the ground-truth oracle.

    Returns (front_records, all_records). Raises EnumerationError when the
    space has real parameters or exceeds the enumeration cap.
    """
    records = evaluate_batch(scenario, list(enumerate_space(scenario.space)))
    return constrained_front(records), records
