import contextlib
import json
import math
import os
import signal
import sys
import textwrap
import time
from dataclasses import fields, replace

import numpy as np
import pytest

from dse import (
    DesignSpace,
    EvaluationError,
    EvaluatorSpec,
    Parameter,
    brute_force_front,
    evaluate_batch,
    parse_scenario,
    toy_fpga,
)
from dse import evaluators
from dse.scenario import FeasibleOutput
from dse.space import DomainError, canonical_str

from conftest import SCENARIO_DIR, running

FEA = FeasibleOutput("feasible", "true")
TOY = parse_scenario((SCENARIO_DIR / "toy_fpga.json").read_text())


def scenario_of(space, objectives, feasibility, **evaluator):
    """The toy scenario over ``space``, measuring ``objectives`` and
    ``feasibility`` with the evaluator ``EvaluatorSpec(**evaluator)``."""
    return replace(TOY, space=space, objectives=objectives, feasibility=feasibility,
                   evaluator=EvaluatorSpec(**evaluator))


# --- builtin cost model -----------------------------------------------------------

def test_toy_fpga_pipelined_example():
    out = toy_fpga({"T": 2, "P": 1, "S": "true", "B": 1})
    assert out == {"cycles": 4160.0, "logic": 24.0, "feasible": True}


def test_toy_fpga_unpipelined_point():
    # ceil(4096/2) * ceil(2/1) * 2 + 64 = 8256; logic 5 + 6 + 7 = 18
    out = toy_fpga({"T": 2, "P": 1, "S": "false", "B": 1})
    assert out == {"cycles": 8256.0, "logic": 18.0, "feasible": True}


def test_toy_fpga_wide_design_is_infeasible():
    out = toy_fpga({"T": 64, "P": 16, "S": "true", "B": 1})
    assert out["logic"] == 471.0
    assert out["feasible"] is False


def test_toy_fpga_rejects_out_of_domain_values():
    with pytest.raises(DomainError):
        toy_fpga({"T": 3, "P": 1, "S": "true", "B": 1})


def test_toy_fpga_is_pure(toy_scenario):
    cfg = (4, 2, "true", 2)
    first = evaluate_batch(toy_scenario, [cfg])
    second = evaluate_batch(toy_scenario, [cfg])
    assert first == second


# --- brute force ------------------------------------------------------------------

def test_brute_force_toy_matches_frozen_fixture(toy_truth):
    front, records = toy_truth
    assert len(records) == 240
    assert {r.objectives for r in front} == {
        (576.0, 95.0), (1088.0, 51.0), (2112.0, 29.0), (4160.0, 23.0), (8256.0, 18.0)}


def test_brute_force_all_infeasible_space():
    space = DesignSpace((
        Parameter("T", "ordinal", values=(64,)),
        Parameter("P", "ordinal", values=(16,)),
        Parameter("S", "categorical", values=("true",)),
        Parameter("B", "integer", lower=1, upper=4),
    ))
    front, records = brute_force_front(scenario_of(space, ("cycles", "logic"), FEA,
                                                   name="toy_fpga"))
    assert front == []
    assert len(records) == 4


def test_brute_force_single_point_space():
    space = DesignSpace((
        Parameter("T", "ordinal", values=(2,)),
        Parameter("P", "ordinal", values=(1,)),
        Parameter("S", "categorical", values=("true",)),
        Parameter("B", "integer", lower=1, upper=1),
    ))
    front, records = brute_force_front(scenario_of(space, ("cycles", "logic"), FEA,
                                                   name="toy_fpga"))
    assert len(records) == 1
    assert [r.objectives for r in front] == [(4160.0, 24.0)]


# --- subprocess protocol -----------------------------------------------------------

ECHO_EVALUATOR = textwrap.dedent("""\
    import csv, io, sys
    rows = list(csv.reader(sys.stdin))
    header = rows[0]
    out = csv.writer(sys.stdout, lineterminator="\\n")
    out.writerow(header + ["cost", "feasible"])
    for row in rows[1:]:
        if row:
            out.writerow(row + ["42.5", "true"])
""")

EXTERNAL_TOY = textwrap.dedent("""\
    import csv, math, sys
    rows = list(csv.reader(sys.stdin))
    header = rows[0]
    idx = {name: i for i, name in enumerate(header)}
    out = csv.writer(sys.stdout, lineterminator="\\n")
    out.writerow(header + ["cycles", "logic", "feasible"])
    for row in rows[1:]:
        if not row:
            continue
        t = int(row[idx["T"]]); p = int(row[idx["P"]])
        s = row[idx["S"]] == "true"; b = int(row[idx["B"]])
        cycles = math.ceil(4096 / t) * math.ceil(t / p) * (1 if s else 2) + 64 * b
        logic = 5 * p + 3 * t * (2 if s else 1) + 7 * b
        out.writerow(row + [repr(float(cycles)), repr(float(logic)),
                            "true" if logic <= 120 else "false"])
""")


def write_script(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(body)
    return f"{sys.executable} {path}"


def small_space():
    return DesignSpace((
        Parameter("T", "ordinal", values=(2, 4)),
        Parameter("P", "ordinal", values=(1, 2)),
        Parameter("S", "categorical", values=("true", "false")),
        Parameter("B", "integer", lower=1, upper=2),
    ))


def test_echo_evaluator_roundtrip(tmp_path):
    space = small_space()
    scenario = scenario_of(space, ("cost",), FEA, timeout_seconds=60,
                           command=write_script(tmp_path, "echo.py", ECHO_EVALUATOR))
    batch = [(2, 1, "true", 1), (4, 2, "false", 2)]
    records = evaluate_batch(scenario, batch, iteration_tag=3)
    assert [r.config for r in records] == batch
    assert all(r.objectives == (42.5,) and r.feasible and r.iteration_tag == 3
               for r in records)


def test_external_reimplementation_matches_builtin(tmp_path, toy_scenario, toy_truth):
    _, builtin_records = toy_truth
    space = toy_scenario.space
    scenario = scenario_of(space, ("cycles", "logic"), FEA, timeout_seconds=120,
                           command=write_script(tmp_path, "toy.py", EXTERNAL_TOY))
    front, records = brute_force_front(scenario)
    assert records == builtin_records


def test_child_omitting_a_row_is_a_protocol_error(tmp_path):
    body = textwrap.dedent("""\
        import csv, sys
        rows = list(csv.reader(sys.stdin))
        out = csv.writer(sys.stdout, lineterminator="\\n")
        out.writerow(rows[0] + ["cost", "feasible"])
        for row in rows[1:-1]:
            if row:
                out.writerow(row + ["1.0", "true"])
    """)
    space = small_space()
    scenario = scenario_of(space, ("cost",), FEA, timeout_seconds=60,
                           command=write_script(tmp_path, "partial.py", body))
    batch = [(2, 1, "true", 1), (4, 2, "false", 2)]
    with pytest.raises(EvaluationError, match="omitted"):
        evaluate_batch(scenario, batch)


def test_duplicate_row_is_a_protocol_error(tmp_path):
    body = textwrap.dedent("""\
        import csv, sys
        rows = list(csv.reader(sys.stdin))
        out = csv.writer(sys.stdout, lineterminator="\\n")
        out.writerow(rows[0] + ["cost", "feasible"])
        for row in rows[1:]:
            if row:
                out.writerow(row + ["1.0", "true"])
                out.writerow(row + ["1.0", "true"])
    """)
    space = small_space()
    scenario = scenario_of(space, ("cost",), FEA, timeout_seconds=60,
                           command=write_script(tmp_path, "dups.py", body))
    with pytest.raises(EvaluationError, match="duplicate"):
        evaluate_batch(scenario, [(2, 1, "true", 1)])


def test_repeated_response_column_is_a_protocol_error(tmp_path):
    # a column -> cell map would read cost as the last copy's 999.0
    body = textwrap.dedent("""\
        import csv, sys
        rows = [row for row in csv.reader(sys.stdin) if row]
        out = csv.writer(sys.stdout, lineterminator="\\n")
        out.writerow(rows[0] + ["cost", "feasible", "cost"])
        for row in rows[1:]:
            out.writerow(row + ["5.0", "true", "999.0"])
    """)
    scenario = scenario_of(small_space(), ("cost",), FEA, timeout_seconds=60,
                           command=write_script(tmp_path, "repeat.py", body))
    with pytest.raises(EvaluationError, match="^response has column 'cost' more than once$") as err:
        evaluate_batch(scenario, [(2, 1, "true", 1)])
    assert err.value.raw_output == "T,P,S,B,cost,feasible,cost\n2,1,true,1,5.0,true,999.0\n"


def test_nonzero_exit_carries_child_output(tmp_path):
    body = "import sys; sys.stderr.write('boom\\n'); sys.exit(2)"
    space = small_space()
    scenario = scenario_of(space, ("cost",), FEA, timeout_seconds=60,
                           command=write_script(tmp_path, "fail.py", body))
    with pytest.raises(EvaluationError, match="status 2") as err:
        evaluate_batch(scenario, [(2, 1, "true", 1)])
    assert "boom" in err.value.raw_output


@pytest.mark.parametrize("timeout", [0, -1.0, math.nan, math.inf])
def test_evaluator_timeout_must_be_positive_and_finite(timeout):
    with pytest.raises(ValueError, match="^evaluator timeout must be positive and finite$"):
        EvaluatorSpec(command="true", timeout_seconds=timeout)
    assert EvaluatorSpec(command="true", timeout_seconds=1e-3).timeout_seconds == 1e-3


@pytest.mark.parametrize("printed", ["T,P,S,B\n", ""])
def test_timeout_is_an_evaluation_error_with_the_output_so_far(tmp_path, printed):
    body = f"import sys, time; sys.stdout.write({printed!r}); sys.stdout.flush(); time.sleep(30)"
    space = small_space()
    scenario = scenario_of(space, ("cost",), FEA, timeout_seconds=0.5,
                           command=write_script(tmp_path, "hang.py", body))
    with pytest.raises(EvaluationError, match="timed out after 0.5s") as err:
        evaluate_batch(scenario, [(2, 1, "true", 1)])
    assert err.value.raw_output == printed


def test_timeout_kills_the_processes_the_child_started(tmp_path):
    # a synthesis tool starts its own workers; killing the child alone leaves them running
    scenario = scenario_of(small_space(), ("cost",), FEA, timeout_seconds=0.5,
                           command="sh -c 'sleep 5 & echo $! > pid; wait'",
                           working_dir=str(tmp_path))
    pid_file = tmp_path / "pid"
    try:
        with pytest.raises(EvaluationError, match="timed out after 0.5s"):
            evaluate_batch(scenario, [(2, 1, "true", 1)])
        pid, deadline = int(pid_file.read_text()), time.monotonic() + 2.0
        while running(pid):
            assert time.monotonic() < deadline, "the child's own child outlived the timeout"
            time.sleep(0.02)
    finally:  # a failing run leaves nothing behind
        with contextlib.suppress(FileNotFoundError, ValueError, ProcessLookupError):
            os.kill(int(pid_file.read_text()), signal.SIGKILL)


# --- one set of rules for builtin results and child responses ---------------------

CONFIG = (2, 1, "true", 1)
CONFIG_RE = r"\('2', '1', 'true', '1'\)"
FITS = FeasibleOutput("fits", "yes")

# (outputs of every configuration, feasibility output, the error it raises
# or the feasibility it reads)
OUTPUT_CASES = {
    "missing-objective": ({"feasible": True}, FEA,
                          rf"missing column 'cost' for configuration {CONFIG_RE}"),
    "missing-feasibility": ({"cost": 1.0}, FEA,
                            rf"missing column 'feasible' for configuration {CONFIG_RE}"),
    "missing-custom-feasibility": ({"cost": 1.0, "feasible": True}, FITS,
                                   r"missing column 'fits'"),
    "unparseable-objective": ({"cost": "not-a-number", "feasible": True}, FEA,
                              rf"unparseable objective value for {CONFIG_RE}"),
    "nan-objective": ({"cost": float("nan"), "feasible": True}, FEA,
                      rf"non-finite objective cost=nan for configuration {CONFIG_RE}"),
    "inf-objective": ({"cost": float("inf"), "feasible": True}, FEA,
                      rf"non-finite objective cost=inf for configuration {CONFIG_RE}"),
    "custom-feasible": ({"cost": 1.0, "fits": "yes", "feasible": False}, FITS, True),
    "custom-infeasible": ({"cost": 1.0, "fits": "no", "feasible": True}, FITS, False),
    "numpy-true": ({"cost": np.float64(1.5), "feasible": np.True_}, FEA, True),
    "numpy-false": ({"cost": np.float64(1.5), "feasible": np.False_}, FEA, False),
    "no-feasibility-declared": ({"cost": 1.0, "feasible": False}, None, True),
}

# A child that answers every requested row with the same output cells.
FIXED_OUTPUT_CHILD = textwrap.dedent("""\
    import csv, sys
    cells = {cells!r}
    rows = [row for row in csv.reader(sys.stdin) if row]
    out = csv.writer(sys.stdout, lineterminator="\\n")
    out.writerow(rows[0] + list(cells))
    for row in rows[1:]:
        out.writerow(row + list(cells.values()))
""")


@pytest.mark.parametrize("mode", ["builtin", "subprocess"])
@pytest.mark.parametrize("case", list(OUTPUT_CASES))
def test_builtin_and_child_outputs_are_read_by_the_same_rules(tmp_path, monkeypatch, mode, case):
    outputs, feasibility, expected = OUTPUT_CASES[case]
    if mode == "builtin":
        monkeypatch.setitem(evaluators.BUILTIN_EVALUATORS, "fixed", lambda values: dict(outputs))
        where = {"name": "fixed"}
    else:  # the same outputs, written in canonical form
        cells = {name: canonical_str(value) for name, value in outputs.items()}
        where = {"command": write_script(tmp_path, "fixed.py",
                                         FIXED_OUTPUT_CHILD.format(cells=cells)),
                 "timeout_seconds": 60}
    scenario = scenario_of(small_space(), ("cost",), feasibility, **where)
    batch = [CONFIG, (4, 2, "false", 2)]
    if isinstance(expected, str):
        with pytest.raises(EvaluationError, match=expected):
            evaluate_batch(scenario, batch)
    else:
        records = evaluate_batch(scenario, batch)
        assert [r.feasible for r in records] == [expected, expected]
        assert records[0].objectives == (float(outputs["cost"]),)


def test_empty_batch_rejected(toy_scenario):
    with pytest.raises(EvaluationError):
        evaluate_batch(toy_scenario, [])


def test_unknown_builtin_rejected():
    with pytest.raises(ValueError, match="unknown builtin"):
        EvaluatorSpec(name="nope")


@pytest.mark.parametrize("where", [{"name": "toy_fpga", "command": "python3 eval.py"}, {}],
                         ids=["both", "neither"])
def test_evaluator_is_a_builtin_or_a_command(where):
    with pytest.raises(ValueError, match="^evaluator needs exactly one of a builtin name "
                                         "and a command$"):
        EvaluatorSpec(**where)


@pytest.mark.parametrize("where", [{"working_dir": "/nonexistent"}, {"timeout_seconds": 1},
                                   {"working_dir": ".", "timeout_seconds": 300.0}],
                         ids=["working_dir", "timeout", "both"])
def test_builtin_evaluator_takes_no_child_process_settings(where):
    with pytest.raises(ValueError, match="^a builtin evaluator runs in-process and takes no "
                                         "working_dir or timeout_seconds$"):
        EvaluatorSpec(name="toy_fpga", **where)
    assert EvaluatorSpec(name="toy_fpga", timeout_seconds=300.0).working_dir is None


@pytest.mark.parametrize("command, message", [
    ("", "evaluator command line is empty"),
    (" \t", "evaluator command line is empty"),
    ('python3 "eval.py', "No closing quotation"),
], ids=["empty", "blank", "unbalanced quote"])
def test_evaluator_command_must_split_into_a_program(command, message):
    with pytest.raises(ValueError, match=message):
        EvaluatorSpec(command=command)


def test_evaluator_spec_says_only_how_to_run_the_evaluator():
    assert [f.name for f in fields(EvaluatorSpec)] == [
        "name", "command", "working_dir", "timeout_seconds"]


def test_the_scenario_says_what_is_measured(toy_scenario):
    """The objectives and the feasibility output a batch is read by are
    the scenario's, so a scenario cannot carry one its evaluation ignores."""
    config = (64, 16, "true", 1)  # logic 471: infeasible
    truth = toy_fpga(dict(zip(toy_scenario.space.names, config)))
    [record] = evaluate_batch(replace(toy_scenario, objectives=("logic", "cycles")), [config])
    assert record.objectives == (truth["logic"], truth["cycles"])
    assert not record.feasible
    unconstrained = replace(toy_scenario, feasibility=None)
    assert evaluate_batch(unconstrained, [config])[0].feasible
    assert not unconstrained.filters_feasibility and toy_scenario.filters_feasibility
    with pytest.raises(EvaluationError, match="missing column 'fits'"):
        evaluate_batch(replace(toy_scenario, feasibility=FITS), [config])


def test_builtin_exception_is_an_evaluation_error_naming_the_configuration(monkeypatch):
    def broken(values):
        return {"cost": 1.0 / (values["B"] - 2), "feasible": True}

    monkeypatch.setitem(evaluators.BUILTIN_EVALUATORS, "broken", broken)
    scenario = scenario_of(small_space(), ("cost",), FEA, name="broken")
    assert len(evaluate_batch(scenario, [CONFIG])) == 1
    with pytest.raises(EvaluationError, match=r"^builtin evaluator 'broken' failed on "
                       r"configuration \('4', '2', 'false', '2'\): ZeroDivisionError: ") as info:
        evaluate_batch(scenario, [CONFIG, (4, 2, "false", 2)])
    assert isinstance(info.value.__cause__, ZeroDivisionError)


def test_scenario_objective_mismatch_is_reported():
    doc = {
        "application_name": "x",
        "optimization_objectives": ["watts"],
        "input_parameters": {"T": {"parameter_type": "ordinal", "values": [2, 4]},
                             "P": {"parameter_type": "ordinal", "values": [1]},
                             "S": {"parameter_type": "categorical", "values": ["true"]},
                             "B": {"parameter_type": "integer", "values": [1, 2]}},
        "evaluator": {"builtin": "toy_fpga"},
    }
    scenario = parse_scenario(json.dumps(doc))
    with pytest.raises(EvaluationError, match="watts"):
        evaluate_batch(scenario, [(2, 1, "true", 1)])
