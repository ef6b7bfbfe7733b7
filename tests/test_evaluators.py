import json
import sys
import textwrap

import pytest

from dse import (
    Configuration,
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
from dse.space import DomainError, FeasibleOutput

FEA = FeasibleOutput("feasible", "true")


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
    spec = toy_scenario.evaluator
    cfg = Configuration((4, 2, "true", 2))
    first = evaluate_batch(spec, toy_scenario.space, [cfg])
    second = evaluate_batch(spec, toy_scenario.space, [cfg])
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
    spec = EvaluatorSpec("builtin", name="toy_fpga",
                         objectives=("cycles", "logic"), feasibility=FEA)
    front, records = brute_force_front(space, spec)
    assert front == []
    assert len(records) == 4


def test_brute_force_single_point_space():
    space = DesignSpace((
        Parameter("T", "ordinal", values=(2,)),
        Parameter("P", "ordinal", values=(1,)),
        Parameter("S", "categorical", values=("true",)),
        Parameter("B", "integer", lower=1, upper=1),
    ))
    spec = EvaluatorSpec("builtin", name="toy_fpga",
                         objectives=("cycles", "logic"), feasibility=FEA)
    front, records = brute_force_front(space, spec)
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
    spec = EvaluatorSpec("subprocess", command=write_script(tmp_path, "echo.py", ECHO_EVALUATOR),
                         objectives=("cost",), feasibility=FEA, timeout_seconds=60)
    batch = [Configuration((2, 1, "true", 1)), Configuration((4, 2, "false", 2))]
    records = evaluate_batch(spec, space, batch, iteration_tag=3)
    assert [r.config for r in records] == batch
    assert all(r.objectives == (42.5,) and r.feasible and r.iteration_tag == 3
               for r in records)


def test_external_reimplementation_matches_builtin(tmp_path, toy_scenario, toy_truth):
    _, builtin_records = toy_truth
    space = toy_scenario.space
    spec = EvaluatorSpec("subprocess",
                         command=write_script(tmp_path, "toy.py", EXTERNAL_TOY),
                         objectives=("cycles", "logic"), feasibility=FEA,
                         timeout_seconds=120)
    front, records = brute_force_front(space, spec)
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
    spec = EvaluatorSpec("subprocess", command=write_script(tmp_path, "partial.py", body),
                         objectives=("cost",), feasibility=FEA, timeout_seconds=60)
    batch = [Configuration((2, 1, "true", 1)), Configuration((4, 2, "false", 2))]
    with pytest.raises(EvaluationError, match="omitted"):
        evaluate_batch(spec, space, batch)


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
    spec = EvaluatorSpec("subprocess", command=write_script(tmp_path, "dups.py", body),
                         objectives=("cost",), feasibility=FEA, timeout_seconds=60)
    with pytest.raises(EvaluationError, match="duplicate"):
        evaluate_batch(spec, space, [Configuration((2, 1, "true", 1))])


def test_nonzero_exit_carries_child_output(tmp_path):
    body = "import sys; sys.stderr.write('boom\\n'); sys.exit(2)"
    space = small_space()
    spec = EvaluatorSpec("subprocess", command=write_script(tmp_path, "fail.py", body),
                         objectives=("cost",), feasibility=FEA, timeout_seconds=60)
    with pytest.raises(EvaluationError, match="status 2") as err:
        evaluate_batch(spec, space, [Configuration((2, 1, "true", 1))])
    assert "boom" in err.value.raw_output


def test_unparseable_objective_is_a_protocol_error(tmp_path):
    body = textwrap.dedent("""\
        import csv, sys
        rows = list(csv.reader(sys.stdin))
        out = csv.writer(sys.stdout, lineterminator="\\n")
        out.writerow(rows[0] + ["cost", "feasible"])
        for row in rows[1:]:
            if row:
                out.writerow(row + ["not-a-number", "true"])
    """)
    space = small_space()
    spec = EvaluatorSpec("subprocess", command=write_script(tmp_path, "bad.py", body),
                         objectives=("cost",), feasibility=FEA, timeout_seconds=60)
    with pytest.raises(EvaluationError, match="unparseable"):
        evaluate_batch(spec, space, [Configuration((2, 1, "true", 1))])


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_objective_is_a_protocol_error(tmp_path, value):
    body = textwrap.dedent(f"""\
        import csv, sys
        rows = list(csv.reader(sys.stdin))
        out = csv.writer(sys.stdout, lineterminator="\\n")
        out.writerow(rows[0] + ["cost", "feasible"])
        for row in rows[1:]:
            if row:
                out.writerow(row + ["{value}", "true"])
    """)
    space = small_space()
    spec = EvaluatorSpec("subprocess", command=write_script(tmp_path, "nonfinite.py", body),
                         objectives=("cost",), feasibility=FEA, timeout_seconds=60)
    with pytest.raises(EvaluationError, match=r"non-finite objective cost=.*\('2', '1', 'true', '1'\)"):
        evaluate_batch(spec, space, [Configuration((2, 1, "true", 1))])


def test_builtin_non_finite_objective_is_rejected(monkeypatch):
    monkeypatch.setitem(evaluators.BUILTIN_EVALUATORS, "nan_model",
                        lambda values: {"cost": float("nan")})
    spec = EvaluatorSpec("builtin", name="nan_model", objectives=("cost",))
    with pytest.raises(EvaluationError, match=r"non-finite objective cost=nan.*'4', '2'"):
        evaluate_batch(spec, small_space(), [Configuration((4, 2, "false", 2))])


def test_empty_batch_rejected(toy_scenario):
    with pytest.raises(EvaluationError):
        evaluate_batch(toy_scenario.evaluator, toy_scenario.space, [])


def test_unknown_builtin_rejected():
    with pytest.raises(ValueError, match="unknown builtin"):
        EvaluatorSpec("builtin", name="nope")


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
        evaluate_batch(scenario.evaluator, scenario.space, [Configuration((2, 1, "true", 1))])
