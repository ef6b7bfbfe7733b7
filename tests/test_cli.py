import json
import csv

import pytest

from dse.cli import main, read_front_csv, read_records_csv
from dse.pareto import constrained_front, dominates
from dse.space import parse_scenario

from conftest import SCENARIO_DIR

TOY = str(SCENARIO_DIR / "toy_fpga.json")
LINEAR = str(SCENARIO_DIR / "toy_linear.json")


def run_cli(*args):
    return main([str(a) for a in args])


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def truth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("truth")
    assert run_cli("brute-force", TOY, "--set", f"output_dir={out}") == 0
    return out


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, truth_dir):
    out = tmp_path_factory.mktemp("run")
    code = run_cli("run", TOY, "--seed", 7, "--set", f"output_dir={out}",
                   "--reference-front", truth_dir / "true_front.csv")
    assert code == 0
    return out


def test_brute_force_artifacts(truth_dir):
    assert len(read_rows(truth_dir / "all_points.csv")) == 240
    front_rows = read_rows(truth_dir / "true_front.csv")
    assert len(front_rows) == 5
    assert all(row["feasible"] == "true" for row in front_rows)


def test_brute_force_rejects_real_parameters(capsys):
    code = run_cli(
        "brute-force", LINEAR,
        "--set", 'input_parameters.A={"parameter_type":"real","values":[0.0,1.0]}')
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "\n" not in err.strip()


def test_run_writes_all_artifacts(run_dir):
    for name in ("samples.csv", "pareto.csv", "hvi_trace.csv",
                 "feature_importance.csv", "run_meta.json"):
        assert (run_dir / name).exists()


def test_samples_row_count_and_tags(run_dir):
    rows = read_rows(run_dir / "samples.csv")
    assert len(rows) == 30 + 5 * 20
    tags = sorted({int(r["iteration_tag"]) for r in rows})
    assert tags == [-1, 0, 1, 2, 3, 4]


def test_warmup_only_run_has_exactly_n_rows(tmp_path):
    out = tmp_path / "w"
    assert run_cli("run", TOY, "--set", f"output_dir={out}",
                   "--set", "optimization_iterations=0") == 0
    rows = read_rows(out / "samples.csv")
    assert len(rows) == 30
    assert {r["iteration_tag"] for r in rows} == {"-1"}


def test_pareto_csv_matches_front_recomputed_from_samples(run_dir):
    scenario = parse_scenario(open(TOY).read())
    records = read_records_csv(run_dir / "samples.csv", scenario.space, scenario.objectives)
    front = constrained_front(records)
    pareto = read_records_csv(run_dir / "pareto.csv", scenario.space, scenario.objectives)
    assert pareto == front
    assert all(r.feasible for r in pareto)
    objs = [r.objectives for r in pareto]
    assert not any(dominates(a, b) for a in objs for b in objs if a != b)


def test_emitted_csvs_roundtrip_through_own_parser(run_dir):
    scenario = parse_scenario(open(TOY).read())
    records = read_records_csv(run_dir / "samples.csv", scenario.space, scenario.objectives)
    assert len(records) == 130
    assert len({r.config for r in records}) == 130
    front = read_front_csv(run_dir / "pareto.csv", scenario.objectives)
    assert front  # parses into at least one objective vector


def test_hvi_trace_has_one_row_per_stage(run_dir):
    rows = read_rows(run_dir / "hvi_trace.csv")
    assert [int(r["iteration"]) for r in rows] == [-1, 0, 1, 2, 3, 4]
    values = [float(r["hvi"]) for r in rows]
    assert values[-1] <= values[0]


def test_feature_importance_rows_sum_to_one(run_dir):
    rows = read_rows(run_dir / "feature_importance.csv")
    assert [r["objective"] for r in rows] == ["cycles", "logic"]
    for row in rows:
        total = sum(float(v) for k, v in row.items() if k != "objective")
        assert total == pytest.approx(1.0, abs=1e-9)


def test_dominant_knob_dominates_its_importance_row(tmp_path):
    out = tmp_path / "lin"
    assert run_cli("run", LINEAR, "--set", f"output_dir={out}") == 0
    rows = {r["objective"]: r for r in read_rows(out / "feature_importance.csv")}
    latency = rows["latency"]
    assert float(latency["A"]) >= 0.5
    assert float(latency["A"]) >= max(float(latency["B"]), float(latency["C"]))


def test_rerun_is_byte_identical(tmp_path, truth_dir):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run_cli("run", TOY, "--seed", 11, "--set", f"output_dir={out}",
                       "--reference-front", truth_dir / "true_front.csv") == 0
    for name in ("samples.csv", "pareto.csv", "hvi_trace.csv", "feature_importance.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_no_feasible_point_still_exits_zero(tmp_path, capsys):
    out = tmp_path / "none"
    params = {
        "T": {"parameter_type": "ordinal", "values": [64]},
        "P": {"parameter_type": "ordinal", "values": [16]},
        "S": {"parameter_type": "categorical", "values": ["true"]},
        "B": {"parameter_type": "integer", "values": [1, 4]},
    }
    code = run_cli("run", TOY, "--set", f"output_dir={out}",
                   "--set", f"input_parameters={json.dumps(params)}",
                   "--set", "design_of_experiment={\"number_of_samples\": 4}")
    assert code == 0
    assert "no feasible point" in capsys.readouterr().err
    assert read_rows(out / "pareto.csv") == []


def test_scenario_error_is_single_machine_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"application_name": "x"}')
    assert run_cli("run", str(bad)) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ValidationError:")
    assert "\n" not in err


def test_evaluator_failure_persists_partial_archive(tmp_path, capsys):
    import sys as _sys
    import textwrap

    # answers the 30-row warm-up batch, dies on every later (smaller) batch
    script = tmp_path / "flaky.py"
    script.write_text(textwrap.dedent("""\
        import csv, sys
        rows = [r for r in csv.reader(sys.stdin) if r]
        if len(rows) - 1 <= 20:
            sys.exit(3)
        out = csv.writer(sys.stdout, lineterminator="\\n")
        out.writerow(rows[0] + ["cycles", "logic", "feasible"])
        for row in rows[1:]:
            out.writerow(row + ["1.0", "1.0", "true"])
    """))
    out = tmp_path / "partial"
    evaluator = json.dumps({"command": f"{_sys.executable} {script}"})
    code = run_cli("run", TOY, "--set", f"output_dir={out}",
                   "--set", f"evaluator={evaluator}")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: EvaluationError:")
    rows = read_rows(out / "samples.csv")
    assert len(rows) == 30  # warm-up persisted, failing batch aborted the run


def test_non_finite_objective_aborts_run_and_keeps_partial_archive(tmp_path, capsys):
    import sys as _sys
    import textwrap

    # answers the 30-row warm-up, then reports NaN for every later batch
    script = tmp_path / "nan_late.py"
    script.write_text(textwrap.dedent("""\
        import csv, sys
        rows = [r for r in csv.reader(sys.stdin) if r]
        value = "nan" if len(rows) - 1 <= 20 else "1.0"
        out = csv.writer(sys.stdout, lineterminator="\\n")
        out.writerow(rows[0] + ["cycles", "logic", "feasible"])
        for row in rows[1:]:
            out.writerow(row + [value, "1.0", "true"])
    """))
    out = tmp_path / "nan"
    evaluator = json.dumps({"command": f"{_sys.executable} {script}"})
    code = run_cli("run", TOY, "--set", f"output_dir={out}",
                   "--set", f"evaluator={evaluator}")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: EvaluationError: non-finite objective cycles=nan")
    assert len(read_rows(out / "samples.csv")) == 30


@pytest.mark.parametrize("objectives", [["cycles"], ["cycles", "logic", "power"]])
def test_reference_front_needs_two_objectives(tmp_path, capsys, objectives):
    import sys as _sys

    marker = tmp_path / "evaluated"
    script = tmp_path / "touch.py"
    script.write_text(f"import pathlib, sys\npathlib.Path({str(marker)!r}).touch()\nsys.exit(3)\n")
    reference = tmp_path / "ref.csv"
    reference.write_text(",".join(objectives) + "\n" + ",".join("1.0" for _ in objectives) + "\n")
    evaluator = json.dumps({"command": f"{_sys.executable} {script}"})
    code = run_cli("run", TOY, "--set", f"output_dir={tmp_path / 'out'}",
                   "--set", f"optimization_objectives={json.dumps(objectives)}",
                   "--set", f"evaluator={evaluator}",
                   "--reference-front", reference)
    assert code == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ValueError:") and "two objectives" in err
    assert "\n" not in err
    assert not marker.exists()


def test_report_identical_runs_have_zero_ci(tmp_path, truth_dir):
    dirs = []
    for name in ("r1", "r2", "r3"):
        out = tmp_path / name
        assert run_cli("run", TOY, "--seed", 13, "--set", f"output_dir={out}") == 0
        dirs.append(out)
    report = tmp_path / "report.csv"
    assert run_cli("report", *dirs, "--reference-front", truth_dir / "true_front.csv",
                   "--output", report) == 0
    rows = list(csv.reader(open(report)))
    assert rows[0] == ["run", "hvi"]
    values = {r[0]: r[1] for r in rows[1:]}
    assert float(values["ci80_half_width"]) == 0.0
    hvis = [float(rows[i][1]) for i in (1, 2, 3)]
    assert hvis[0] == hvis[1] == hvis[2]
    assert float(values["mean"]) == pytest.approx(hvis[0])


def test_report_single_run_has_no_ci_row(tmp_path, run_dir, truth_dir):
    report = tmp_path / "single.csv"
    assert run_cli("report", run_dir, "--reference-front", truth_dir / "true_front.csv",
                   "--output", report) == 0
    rows = list(csv.reader(open(report)))
    names = [r[0] for r in rows]
    assert "ci80_half_width" not in names
    values = {r[0]: r[1] for r in rows[1:]}
    assert float(values["mean"]) == float(rows[1][1])


def test_report_rejects_mismatched_objectives(tmp_path, run_dir, capsys):
    out = tmp_path / "lin2"
    assert run_cli("run", LINEAR, "--set", f"output_dir={out}") == 0
    assert run_cli("report", run_dir, out) == 1
    assert "disagree" in capsys.readouterr().err
