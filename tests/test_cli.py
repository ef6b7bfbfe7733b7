import contextlib
import csv
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from dse.cli import load_scenario, main, read_front_csv, read_records_csv
from dse.pareto import constrained_front
from dse.scenario import parse_scenario
from dse.space import ValidationError

from conftest import SCENARIO_DIR, SRC, running
from oracles import dominates, inclusion_exclusion_hypervolume, pairwise_front

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
    scenario = parse_scenario(Path(TOY).read_text())
    records = read_records_csv(run_dir / "samples.csv", scenario.space, scenario.objectives)
    front = constrained_front(records)
    pareto = read_records_csv(run_dir / "pareto.csv", scenario.space, scenario.objectives)
    assert pareto == front
    assert all(r.feasible for r in pareto)
    objs = [r.objectives for r in pareto]
    assert not any(dominates(a, b) for a in objs for b in objs if a != b)


def test_emitted_csvs_roundtrip_through_own_parser(run_dir):
    scenario = parse_scenario(Path(TOY).read_text())
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


def test_hvi_trace_matches_the_oracles(run_dir, truth_dir):
    # per tag: the pairwise front of the feasible samples so far against the
    # true front, both scaled by the deviations over every sample plus the
    # true front, with the reference point at the maximum plus 1e-6
    def points(rows):
        return [(float(r["cycles"]), float(r["logic"])) for r in rows]

    samples = read_rows(run_dir / "samples.csv")
    truth = points(read_rows(truth_dir / "true_front.csv"))
    sigma = [statistics.pstdev(column) for column in zip(*points(samples), *truth)]

    def scaled(front):
        return [tuple(v / s for v, s in zip(point, sigma)) for point in front]

    reference, trace = scaled(truth), read_rows(run_dir / "hvi_trace.csv")
    for row in trace:
        feasible = points(r for r in samples if r["feasible"] == "true"
                          and int(r["iteration_tag"]) <= int(row["iteration"]))
        front = scaled(feasible[i] for i in sorted(pairwise_front(feasible)))
        ref_point = [max(column) + 1e-6 for column in zip(*front, *reference)]
        volume = inclusion_exclusion_hypervolume(reference, ref_point)
        expected = max(0.0, volume - inclusion_exclusion_hypervolume(front, ref_point))
        # a difference of two volumes keeps their rounding: a gap near 0 is
        # exact only relative to the volumes
        assert float(row["hvi"]) == pytest.approx(expected, rel=1e-12, abs=1e-12 * volume)
    assert len(trace) == 6


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


@pytest.mark.parametrize("override, field", [
    ("use_feasibility_filter=False", "use_feasibility_filter"),
    ("use_feasibility_filter=1", "use_feasibility_filter"),
    ('surrogate.regressor.bootstrap="no"', "surrogate.regressor.bootstrap"),
    ("surrogate.classifier.n_estimators=10.0", "surrogate.classifier.n_estimators"),
    ("surrogate.regressor.max_depth=4.5", "surrogate.regressor.max_depth"),
    ("optimization_iterations=2.9", "optimization_iterations"),
    ("design_of_experiment.number_of_samples=12.5", "design_of_experiment.number_of_samples"),
    ('evaluations_per_optimization_iteration="20"', "evaluations_per_optimization_iteration"),
    ("pareto_prediction_samples=true", "pareto_prediction_samples"),
    ("seed=true", "seed"),
    ("surrogate.regressor.max_features=true", "surrogate.regressor.max_features"),
    ('surrogate.classifier.max_features="0.5"', "surrogate.classifier.max_features"),
    ('surrogate.classifier.class_weight={"true": "0.75", "false": 0.25}',
     "surrogate.classifier.class_weight.true"),
    ('feasibility_threshold="0.5"', "feasibility_threshold"),
    ('input_parameters.B.prior=[2, "5"]', "input_parameters.B.prior"),
    ('input_parameters.S.prior=["0.5", 0.5]', "input_parameters.S.prior"),
    ('evaluator={"command": "true", "timeout_seconds": "60"}', "evaluator.timeout_seconds"),
    ("surrogate.regressor=5", "surrogate.regressor"),
    ("surrogate.classifier.depth=3", "surrogate.classifier"),
    ("evaluator=[1]", "evaluator"),
    ('evaluator={"builtin": "toy_fpga", "timeout_seconds": 5}', "evaluator"),
    ("application_name=5", "application_name"),
    ("output_dir=5", "output_dir"),
    ('feasible_output={"name": 5}', "feasible_output.name"),
    ('feasible_output={"name": "feasible", "true_value": true}', "feasible_output.true_value"),
    ('evaluator={"builtin": 5}', "evaluator.builtin"),
    ('evaluator={"command": ["python3", "child.py"]}', "evaluator.command"),
    ('evaluator={"command": "true", "working_dir": 5}', "evaluator.working_dir"),
])
def test_scalar_fields_must_have_their_json_type(override, field):
    with pytest.raises(ValidationError, match=field):
        load_scenario(TOY, [override])


def test_overrides_reach_the_scenario_fields():
    scenario = load_scenario(TOY, ["surrogate.classifier.max_depth=6",
                                   "pareto_prediction_samples=5000",
                                   "input_parameters.B.prior=[2, 5]",
                                   "seed=18446744073709551615"])  # the largest 64-bit seed
    assert scenario.classifier_hp.max_depth == 6
    assert scenario.pareto_prediction_samples == 5000
    assert scenario.seed == 2 ** 64 - 1
    prior = next(p.prior for p in scenario.space.parameters if p.name == "B")
    assert (prior.alpha, prior.beta) == (2.0, 5.0)


@pytest.mark.parametrize("override, message", [
    ("surrogate.regressor.n_estimators=0", "surrogate.regressor: n_estimators must be >= 1"),
    ("surrogate.classifier.max_depth=0", "surrogate.classifier: max_depth must be >= 1"),
    ("surrogate.regressor.max_features=1.5", "surrogate.regressor: max_features fraction"),
    ('surrogate.regressor.max_features="sqrt"', "surrogate.regressor.max_features must be a number"),
    ('surrogate.classifier.class_weight={"true": 0.9, "false": 0.2}',
     "surrogate.classifier: class weights must sum to 1"),
    ('evaluator={"command": "true", "timeout_seconds": 0}',
     "evaluator: evaluator timeout must be positive"),
    ('evaluator={"builtin": "nope"}', "evaluator: unknown builtin evaluator 'nope'"),
    ("design_of_experiment.number_of_sample=5",
     "design_of_experiment: unknown key 'number_of_sample'"),
    ('feasible_output.true_valeu="yes"', "feasible_output: unknown key 'true_valeu'"),
    ("surrogate.regresor.n_estimators=3", "surrogate: unknown key 'regresor'"),
    ("seed=-1", "seed must lie in [0, 2**64), got -1"),
    ("seed=18446744073709551616", "seed must lie in [0, 2**64), got 18446744073709551616"),
])
def test_out_of_range_fields_fail_with_their_section_named(override, message, capsys):
    assert run_cli("run", TOY, "--set", override) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ValidationError: {message}")
    assert err.count("\n") == 1


# every scenario field read as a number -> a --set override putting {} there
NUMBER_FIELDS = {
    "evaluator.timeout_seconds": 'evaluator={{"command": "true", "timeout_seconds": {}}}',
    "input_parameters.T.prior": "input_parameters.T.prior=[{}, 1]",
    "input_parameters.S.prior": "input_parameters.S.prior=[{}, 1.0]",
    "input_parameters.T.values": "input_parameters.T.values=[2, {}]",
    "input_parameters.R.values":
        'input_parameters.R={{"parameter_type": "real", "values": [0, {}]}}',
    "surrogate.regressor.max_features": "surrogate.regressor.max_features={}",
    "surrogate.classifier.class_weight.true":
        'surrogate.classifier.class_weight={{"true": {}, "false": 0.25}}',
    "feasibility_threshold": "feasibility_threshold={}",
}


@pytest.mark.parametrize("number", ["NaN", "Infinity", "1" + "0" * 400],
                         ids=["NaN", "Infinity", "10**400"])
@pytest.mark.parametrize("field", NUMBER_FIELDS)
def test_every_scenario_number_must_be_finite(tmp_path, capsys, field, number):
    # json.loads reads NaN and Infinity, and an integer too large for a float
    override = NUMBER_FIELDS[field].format(number)
    assert run_cli("run", TOY, "--set", f"output_dir={tmp_path}", "--set", override) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ValidationError: {field} must be finite, got ")
    assert err.count("\n") == 1
    assert not (tmp_path / "samples.csv").exists()


@pytest.mark.parametrize("text, message", [
    ('{"a":}', "scenario JSON parse error at line 1 column 6: Expecting value"),
    ("[1, 2]", "scenario document must be a JSON object"),
])
def test_scenario_file_is_decoded_the_same_with_or_without_overrides(tmp_path, capsys, text,
                                                                     message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    lines = []
    for extra in ([], ["--seed", 3], ["--set", "seed=3"]):
        assert run_cli("run", bad, *extra) == 1
        lines.append(capsys.readouterr().err)
    assert lines[0] == f"error: ValidationError: {message}\n"
    assert lines[1] == lines[2] == lines[0]


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


# seed 7 evaluates 30 warm-up rows, then five batches of 20 (run_dir)
@pytest.mark.parametrize("failing_call, kept", [(41, 30), (81, 70), (121, 110)],
                         ids=["first batch", "middle batch", "last batch"])
def test_failing_builtin_aborts_run_and_keeps_partial_archive(tmp_path, capsys, monkeypatch,
                                                             run_dir, failing_call, kept):
    from dse import evaluators

    calls = []

    def flaky(values):  # dies inside the batch that holds the failing call
        calls.append(values)
        if len(calls) == failing_call:
            return 1 / 0
        return evaluators.toy_fpga(values)

    monkeypatch.setitem(evaluators.BUILTIN_EVALUATORS, "toy_fpga", flaky)
    out = tmp_path / "flaky"
    assert run_cli("run", TOY, "--seed", 7, "--set", f"output_dir={out}") == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: EvaluationError: builtin evaluator 'toy_fpga' failed on "
                          "configuration (")
    assert err.endswith("): ZeroDivisionError: division by zero\n")
    # the header and the leading rows of the uninterrupted run, and nothing else
    full = (run_dir / "samples.csv").read_bytes().splitlines(keepends=True)
    assert (out / "samples.csv").read_bytes() == b"".join(full[:1 + kept])
    assert sorted(path.name for path in out.iterdir()) == ["samples.csv"]


@pytest.mark.parametrize("failing_call, left", [(1, []), (31, ["samples.csv"])],
                         ids=["in the warm-up", "after the warm-up"])
def test_failed_run_leaves_none_of_an_earlier_runs_artifacts(tmp_path, capsys, monkeypatch,
                                                             run_dir, failing_call, left):
    from dse import evaluators

    out = tmp_path / "reused"
    assert run_cli("run", TOY, "--seed", 1, "--set", f"output_dir={out}") == 0
    (out / "samples.csv.tmp").write_text("left by a killed run\n")
    (out / "notes.txt").write_text("not an artifact\n")
    calls = []

    def flaky(values):
        calls.append(values)
        if len(calls) == failing_call:
            return 1 / 0
        return evaluators.toy_fpga(values)

    monkeypatch.setitem(evaluators.BUILTIN_EVALUATORS, "toy_fpga", flaky)
    assert run_cli("run", TOY, "--seed", 7, "--set", f"output_dir={out}") == 1
    assert capsys.readouterr().err.startswith("error: EvaluationError: builtin evaluator")
    assert sorted(path.name for path in out.iterdir()) == sorted(["notes.txt", *left])
    if left:  # the warm-up of seed 7, as the uninterrupted run wrote it
        full = (run_dir / "samples.csv").read_bytes().splitlines(keepends=True)
        assert (out / "samples.csv").read_bytes() == b"".join(full[:31])


# answers the 30-row warm-up as the toy_fpga builtin does; on a later batch it
# touches the file named by its argument and sleeps until the run that started
# it is gone (it runs in a session of its own, so the run's kill misses it)
TOY_THEN_HANG = """\
import csv, math, os, pathlib, sys, time
rows = [r for r in csv.reader(sys.stdin) if r]
if len(rows) - 1 != 30:
    pathlib.Path(sys.argv[1]).touch()
    run, deadline = os.getppid(), time.monotonic() + 300
    while os.getppid() == run and time.monotonic() < deadline:
        time.sleep(0.05)
    sys.exit(1)
idx = {name: i for i, name in enumerate(rows[0])}
out = csv.writer(sys.stdout, lineterminator="\\n")
out.writerow(rows[0] + ["cycles", "logic", "feasible"])
for row in rows[1:]:
    t, p, b = int(row[idx["T"]]), int(row[idx["P"]]), int(row[idx["B"]])
    s = row[idx["S"]] == "true"
    cycles = math.ceil(4096 / t) * math.ceil(t / p) * (1 if s else 2) + 64 * b
    logic = 5 * p + 3 * t * (2 if s else 1) + 7 * b
    out.writerow(row + [repr(float(cycles)), repr(float(logic)),
                        "true" if logic <= 120 else "false"])
"""


def test_killed_run_keeps_its_completed_batches(tmp_path, run_dir):
    import contextlib
    import os
    import signal
    import subprocess
    import sys
    import time

    from conftest import SRC

    script, ready, out = tmp_path / "hang.py", tmp_path / "ready", tmp_path / "killed"
    script.write_text(TOY_THEN_HANG)
    evaluator = json.dumps({"command": f"{sys.executable} {script} {ready}"})
    # its own process group, so one signal reaches the run and its evaluator
    proc = subprocess.Popen(
        [sys.executable, "-m", "dse", "run", TOY, "--seed", "7", "--set", f"output_dir={out}",
         "--set", f"evaluator={evaluator}"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 120
        while not ready.exists():
            assert proc.poll() is None, "the run ended before its second batch"
            assert time.monotonic() < deadline, "the run never reached its second batch"
            time.sleep(0.02)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    assert proc.returncode == -signal.SIGKILL

    scenario = parse_scenario(Path(TOY).read_text())
    full = run_dir / "samples.csv"
    records = read_records_csv(out / "samples.csv", scenario.space, scenario.objectives)
    assert records == read_records_csv(full, scenario.space, scenario.objectives)[:30]
    assert all(r.iteration_tag == -1 for r in records)
    assert full.read_bytes().startswith((out / "samples.csv").read_bytes())
    assert sorted(path.name for path in out.iterdir()) == ["samples.csv"]


@contextlib.contextmanager
def hanging_run(tmp_path, **popen_args):
    """A ``dse run`` subprocess whose command evaluator starts a worker and
    never answers; yields the run and the worker's pid once the worker is
    up, and kills whatever is left on the way out."""
    pid_file = tmp_path / "pid"
    evaluator = json.dumps({"command": "sh -c 'sleep 5 & echo $! > pid; wait'",
                            "working_dir": str(tmp_path)})
    proc = subprocess.Popen(
        [sys.executable, "-m", "dse", "run", TOY, "--set", f"output_dir={tmp_path / 'out'}",
         "--set", f"evaluator={evaluator}"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, **popen_args)
    worker = None
    try:
        deadline = time.monotonic() + 120
        while not (pid_file.exists() and pid_file.read_text().endswith("\n")):
            assert proc.poll() is None, "the run ended before its evaluator started a worker"
            assert time.monotonic() < deadline, "the evaluator never started its worker"
            time.sleep(0.02)
        worker = int(pid_file.read_text())
        yield proc, worker
    finally:  # a failing run leaves nothing behind
        proc.kill()
        proc.wait(timeout=30)
        if worker is not None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(worker, signal.SIGKILL)


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGHUP], ids=["SIGTERM", "SIGHUP"])
def test_terminated_run_takes_its_evaluator_with_it(tmp_path, signum):
    # a job scheduler sends SIGTERM, a closing terminal SIGHUP; sent to the
    # run alone, it must still end the evaluator, which runs in a session of
    # its own, and the worker that evaluator started
    with hanging_run(tmp_path) as (proc, worker):
        proc.send_signal(signum)
        assert proc.wait(timeout=5) == 128 + signum
        deadline = time.monotonic() + 2.0
        while running(worker):
            assert time.monotonic() < deadline, "the evaluator's worker outlived the run"
            time.sleep(0.02)


def test_run_started_with_sighup_ignored_outlives_a_hangup(tmp_path):
    # nohup (or trap '' HUP) starts a run with SIGHUP ignored, so that it
    # outlives the terminal; the run must keep that disposition
    def ignore_hangups():
        signal.signal(signal.SIGHUP, signal.SIG_IGN)

    with hanging_run(tmp_path, preexec_fn=ignore_hangups) as (proc, worker):
        proc.send_signal(signal.SIGHUP)
        with pytest.raises(subprocess.TimeoutExpired):
            proc.wait(timeout=1)
        assert running(worker)
        proc.send_signal(signal.SIGTERM)  # still caught: the run unwinds
        assert proc.wait(timeout=5) == 128 + signal.SIGTERM


def test_main_restores_the_signal_handlers_it_replaced(tmp_path):
    # perfbench and the tests call main in-process
    def mine(signum, frame):
        pass

    before = [signal.signal(s, mine) for s in (signal.SIGTERM, signal.SIGHUP)]
    try:
        assert run_cli("run", TOY, "--set", f"output_dir={tmp_path}",
                       "--set", "optimization_iterations=0") == 0
        assert [signal.getsignal(s) for s in (signal.SIGTERM, signal.SIGHUP)] == [mine, mine]
    finally:
        for s, handler in zip((signal.SIGTERM, signal.SIGHUP), before):
            signal.signal(s, handler)


def test_reordered_objectives_write_each_column_its_own_values(tmp_path):
    from dse.evaluators import toy_fpga

    assert run_cli("run", TOY, "--set", f"output_dir={tmp_path}",
                   "--set", 'optimization_objectives=["logic", "cycles"]',
                   "--set", "optimization_iterations=1") == 0
    rows = read_rows(tmp_path / "samples.csv")
    assert len(rows) == 50 and list(rows[0])[4:6] == ["logic", "cycles"]
    for row in rows:
        truth = toy_fpga({"T": int(row["T"]), "P": int(row["P"]), "S": row["S"],
                          "B": int(row["B"])})
        assert (float(row["logic"]), float(row["cycles"])) == (truth["logic"], truth["cycles"])


def test_one_objective_hvi_trace_has_one_row_per_stage(tmp_path, truth_dir):
    # the reference is the cycles column of the two-objective true front
    out = tmp_path / "cycles"
    assert run_cli("run", TOY, "--set", f"output_dir={out}",
                   "--set", 'optimization_objectives=["cycles"]',
                   "--reference-front", truth_dir / "true_front.csv") == 0
    stages = sorted({int(r["iteration_tag"]) for r in read_rows(out / "samples.csv")})
    rows = read_rows(out / "hvi_trace.csv")
    assert [int(r["iteration"]) for r in rows] == stages
    assert all(0.0 <= float(r["hvi"]) < math.inf for r in rows)
    assert list(json.loads((out / "run_meta.json").read_text())["hvi_stddevs"]) == ["cycles"]


# the toy cost model plus a third objective, power, over the CSV protocol
TOY_WITH_POWER = """\
import csv, math, sys
rows = [r for r in csv.reader(sys.stdin) if r]
idx = {name: i for i, name in enumerate(rows[0])}
out = csv.writer(sys.stdout, lineterminator="\\n")
out.writerow(rows[0] + ["cycles", "logic", "power", "feasible"])
for row in rows[1:]:
    t, p, b = int(row[idx["T"]]), int(row[idx["P"]]), int(row[idx["B"]])
    s = row[idx["S"]] == "true"
    cycles = math.ceil(4096 / t) * math.ceil(t / p) * (1 if s else 2) + 64 * b
    logic = 5 * p + 3 * t * (2 if s else 1) + 7 * b
    out.writerow(row + [repr(float(cycles)), repr(float(logic)), repr(float(p * t / b)),
                        "true" if logic <= 120 else "false"])
"""


@pytest.mark.parametrize("objectives", [["cycles"], ["cycles", "logic", "power"]])
def test_report_over_any_objective_count(tmp_path, objectives):
    import sys as _sys

    overrides = ["--set", f"optimization_objectives={json.dumps(objectives)}"]
    if "power" in objectives:
        script = tmp_path / "toy_with_power.py"
        script.write_text(TOY_WITH_POWER)
        evaluator = json.dumps({"command": f"{_sys.executable} {script}"})
        overrides += ["--set", f"evaluator={evaluator}"]
    dirs = [tmp_path / "s1", tmp_path / "s2"]
    for seed, out in enumerate(dirs, start=1):
        assert run_cli("run", TOY, "--seed", seed, "--set", f"output_dir={out}", *overrides) == 0
    report = tmp_path / "report.csv"
    assert run_cli("report", *dirs, "--output", report) == 0
    rows = list(csv.reader(report.read_text().splitlines()))
    assert [r[0] for r in rows] == ["run", *map(str, dirs), "mean", "ci80_half_width"]
    assert all(0.0 <= float(r[1]) < math.inf for r in rows[1:])


def test_report_identical_runs_have_zero_ci(tmp_path, truth_dir):
    dirs = []
    for name in ("r1", "r2", "r3"):
        out = tmp_path / name
        assert run_cli("run", TOY, "--seed", 13, "--set", f"output_dir={out}") == 0
        dirs.append(out)
    report = tmp_path / "report.csv"
    assert run_cli("report", *dirs, "--reference-front", truth_dir / "true_front.csv",
                   "--output", report) == 0
    rows = list(csv.reader(report.read_text().splitlines()))
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
    rows = list(csv.reader(report.read_text().splitlines()))
    names = [r[0] for r in rows]
    assert "ci80_half_width" not in names
    values = {r[0]: r[1] for r in rows[1:]}
    assert float(values["mean"]) == float(rows[1][1])


@pytest.fixture(scope="module")
def warmup_runs(tmp_path_factory):
    """Three warm-up-only toy runs of 10 samples, seeds 1-3: unlike full runs,
    which all find the true front, their HVIs differ."""
    dirs = []
    for seed in (1, 2, 3):
        out = tmp_path_factory.mktemp(f"warmup{seed}")
        assert run_cli("run", TOY, "--seed", seed, "--set", f"output_dir={out}",
                       "--set", "optimization_iterations=0",
                       "--set", 'design_of_experiment={"number_of_samples": 10}') == 0
        dirs.append(out)
    return dirs


# the 0.9 quantile of Student's t by degrees of freedom, in closed form:
# tan(pi (p - 1/2)) at one, (2p - 1) / sqrt(2p (1 - p)) at two
T_QUANTILE_90 = {1: math.tan(0.4 * math.pi), 2: 0.8 / math.sqrt(0.18)}


@pytest.mark.parametrize("runs", [2, 3])
def test_report_half_width_is_the_t_interval_of_the_run_hvis(tmp_path, warmup_runs, truth_dir,
                                                            runs):
    dirs = warmup_runs[:runs]
    report = tmp_path / "report.csv"
    assert run_cli("report", *dirs, "--reference-front", truth_dir / "true_front.csv",
                   "--output", report) == 0
    values = {r[0]: float(r[1]) for r in csv.reader(report.read_text().splitlines()[1:])}
    hvis = [values[str(d)] for d in dirs]
    half = T_QUANTILE_90[runs - 1] * statistics.stdev(hvis) / math.sqrt(runs)
    assert 0.0 < half < math.inf
    assert values["ci80_half_width"] == pytest.approx(half, rel=1e-12, abs=0.0)


def test_report_half_width_is_inf_when_a_run_has_no_feasible_sample(tmp_path, run_dir,
                                                                   truth_dir, capsys):
    import shutil
    import warnings

    infeasible = tmp_path / "infeasible"
    shutil.copytree(run_dir, infeasible)
    rows = read_rows(infeasible / "samples.csv")
    with open(infeasible / "samples.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows({**row, "feasible": "false"} for row in rows)
    report = tmp_path / "report.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli("report", run_dir, infeasible, "--reference-front",
                       truth_dir / "true_front.csv", "--output", report) == 0
    values = {r[0]: r[1] for r in csv.reader(report.read_text().splitlines())}
    assert values[str(infeasible)] == values["mean"] == values["ci80_half_width"] == "inf"
    assert capsys.readouterr().err == ""


def test_report_rejects_mismatched_objectives(tmp_path, run_dir, capsys):
    out = tmp_path / "lin2"
    assert run_cli("run", LINEAR, "--set", f"output_dir={out}") == 0
    assert run_cli("report", run_dir, out) == 1
    assert "disagree" in capsys.readouterr().err


@pytest.mark.parametrize("text, problem", [
    ("{}", "no list of objective names under 'objectives'"),
    ("[1]", "no list of objective names under 'objectives'"),
    ("nope", "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
])
def test_report_rejects_a_bad_run_meta_naming_the_file(tmp_path, run_dir, capsys, text, problem):
    bad = tmp_path / "bad_run"
    bad.mkdir()
    (bad / "run_meta.json").write_text(text)
    assert run_cli("report", run_dir, bad, "--output", tmp_path / "report.csv") == 1
    err = capsys.readouterr().err
    assert err == f"error: ReportError: {bad / 'run_meta.json'}: {problem}\n"


@pytest.mark.parametrize("command", ["run", "report"])
def test_reference_front_without_feasible_rows_fails_alike(tmp_path, run_dir, capsys, command):
    reference = tmp_path / "ref.csv"
    reference.write_text("cycles,logic,feasible\n10.0,2.0,false\n")
    if command == "run":
        args = ["run", TOY, "--set", f"output_dir={tmp_path / 'out'}"]
    else:
        args = ["report", run_dir, "--output", tmp_path / "report.csv"]
    assert run_cli(*args, "--reference-front", reference) == 1
    err = capsys.readouterr().err
    assert err == "error: ReferenceFrontError: reference front file has no feasible rows\n"


@pytest.mark.parametrize("command", ["run", "report"])
def test_short_csv_row_fails_with_file_and_line(tmp_path, run_dir, capsys, command):
    # a long row fails alike: an unquoted comma must not shift a point unnoticed
    reference = tmp_path / "ref.csv"
    if command == "run":
        args = ["run", TOY, "--set", f"output_dir={tmp_path / 'out'}"]
    else:
        args = ["report", run_dir, "--output", tmp_path / "report.csv"]
    for row, count in [("12.0", "fewer"), ("1,5,0.3,true", "more")]:
        reference.write_text(f"cycles,logic,feasible\n10.0,2.0,true\n{row}\n")
        assert run_cli(*args, "--reference-front", reference) == 1
        err = capsys.readouterr().err
        assert err == (f"error: ValidationError: {reference} line 3: "
                       f"row has {count} cells than the header\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "report"])
def test_reference_feasible_cell_must_be_true_or_false(tmp_path, run_dir, capsys, command):
    reference = tmp_path / "ref.csv"
    reference.write_text("cycles,logic,feasible\n10.0,2.0,true\n12.0,3.0,yes\n")
    if command == "run":
        args = ["run", TOY, "--set", f"output_dir={tmp_path / 'out'}"]
    else:
        args = ["report", run_dir, "--output", tmp_path / "report.csv"]
    assert run_cli(*args, "--reference-front", reference) == 1
    err = capsys.readouterr().err
    assert err == (f"error: ValidationError: {reference} line 3, column 'feasible': "
                   f"'yes' is not true or false\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "report"])
def test_repeated_csv_column_fails_naming_file_and_column(tmp_path, run_dir, capsys, command):
    # csv.DictReader would read the point as (3.0, 2.0), the last copy's cell
    reference = tmp_path / "ref.csv"
    reference.write_text("cycles,logic,cycles\n5.0,2.0,3.0\n")
    if command == "run":
        args = ["run", TOY, "--set", f"output_dir={tmp_path / 'out'}"]
    else:
        args = ["report", run_dir, "--output", tmp_path / "report.csv"]
    assert run_cli(*args, "--reference-front", reference) == 1
    err = capsys.readouterr().err
    assert err == f"error: ValidationError: {reference} has column 'cycles' more than once\n"
    assert not (tmp_path / "out").exists()


TOY_RECORDS_HEADER = "T,P,S,B,cycles,logic,feasible,iteration_tag\n"


@pytest.mark.parametrize("row, message", [
    ("2,1,true,1,100.0,5.0,true,-1,9", "line 3: row has more cells than the header"),
    ("2,1,true,1,100.0,5.0,true", "line 3: row has fewer cells than the header"),
    ("2,1,true,1,nan,5.0,true,-1", "line 3, column 'cycles': 'nan' is not a finite number"),
    ("2,1,true,1,100.0,5.0,yes,-1",
     "line 3, column 'feasible': 'yes' is not true or false"),
    ("2,1,true,1,100.0,5.0,true,0.5",
     "line 3, column 'iteration_tag': '0.5' is not an integer"),
    ("2,1,true,1,100.0,5.0,true,1_0",
     "line 3, column 'iteration_tag': '1_0' is not an integer"),
    ("2,1,true,1,1_0.0,5.0,true,-1",
     "line 3, column 'cycles': '1_0.0' is not a finite number"),
    ("2,1,true,1, 2.0 ,5.0,true,-1",
     "line 3, column 'cycles': ' 2.0 ' is not a finite number"),
    ("2,1,true,1,1.2.3,5.0,true,-1",
     "line 3, column 'cycles': '1.2.3' is not a finite number"),
    ("2,1,true,1,0x1p3,5.0,true,-1",
     "line 3, column 'cycles': '0x1p3' is not a finite number"),
], ids=["extra cell", "no tag cell", "nan objective", "feasible yes", "fractional tag",
        "tag with an underscore", "objective with an underscore", "objective padded",
        "objective with two points", "objective in hex"])
def test_malformed_records_row_fails_with_file_and_line(tmp_path, row, message):
    scenario = parse_scenario(Path(TOY).read_text())
    path = tmp_path / "samples.csv"
    path.write_text(f"{TOY_RECORDS_HEADER}4,2,false,3,50.0,2.0,false,0\n{row}\n")
    with pytest.raises(ValidationError) as info:
        read_records_csv(path, scenario.space, scenario.objectives)
    assert str(info.value) == f"{path} {message}"


@pytest.mark.parametrize("row, column, cell", [
    ("4,2,false,9,50.0,2.0,false,0", "B", "9"),
    ("4,2,false,x,50.0,2.0,false,0", "B", "x"),
    ("4,2,false,2.0,50.0,2.0,false,0", "B", "2.0"),
    ("3,2,false,2,50.0,2.0,false,0", "T", "3"),
    ("4,2,maybe,2,50.0,2.0,false,0", "S", "maybe"),
    ("4,2,false,0_2,50.0,2.0,false,0", "B", "0_2"),
    ("4,2,false, 2 ,50.0,2.0,false,0", "B", " 2 "),
], ids=["integer out of range", "integer not a number", "integer written as a float",
        "ordinal not a value", "categorical not a level", "integer with an underscore",
        "integer padded"])
def test_records_parameter_cell_outside_the_space_fails(tmp_path, row, column, cell):
    scenario = parse_scenario(Path(TOY).read_text())
    path = tmp_path / "samples.csv"
    path.write_text(f"{TOY_RECORDS_HEADER}4,2,false,3,50.0,2.0,false,0\n{row}\n")
    with pytest.raises(ValidationError) as info:
        read_records_csv(path, scenario.space, scenario.objectives)
    assert str(info.value) == (f"{path} line 3, column {column!r}: {cell!r} is not in the "
                               f"parameter's domain")


REAL_A = 'input_parameters.A={"parameter_type": "real", "values": [-1.0, 100.0]}'
LINEAR_RECORDS_HEADER = "A,B,C,latency,area,feasible\n"


@pytest.mark.parametrize("cell", ["1_0.0", " 2.0 ", "1.2.3", "0x1p3"],
                         ids=["underscore", "padded", "two points", "hex"])
def test_records_real_parameter_cell_must_be_a_plain_decimal(tmp_path, cell):
    scenario = load_scenario(LINEAR, [REAL_A])
    path = tmp_path / "samples.csv"
    path.write_text(f"{LINEAR_RECORDS_HEADER}0.5,2,on,1.0,2.0,true\n{cell},2,on,1.0,2.0,true\n")
    with pytest.raises(ValidationError) as info:
        read_records_csv(path, scenario.space, scenario.objectives)
    assert str(info.value) == (f"{path} line 3, column 'A': {cell!r} is not in the "
                               f"parameter's domain")


@given(st.lists(st.floats(-1.0, 100.0), min_size=1, max_size=20),
       st.sampled_from(["0.50", "1e-05", "-0.0", "7", "5.", ".5", "+1E+01"]))
def test_records_real_cells_read_back_every_written_float(tmp_path_factory, values, plain):
    # every float canonical_str writes, and plain decimals, read back exactly
    from dse.space import canonical_str

    scenario = load_scenario(LINEAR, [REAL_A])
    path = tmp_path_factory.mktemp("reals") / "samples.csv"
    cells = [canonical_str(v) for v in values] + [plain]
    path.write_text(LINEAR_RECORDS_HEADER + "".join(
        f"{cell},2,on,{cell},{cell},true\n" for cell in cells))
    records = read_records_csv(path, scenario.space, scenario.objectives)
    assert [(r.config[0], *r.objectives) for r in records] == [
        (v, v, v) for v in [*values, float(plain)]]


def test_records_csv_needs_every_column_but_the_tag(tmp_path):
    scenario = parse_scenario(Path(TOY).read_text())
    path = tmp_path / "points.csv"
    path.write_text("T,P,S,B,cycles,logic,feasible\n4,2,false,3,50.0,2.0,false\n")
    records = read_records_csv(path, scenario.space, scenario.objectives)
    assert [(r.config, r.objectives, r.feasible, r.iteration_tag) for r in records] == [
        ((4, 2, "false", 3), (50.0, 2.0), False, -1)]
    path.write_text("T,P,S,B,cycles,feasible\n4,2,false,3,50.0,false\n")
    with pytest.raises(ValidationError) as info:
        read_records_csv(path, scenario.space, scenario.objectives)
    assert str(info.value) == f"{path} has no column 'logic'"


@pytest.mark.parametrize("cell", ["abc", "nan", "inf", "1_0.0", " 2.0 ", "1.2.3", "0x1p3"])
@pytest.mark.parametrize("command", ["run", "report"])
def test_non_finite_reference_cell_fails_with_file_line_and_column(
        tmp_path, run_dir, capsys, command, cell):
    reference = tmp_path / "ref.csv"
    reference.write_text(f"cycles,logic,feasible\n10.0,{cell},true\n12.0,3.0,true\n")
    if command == "run":
        args = ["run", TOY, "--set", f"output_dir={tmp_path / 'out'}"]
    else:
        args = ["report", run_dir, "--output", tmp_path / "report.csv"]
    assert run_cli(*args, "--reference-front", reference) == 1
    err = capsys.readouterr().err
    assert err == (f"error: ValidationError: {reference} line 2, column 'logic': "
                   f"{cell!r} is not a finite number\n")
    assert not (tmp_path / "out").exists()


# Runs in a fresh interpreter: `numpy.ma` costs about 1 MB of peak RSS once
# imported, and numpy pulls it in lazily from some calls (np.isin, a bare
# np.unique) that the run path must not make.
NUMPY_MA_PROBE = """
import sys
from dse import evaluators
from dse.cli import main

def mixed(v):
    return {"f1": v["x"] + v["k"], "f2": (1.0 - v["x"]) * v["o"], "feasible": v["c"] != "b"}

evaluators.BUILTIN_EVALUATORS["mixed"] = mixed
for path in sys.argv[1:]:
    assert main(["run", path]) == 0, path
print("numpy.ma" in sys.modules)
"""


def test_a_run_does_not_import_numpy_ma(tmp_path, toy_scenario_doc):
    import os
    import subprocess
    import sys

    from conftest import SRC

    toy = dict(toy_scenario_doc, output_dir=str(tmp_path / "toy"))
    mixed = {
        "application_name": "mixed",
        "optimization_objectives": ["f1", "f2"],
        "feasible_output": {"name": "feasible"},
        "input_parameters": {
            "x": {"parameter_type": "real", "values": [0.0, 1.0]},
            "y": {"parameter_type": "real", "values": [-1.0, 1.0]},
            "c": {"parameter_type": "categorical", "values": ["a", "b", "c"]},
            "o": {"parameter_type": "ordinal", "values": [1, 2.5, 4]},
            "k": {"parameter_type": "integer", "values": [1, 64]},
        },
        "design_of_experiment": {"number_of_samples": 20},
        "optimization_iterations": 2,
        "evaluations_per_optimization_iteration": 5,
        "pareto_prediction_samples": 3000,
        "output_dir": str(tmp_path / "mixed"),
        "evaluator": {"builtin": "mixed"},
    }
    paths = []
    for name, doc in (("toy.json", toy), ("mixed.json", mixed)):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-c", NUMPY_MA_PROBE, *map(str, paths)],
                          env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
    assert (tmp_path / "mixed" / "samples.csv").exists()
