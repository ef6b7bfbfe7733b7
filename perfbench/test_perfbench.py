"""Checks of the benchmark's own machinery.

    python3 -m pytest perfbench/test_perfbench.py
"""

import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_dse()

from dse import evaluators, optimizer  # noqa: E402

import zdt  # noqa: E402
from gate import HviScale, check_run, hypervolume_2d, non_dominated  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Bench  # noqa: E402

# counts and count ratios that must repeat exactly for a fixed seed
EXACT_RATIOS = ("optimizer.predict_pareto.filter_pass_ratio", "optimizer.select_batch.exploit_share")


@pytest.fixture
def fpga(tmp_path, monkeypatch):
    monkeypatch.setitem(evaluators.BUILTIN_EVALUATORS, "toy_fpga", evaluators.toy_fpga)
    return Bench(WORKLOADS["fpga_seeds"], tmp_path)


def traced_metrics(bench: Bench, seeds) -> dict:
    tracer = Tracer(bench.scenario.feasibility_threshold)
    tracer.install()
    try:
        traced = [run.run_once(bench, s, tracer) for s in seeds]
    finally:
        tracer.uninstall()
    assert [r.problems for r in traced] == [[] for _ in traced]
    return run.per_layer(traced, traced)


def test_traced_counts_repeat_and_cover_the_run(fpga):
    first = traced_metrics(fpga, [11, 12])
    second = traced_metrics(fpga, [11, 12])
    exact = [k for k, (_, unit) in first.items() if unit == "count"] + list(EXACT_RATIOS)
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert first["forest.fit.nodes"][0] > 0
    assert first["optimizer.candidate_pool.configs"][0] > 0
    assert first["trace.coverage"][0] >= 0.9
    assert not hasattr(optimizer.encode_matrix, "__wrapped__")


@pytest.fixture
def fpga_run(fpga):
    outcome = run.run_once(fpga, 5)
    assert outcome.problems == []
    return fpga, fpga.work_dir / "run"


def _edit(path: Path, fn) -> None:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(fn(lines)))


def _set_objective(line: str, value: str) -> str:
    cells = line.split(",")
    cells[4] = value
    return ",".join(cells)


@pytest.mark.parametrize("name, file, fn", [
    ("front row dropped", "pareto.csv", lambda ls: ls[:-1]),
    ("row evaluated twice", "samples.csv", lambda ls: ls + ls[-1:]),
    ("objective changed", "samples.csv", lambda ls: ls[:1] + [_set_objective(ls[1], "1.5")] + ls[2:]),
    ("objective not finite", "samples.csv", lambda ls: ls[:1] + [_set_objective(ls[1], "nan")] + ls[2:]),
])
def test_gate_flags_bad_artifacts(fpga_run, name, file, fn):
    bench, out = fpga_run
    _edit(out / file, fn)
    problems, _ = check_run(out, bench.columns, bench.objectives, bench.evaluate, bench.budget)
    assert problems, name


def test_gate_flags_budget_overrun(fpga_run):
    bench, out = fpga_run
    assert check_run(out, bench.columns, bench.objectives, bench.evaluate, bench.budget)[0] == []
    problems, _ = check_run(out, bench.columns, bench.objectives, bench.evaluate, bench.budget - 1)
    assert problems


def test_non_dominated_keeps_duplicates():
    assert non_dominated([(1, 1), (1, 1), (2, 0), (2, 2), (0, 3)]) == [0, 1, 2, 4]


def test_hypervolume_and_gap():
    assert hypervolume_2d([(0, 1), (1, 0), (1, 1), (3, 0)], (2, 2)) == 3.0
    front = zdt.true_front(101)
    scale = HviScale(front)
    assert scale.gap(front) == 0.0
    assert scale.gap([]) == 1.0
    assert 0.0 < scale.gap(front[::10]) < 0.1


def test_child_evaluator_matches_in_process(tmp_path):
    rows = [("0.25", "0.5", "0.0", "1.0", "0.125", "0.75", "c", "7"),
            ("0.95", "0.0", "0.0", "0.0", "0.0", "0.0", "a", "1")]
    names = [f"x{i}" for i in range(1, 7)] + ["c", "k"]
    request = ",".join(names) + "\n" + "".join(",".join(r) + "\n" for r in rows)
    log = tmp_path / "times.txt"
    proc = subprocess.run([sys.executable, str(HERE / "zdt_child.py"), str(log)],
                          input=request, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    assert lines[0] == ",".join(names + ["f1", "f2", "feasible"])
    for row, line in zip(rows, lines[1:]):
        want = zdt.evaluate(dict(zip(names, row)))
        cells = line.split(",")
        assert cells[:8] == list(row)
        assert (float(cells[8]), float(cells[9])) == (want["f1"], want["f2"])
        assert cells[10] == ("true" if want["feasible"] else "false")
    arrival, ret, count = log.read_text().split()
    assert float(arrival) <= float(ret) and count == "2"
