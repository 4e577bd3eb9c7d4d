"""Tests of the benchmark itself: seeding, metric names, gates, refusal.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for entry in (str(BENCH), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import child  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from common import WORKLOAD_NAMES  # noqa: E402
from expseries import heat, taylor, uniqueness  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def make(name: str, tmp_path: Path):
    return workloads.make_workload(name, ROOT, tmp_path / "work")


def size(task) -> float:
    """Rough cost of a task: its term count or jmax, else its encoded size."""
    p = task.params
    return p.get("n_terms") or p.get("jmax") or len(json.dumps(p, default=str))


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_same_seed_same_task_list(name, tmp_path):
    workload = make(name, tmp_path)
    first = workload.make_tasks(5, 2)
    again = make(name, tmp_path).make_tasks(5, 2)
    other = make(name, tmp_path).make_tasks(6, 2)
    assert first == again
    assert [t.params for t in first] != [t.params for t in other]
    assert len(first) == len(other)
    # Kinds are interleaved round-robin, not grouped.
    pattern = list(getattr(workload, "pattern", workload.kinds))
    assert [t.kind for t in first[: len(pattern)]] == pattern


def test_task_lists_stay_compact():
    # Inputs such as certify's terms are drawn per task by ``materialize``, so
    # the harness does not hold them all and ``peak_rss_mb`` shows the library.
    tasks = workloads.make_workload("certify", ROOT, ROOT).make_tasks(1)
    assert max(len(json.dumps(t.params)) for t in tasks) < 1000
    full = workloads.Certify().materialize(tasks[0])
    assert len(full.params["terms"]) == tasks[0].params["n_terms"]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_run_size_depends_on_seconds_only(name, tmp_path):
    workload = make(name, tmp_path)
    base = len(workload.make_tasks(1))
    scale = workload.scale(20, False)
    assert scale >= round(20 / workload.base_seconds)
    assert scale * base >= workloads.MIN_TIMED_TASKS
    assert len(workload.make_tasks(1, scale)) == scale * base
    assert workload.scale(20, True) == max(1, round(10 / workload.base_seconds))
    assert workload.scale(0.1, True) == 1


def test_stratified_draws_one_value_per_stratum():
    rng = workloads.rng_for("x", 1)
    draws = workloads.stratified(rng, 40, 10.0, 50.0)
    strata = sorted(int((d - 10.0) / 1.0) for d in draws)
    assert strata == list(range(40))


def test_end_to_end_names_match_benchmark_json():
    values = metrics.end_to_end([1.0, 2.0, 3.0], [0.5, 0.6, 0.7], 40.0)
    assert sorted(values) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert all(v != 0 for v in values.values())


def test_per_layer_names_and_moves_match_benchmark_json():
    assert list(metrics.MOVES) == [m["name"] for m in SPEC["per_layer"]]
    workload_names = {w["name"] for w in SPEC["workloads"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for targets in metrics.MOVES.values():
        for target in targets:
            workload, _, metric = target.partition("/")
            assert workload in workload_names and metric in e2e


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_measure_reports_every_per_layer_metric(name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    workload = make(name, tmp_path)
    tasks = workload.make_tasks(3)
    if name == "cli":
        workload.prepare(tasks)
    else:
        tasks = workloads.first_of_each_kind(sorted(tasks, key=size), 1)
    result = child.measure(workload, tasks, True, ROOT, tmp_path / "work")
    assert result["failed"] == 0, result["failures"]
    assert list(result["per_layer"]) == [m["name"] for m in SPEC["per_layer"]]
    assert result["per_layer"]["code.src_lines"] > 0
    assert (ROOT / result["trace_file"]).is_file()


def smallest(tasks, kind=None):
    return min((t for t in tasks if kind is None or t.kind == kind), key=size)


def drop_last_coefficient(original):
    def planted(series, tau, order):
        e = original(series, tau, order)
        return replace(e, coeffs=e.coeffs[:-1], coeff_bounds=e.coeff_bounds[:-1])

    return planted


def zero_last_coefficient(original):
    def planted(series, tau, order):
        e = original(series, tau, order)
        return replace(e, coeffs=e.coeffs[:-1] + (0.0,))

    return planted


def report_without_last_blocked(original):
    def planted(actuator, j_max=256):
        report = original(actuator, j_max)
        return replace(report, blocked_prefix=report.blocked_prefix[:-1])

    return planted


def nudge_first_estimate(original):
    def planted(signal, known_lambdas, count, **kwargs):
        result = original(signal, known_lambdas, count, **kwargs)
        (a, lam), *rest = result.recovered
        return replace(result, recovered=((a + 1e-3, lam), *rest))

    return planted


@pytest.mark.parametrize(
    "name, kind, module, attr, plant",
    [
        ("certify", None, taylor, "expand", drop_last_coefficient),
        ("certify", None, taylor, "expand", zero_last_coefficient),
        ("steer", "closed", heat, "blocked_set", report_without_last_blocked),
        ("identify", "full", uniqueness, "peel_leading", nudge_first_estimate),
    ],
)
def test_planted_wrong_answer_fails_gate(name, kind, module, attr, plant, tmp_path, monkeypatch):
    workload = make(name, tmp_path)
    tasks = workload.make_tasks(4)
    if name == "steer":  # a task whose prefix has a blocked mode to drop
        tasks = [t for t in tasks if workloads.expected_moduli(t.params["parts"])]
    task = smallest(tasks, kind)
    assert child.run_checked(workload, task)[1] is None
    monkeypatch.setattr(module, attr, plant(getattr(module, attr)))
    assert child.run_checked(workload, task)[1] is not None


def test_cli_gate_rejects_changed_output(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    workload = make("cli", tmp_path)
    task = workload.make_tasks(2)[0]
    workload.prepare([task])
    out = workload.run(task)
    assert workload.check(task, out) is None
    assert workload.check(task, {**out, "bytes": out["bytes"] + b" "}) is not None
    assert workload.check(task, {**out, "code": 2}) is not None


def test_child_refuses_another_copy_of_the_library(tmp_path):
    with pytest.raises(SystemExit):
        child.check_source(tmp_path)


def test_runner_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
