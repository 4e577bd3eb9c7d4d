"""One workload run in a fresh interpreter: set-up, warm-up, timed tasks.

Started by ``run.py`` with ``PYTHONPATH`` set to the repository's ``src`` and
single-threaded BLAS. It prints one JSON line on standard output. With
``--setup-only`` it stops once set-up is done, which ``run.py`` uses to time
set-up several times.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import expseries

from metrics import Health, per_layer
from tracer import NO_TRACER, Tracer
from workloads import first_of_each_kind, make_workload

WARMUP_PER_KIND = 1
CALIBRATION_REPEATS = 5
# One calibration sample after every this many tasks, off the clock, so the
# host's speed is known while the tasks run, not only before and after.
CALIBRATE_EVERY = 8


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python loop; shows host speed drift."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return (time.perf_counter() - start) * 1e3


def check_source(root: Path) -> None:
    location = Path(expseries.__file__).resolve()
    if not location.is_relative_to((root / "src").resolve()):
        raise SystemExit(f"expseries imported from {location}, not from {root / 'src'}")


def src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def run_checked(workload, task):
    """Run one task untimed and return (output, failure message or None)."""
    task = workload.materialize(task)
    try:
        out = workload.run(task)
    except Exception as exc:  # a failing task is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}"
    return out, check(workload, task, out)


def check(workload, task, out):
    try:
        return workload.check(task, out)
    except Exception as exc:
        return f"check raised {type(exc).__name__}: {exc}"


def measure(workload, tasks, trace: bool, root: Path, workdir: Path) -> dict:
    """Warm up, then run every task of ``tasks`` in order.

    In a traced run every task runs twice back to back, untraced and traced
    in alternating order, so the pair shares the host's state and the ratio
    of the two gives the tracing overhead.
    """
    calib_before = [calibrate() for _ in range(CALIBRATION_REPEATS)]
    calib_during: list[float] = []
    for task in first_of_each_kind(tasks, WARMUP_PER_KIND):
        run_checked(workload, task)

    tracer = Tracer() if trace else None
    health = Health()
    durations: list[float] = []
    ratios: list[float] = []
    traced_ids: list[int] = []
    failures: list[str] = []
    attempted = 0

    def execute(task, traced: bool) -> float:
        nonlocal attempted
        exec_id = attempted
        attempted += 1
        task = workload.materialize(task)
        # Collect, then freeze the survivors (harness state, spans) so that
        # collections inside the task scan only its own objects.
        gc.collect()
        gc.freeze()
        if traced:
            tracer.task = exec_id
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = workload.run(task, tracer if traced else NO_TRACER)
            error = None
        except Exception as exc:
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        if traced:
            tracer.uninstall()
        if error is None:
            error = check(workload, task, out)
        if error is not None:
            failures.append(f"task {task.index} ({task.kind}): {error}")
        elif traced:
            traced_ids.append(exec_id)
            workload.observe(task, out, health, tracer)
        if traced:
            tracer.task = None
        return elapsed_ms

    for i, task in enumerate(tasks, 1):
        if not trace:
            durations.append(execute(task, False))
        else:
            order = (False, True) if len(ratios) % 2 == 0 else (True, False)
            ms = {traced: execute(task, traced) for traced in order}
            durations.append(ms[False])
            ratios.append(ms[True] / ms[False])
        if i % CALIBRATE_EVERY == 0:
            calib_during.append(calibrate())
    calib_after = [calibrate() for _ in range(CALIBRATION_REPEATS)]

    result = {
        "durations_ms": durations,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "peak_rss_mb": resource.getrusage(workload.rusage_who).ru_maxrss / 1024.0,
        "calib_before_ms": statistics.median(calib_before),
        "calib_during_ms": statistics.median(calib_during or calib_after),
        "calib_after_ms": statistics.median(calib_after),
    }
    if trace:
        observed = health.values()
        observed["host.calib_ms"] = statistics.median(calib_before + calib_during + calib_after)
        observed["code.src_lines"] = src_lines(root)
        observed["trace.overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0)
        result["per_layer"] = per_layer(tracer.self_times(), traced_ids, tracer.work, observed)
        workdir.mkdir(parents=True, exist_ok=True)
        trace_path = workdir / f"trace-{workload.name}.jsonl"
        tracer.dump(trace_path)
        result["trace_file"] = os.path.relpath(trace_path, root)
    return result


def setup(name: str, seed: int, seconds: float, trace: bool, root: Path, workdir: Path):
    """Inputs and the first cold call of each task kind (imports come before)."""
    workload = make_workload(name, root, workdir)
    tasks = workload.make_tasks(seed, workload.scale(seconds, trace))
    workload.prepare(tasks)
    for task in workload.cold_tasks(tasks):
        out, error = run_checked(workload, task)
        if error is not None:
            print(f"cold call of {task.kind} failed: {error}", file=sys.stderr)
    return workload, tasks


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    root = Path(args.root).resolve()
    workdir = root / ".perfbench_work"
    os.chdir(root)
    check_source(root)
    trace = bool(args.trace)
    workload, tasks = setup(args.workload, args.seed, args.seconds, trace, root, workdir)
    result = {"ready_monotonic": time.monotonic(), "tasks": len(tasks)}
    if not args.setup_only:
        result.update(measure(workload, tasks, trace, root, workdir))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
