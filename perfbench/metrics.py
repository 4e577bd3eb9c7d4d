"""Metric definitions: units, direction, and what each per-layer metric moves.

``BENCHMARK.json`` holds the names, units and bounds the runner reports;
this module holds how each per-layer metric is computed and, in ``MOVES``,
which end-to-end metric on which workload it is expected to move. The tests
check that both agree.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# Per-layer metric -> the end-to-end metrics ("workload/metric") it should move.
MOVES = {
    "series.construct.ms": ["certify/task_p50_ms"],
    "series.evaluate.calls": ["certify/task_p50_ms"],
    "series.evaluate.ms": ["certify/task_p50_ms"],
    "taylor.expand.ms": ["certify/task_p50_ms", "certify/tasks_per_s"],
    "taylor.expand.work": ["certify/task_p50_ms", "certify/tasks_per_s"],
    "taylor.partial_sums.ms": ["certify/task_p50_ms", "certify/tasks_per_s"],
    "taylor.remainder_bound.ms": ["certify/task_p50_ms", "certify/tasks_per_s"],
    "taylor.order_for_tolerance.ms": ["certify/task_p50_ms", "certify/tasks_per_s"],
    "taylor.cert_violations": [],
    "uniqueness.is_identically_zero.ms": ["certify/task_p50_ms"],
    "uniqueness.peel_leading.ms": ["identify/task_p50_ms", "identify/tasks_per_s"],
    "uniqueness.peel_err_vs_lstsq": [],
    "uniqueness.partial2_miss_frac": [],
    "exact.parse.calls": ["steer/task_p50_ms"],
    "exact.parse.ms": ["steer/task_p50_ms"],
    "heat.blocked_set.ms": ["steer/task_p50_ms"],
    "heat.blocked_set.modes": [],
    "heat.coupling_coefficient.calls": ["steer/task_p50_ms"],
    "heat.coupling_coefficient.ms": ["steer/task_p50_ms"],
    "control.synthesize_lumped.ms": ["steer/task_p50_ms"],
    "control.gram_matrix.calls": ["steer/task_p50_ms"],
    "control.solve_moment_problem.ms": ["steer/task_p50_ms"],
    "control.gram_condition_max": [],
    "control.moment_residual_max": [],
    "simulate.propagate_closed.ms": ["steer/task_p50_ms"],
    "simulate.propagate_callable.ms": ["steer/task_p90_ms"],
    "simulate.integrand_evals": ["steer/task_p90_ms"],
    "simulate.observability_signal.ms": ["identify/task_p50_ms"],
    "simulate.spillover_max": [],
    "cli.startup_ms": ["cli/task_p50_ms"],
    "cli.main.ms": ["cli/task_p50_ms"],
    "cli.out_bytes": ["cli/task_p50_ms"],
    "code.src_lines": [],
    "host.calib_ms": [],
    "trace.overhead_pct": [],
}

# Figures the traced run computes outside the span tree, keyed by metric name.
OBSERVED = {
    "taylor.cert_violations",
    "uniqueness.peel_err_vs_lstsq",
    "uniqueness.partial2_miss_frac",
    "control.gram_condition_max",
    "control.moment_residual_max",
    "simulate.integrand_evals",
    "simulate.spillover_max",
    "cli.startup_ms",
    "cli.out_bytes",
    "code.src_lines",
    "host.calib_ms",
    "trace.overhead_pct",
}


class Health:
    """Figures a traced run gathers off the clock, by metric name."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.flags: dict[str, list[bool]] = defaultdict(list)

    def add(self, name: str, value: float) -> None:
        self.totals[name] = self.totals.get(name, 0.0) + float(value)

    def max(self, name: str, value: float) -> None:
        self.totals[name] = max(self.totals.get(name, 0.0), float(value))

    def sample(self, name: str, value: float) -> None:
        """One per-task value; the median is reported."""
        self.samples[name].append(float(value))

    def flag(self, name: str, hit: bool) -> None:
        """One yes/no outcome; the fraction of hits is reported."""
        self.flags[name].append(bool(hit))

    def values(self) -> dict[str, float]:
        out = dict(self.totals)
        out.update({name: statistics.median(v) for name, v in self.samples.items()})
        out.update({name: sum(v) / len(v) for name, v in self.flags.items()})
        return out


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method, as ``statistics.quantiles``)."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(durations_ms: list[float], setup_s: list[float], peak_rss_mb: float) -> dict:
    """Untraced-run metrics of one workload."""
    return {
        "task_p50_ms": statistics.median(durations_ms),
        "task_p90_ms": percentile(durations_ms, 90),
        "tasks_per_s": 1000.0 * len(durations_ms) / sum(durations_ms),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(span_totals: dict, traced_tasks: list[int], work: dict, observed: dict) -> dict:
    """Per-task layer figures from the traced run.

    ``span_totals`` maps ``(task, span) -> [self ns, calls]``. ``.ms`` is the
    median self time over the tasks that reached the span, ``.calls`` the
    mean call count over all traced tasks, and ``.work``/``.modes`` the
    median work count over the tasks that reached the span. Layers the
    workload never reaches report 0.
    """
    by_span: dict[str, dict[int, list[int]]] = {}
    for (task, span), entry in span_totals.items():
        if task is not None:
            by_span.setdefault(span, {})[task] = entry
    work_by_span: dict[str, list[int]] = {}
    for (task, span), units in work.items():
        if task is not None:
            work_by_span.setdefault(span, []).append(units)
    result = {}
    for name in MOVES:
        if name in OBSERVED:
            result[name] = float(observed.get(name, 0.0))
            continue
        span, _, stat = name.rpartition(".")
        entries = by_span.get(span, {})
        if stat == "ms":
            values = [ns / 1e6 for ns, _ in entries.values()]
            result[name] = statistics.median(values) if values else 0.0
        elif stat == "calls":
            total = sum(calls for _, calls in entries.values())
            result[name] = total / len(traced_tasks) if traced_tasks else 0.0
        else:
            units = work_by_span.get(span, [])
            result[name] = float(statistics.median(units)) if units else 0.0
    return result
