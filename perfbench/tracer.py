"""In-memory span tracer that wraps the public functions of the library.

A span is ``[name, start_ns, end_ns, parent_index, task_id]``. Spans stay in
memory while the benchmark runs and are written out once at the end. A
layer's self time is its span's duration minus the time covered by its
direct child spans.

Wrappers are installed only for a traced run. Modules such as ``control``
and ``simulate`` import ``coupling_coefficient`` by name, and ``uniqueness``
imports ``evaluate`` by name, so :meth:`Tracer.install` rebinds every name in
every ``expseries`` module that refers to a wrapped function, not only the
defining one.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Callable

from expseries import exact
from expseries.control import ControlFunction


def _propagate_name(args, kwargs) -> str:
    control = args[1] if len(args) > 1 else kwargs.get("control")
    if isinstance(control, ControlFunction):
        return "simulate.propagate_closed"
    return "simulate.propagate_callable"


def _expand_work(args, kwargs) -> int:
    series = args[0] if args else kwargs["series"]
    order = args[2] if len(args) > 2 else kwargs["order"]
    return len(series) * (int(order) + 1)


def _blocked_set_modes(args, kwargs) -> int:
    return int(args[1] if len(args) > 1 else kwargs.get("j_max", 256))


# (module, attribute, span name or naming function, work function or None)
LAYER_FUNCTIONS = (
    ("series", "evaluate", "series.evaluate", None),
    ("taylor", "expand", "taylor.expand", _expand_work),
    ("taylor", "partial_sums", "taylor.partial_sums", None),
    ("taylor", "remainder_bound", "taylor.remainder_bound", None),
    ("taylor", "order_for_tolerance", "taylor.order_for_tolerance", None),
    ("taylor", "evaluate_via_expansion", "taylor.evaluate_via_expansion", None),
    ("uniqueness", "is_identically_zero", "uniqueness.is_identically_zero", None),
    ("uniqueness", "peel_leading", "uniqueness.peel_leading", None),
    ("heat", "blocked_set", "heat.blocked_set", _blocked_set_modes),
    ("heat", "coupling_coefficient", "heat.coupling_coefficient", None),
    ("control", "synthesize_lumped", "control.synthesize_lumped", None),
    ("control", "gram_matrix", "control.gram_matrix", None),
    ("control", "solve_moment_problem", "control.solve_moment_problem", None),
    ("simulate", "propagate", _propagate_name, None),
    ("simulate", "observability_signal", "simulate.observability_signal", None),
)


class Tracer:
    """Records spans and per-span work counts for the current task."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.work: dict[tuple[int, str], int] = defaultdict(int)
        self.task: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.task])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, fn: Callable, name, work=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            if work is not None:
                self.work[(self.task, label)] += work(args, kwargs)
            index = self.open(label)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    def install(self) -> None:
        """Wrap every layer function and ``ExactReal.parse`` in place."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("expseries")]
        for module_name, attr, name, work in LAYER_FUNCTIONS:
            original = getattr(sys.modules[f"expseries.{module_name}"], attr)
            traced = self.wrap(original, name, work)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, value))
                        setattr(module, key, traced)
        parse = exact.ExactReal.__dict__["parse"]
        self._restore.append((exact.ExactReal, "parse", parse))
        exact.ExactReal.parse = classmethod(self.wrap(parse.__func__, "exact.parse"))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def self_times(self) -> dict[tuple[int, str], list[int]]:
        """``(task, name) -> [self time in ns, call count]`` over closed spans."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[tuple[int, str], list[int]] = defaultdict(lambda: [0, 0])
        for index, (name, start, end, _, task) in enumerate(self.spans):
            entry = totals[(task, name)]
            entry[0] += end - start - child_ns[index]
            entry[1] += 1
        return totals

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, task in self.spans:
                out.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "task": task}
                    )
                    + "\n"
                )


class NoTracer:
    """Stands in for a :class:`Tracer` in untraced runs: spans cost nothing."""

    def span(self, name: str):
        return nullcontext()


NO_TRACER = NoTracer()
