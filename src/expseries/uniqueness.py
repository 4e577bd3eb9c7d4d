"""Vanishing tests and leading-coefficient recovery for exponential sums.

An exponential sum with summable coefficients that vanishes on an interval
[0, T] has all coefficients zero. This module realizes the two computable
faces of that fact:

* :func:`is_identically_zero` checks a series against a tolerance on a
  Chebyshev sample of [0, T] (certified tail bounds included), and

* :func:`peel_leading` recovers leading coefficients from samples by one
  least-squares fit on a late-time window shared by every extracted mode,
  where the slowest mode left out has decayed below a tenth of the fastest
  mode extracted (the whole sample when every mode is extracted).

Exponents are assumed known; identifying unknown exponents from data is a
different problem (Prony-type methods) and out of scope here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from ._numerics import BLOCK_ELEMENTS, row_sums
from .series import DirichletSeries, _require_finite, _require_positive, _tail_error


class SeparationWarning(UserWarning):
    """Exponent gaps too small for the sampling horizon to separate modes."""


@dataclass(frozen=True, init=False, eq=False)
class SampledSignal:
    """A real signal sampled at strictly increasing times within [0, horizon].

    ``time_array`` and ``value_array`` are read-only 1-D arrays, and ``times``
    and ``values`` derive float tuples from them. Instances are immutable and
    compare by identity.
    """

    time_array: np.ndarray
    value_array: np.ndarray
    horizon: float

    def __init__(self, times: Sequence[float], values: Sequence[float], horizon: float) -> None:
        horizon = _require_positive(horizon, "horizon")
        times, values = np.array(times, dtype=float), np.array(values, dtype=float)
        for array, name in ((times, "sample time"), (values, "sample value")):
            if array.ndim != 1:
                raise ValueError(f"{name}s must be one-dimensional")
            if not np.isfinite(array).all():
                raise ValueError(f"{name} must be finite")
            array.flags.writeable = False
        if not len(times):
            raise ValueError("signal needs at least one sample")
        if len(times) != len(values):
            raise ValueError("times and values must have equal length")
        if (times[1:] <= times[:-1]).any():
            raise ValueError("sample times must be strictly increasing")
        if times[0] < 0 or times[-1] > horizon:
            raise ValueError("sample times must lie within [0, horizon]")
        object.__setattr__(self, "time_array", times)
        object.__setattr__(self, "value_array", values)
        object.__setattr__(self, "horizon", horizon)

    def __len__(self) -> int:
        return len(self.time_array)

    @cached_property
    def times(self) -> tuple[float, ...]:
        return tuple(self.time_array.tolist())

    @cached_property
    def values(self) -> tuple[float, ...]:
        return tuple(self.value_array.tolist())


@dataclass(frozen=True)
class PeelResult:
    """Recovered ``(coefficient, exponent)`` pairs, the residual and solve diagnostics."""

    recovered: tuple[tuple[float, float], ...]
    residual_norm: float
    condition: float = field(default=math.nan, compare=False)
    fallback_windows: tuple[int, ...] = field(default=(), compare=False)


def chebyshev_sample(horizon: float, nodes: int) -> np.ndarray:
    """Chebyshev points of the second kind mapped to [0, horizon]."""
    nodes = int(nodes)
    if nodes < 2:
        raise ValueError("need at least two nodes")
    k = np.arange(nodes)
    return horizon * 0.5 * (1.0 - np.cos(np.pi * k / (nodes - 1)))


def is_identically_zero(
    series: DirichletSeries, horizon: float, tol: float, nodes: int = 129
) -> bool:
    """True when ``|value| + error_bound <= tol`` on a Chebyshev sample of [0, T].

    Tolerance semantics are absolute: this is a statement about the zero
    function, where relative comparisons are meaningless. With tol -> 0 the
    verdict characterizes all-zero coefficients.
    """
    horizon = _require_positive(horizon, "horizon")
    tol = _require_positive(tol, "tol")
    ts = chebyshev_sample(horizon, nodes)
    # Each node's value is the one evaluate returns; a block of nodes is
    # summed at once, and the test stops at the first block that fails. Only
    # a negative exponent can make a term overflow; then each node is its own
    # block, so that no node after the first failing one is computed.
    per_block = 1 if series.lambdas[0] < 0 else max(1, BLOCK_ELEMENTS // len(series))
    for start in range(0, len(ts), per_block):
        block = ts[start : start + per_block]
        values = row_sums(series.alphas * np.exp(-np.multiply.outer(block, series.lambdas)))
        for t, value in zip(block.tolist(), values):
            # Written so that a NaN node value fails, as an infinite one does.
            if not abs(value) + _tail_error(series.tail, t) <= tol:
                return False
    return True


def peel_leading(
    signal: SampledSignal,
    known_lambdas: Sequence[float],
    count: int,
) -> PeelResult:
    """Estimate the ``count`` slowest coefficients by one windowed least-squares solve.

    All extracted modes share one late window ``t >= ln(10) / (lambda_{count+1}
    - lambda_count)``, where the slowest mode left out is at most a tenth of
    the fastest one extracted; ``np.linalg.lstsq`` fits
    ``sum_i a_i exp(-lambda_i t)`` to the samples in it. When that window
    holds fewer than ``2 * count`` samples, the last quarter of the samples
    (at least ``2 * count``) is used instead. A full extraction leaves no mode
    out, so its window is every sample and the solve is the joint
    least-squares problem.

    ``condition`` is the singular-value ratio of the windowed design (NaN if
    no mode is solved for); ``fallback_windows`` lists the 0-based indices of
    the modes fit on the last-quarter window: every extracted mode, or none.

    Emits :class:`SeparationWarning` when a consecutive exponent gap is below
    ``1 / horizon``, and when a mode's basis is zero on the window; that
    mode's coefficient is pinned to 0.
    """
    lams = [_require_finite(l, "exponent") for l in known_lambdas]
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise ValueError("known_lambdas must be strictly increasing")
    count = int(count)
    if count < 1:
        raise ValueError("count must be at least 1")
    if count > len(lams):
        raise ValueError(f"count={count} exceeds the {len(lams)} known exponents")
    if len(signal) < 2 * count:
        raise ValueError(f"need at least {2 * count} samples to extract {count} modes")

    horizon = signal.horizon
    relevant = lams[: min(count + 1, len(lams))]
    tight = [(a, b) for a, b in zip(relevant, relevant[1:]) if b - a < 1.0 / horizon]
    if tight:
        warnings.warn(
            f"exponent gaps {tight} are below 1/horizon = {1.0 / horizon:.3g}; "
            "windowed extraction may not separate these modes",
            SeparationWarning,
            stacklevel=2,
        )

    times = signal.time_array
    values = signal.value_array
    start = 0
    fallback: tuple[int, ...] = ()
    if count < len(lams):
        start = int(np.searchsorted(times, math.log(10.0) / (lams[count] - lams[count - 1])))
        if len(times) - start < 2 * count:
            start = len(times) - max(2 * count, len(times) // 4)
            fallback = tuple(range(count))

    design = np.exp(-np.outer(times, np.array(lams[:count])))
    basis = design[start:]
    active = np.einsum("si,si->i", basis, basis) != 0.0
    for i in np.flatnonzero(~active):
        warnings.warn(
            f"mode with exponent {lams[i]} carries no signal on its window",
            SeparationWarning,
            stacklevel=2,
        )

    estimates = np.zeros(count)
    condition = math.nan
    if active.any():
        estimates[active], _, _, singular = np.linalg.lstsq(
            basis[:, active], values[start:], rcond=None
        )
        condition = float(singular[0] / singular[-1]) if singular[-1] else math.inf

    residual = values - design @ estimates
    return PeelResult(
        recovered=tuple((float(estimates[i]), lams[i]) for i in range(count)),
        residual_norm=float(np.max(np.abs(residual))),
        condition=condition,
        fallback_windows=fallback,
    )
