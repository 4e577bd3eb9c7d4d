"""Finite exponential sums with certified tail bounds.

The central object is a finite list of terms ``(alpha_j, lambda_j)``
representing

    phi(t) = sum_j alpha_j * exp(-lambda_j * t),

optionally extended by a :class:`TailModel` certifying bounds on whatever was
truncated away. Every operation returns plain values plus, where meaningful,
a rigorous bound on the omitted tail contribution, so downstream consumers
(Taylor expansion, vanishing tests) stay fully certified.

Terms are stored as read-only arrays sorted by strictly increasing exponent;
duplicate exponents are rejected at construction.
Every sum over terms weighs a row of magnitudes, such as ``|alpha_j|
e^{-lambda_j t}``, by a column of the series' ``weights``: ``sign(alpha)`` for a
signed sum, 1 for a magnitude sum. ``_numerics.row_sums`` rounds each sum
correctly, returning what ``math.fsum`` returns, bit for bit, so the order in
which terms are added does not change them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from ._numerics import row_sums


def _require_finite(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")
    return value


def _require_positive(value: float, name: str) -> float:
    value = _require_finite(value, name)
    if value <= 0:
        raise ValueError(f"{name} must be positive")
    return value


@dataclass(frozen=True)
class TailModel:
    """Certified bounds for the truncated part of an exponential sum.

    ``sum_bound`` dominates the sum of absolute truncated coefficients, and
    ``lambda_floor`` is a positive lower bound on every truncated exponent.
    """

    sum_bound: float
    lambda_floor: float

    def __post_init__(self) -> None:
        sum_bound = _require_finite(self.sum_bound, "sum_bound")
        if sum_bound < 0:
            raise ValueError("sum_bound must be nonnegative")
        floor = _require_positive(self.lambda_floor, "lambda_floor")
        object.__setattr__(self, "sum_bound", sum_bound)
        object.__setattr__(self, "lambda_floor", floor)


@dataclass(frozen=True)
class SeriesValue:
    """A computed value together with a certified bound on what was omitted."""

    value: float
    error_bound: float

    def __post_init__(self) -> None:
        if self.error_bound < 0:
            raise ValueError("error_bound must be nonnegative")


@dataclass(frozen=True, init=False, eq=False)
class DirichletSeries:
    """A finite exponential sum ``sum_j alpha_j exp(-lambda_j t)``.

    ``alphas`` and ``lambdas`` are read-only arrays sorted by strictly
    increasing exponent; ``terms`` derives its float pairs from them, and
    ``weights`` its read-only ``(n, 2)`` columns ``sign(alpha)`` and 1. An
    optional ``tail`` certifies everything beyond the explicit terms.
    Instances are immutable and safe to share across threads; copies and
    pickles are rebuilt through the constructor.
    """

    alphas: np.ndarray
    lambdas: np.ndarray
    tail: TailModel | None

    def __init__(self, terms: Iterable[Sequence[float]], tail: TailModel | None = None) -> None:
        pairs = list(terms)
        if not pairs:
            raise ValueError("a series needs at least one term")
        if set(map(len, pairs)) != {2}:
            raise ValueError("every term must be a (coefficient, exponent) pair")
        flat = np.fromiter(chain.from_iterable(pairs), float, 2 * len(pairs))
        finite = np.isfinite(flat)
        if not finite.all():  # named after the first bad entry, in input order
            raise ValueError(f"{('coefficient', 'exponent')[finite.argmin() % 2]} must be finite")
        order = np.argsort(flat[1::2], kind="stable")
        alphas, lambdas = flat[0::2][order], flat[1::2][order]
        alphas.flags.writeable = lambdas.flags.writeable = False
        repeated = lambdas[1:] == lambdas[:-1]
        if repeated.any():
            raise ValueError(f"duplicate exponent {lambdas[repeated.argmax()].item()!r}")
        if tail is not None and not isinstance(tail, TailModel):
            raise TypeError("tail must be a TailModel or None")
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "lambdas", lambdas)
        object.__setattr__(self, "tail", tail)

    def __len__(self) -> int:
        return len(self.lambdas)

    def __reduce__(self):
        return DirichletSeries, (self.terms, self.tail)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirichletSeries):
            return NotImplemented
        return (self.terms, self.tail) == (other.terms, other.tail)

    def __hash__(self) -> int:
        return hash((self.terms, self.tail))

    @cached_property
    def terms(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.alphas.tolist(), self.lambdas.tolist()))

    @cached_property
    def weights(self) -> np.ndarray:
        weights = np.array((np.copysign(1.0, self.alphas), np.ones(len(self)))).T
        weights.flags.writeable = False
        return weights


@np.errstate(over="ignore", invalid="ignore")
def evaluate(series: DirichletSeries, t: float) -> SeriesValue:
    """Evaluate the sum at ``t`` with a certified bound for the omitted tail.

    The explicit terms' sum is correctly rounded. When a tail is present the
    result carries ``tail.sum_bound * exp(-tail.lambda_floor * t)`` as error
    bound, which is only certified for ``t >= 0``; negative ``t`` is
    therefore rejected for tailed series (and allowed otherwise, e.g. for
    negative exponents). A zero coefficient's term is 0, and a term or sum
    that overflows raises ``OverflowError``.
    """
    t = _require_finite(t, "t")
    if series.tail is not None and t < 0:
        raise ValueError("t < 0 with certified tail (tail bound holds for t >= 0 only)")
    magnitudes = np.abs(series.alphas) * np.exp(-series.lambdas * t)
    if min(t * series.lambdas[0], t * series.lambdas[-1]) < 0:  # an exponent > 0: 0 * inf is NaN
        magnitudes[series.alphas == 0] = 0.0
    value = row_sums(magnitudes[np.newaxis], series.weights[:, :1])[0][0]
    return SeriesValue(value, _tail_error(series.tail, t))


def _tail_error(tail: TailModel | None, t: float) -> float:
    """The certified bound on the tail's contribution at ``t >= 0``."""
    if tail is None:
        return 0.0
    return tail.sum_bound * math.exp(-tail.lambda_floor * t)

