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
Sums over terms are correctly rounded by ``_numerics.row_sums``, which
returns what ``math.fsum`` returns, bit for bit, so the order in which terms
are added does not change them.
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

    ``sum_bound`` dominates the sum of absolute truncated coefficients,
    ``lambda_floor`` is a positive lower bound on every truncated exponent,
    and ``weighted_bounds`` optionally stores extra certified bounds on
    ``sum_j |alpha_j| / lambda_j**k`` for selected integers ``k``.
    """

    sum_bound: float
    lambda_floor: float
    weighted_bounds: tuple[tuple[int, float], ...] = ()

    def __post_init__(self) -> None:
        sum_bound = _require_finite(self.sum_bound, "sum_bound")
        if sum_bound < 0:
            raise ValueError("sum_bound must be nonnegative")
        floor = _require_positive(self.lambda_floor, "lambda_floor")
        merged: dict[int, float] = {0: sum_bound}
        for key, bound in dict(self.weighted_bounds).items():
            k = int(key)
            if k < 0:
                raise ValueError("weighted bound orders must be nonnegative")
            bound = _require_finite(bound, f"weighted bound for k={k}")
            if bound < 0:
                raise ValueError("weighted bounds must be nonnegative")
            if k == 0 and bound != sum_bound:
                raise ValueError("weighted bound at k=0 must equal sum_bound")
            merged[k] = bound
        object.__setattr__(self, "sum_bound", sum_bound)
        object.__setattr__(self, "lambda_floor", floor)
        object.__setattr__(self, "weighted_bounds", tuple(sorted(merged.items())))

    def weighted_sum_bound(self, k: int) -> float:
        """Certified bound on the tail sum of ``|alpha_j| / lambda_j**k``.

        Derived as the best of ``W(k') / lambda_floor**(k - k')`` over stored
        orders ``k' <= k``; valid because every tail exponent is at least
        ``lambda_floor``.
        """
        k = int(k)
        if k < 0:
            raise ValueError("k must be nonnegative")
        candidates = [
            bound / self.lambda_floor ** (k - kk)
            for kk, bound in self.weighted_bounds
            if kk <= k
        ]
        return min(candidates)


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
    increasing exponent, and ``terms`` derives its float pairs from them; an
    optional ``tail`` certifies everything beyond the explicit terms.
    Instances are immutable and safe to share across threads.
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
    def sum_abs_coefficients(self) -> float:
        """``sum_j |alpha_j|`` over explicit terms plus the certified tail sum."""
        total = row_sums(np.abs(self.alphas)[np.newaxis])[0]
        if self.tail is not None:
            total += self.tail.sum_bound
        return total


def evaluate(series: DirichletSeries, t: float) -> SeriesValue:
    """Evaluate the sum at ``t`` with a certified bound for the omitted tail.

    The explicit terms' sum is correctly rounded. When a tail is present the
    result carries ``tail.sum_bound * exp(-tail.lambda_floor * t)`` as error
    bound, which is only certified for ``t >= 0``; negative ``t`` is
    therefore rejected for tailed series (and allowed otherwise, e.g. for
    negative exponents).
    """
    t = _require_finite(t, "t")
    if series.tail is not None and t < 0:
        raise ValueError("t < 0 with certified tail (tail bound holds for t >= 0 only)")
    value = row_sums((series.alphas * np.exp(-series.lambdas * t))[np.newaxis])[0]
    return SeriesValue(value, _tail_error(series.tail, t))


def _tail_error(tail: TailModel | None, t: float) -> float:
    """The certified bound on the tail's contribution at ``t >= 0``."""
    if tail is None:
        return 0.0
    return tail.sum_bound * math.exp(-tail.lambda_floor * t)


def shift_normalize(series: DirichletSeries) -> tuple[DirichletSeries, float]:
    """Shift exponents so the smallest becomes 1; returns ``(shifted, shift)``.

    The identity ``phi(t) = exp(-shift * t) * shifted(t)`` holds for all t,
    with ``shift = lambda_min - 1``. Targeting 1 (not 0) keeps later
    divisions by exponents well conditioned.
    """
    lam_min, lam_max = series.lambdas[[0, -1]].tolist()
    shift = lam_min - 1.0
    # (lam - lam_min) + 1 rather than lam - shift: the smallest exponent maps
    # to exactly 1.0 and none can round below it.
    new_lambdas = (series.lambdas - lam_min) + 1.0
    tail = series.tail
    if tail is not None:
        # Tail exponents follow the explicit ones in an increasing sequence,
        # so max(explicit lambda) is also a certified tail floor.
        floor = (max(tail.lambda_floor, lam_max) - lam_min) + 1.0
        if shift <= 0:
            # Exponents grow under the shift, so stored weighted bounds stay valid.
            weighted = {k: b for k, b in tail.weighted_bounds if k > 0}
        else:
            weighted = {}
        tail = TailModel(tail.sum_bound, floor, tuple(weighted.items()))
    return DirichletSeries(zip(series.alphas.tolist(), new_lambdas.tolist()), tail), shift


def antiderivative_reduce(series: DirichletSeries, k: int) -> DirichletSeries:
    """Divide every coefficient by its exponent ``k`` times.

    Requires strictly positive exponents (apply :func:`shift_normalize`
    first). The k-th derivative of the result equals ``(-1)**k`` times the
    original sum: each term ``(alpha/lambda**k) e^{-lambda t}`` differentiates
    back to ``alpha (-1)**k e^{-lambda t}``. Division is applied one factor at
    a time so that reducing by ``j`` then ``k`` reproduces the reduction by
    ``j + k`` bit for bit.
    """
    k = int(k)
    if k < 0:
        raise ValueError("k must be nonnegative")
    lams = series.lambdas
    if np.any(lams <= 0):
        raise ValueError("all exponents must be strictly positive; shift_normalize first")
    coeffs = series.alphas
    for _ in range(k):
        coeffs = coeffs / lams
    tail = series.tail
    if tail is not None:
        new_sum = tail.weighted_sum_bound(k)
        weighted = {kk - k: bound for kk, bound in tail.weighted_bounds if kk >= k}
        weighted[0] = new_sum
        tail = TailModel(new_sum, tail.lambda_floor, tuple(weighted.items()))
    return DirichletSeries(zip(coeffs.tolist(), lams.tolist()), tail)
