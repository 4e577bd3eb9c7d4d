"""Small shared numerical helpers."""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

# Below this |rate * t| the three-term series is exact to rounding (the next term
# is x**3 / 24 < 2**-55); above it expm1 keeps every digit of e**x - 1.
_SERIES_SWITCH = 2.0**-17


def exp_integral(rates: np.ndarray, times: np.ndarray | float) -> np.ndarray:
    """Integral of exp(rate*s) over s in [0, t], broadcast over ``rates`` and ``times``.

    With ``x = rate * t`` it is ``t (1 + x/2 + x**2/6)`` where ``|x| < 2**-17``,
    which gives the rate -> 0 limit ``t``, and ``expm1(x) / rate`` elsewhere. A
    value past the double range is ``inf``; callers silence numpy's warning and raise.
    """
    rates, times = np.asarray(rates, dtype=float), np.asarray(times, dtype=float)
    x = rates * times
    series = np.abs(x) < _SERIES_SWITCH
    closed = np.expm1(x) / np.where(series, 1.0, rates)
    return np.where(series, times * (1.0 + 0.5 * x + x * x / 6.0), closed)


# Callers that sum many rows hand row_sums blocks of about this many elements,
# so that a long table never sits in memory whole (128 KB per block).
BLOCK_ELEMENTS = 16_384


def _no_overflow(values, what: str):
    """``values`` (a float or an array) when every one is finite, else ``OverflowError``."""
    if not (math.isfinite(values) if isinstance(values, float) else np.isfinite(values).all()):
        raise OverflowError(f"{what} overflows a double")
    return values


def sum_slack(magnitude_sums: np.ndarray, n: int) -> np.ndarray:
    """Bounds on the error of any float sum of ``n`` numbers, from float sums of their magnitudes.

    Each is ``2**(M - 51)``, ``2**M >= 2n``, times the magnitude sum, rounded up, above
    ``gamma_{n-1}`` times the exact one (Higham, "Accuracy and Stability...", 2nd ed., 4.2).
    """
    return np.nextafter(np.ldexp(magnitude_sums, (2 * n - 1).bit_length() - 51), math.inf)


def row_sums(magnitudes: np.ndarray, weights: np.ndarray) -> list[list[float]]:
    """The sums of each row weighted by each column of ``weights``, one list per column.

    ``magnitudes`` is nonnegative and ``(rows, n)``; ``weights`` is ``(n, k)`` of +-1.
    Each sum is ``math.fsum`` of ``magnitudes[r] * weights[:, c]``, bit for bit, errors
    included and raised in row-then-column order. With ``sigma = 2**(e + M)``,
    ``max m < 2**e`` and ``2**M >= 2n``, the high parts ``(sigma + m) - sigma`` are
    nonnegative multiples of ``2**(e + M - 52)`` summing below ``2**(e + M)``, so one
    matrix product sums them exactly under every column (Rump, Ogita and Oishi, SIAM
    J. Sci. Comput. 2008). Their exact rests share the ``sum_slack`` of their
    magnitudes, which settles a sum that rounds alike with it added and subtracted
    (rounding is monotone); ``math.fsum`` adds an unsettled rest, and whole rows that are
    all zero or where ``sigma`` is not normal; a row that is not finite raises ``OverflowError``.
    """
    magnitudes = np.asarray(magnitudes, dtype=float)
    rows, n = magnitudes.shape
    sums = [[None] * rows for _ in range(weights.shape[1])]
    largest = magnitudes.max(axis=1, initial=0.0)  # an empty row is all zero
    exponent = np.frexp(largest)[1] + (2 * n - 1).bit_length()  # + M
    ok = np.isfinite(largest) & (largest > 0) & (exponent >= -1022) & (exponent <= 1023)
    live = np.flatnonzero(ok)
    for r in np.flatnonzero(~ok).tolist():
        _no_overflow(largest[r], "a term")
        for column, out in enumerate(sums):
            out[r] = math.fsum((magnitudes[r] * weights[:, column]).tolist())
    if len(live) < rows:
        magnitudes, exponent = magnitudes[live], exponent[live]
    sigma = np.ldexp(1.0, exponent)[:, None]
    high = sigma + magnitudes
    high -= sigma
    rest = magnitudes - high
    taus, naive = (high @ weights).T.tolist(), (rest @ weights).T.tolist()
    slack = sum_slack(np.abs(rest).sum(axis=1), n).tolist()
    # A live row's magnitudes sum below 2**1023, so none of its sums raises.
    for column, (out, column_taus, column_naive) in enumerate(zip(sums, taus, naive)):
        for i, (r, tau, g, s) in enumerate(zip(live.tolist(), column_taus, column_naive, slack)):
            out[r] = math.fsum((tau, g, -s))
            if out[r] != math.fsum((tau, g, s)):
                out[r] = math.fsum([tau, *(rest[i] * weights[:, column]).tolist()])
    return sums


_GL_TOL = 1e-10
_GL_MAX_DEPTH = 48
# A rough integrand (noise, thousands of jumps) would split nearly every panel
# many times over; a step that needs more panels than this raises instead.
_GL_MAX_PANELS = 1000


@functools.cache
def _gauss_legendre_16() -> tuple[np.ndarray, np.ndarray]:
    # Built on first use: importing numpy.polynomial slows every CLI start.
    return np.polynomial.legendre.leggauss(16)


def _gl_panels(f, width: int, los, his, steps) -> np.ndarray:
    """The 16-node rule on each panel [lo, hi] of step ``steps``, one row each.

    A call of ``f`` gets as many panels as keep it within ``BLOCK_ELEMENTS``
    node values times ``width``, and at least one.
    """
    nodes, weights = _gauss_legendre_16()
    mids, halves = 0.5 * (los + his), 0.5 * (his - los)
    per_call = max(1, BLOCK_ELEMENTS // (16 * width))
    out = np.empty((len(los), width))
    for block in (slice(i, i + per_call) for i in range(0, len(los), per_call)):
        s = (mids[block, None] + halves[block, None] * nodes).ravel()
        values = f(s, np.repeat(steps[block], 16)).reshape(-1, 16, width)
        if not np.all(np.isfinite(values)):
            raise ValueError("control values must be finite")
        out[block] = halves[block, None] * (weights @ values)
    return out


def adaptive_gauss_legendre(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray], times: np.ndarray, width: int
) -> np.ndarray:
    """Adaptive Gauss-Legendre quadrature (16-node panels) on every step of a grid.

    ``f(s, k)`` maps nodes ``s`` and their step indices ``k`` (step k is
    ``[times[k], times[k+1]]``) to ``width`` integrand columns; one row of
    integrals per step is returned. The first call of ``f`` covers every
    step's whole panel. Each later round halves every pending panel of every
    step together, in calls of bounded size. A panel is accepted when its
    value agrees with the sum of its halves to within 1e-10 in every
    component, and a step's accepted panels add in interval order.
    ``ValueError`` is raised when a value is not finite, when a panel is still
    rejected after 48 halvings, and when a step would evaluate more than 1000
    panels; the last two name the step's interval and the limit that ran out.
    """
    bounds, count = times.tolist(), len(times) - 1
    wholes = _gl_panels(f, width, times[:-1], times[1:], np.arange(count))
    panels, accepted = np.ones(count, dtype=int), [{} for _ in range(count)]
    # The panels still to test, (step, lo, hi, value), in step then interval order.
    pending = [(k, bounds[k], bounds[k + 1], whole) for k, whole in enumerate(wholes)]
    for _ in range(_GL_MAX_DEPTH + 1):
        ks, los, his, olds = zip(*pending)
        panels += 2 * np.bincount(ks, minlength=count)
        if panels.max() > _GL_MAX_PANELS:
            k, limit = panels.argmax(), f"needs more than {_GL_MAX_PANELS} panels"
            break
        cuts = np.stack((los, 0.5 * (np.array(los) + his), his), axis=1)
        halves = _gl_panels(f, width, cuts[:, :2].ravel(), cuts[:, 1:].ravel(), np.repeat(ks, 2))
        sums = halves[0::2] + halves[1::2]
        errors = np.max(np.abs(sums - np.array(olds)), axis=1)
        pending = []
        for k, (lo, mid, hi), left, right, total, error in zip(
            ks, cuts.tolist(), halves[0::2], halves[1::2], sums, errors
        ):
            if error > _GL_TOL:
                pending += [(k, lo, mid, left), (k, mid, hi, right)]
            else:
                accepted[k][lo] = total
        if not pending:
            return np.array([sum(v for _, v in sorted(step.items())) for step in accepted])
    else:  # a panel was still rejected at the depth limit
        k, limit = pending[0][0], f"missed tolerance {_GL_TOL} after {_GL_MAX_DEPTH} halvings"
    raise ValueError(f"quadrature on [{bounds[k]!r}, {bounds[k + 1]!r}] {limit}")
