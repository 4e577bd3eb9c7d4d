"""Small shared numerical helpers."""

from __future__ import annotations

import heapq
import math
import warnings
from typing import Callable

import numpy as np

# Below this rate the closed form (e^{rt}-1)/r loses digits to cancellation.
_RATE_SWITCH = 1e-12


def exp_integral(rate: float, t: float) -> float:
    """Integral of exp(rate*s) over s in [0, t].

    Uses the three-term series for tiny rates so the rate -> 0 limit (= t)
    is reproduced without cancellation.
    """
    x = rate * t
    if abs(rate) < _RATE_SWITCH:
        return t * (1.0 + 0.5 * x + x * x / 6.0)
    return math.expm1(x) / rate


def exp_integral_grid(rates: np.ndarray, times: np.ndarray) -> np.ndarray:
    """``exp_integral`` broadcast over a time grid (rows) and rates (columns)."""
    rates = np.asarray(rates, dtype=float)
    times = np.asarray(times, dtype=float)
    x = np.multiply.outer(times, rates)
    small = np.abs(rates) < _RATE_SWITCH
    safe = np.where(small, 1.0, rates)
    closed = np.expm1(x) / safe
    series = times[:, None] * (1.0 + 0.5 * x + x * x / 6.0)
    return np.where(small[None, :], series, closed)


# Callers that sum many rows hand row_sums blocks of about this many elements,
# so that a long table never sits in memory whole (128 KB per block).
BLOCK_ELEMENTS = 16_384
# Extraction passes before an undecided row is summed by math.fsum.
_ROW_SUM_PASSES = 4


def _extract_vector(rest: np.ndarray, exponent: np.ndarray) -> list[float]:
    """One error-free pass with ``sigma = 2**exponent`` per row.

    Returns the exact sum of each row's high part and leaves the rest in
    ``rest``.
    """
    sigma = np.ldexp(1.0, exponent)[:, None]
    high = sigma + rest
    high -= sigma
    rest -= high
    return high.sum(axis=1).tolist()


def row_sums(table: np.ndarray) -> list[float]:
    """The correctly rounded sum of each row of a 2-D float array.

    Each result equals ``math.fsum(row.tolist())`` bit for bit. Every pass
    splits the whole block error-free (Rump, Ogita and Oishi, "Accurate
    floating-point summation, part I", SIAM J. Sci. Comput. 2008): with
    ``sigma = 2**(e + M)``, ``max|p| < 2**e`` and ``2**M >= 2n``, the high
    parts ``q = (sigma + p) - sigma`` sum exactly to ``tau`` and
    ``p - q`` is the exact rest. A row is decided once ``tau_1 + ... + tau_k``
    rounds to the same float with the rest's bound ``B >= sum|p|`` added and
    subtracted, which suffices because correct rounding is monotone. Rows that
    are not finite, all zero, or out of the exponent range where ``sigma`` is a
    normal float, and rows still undecided after the last pass, are summed by
    ``math.fsum`` itself, so its signed zeros, ``OverflowError`` and inf/NaN
    behaviour carry over.
    """
    table = np.asarray(table, dtype=float)
    rows, n = table.shape
    if n == 0:
        return [math.fsum(())] * rows
    extra = (2 * n - 1).bit_length()  # M, the smallest with 2**M >= 2n
    sums: list = [None] * rows
    taus: list[list[float]] = [[] for _ in range(rows)]
    fallback = []
    live = np.arange(rows)
    rest = table.copy()
    largest = np.max(np.abs(rest), axis=1)
    for _ in range(_ROW_SUM_PASSES):
        if not len(live):
            break
        exponent = np.frexp(largest)[1] + extra
        ok = np.isfinite(largest) & (largest > 0) & (exponent >= -1022) & (exponent <= 1023)
        if not ok.all():
            fallback.extend(zip(live[~ok].tolist(), rest[~ok]))
            live, rest, exponent = live[ok], rest[ok], exponent[ok]
        new_taus = _extract_vector(rest, exponent)
        largest = np.max(np.abs(rest), axis=1)
        spans = np.ldexp(largest, extra).tolist()
        undecided = []
        for i, (r, tau, span) in enumerate(zip(live.tolist(), new_taus, spans)):
            parts = taus[r]
            parts.append(tau)
            total = math.fsum(parts)
            if math.fsum(parts + [span]) == total == math.fsum(parts + [-span]):
                sums[r] = total
            else:
                undecided.append(i)
        live, rest, largest = live[undecided], rest[undecided], largest[undecided]
    fallback.extend(zip(live.tolist(), rest))
    for r, row in fallback:
        sums[r] = math.fsum(taus[r] + row.tolist())
    return sums


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL_TOL = 1e-10
_GL_MAX_DEPTH = 48
# Without a budget, a rough integrand (noise, thousands of jumps) would split
# nearly every panel many times over.
_GL_MAX_PANELS = 1000


def _gl_panel(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> np.ndarray:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    values = f(mid + half * _GL_NODES)
    if not np.all(np.isfinite(values)):
        raise ValueError("control values must be finite")
    return half * (_GL_WEIGHTS @ values)


def adaptive_gauss_legendre(
    f: Callable[[np.ndarray], np.ndarray], a: float, b: float
) -> np.ndarray:
    """Adaptive panel-splitting Gauss-Legendre quadrature (16-node panels).

    ``f`` maps the 16 nodes of a panel to an array whose first axis runs over
    the nodes; the trailing axes are integrated together, so one call per
    panel serves a vector of integrands. A panel is accepted when its value
    agrees with the sum of its two halves to within 1e-10 in every
    component; otherwise both halves are tested in turn, those of the panel
    with the largest error first. Non-finite integrand values raise
    ``ValueError``. A panel still rejected after 48 halvings is accepted with
    a ``RuntimeWarning`` that names its interval. A call evaluates at most
    1000 panels; once they are spent, the halves not yet tested are accepted
    as they are and one ``RuntimeWarning`` names ``[a, b]`` and the panel
    count. The accepted panels are added in interval order.
    """
    panels = 1
    accepted = []
    # Panels still to test, keyed by the error of the panel they halve.
    pending = [(0.0, a, b, _gl_panel(f, a, b), 0)]
    while pending:
        _, lo, hi, whole, depth = heapq.heappop(pending)
        if panels + 2 > _GL_MAX_PANELS:
            accepted.append((lo, whole))
            accepted.extend((entry[1], entry[3]) for entry in pending)
            warnings.warn(
                f"quadrature on [{a!r}, {b!r}] missed tolerance {_GL_TOL} "
                f"when its budget ran out after {panels} panels",
                RuntimeWarning,
            )
            break
        panels += 2
        mid = 0.5 * (lo + hi)
        left = _gl_panel(f, lo, mid)
        right = _gl_panel(f, mid, hi)
        error = np.max(np.abs(left + right - whole))
        if error <= _GL_TOL:
            accepted.append((lo, left + right))
        elif depth >= _GL_MAX_DEPTH:
            warnings.warn(
                f"quadrature on [{lo!r}, {hi!r}] missed tolerance {_GL_TOL} "
                f"after {_GL_MAX_DEPTH} halvings",
                RuntimeWarning,
            )
            accepted.append((lo, left + right))
        else:
            heapq.heappush(pending, (-error, lo, mid, left, depth + 1))
            heapq.heappush(pending, (-error, mid, hi, right, depth + 1))
    accepted.sort(key=lambda panel: panel[0])
    return sum(value for _, value in accepted)
