"""Small shared numerical helpers."""

from __future__ import annotations

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
    component. Non-finite integrand values raise ``ValueError``. A panel
    still rejected after 48 halvings is accepted with a ``RuntimeWarning``
    that names its interval. A call evaluates at most 1000 panels; once they
    are spent, the panels not yet split are accepted as they are and one
    ``RuntimeWarning`` names ``[a, b]`` and the panel count.
    """
    panels = 1
    exhausted = False

    def recurse(lo: float, hi: float, whole: np.ndarray, depth: int) -> np.ndarray:
        nonlocal panels, exhausted
        if panels + 2 > _GL_MAX_PANELS:
            exhausted = True
            return whole
        panels += 2
        mid = 0.5 * (lo + hi)
        left = _gl_panel(f, lo, mid)
        right = _gl_panel(f, mid, hi)
        if np.max(np.abs(left + right - whole)) <= _GL_TOL:
            return left + right
        if depth >= _GL_MAX_DEPTH:
            warnings.warn(
                f"quadrature on [{lo!r}, {hi!r}] missed tolerance {_GL_TOL} "
                f"after {_GL_MAX_DEPTH} halvings",
                RuntimeWarning,
            )
            return left + right
        return recurse(lo, mid, left, depth + 1) + recurse(mid, hi, right, depth + 1)

    total = recurse(a, b, _gl_panel(f, a, b), 0)
    if exhausted:
        warnings.warn(
            f"quadrature on [{a!r}, {b!r}] missed tolerance {_GL_TOL} "
            f"when its budget ran out after {panels} panels",
            RuntimeWarning,
        )
    return total
