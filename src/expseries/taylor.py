"""Taylor re-expansion of exponential sums with explicit remainder certificates.

For ``phi(t) = sum_j alpha_j exp(-lambda_j t)`` with all ``lambda_j > 0`` the
function is analytic on (0, inf): around any center ``tau > 0``,

    phi(t) = sum_n b_n (t - tau)^n,
    b_n    = sum_j alpha_j e^{-lambda_j tau} (-lambda_j)^n / n!,

valid on ``(0, 2 tau)``. Termwise ``e^{-lambda tau} lambda^n <= (n/(e tau))^n``
and, with the factorial lower bound ``n! >= sqrt(2 pi n) (n/e)^n``, the
absolute coefficients obey the envelope

    a_n <= S0 / (tau^n sqrt(2 pi n)),   S0 = sum_j |alpha_j|.

Summing the geometric tail with the square-root factor frozen at its largest
value gives the fully explicit enclosure implemented here:

    |phi(t) - sum_{j<=n} b_j (t - tau)^j|
        <= S0 / sqrt(2 pi (n+1)) * r^{n+1} / (1 - r),   r = |t - tau| / tau.

The 1/(1-r) factor is kept (rather than collapsing the geometric tail to its
first term) so the bound is rigorous, not merely an asymptotic rate.
Coefficients are accumulated by the per-term update
``term <- term * (-lambda) / (n+1)``; no factorial is ever formed, so orders
beyond 170 do not overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numerics import BLOCK_ELEMENTS, row_sums
from .series import DirichletSeries, SeriesValue, _require_finite, _require_positive

_TWO_PI = 2.0 * math.pi
_MAX_ORDER = 10_000


@dataclass(frozen=True)
class TaylorExpansion:
    """Coefficients ``b_0..b_N`` around ``center`` with certified envelopes.

    ``coeff_bounds[n]`` dominates ``|b_n|`` including the contribution of any
    certified tail, and ``sum_abs_alpha`` is the total absolute-coefficient
    mass ``S0`` (explicit terms plus tail bound) that feeds the remainder
    certificate.
    """

    center: float
    coeffs: tuple[float, ...]
    coeff_bounds: tuple[float, ...]
    sum_abs_alpha: float

    def __post_init__(self) -> None:
        if self.center <= 0 or not math.isfinite(self.center):
            raise ValueError("center must be a positive finite real")
        if len(self.coeffs) != len(self.coeff_bounds) or not self.coeffs:
            raise ValueError("coeffs and coeff_bounds must be nonempty and equally long")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class RemainderCertificate:
    """Certified bound on the truncation error of a partial sum."""

    order: int
    t: float
    bound: float


def _tail_coefficient_bound(sum_bound: float, tau: float, n: int) -> float:
    # Tail contribution to a_n: sum_bound * (n/(e tau))^n / n!, stable in logs.
    if n == 0:
        return sum_bound
    log_term = n * (math.log(n) - 1.0 - math.log(tau)) - math.lgamma(n + 1)
    return sum_bound * math.exp(log_term)


def expand(series: DirichletSeries, tau: float, order: int) -> TaylorExpansion:
    """Taylor coefficients of the sum around ``tau`` up to ``order``.

    Requires strictly positive exponents (apply
    :func:`expseries.series.shift_normalize` first) and ``tau > 0``. Each
    ``b_n`` and its magnitude sum ``sum_j |alpha_j e^{-lambda_j tau}
    lambda_j^n / n!|`` are correctly rounded sums of the recurrence's term
    values, computed by ``_numerics.row_sums`` on blocks of rows, so the
    zeroth coefficient reproduces ``evaluate(series, tau).value`` exactly.
    """
    tau = _require_positive(tau, "tau")
    order = int(order)
    if order < 0:
        raise ValueError("order must be nonnegative")
    lams = series.lambdas
    if np.any(lams <= 0):
        raise ValueError("all exponents must be strictly positive; shift_normalize first")

    tail_sum = series.tail.sum_bound if series.tail is not None else 0.0
    neg_lams = -lams
    # Row 2i holds b_n's terms and row 2i+1 their magnitudes; one row_sums
    # call sums a block of such pairs, so the whole table never exists.
    pairs = max(1, BLOCK_ELEMENTS // (2 * len(lams)))
    block = np.empty((2 * pairs, len(lams)))
    term = series.alphas * np.exp(-lams * tau)
    coeffs, bounds = [], []
    for start in range(0, order + 1, pairs):
        stop = min(start + pairs, order + 1)
        for i, n in enumerate(range(start, stop)):
            if n:
                term = term * neg_lams / n
            block[2 * i] = term
            np.abs(term, out=block[2 * i + 1])
        sums = row_sums(block[: 2 * (stop - start)])
        coeffs.extend(sums[0::2])
        bounds.extend(
            mass + _tail_coefficient_bound(tail_sum, tau, n)
            for n, mass in zip(range(start, stop), sums[1::2])
        )
    return TaylorExpansion(
        center=tau,
        coeffs=tuple(coeffs),
        coeff_bounds=tuple(bounds),
        sum_abs_alpha=series.sum_abs_coefficients,
    )


def _radius_ratio(expansion: TaylorExpansion, t: float) -> float:
    t = _require_finite(t, "t")
    tau = expansion.center
    if not (0.0 < t < 2.0 * tau):
        raise ValueError(f"t must lie in (0, 2*tau) = (0, {2.0 * tau}); got {t}")
    return abs(t - tau) / tau


def _remainder(s0: float, r: float, n: int) -> float:
    # The module docstring's enclosure of the tail beyond order n.
    return s0 / math.sqrt(_TWO_PI * (n + 1)) * r ** (n + 1) / (1.0 - r)


def remainder_bound(expansion: TaylorExpansion, n: int, t: float) -> RemainderCertificate:
    """Certified bound on ``|phi(t) - sum_{j<=n} b_j (t-tau)^j``.

    Valid for ``t`` in (0, 2*tau) and ``1 <= n <= expansion.order``; the n = 0
    case is rejected because the factorial lower bound behind the envelope
    starts at n = 1.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > expansion.order:
        raise ValueError(f"n={n} exceeds the expansion order {expansion.order}")
    bound = _remainder(expansion.sum_abs_alpha, _radius_ratio(expansion, t), n)
    return RemainderCertificate(order=n, t=float(t), bound=bound)


def evaluate_via_expansion(expansion: TaylorExpansion, t: float) -> SeriesValue:
    """Horner evaluation of the expansion with its remainder certificate."""
    if expansion.order < 1:
        raise ValueError("expansion must have order >= 1 to certify a remainder")
    cert = remainder_bound(expansion, expansion.order, t)
    dt = float(t) - expansion.center
    acc = 0.0
    for b in reversed(expansion.coeffs):
        acc = acc * dt + b
    return SeriesValue(acc, cert.bound)


def partial_sums(expansion: TaylorExpansion, t: float) -> np.ndarray:
    """All partial sums ``sum_{j<=n} b_j (t-tau)^j`` for n = 0..order.

    Each partial sum is an error-free-transformation accumulation of the
    individual terms, so measured remainders are not polluted by naive
    summation error.
    """
    t = _require_finite(t, "t")
    dt = t - expansion.center
    terms = []
    power = 1.0
    for b in expansion.coeffs:
        terms.append(b * power)
        power *= dt
    return np.array([math.fsum(terms[: n + 1]) for n in range(len(terms))])


def order_for_tolerance(expansion: TaylorExpansion, t: float, tol: float) -> int:
    """Smallest ``n >= 1`` whose certified bound at ``t`` is at most ``tol``.

    Scans upward (the bounds are cheap) and raises ``ValueError`` when no
    order up to 10,000 suffices. The result may exceed the order the
    expansion was built with, in which case re-expand at the returned order.
    """
    tol = _require_positive(tol, "tol")
    r = _radius_ratio(expansion, t)
    for n in range(1, _MAX_ORDER + 1):
        if _remainder(expansion.sum_abs_alpha, r, n) <= tol:
            return n
    raise ValueError(f"no order up to {_MAX_ORDER} certifies tolerance {tol}")


def to_document(expansion: TaylorExpansion) -> dict:
    return {
        "center": expansion.center,
        "coeffs": list(expansion.coeffs),
        "bounds": list(expansion.coeff_bounds),
        "sumAbsAlpha": expansion.sum_abs_alpha,
    }
