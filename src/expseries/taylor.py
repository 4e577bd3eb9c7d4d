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
        <= S0 / sqrt(2 pi (n+1)) * r^{n+1} / (1 - r) + T(t),   r = |t - tau| / tau.

``b_n`` and ``S0`` cover the explicit terms only. A series' ``TailModel``
enters once, as ``T(t) = sum_bound * exp(-lambda_floor * t)`` (the bound of
``series.evaluate``; 0 without a tail), since ``|c e^{-lambda t}| <= |c|
e^{-lambda_floor t}`` for every omitted term.
The 1/(1-r) factor is kept (rather than collapsing the geometric tail to its
first term) so the bound is rigorous, not merely an asymptotic rate.
Only magnitudes are accumulated, as ``|term| * lambda / (n+1)``, which is
``|term * (-lambda) / (n+1)|`` bit for bit, and ``b_n`` is ``(-1)^n`` times their
sum signed by ``alpha``. No factorial is formed, so orders beyond 170 do not overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numerics import BLOCK_ELEMENTS, _no_overflow, row_sums
from .series import DirichletSeries, SeriesValue, TailModel, _tail_error
from .series import _require_finite, _require_positive

_TWO_PI = 2.0 * math.pi
_MAX_ORDER = 10_000


@dataclass(frozen=True)
class TaylorExpansion:
    """Coefficients ``b_0..b_N`` around ``center`` with certified envelopes.

    ``coeffs``, ``coeff_bounds`` and ``sum_abs_alpha`` describe the explicit
    terms alone: ``coeff_bounds[n]`` is the magnitude sum that dominates
    ``|b_n|``, and ``sum_abs_alpha`` is their mass ``S0``. ``tail`` is the
    series' tail model, whose bound every certificate adds once.
    """

    center: float
    coeffs: tuple[float, ...]
    coeff_bounds: tuple[float, ...]
    sum_abs_alpha: float
    tail: TailModel | None

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


@np.errstate(over="ignore", invalid="ignore")
def expand(series: DirichletSeries, tau: float, order: int) -> TaylorExpansion:
    """Taylor coefficients of the sum around ``tau`` up to ``order``.

    Requires strictly positive exponents and ``tau > 0``. Each ``b_n`` and
    its magnitude sum ``sum_j |alpha_j e^{-lambda_j tau} lambda_j^n / n!|``
    are correctly rounded sums of the recurrence's term values: one
    ``_numerics.row_sums`` call gives both from a block of magnitude rows and
    the series' two ``weights`` columns, and ``S0`` is the ones column's sum
    of ``|alpha|``. The zeroth coefficient is ``evaluate(series, tau).value``.
    ``OverflowError`` is raised when a term or a sum overflows.
    """
    tau = _require_positive(tau, "tau")
    order = int(order)
    if order < 0:
        raise ValueError("order must be nonnegative")
    lams = series.lambdas
    if np.any(lams <= 0):
        raise ValueError("all exponents must be strictly positive")

    # One row_sums call sums a block of orders, so the whole table never exists.
    per_block = max(1, BLOCK_ELEMENTS // len(lams))
    block, absolute = np.empty((per_block, len(lams))), np.abs(series.alphas)
    term = np.multiply(absolute, np.exp(-lams * tau), out=block[0])
    coeffs, bounds = [], []
    for start in range(0, order + 1, per_block):
        rows = block[: min(per_block, order + 1 - start)]
        for n, row in enumerate(rows, start):
            if n:
                term = np.divide(np.multiply(term, lams, out=row), n, out=row)
        signed, magnitude = row_sums(rows, series.weights)
        for n, (b, row) in enumerate(zip(signed, rows), start):
            if n % 2:  # b_n is -b, but a zero takes fsum's sign rule on the row's own signs
                b = -b if b else math.fsum(np.copysign(row, -series.alphas).tolist())
            coeffs.append(b)
        bounds.extend(magnitude)
    s0 = row_sums(absolute[np.newaxis], series.weights[:, 1:])[0][0]
    return TaylorExpansion(
        center=tau,
        coeffs=tuple(coeffs),
        coeff_bounds=tuple(bounds),
        sum_abs_alpha=s0,
        tail=series.tail,
    )


def _radius_ratio(expansion: TaylorExpansion, t: float) -> float:
    t = _require_finite(t, "t")
    tau = expansion.center
    r = abs(t - tau) / tau
    if not (0.0 < t < 2.0 * tau and r < 1.0):  # r can round to 1 next to either end
        raise ValueError(f"t must lie in (0, 2*tau) = (0, {2.0 * tau}); got {t}")
    return r


def _remainder(s0: float, r: float, n: int, tail: float) -> float:
    # The module docstring's enclosure: the envelope beyond order n, plus T(t).
    return s0 / math.sqrt(_TWO_PI * (n + 1)) * r ** (n + 1) / (1.0 - r) + tail


def remainder_bound(expansion: TaylorExpansion, n: int, t: float) -> RemainderCertificate:
    """Certified bound on ``|phi(t) - sum_{j<=n} b_j (t-tau)^j|``.

    ``phi`` is the whole series, tail included: the bound is the envelope
    over the explicit mass plus the tail bound at ``t``. Valid for ``t`` in
    (0, 2*tau) and ``1 <= n <= expansion.order``; the n = 0 case is rejected
    because the factorial lower bound behind the envelope starts at n = 1. A
    bound that overflows raises ``OverflowError``.
    """
    n = int(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > expansion.order:
        raise ValueError(f"n={n} exceeds the expansion order {expansion.order}")
    r = _radius_ratio(expansion, t)
    bound = _remainder(expansion.sum_abs_alpha, r, n, _tail_error(expansion.tail, t))
    if bound == math.inf:  # a float compare: this runs once per order
        raise OverflowError("the remainder bound overflows a double")
    return RemainderCertificate(order=n, t=float(t), bound=bound)


def evaluate_via_expansion(expansion: TaylorExpansion, t: float) -> SeriesValue:
    """Horner evaluation of the expansion with its remainder certificate.

    The error bound is ``remainder_bound`` at the full order, so it covers
    the whole series, tail included.
    """
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
    summation error. A term or a partial sum that overflows raises ``OverflowError``.
    """
    t = _require_finite(t, "t")
    dt = t - expansion.center
    terms = []
    power = 1.0
    for b in expansion.coeffs:
        terms.append(b * power)
        power *= dt
    _no_overflow(terms, "a term of the partial sums")
    return np.array([math.fsum(terms[: n + 1]) for n in range(len(terms))])


def order_for_tolerance(expansion: TaylorExpansion, t: float, tol: float) -> int:
    """Smallest ``n >= 1`` whose certified bound at ``t`` is at most ``tol``.

    The bound is the one ``remainder_bound`` returns, bit for bit. Raises
    ``ValueError`` when the tail bound at ``t`` alone reaches ``tol``, which
    no order can undercut, and otherwise scans upward (the bounds are cheap)
    and raises when no order up to 10,000 suffices. The result may exceed
    the order the expansion was built with, in which case re-expand at the
    returned order.
    """
    tol = _require_positive(tol, "tol")
    r = _radius_ratio(expansion, t)
    tail = _tail_error(expansion.tail, t)
    if tail >= tol:
        raise ValueError(f"the tail bound {tail!r} at t={t!r} alone reaches tolerance {tol}")
    for n in range(1, _MAX_ORDER + 1):
        if _remainder(expansion.sum_abs_alpha, r, n, tail) <= tol:
            return n
    raise ValueError(f"no order up to {_MAX_ORDER} certifies tolerance {tol}")
