"""Dirichlet-Laplacian spectrum on (0, 1) and actuator overlap analysis.

Eigenpairs: ``phi_j(x) = sqrt(2) sin(j pi x)`` with eigenvalue
``mu_j = -(j pi)^2`` (decay exponent ``lambda_j = (j pi)^2``). An interval
actuator ``omega = (a, b)`` couples to mode j through the overlap

    beta_j = integral over omega of phi_j = sqrt(2) (cos(j pi a) - cos(j pi b)) / (j pi)
           = 2 sqrt(2) sin(j pi (a + b)/2) sin(j pi (b - a)/2) / (j pi),

which vanishes exactly when ``j (b - a)`` or ``j (a + b)`` is an even
integer. With exact endpoints (:class:`expseries.exact.ExactReal`) that
condition is decidable with no tolerance, which yields the exact blocked set

    I = { j : beta_j = 0 }

and the controllability verdict. A lumped (time-only) control reaches every
mode iff I is empty (:func:`blocked_set`), iff both ``b - a`` and ``a + b``
are irrational. For rational ``b -+ a = p/q`` in lowest terms the blocked set
is an exact residue class: j = 0 (mod q) when p is even, j = 0 (mod 2q) when
p is odd. A distributed (space-and-time) control reaches every mode of any
interval (:func:`distributed_controllability`), its term on phi_k feeding mode
j through the mass matrix ``M_jk = integral over omega of phi_j phi_k``. Each
sine in beta_j and M has its argument reduced exactly (:func:`_reduced_sine`):
narrow actuators keep their relative accuracy, and blocked modes get 0.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .exact import _SCALE_BITS, _SCALED_CONSTANTS, ExactReal

_SQRT2 = math.sqrt(2.0)

VERDICT_CONTROLLABLE = "controllable"
VERDICT_NOT_CONTROLLABLE = "not-controllable"


def _check_mode(j: int) -> int:
    j = int(j)
    if j < 1:
        raise ValueError("mode index must be a positive integer")
    return j


def eigenvalue(j: int) -> float:
    """mu_j = -(j pi)^2, strictly decreasing in j."""
    return -((_check_mode(j) * math.pi) ** 2)


def decay_exponent(j: int) -> float:
    """lambda_j = (j pi)^2, strictly increasing and positive."""
    return (_check_mode(j) * math.pi) ** 2


@dataclass(frozen=True)
class Actuator:
    """An interval omega = (a, b) in [0, 1] with exact endpoints; no control class."""

    a: ExactReal
    b: ExactReal

    def __post_init__(self) -> None:
        if not isinstance(self.a, ExactReal) or not isinstance(self.b, ExactReal):
            raise TypeError("endpoints must be ExactReal values")
        if not (ExactReal(0) <= self.a < self.b <= 1):
            raise ValueError(f"need 0 <= a < b <= 1, got a={self.a}, b={self.b}")

    @classmethod
    def from_strings(cls, a: str, b: str) -> "Actuator":
        return cls(ExactReal.parse(a), ExactReal.parse(b))

    def describe(self) -> str:
        return f"omega=({self.a}, {self.b})"

    @cached_property
    def a_plus_b(self) -> ExactReal:
        return self.a + self.b

    @cached_property
    def b_minus_a(self) -> ExactReal:
        return self.b - self.a

    @cached_property
    def blocked_moduli(self) -> tuple[int, ...]:
        """The coarsest moduli m with beta_j = 0 iff some m divides j (see the module docstring)."""
        moduli = set()
        for combination in (self.b_minus_a, self.a_plus_b):
            if combination.is_rational:
                p, q = combination.rat.numerator, combination.rat.denominator
                moduli.add(q if p % 2 == 0 else 2 * q)
        # Drop residue classes already contained in a coarser one.
        reduced: list[int] = []
        for m in sorted(moduli):
            if not any(m % kept == 0 for kept in reduced):
                reduced.append(m)
        return tuple(reduced)


def _blocked(j: int, moduli: tuple[int, ...]) -> bool:
    """The residue rule: j is blocked iff some modulus divides it."""
    return any(j % m == 0 for m in moduli)


def _reduced_sine(x: ExactReal, m: int, k: int = 0) -> tuple[float, float]:
    """``sin(pi y)`` and ``y`` for ``y = (m x + k) / 2``, split as ``n + d`` (n the
    nearest integer) in integers, with d one correctly rounded division, so
    ``sin(pi y) = (-1)^n sin(pi d)``. A tagged x reads its constant as
    ``floor(xi 2**256) / 2**256``; an integer y gives ``d = 0.0`` exactly."""
    p, q = x.rat.numerator, x.rat.denominator
    num, den = m * p + k * q, 2 * q
    if x.tag is not None:
        r, s = x.irr.numerator, x.irr.denominator
        num = (num * s << _SCALE_BITS) + m * r * q * _SCALED_CONSTANTS[x.tag]
        den = den * s << _SCALE_BITS
    n = (2 * num + den) // (2 * den)
    d = (num - n * den) / den
    sine = math.sin(math.pi * d)
    return (-sine if n % 2 else sine), n + d


def coupling_coefficient(actuator: Actuator, j: int) -> float:
    """beta_j = integral of phi_j over omega in product form (module docstring),
    to a few ulps relative. A blocked mode has an exact ``sin(0)`` factor and
    gets +0.0; so does an unblocked overlap that underflows, which only
    :attr:`Actuator.blocked_moduli` tells apart."""
    j = _check_mode(j)
    sin_sum, _ = _reduced_sine(actuator.a_plus_b, j)
    sin_width, _ = _reduced_sine(actuator.b_minus_a, j)
    # `or 0.0` turns the -0.0 of a blocked mode into +0.0.
    return 2.0 * _SQRT2 * sin_sum * sin_width / (j * math.pi) or 0.0


def mass_matrix(actuator: Actuator, rows: int, cols: int) -> list[list[float]]:
    """M_jk = integral of phi_j phi_k over omega for j <= rows, k <= cols, in
    product forms free of cancellation: ``M_jk = C(j - k) - C(j + k)`` with
    ``C(m) = integral of cos(m pi x) over omega = 2 cos(m pi (a + b)/2)
    sin(m pi (b - a)/2) / (m pi)`` off the diagonal, and on it ``gamma_j =
    ((h - sin h) + 2 sin^2(c/2) sin h) / (j pi) > 0`` with ``h = j pi (b - a)``,
    ``c = j pi (a + b)`` and eight Taylor terms of ``h - sin h`` below 1/2.
    Every sine, and h, comes from :func:`_reduced_sine`."""
    width, ends = actuator.b_minus_a, actuator.a_plus_b
    cos_integral = [0.0] + [
        2.0 * _reduced_sine(ends, m, 1)[0] * _reduced_sine(width, m)[0] / (m * math.pi)
        for m in range(1, rows + cols + 1)
    ]

    def entry(j: int, k: int) -> float:
        if j != k:
            return cos_integral[abs(j - k)] - cos_integral[j + k]
        sin_h, turns = _reduced_sine(width, 2 * j)
        h = math.pi * turns
        rest = h - sin_h if h >= 0.5 else math.fsum(
            (-1) ** (n + 1) * h ** (2 * n + 1) / math.factorial(2 * n + 1) for n in range(1, 9)
        )
        return (rest + 2.0 * _reduced_sine(ends, j)[0] ** 2 * sin_h) / (j * math.pi)

    return [[entry(j, k) for k in range(1, cols + 1)] for j in range(1, rows + 1)]


@dataclass(frozen=True)
class ControllabilityReport:
    """Verdict plus an exact description of the blocked mode set I.

    ``moduli`` are :attr:`Actuator.blocked_moduli`: j is blocked iff some
    modulus divides j. The characterization is complete for every j (not
    only the enumerated prefix): rational endpoint combinations block exact
    residue classes and irrational ones block nothing.
    """

    verdict: str
    blocked_prefix: tuple[int, ...]
    moduli: tuple[int, ...]
    j_max: int
    subspace: str

    def is_blocked(self, j: int) -> bool:
        return _blocked(_check_mode(j), self.moduli)


def _report(moduli: tuple[int, ...], j_max: int) -> ControllabilityReport:
    """The report of the blocked set ``j % m == 0`` for some ``m`` in ``moduli``, to ``j_max``."""
    j_max = int(j_max)
    if j_max < 1:
        raise ValueError("j_max must be at least 1")
    prefix = tuple(sorted({j for m in moduli for j in range(m, j_max + 1, m)}))
    if moduli:
        verdict = VERDICT_NOT_CONTROLLABLE
        subspace = "span{phi_j : " + " and ".join(f"j % {m} != 0" for m in moduli) + "}"
    else:
        verdict = VERDICT_CONTROLLABLE
        subspace = "all modes (V = H)"
    return ControllabilityReport(
        verdict=verdict, blocked_prefix=prefix, moduli=moduli, j_max=j_max, subspace=subspace
    )


def blocked_set(actuator: Actuator, j_max: int = 256) -> ControllabilityReport:
    """Enumerate I up to ``j_max`` from its exact modular characterization."""
    return _report(actuator.blocked_moduli, j_max)


def distributed_controllability(actuator: Actuator, j_check: int = 8) -> ControllabilityReport:
    """Verdict for space-and-time controls: controllable for any interval.

    phi_j has finitely many zeros, so it cannot vanish on an interval of
    positive length, and ``Actuator`` has already decided a < b exactly.
    ``j_check >= 1`` is the mode count the report names.
    """
    return _report((), j_check)
