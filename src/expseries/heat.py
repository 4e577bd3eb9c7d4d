"""Dirichlet-Laplacian spectrum on (0, 1) and actuator overlap analysis.

Eigenpairs: ``phi_j(x) = sqrt(2) sin(j pi x)`` with eigenvalue
``mu_j = -(j pi)^2`` (decay exponent ``lambda_j = (j pi)^2``). An interval
actuator ``omega = (a, b)`` couples to mode j through the overlap

    beta_j = integral over omega of phi_j = sqrt(2) (cos(j pi a) - cos(j pi b)) / (j pi),

which vanishes exactly when ``j (a - b)`` or ``j (a + b)`` is an even
integer. With exact endpoints (:class:`expseries.exact.ExactReal`) that
condition is decidable with no tolerance, which yields the exact blocked set

    I = { j : beta_j = 0 }

and the controllability verdict. A lumped (time-only) control reaches every
mode iff I is empty (:func:`blocked_set`), iff both ``a - b`` and ``a + b``
are irrational. For rational ``a -+ b = p/q`` in lowest terms the blocked set
is an exact residue class: j = 0 (mod q) when p is even, j = 0 (mod 2q) when
p is odd. A distributed (space-and-time) control reaches every mode of any
interval (:func:`distributed_controllability`), its term on phi_k feeding mode
j through the mass matrix ``M_jk = integral over omega of phi_j phi_k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exact import _RADICANDS, ExactReal

_SQRT2 = math.sqrt(2.0)

VERDICT_CONTROLLABLE = "controllable"
VERDICT_NOT_CONTROLLABLE = "not-controllable"


def _check_mode(j: int) -> int:
    j = int(j)
    if j < 1:
        raise ValueError("mode index must be a positive integer")
    return j


def _check_j_max(j_max: int) -> int:
    j_max = int(j_max)
    if j_max < 1:
        raise ValueError("j_max must be at least 1")
    return j_max


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
    def blocked_moduli(self) -> tuple[int, ...]:
        """The coarsest moduli m with beta_j = 0 iff some m divides j (see the module docstring)."""
        moduli = set()
        for combination in (self.a - self.b, self.a + self.b):
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


def coupling_coefficient(actuator: Actuator, j: int) -> float:
    """beta_j = integral of phi_j over omega, in closed form (floating point).

    Blocked modes are decided exactly and get exactly 0.0: the closed form
    can leave them at a few ulps. An unblocked mode of a narrow actuator can
    also round to 0.0; only :attr:`Actuator.blocked_moduli` tells them apart.
    """
    j = _check_mode(j)
    if _blocked(j, actuator.blocked_moduli):
        return 0.0
    fa = actuator.a.to_float()
    fb = actuator.b.to_float()
    return _SQRT2 * (math.cos(j * math.pi * fa) - math.cos(j * math.pi * fb)) / (j * math.pi)


def _float(x: ExactReal) -> float:
    """x as a double. A square-root-tagged ``r + s sqrt(N)`` whose parts cancel
    keeps a few ulps as ``(r^2 - s^2 N) / (r - s sqrt(N))``; pi tags do not."""
    if x.tag in _RADICANDS and x.rat * x.irr < 0:
        conjugate = ExactReal(x.rat, -x.irr, x.tag).to_float()
        return float(x.rat**2 - x.irr**2 * _RADICANDS[x.tag]) / conjugate
    return x.to_float()


def _sin_pi(x: ExactReal, scale: Fraction, shift: Fraction = Fraction(0)) -> float:
    """sin(pi y), y = scale x + shift, after y's nearest integer is taken off exactly."""
    y = ExactReal(x.rat * scale + shift, x.irr * scale, x.tag)
    n = round(y.to_float())
    return (-1) ** n * math.sin(math.pi * _float(y - n))


def mass_matrix(actuator: Actuator, rows: int, cols: int) -> list[list[float]]:
    """M_jk = integral of phi_j phi_k over omega for j <= rows, k <= cols, in
    product forms free of cancellation: ``M_jk = C(j - k) - C(j + k)`` with
    ``C(m) = integral of cos(m pi x) over omega = 2 cos(m pi (a + b)/2)
    sin(m pi (b - a)/2) / (m pi)`` off the diagonal, and on it ``gamma_j =
    ((h - sin h) + 2 sin^2(c/2) sin h) / (j pi) > 0`` with ``h = j pi (b - a)``,
    ``c = j pi (a + b)`` and eight Taylor terms of ``h - sin h`` below 1/2."""
    width, centre, half = actuator.b - actuator.a, actuator.a + actuator.b, Fraction(1, 2)
    cos_integral = [0.0] + [
        2.0 * _sin_pi(centre, m * half, half) * _sin_pi(width, m * half) / (m * math.pi)
        for m in range(1, rows + cols + 1)
    ]

    def entry(j: int, k: int) -> float:
        if j != k:
            return cos_integral[abs(j - k)] - cos_integral[j + k]
        h, sin_h = j * math.pi * _float(width), _sin_pi(width, Fraction(j))
        rest = h - sin_h if h >= 0.5 else math.fsum(
            (-1) ** (n + 1) * h ** (2 * n + 1) / math.factorial(2 * n + 1) for n in range(1, 9)
        )
        return (rest + 2.0 * _sin_pi(centre, j * half) ** 2 * sin_h) / (j * math.pi)

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


def blocked_set(actuator: Actuator, j_max: int = 256) -> ControllabilityReport:
    """Enumerate I up to ``j_max`` from its exact modular characterization."""
    j_max = _check_j_max(j_max)
    moduli = actuator.blocked_moduli
    prefix = tuple(sorted({j for m in moduli for j in range(m, j_max + 1, m)}))
    if moduli:
        verdict = VERDICT_NOT_CONTROLLABLE
        subspace = "span{phi_j : " + " and ".join(f"j % {m} != 0" for m in moduli) + "}"
    else:
        verdict = VERDICT_CONTROLLABLE
        subspace = "all modes (V = H)"
    return ControllabilityReport(
        verdict=verdict,
        blocked_prefix=prefix,
        moduli=moduli,
        j_max=j_max,
        subspace=subspace,
    )


def distributed_controllability(actuator: Actuator, j_check: int = 8) -> ControllabilityReport:
    """Verdict for space-and-time controls: controllable for any interval.

    phi_j has finitely many zeros, so it cannot vanish on an interval of
    positive length, and ``Actuator`` has already decided a < b exactly.
    ``j_check >= 1`` is the mode count the report names.
    """
    j_check = _check_j_max(j_check)
    return ControllabilityReport(
        verdict=VERDICT_CONTROLLABLE,
        blocked_prefix=(),
        moduli=(),
        j_max=j_check,
        subspace="all modes (V = H)",
    )
