"""Dirichlet-Laplacian spectrum on (0, 1) and actuator overlap analysis.

Eigenpairs: ``phi_j(x) = sqrt(2) sin(j pi x)`` with eigenvalue
``mu_j = -(j pi)^2`` (decay exponent ``lambda_j = (j pi)^2``). An interval
actuator ``omega = (a, b)`` couples to mode j through the overlap

    beta_j = integral over omega of phi_j = sqrt(2) (cos(j pi a) - cos(j pi b)) / (j pi),

which vanishes exactly when ``j (a - b)`` or ``j (a + b)`` is an even
integer. With exact endpoints (:class:`expseries.exact.ExactReal`) that
condition is decidable with no tolerance, which yields the exact blocked set

    I = { j : beta_j = 0 }

and the controllability verdict: a lumped (time-only) control reaches every
mode iff I is empty, iff both ``a - b`` and ``a + b`` are irrational. For
rational ``a -+ b = p/q`` in lowest terms the blocked set is an exact residue
class: j = 0 (mod q) when p is even, j = 0 (mod 2q) when p is odd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exact import ExactReal

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
    """An interval actuator omega = (a, b) in [0, 1] with exact endpoints."""

    a: ExactReal
    b: ExactReal
    kind: str = "lumped"

    def __post_init__(self) -> None:
        if self.kind not in ("lumped", "distributed"):
            raise ValueError("kind must be 'lumped' or 'distributed'")
        if not isinstance(self.a, ExactReal) or not isinstance(self.b, ExactReal):
            raise TypeError("endpoints must be ExactReal values")
        if not (ExactReal(0) <= self.a < self.b <= 1):
            raise ValueError(f"need 0 <= a < b <= 1, got a={self.a}, b={self.b}")

    @classmethod
    def from_strings(cls, a: str, b: str, kind: str = "lumped") -> "Actuator":
        return cls(ExactReal.parse(a), ExactReal.parse(b), kind)

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


def overlap(actuator: Actuator, j: int) -> float:
    """beta_j = integral of phi_j over omega, in closed form (floating point)."""
    j = _check_mode(j)
    fa = actuator.a.to_float()
    fb = actuator.b.to_float()
    return _SQRT2 * (math.cos(j * math.pi * fa) - math.cos(j * math.pi * fb)) / (j * math.pi)


def _is_even_integer(value: Fraction) -> bool:
    return value.denominator == 1 and value.numerator % 2 == 0


def overlap_is_zero(actuator: Actuator, j: int) -> bool:
    """Exact vanishing test: beta_j = 0 iff j(a-b) or j(a+b) is an even integer.

    Decided in exact arithmetic; any irrational part makes the product
    irrational, hence never an even integer. The library decides vanishing
    from :attr:`Actuator.blocked_moduli`; this direct test is the oracle the
    tests compare it against.
    """
    j = _check_mode(j)
    for combination in (actuator.a - actuator.b, actuator.a + actuator.b):
        if combination.is_rational and _is_even_integer(j * combination.rat):
            return True
    return False


def coupling_coefficient(actuator: Actuator, j: int) -> float:
    """Overlap with exact zeros snapped to 0.0.

    The closed form can leave an exactly-vanishing overlap at a few ulps in
    floating point; simulation and synthesis need blocked modes to carry a
    coupling of exactly zero.
    """
    j = _check_mode(j)
    if any(j % m == 0 for m in actuator.blocked_moduli):
        return 0.0
    return overlap(actuator, j)


def mode_energy(actuator: Actuator, j: int) -> float:
    """gamma_j = integral of phi_j^2 over omega; positive for any a < b."""
    j = _check_mode(j)
    fa = actuator.a.to_float()
    fb = actuator.b.to_float()
    w = 2.0 * j * math.pi
    return (fb - fa) - (math.sin(w * fb) - math.sin(w * fa)) / w


@dataclass(frozen=True)
class ControllabilityReport:
    """Verdict plus an exact description of the blocked mode set I.

    ``moduli`` lists ``(modulus, residues)`` pairs; j is blocked iff
    ``j % modulus`` is in ``residues`` for some pair. The characterization is
    complete for every j (not only the enumerated prefix): rational endpoint
    combinations block exact residue classes and irrational ones block
    nothing.
    """

    verdict: str
    blocked_prefix: tuple[int, ...]
    moduli: tuple[tuple[int, tuple[int, ...]], ...]
    j_max: int
    subspace: str

    def is_blocked(self, j: int) -> bool:
        j = _check_mode(j)
        return any(j % modulus in residues for modulus, residues in self.moduli)


def blocked_set(actuator: Actuator, j_max: int = 256) -> ControllabilityReport:
    """Enumerate I up to ``j_max`` from its exact modular characterization."""
    j_max = int(j_max)
    if j_max < 1:
        raise ValueError("j_max must be at least 1")
    kept = actuator.blocked_moduli
    prefix = tuple(sorted({j for m in kept for j in range(m, j_max + 1, m)}))
    moduli = tuple((m, (0,)) for m in kept)
    if moduli:
        verdict = VERDICT_NOT_CONTROLLABLE
        subspace = "span{phi_j : " + " and ".join(
            f"j % {m} != 0" for m, _ in moduli
        ) + "}"
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
    positive length; the numerical witness checks gamma_j > 0 for the first
    ``j_check`` modes.
    """
    if actuator.kind != "distributed":
        raise ValueError("actuator kind must be 'distributed'")
    if not actuator.b.to_float() > actuator.a.to_float():
        raise ValueError("actuator endpoints a < b are equal in double precision")
    for j in range(1, int(j_check) + 1):
        witness = mode_energy(actuator, j)
        if not witness > 0.0:
            raise AssertionError(
                f"positivity witness failed for mode {j}: gamma_j = {witness}"
            )
    return ControllabilityReport(
        verdict=VERDICT_CONTROLLABLE,
        blocked_prefix=(),
        moduli=(),
        j_max=int(j_check),
        subspace="all modes (V = H)",
    )


# ---------------------------------------------------------------------------
# Structured-text documents
# ---------------------------------------------------------------------------


def report_to_document(report: ControllabilityReport) -> dict:
    return {
        "verdict": report.verdict,
        "blockedPrefix": list(report.blocked_prefix),
        "modulusCharacterization": [
            {"modulus": m, "residues": list(res)} for m, res in report.moduli
        ],
        "jMax": report.j_max,
        "subspace": report.subspace,
    }


def report_from_document(doc: dict) -> ControllabilityReport:
    return ControllabilityReport(
        verdict=str(doc["verdict"]),
        blocked_prefix=tuple(int(j) for j in doc["blockedPrefix"]),
        moduli=tuple(
            (int(item["modulus"]), tuple(int(r) for r in item["residues"]))
            for item in doc["modulusCharacterization"]
        ),
        j_max=int(doc["jMax"]),
        subspace=str(doc["subspace"]),
    )
