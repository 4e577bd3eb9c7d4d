"""Exact arithmetic over numbers of the form ``p/q + (r/s) * xi``.

``xi`` is one irrational constant identified by a tag: ``sqrt2``, ``sqrt3``,
``sqrt5`` or ``pi``. Values of this shape that share their constant are
closed under addition and subtraction, and rationality is decidable exactly:
the value is rational if and only if the irrational coefficient is zero. Signs,
and with them ``<`` and ``<=``, are decided exactly for the square roots and
through an enclosure of width 2**-256 for ``pi``. That is all the actuator
endpoint tests require, so no general algebraic-number machinery is built.

Decimal literals are parsed into exact rationals (``"0.3"`` becomes 3/10) and
a zero denominator is refused; floats are never trusted for rationality.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

# The rational parts an ExactReal accepts; floats and strings are refused
# (strings go through ExactReal.parse).
RationalLike = int | Fraction

# Each irrational constant xi as the integer X = floor(xi * 2**_SCALE_BITS), so
# that xi lies strictly inside [X, X + 1] / 2**_SCALE_BITS. Tags are checked
# against this table, ``sign`` reads its pi entry and ``heat`` all four.
_SCALE_BITS = 256
_RADICANDS = {"sqrt2": 2, "sqrt3": 3, "sqrt5": 5}
_SCALED_CONSTANTS: dict[str, int] = {
    **{tag: math.isqrt(n << 2 * _SCALE_BITS) for tag, n in _RADICANDS.items()},
    # The first 64 hexadecimal digits of pi after the point.
    "pi": 0x3_243F6A88_85A308D3_13198A2E_03707344_A4093822_299F31D0_082EFA98_EC4E6C89,
}


def _sign(value: Fraction) -> int:
    return (value > 0) - (value < 0)


_TERM_RE = re.compile(
    r"^(?P<first>[+-]?(?:\d+\.\d+|\d+(?:/0*[1-9]\d*)?))"
    r"(?:\*(?P<tag1>[A-Za-z_][A-Za-z0-9_]*))?"
    r"(?:(?P<op>[+-])(?P<second>\d+\.\d+|\d+(?:/0*[1-9]\d*)?)"
    r"\*(?P<tag2>[A-Za-z_][A-Za-z0-9_]*))?$"
)


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, bool):
        raise TypeError("rational value must not be a bool")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as an exact rational")


@dataclass(frozen=True)
class ExactReal:
    """A number ``rat + irr * xi`` with exact rational parts.

    ``tag`` names the irrational ``xi`` and must be a known tag; it is dropped
    whenever ``irr`` cancels to zero, so equality and ``is_rational`` are
    exact structural decisions.
    """

    rat: Fraction
    irr: Fraction = Fraction(0)
    tag: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "rat", _as_fraction(self.rat))
        object.__setattr__(self, "irr", _as_fraction(self.irr))
        if self.irr == 0:
            object.__setattr__(self, "tag", None)
        else:
            if self.tag is None:
                raise ValueError("an irrational part requires a tag")
            if self.tag not in _SCALED_CONSTANTS:
                raise ValueError(f"unknown irrational tag {self.tag!r}")

    # -- constructors -------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "ExactReal":
        """Parse ``RAT``, ``RAT*TAG`` or ``RAT (+|-) RAT*TAG`` (spaces allowed)."""
        compact = re.sub(r"\s+", "", text)
        match = _TERM_RE.match(compact)
        if match is None:
            raise ValueError(f"cannot parse exact number: {text!r}")
        first = Fraction(match.group("first"))
        tag1 = match.group("tag1")
        if tag1 is not None:
            if match.group("op") is not None:
                raise ValueError(f"at most one irrational term is allowed: {text!r}")
            return cls(Fraction(0), first, tag1)
        if match.group("op") is None:
            return cls(first)
        second = Fraction(match.group("second"))
        if match.group("op") == "-":
            second = -second
        return cls(first, second, match.group("tag2"))

    # -- predicates ---------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.irr == 0

    def sign(self) -> int:
        """The exact sign, -1, 0 or 1.

        For ``sqrtN`` the larger of ``|rat|`` and ``|irr| * sqrt(N)`` wins,
        compared exactly as ``rat**2`` against ``irr**2 * N``. For ``pi`` the
        value is bounded through the enclosure ``[X, X + 1] / 2**256`` of the
        constant; raises ``ValueError`` when that interval contains 0.
        """
        if self.irr == 0:
            return _sign(self.rat)
        if self.tag in _RADICANDS:
            rat_wins = self.rat * self.rat > self.irr * self.irr * _RADICANDS[self.tag]
            return _sign(self.rat) if rat_wins else _sign(self.irr)
        x = _SCALED_CONSTANTS[self.tag]  # type: ignore[index]
        # pi lies strictly inside the enclosure, so an end at 0 decides the sign.
        low, high = sorted(self.rat + self.irr * Fraction(e, 1 << _SCALE_BITS) for e in (x, x + 1))
        if low >= 0:
            return 1
        if high <= 0:
            return -1
        raise ValueError(f"the sign of {self} is not decided by the enclosure of {self.tag}")

    def __lt__(self, other: object) -> bool:
        return (self - self._coerce(other)).sign() < 0

    def __le__(self, other: object) -> bool:
        return (self - self._coerce(other)).sign() <= 0

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other: object) -> "ExactReal":
        if isinstance(other, ExactReal):
            return other
        return ExactReal(_as_fraction(other))  # type: ignore[arg-type]

    def __add__(self, other: object) -> "ExactReal":
        rhs = self._coerce(other)
        if self.irr != 0 and rhs.irr != 0 and self.tag != rhs.tag:
            raise ValueError(
                f"cannot combine distinct irrationals {self.tag!r} and {rhs.tag!r}"
            )
        tag = self.tag if self.irr != 0 else rhs.tag
        return ExactReal(self.rat + rhs.rat, self.irr + rhs.irr, tag)

    def __neg__(self) -> "ExactReal":
        return ExactReal(-self.rat, -self.irr, self.tag)

    def __sub__(self, other: object) -> "ExactReal":
        return self.__add__(-self._coerce(other))

    # -- formatting -------------------------------------------------------

    def __str__(self) -> str:
        if self.irr == 0:
            return str(self.rat)
        irr_part = f"{abs(self.irr)}*{self.tag}"
        if self.rat == 0:
            return irr_part if self.irr > 0 else f"-{irr_part}"
        sign = "+" if self.irr > 0 else "-"
        return f"{self.rat} {sign} {irr_part}"
