import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from expseries.exact import _SCALE_BITS, _SCALED_CONSTANTS, ExactReal


class TestArithmetic:
    def test_rational_addition(self):
        x = ExactReal.parse("3/10") + ExactReal.parse("7/10")
        assert x.is_rational
        assert x.rat == 1

    def test_irrational_parts_cancel(self):
        x = ExactReal.parse("1/4 + 1/2*sqrt2") - ExactReal.parse("1/2*sqrt2")
        assert x.is_rational
        assert x.rat == Fraction(1, 4)

    def test_mixed_sum_stays_irrational(self):
        x = ExactReal.parse("1/3*sqrt2") + ExactReal.parse("1/3")
        assert not x.is_rational
        assert x.rat == Fraction(1, 3)
        assert x.irr == Fraction(1, 3)

    def test_sub_self_is_exact_zero(self):
        x = ExactReal.parse("1/7 + 3/5*sqrt3")
        zero = x - x
        assert zero.is_rational
        assert zero.rat == 0
        assert zero.tag is None

    def test_commutativity_and_associativity(self):
        xs = [
            ExactReal.parse("1/3"),
            ExactReal.parse("2/7 + 1/5*sqrt2"),
            ExactReal.parse("1/2*sqrt2"),
            ExactReal(2),
        ]
        for a in xs:
            for b in xs:
                assert a + b == b + a
                for c in xs:
                    assert (a + b) + c == a + (b + c)

    def test_mismatched_tags_rejected(self):
        with pytest.raises(ValueError, match="distinct irrationals"):
            ExactReal.parse("1*sqrt2") + ExactReal.parse("1*sqrt3")

    def test_is_rational_invariant_under_rational_add(self):
        x = ExactReal.parse("1/2*sqrt2")
        for q in ("1/3", "0.25", "7"):
            assert (x + ExactReal.parse(q)).is_rational == x.is_rational


class TestConversion:
    def test_enclosure_ordering(self):
        small = ExactReal.parse("1/2*sqrt2")
        large = ExactReal.parse("3/4 + 1/2*sqrt2")
        assert small < large and small <= large
        assert not large < small and not large <= small

    def test_negative_coefficient_enclosure(self):
        # -1/2 < 1 - sqrt2 < -2/5, since 1.4 < sqrt2 < 1.5.
        x = ExactReal.parse("1 - 1*sqrt2")
        assert x.sign() == -1
        assert ExactReal.parse("-1/2") < x < ExactReal.parse("-2/5")


class TestOrder:
    def test_sign_of_square_root_values_is_exact(self):
        # 131836323**2 - 2 * 93222358**2 = 1, so sqrt2 - 1 falls short of
        # 38613965/93222358 by about 4e-17, below the spacing of doubles there.
        gap = ExactReal.parse("-1+1*sqrt2") - ExactReal.parse("38613965/93222358")
        assert gap.sign() == -1
        assert (-gap).sign() == 1
        assert ExactReal(0).sign() == 0
        assert ExactReal.parse("-1 + 1/2*sqrt3").sign() == -1
        assert ExactReal.parse("-3 + 3/2*sqrt5").sign() == 1

    @given(
        rat=st.fractions(min_value=-4, max_value=4, max_denominator=10**9),
        irr=st.fractions(min_value=-4, max_value=4, max_denominator=10**9),
        radicand=st.sampled_from([2, 3, 5]),
    )
    def test_sign_matches_high_precision(self, rat, irr, radicand):
        x = ExactReal(rat, irr, f"sqrt{radicand}")
        with mpmath.workdps(80):
            value = mpmath.mpf(rat.numerator) / rat.denominator + mpmath.mpf(
                irr.numerator
            ) / irr.denominator * mpmath.sqrt(radicand)
            assert x.sign() == int(mpmath.sign(value))

    def test_order_is_equality_aware(self):
        x = ExactReal.parse("1/4 + 1/2*sqrt2")
        assert x <= x and not x < x
        assert ExactReal.parse("1/3") < 1 and ExactReal(1) <= 1

    def test_pi_sign_from_rational_enclosure(self):
        assert (ExactReal.parse("1*pi") - 3).sign() == 1
        assert (ExactReal.parse("1*pi") - ExactReal.parse("22/7")).sign() == -1
        assert ExactReal.parse("-1*pi") < ExactReal.parse("-3")

    def test_pi_sign_of_the_repro_pair(self):
        # pi - 3 exceeds 0.141592653589793 by 2.4e-16, less than an ulp of pi.
        x = ExactReal.parse("-3+1*pi") - ExactReal.parse("0.141592653589793")
        assert x.sign() == 1
        assert (-x).sign() == -1
        assert ExactReal(-Fraction(math.pi), Fraction(1), "pi").sign() == 1

    def test_pi_sign_raises_when_undecided(self):
        # The midpoint of the enclosure [X, X + 1] / 2**256 of pi is within
        # 2**-257 of pi, and the enclosure cannot tell on which side.
        midpoint = Fraction(2 * _SCALED_CONSTANTS["pi"] + 1, 2**257)
        x = ExactReal(-midpoint, Fraction(1), "pi")
        with pytest.raises(ValueError, match="not decided"):
            x.sign()
        with pytest.raises(ValueError, match="not decided"):
            x < 0

    @pytest.mark.parametrize("tag", ["sqrt2", "sqrt3", "sqrt5", "pi"])
    def test_scaled_constants_match_mpmath(self, tag):
        with mpmath.workdps(100):
            constant = mpmath.pi if tag == "pi" else mpmath.sqrt(int(tag[4:]))
            assert _SCALED_CONSTANTS[tag] == int(mpmath.floor(constant * 2**_SCALE_BITS))
        assert _SCALE_BITS == 256


class TestParsing:
    def test_decimal_literal_is_exact(self):
        x = ExactReal.parse("0.3")
        assert x.rat == Fraction(3, 10)
        assert x.is_rational

    def test_negative_values(self):
        assert ExactReal.parse("-2").rat == -2
        assert ExactReal.parse("-1/2*sqrt2").irr == Fraction(-1, 2)

    def test_spaces_tolerated(self):
        assert ExactReal.parse(" 1/4 + 1/100 * sqrt2 ") == ExactReal.parse("1/4+1/100*sqrt2")

    def test_round_trip_through_str(self):
        for text in ("3/10", "-2", "1/4 + 1/2*sqrt2", "1/4 - 1/2*sqrt2", "1/2*sqrt2"):
            x = ExactReal.parse(text)
            assert ExactReal.parse(str(x)) == x

    def test_rejects_garbage(self):
        for bad in ("", "sqrt2 + 1", "1/4 + 1/2*sqrt2 + 1/3*sqrt2", "1.2.3", "one",
                    "1/0", "1/00", "1/0*sqrt2", "1/2 + 1/0*sqrt2"):
            with pytest.raises(ValueError):
                ExactReal.parse(bad)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown irrational tag"):
            ExactReal.parse("1/2*mystery")

    def test_floats_never_trusted(self):
        with pytest.raises(TypeError):
            ExactReal(0.3)  # type: ignore[arg-type]


class TestRegistry:
    def test_builtins_present(self):
        for tag in ("sqrt2", "sqrt3", "sqrt5", "pi"):
            x = ExactReal.parse(f"1/2 + 1*{tag}")
            assert x.tag == tag and not x.is_rational
