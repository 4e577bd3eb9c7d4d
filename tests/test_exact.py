import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, strategies as st

from expseries.exact import ExactReal, parse


class TestArithmetic:
    def test_rational_addition(self):
        x = parse("3/10") + parse("7/10")
        assert x.is_rational
        assert x.rat == 1

    def test_irrational_parts_cancel(self):
        x = parse("1/4 + 1/2*sqrt2") - parse("1/2*sqrt2")
        assert x.is_rational
        assert x.rat == Fraction(1, 4)

    def test_mixed_sum_stays_irrational(self):
        x = parse("1/3*sqrt2") + parse("1/3")
        assert not x.is_rational
        assert x.rat == Fraction(1, 3)
        assert x.irr == Fraction(1, 3)

    def test_sub_self_is_exact_zero(self):
        x = parse("1/7 + 3/5*sqrt3")
        zero = x - x
        assert zero.is_rational
        assert zero.rat == 0
        assert zero.tag is None

    def test_commutativity_and_associativity(self):
        xs = [parse("1/3"), parse("2/7 + 1/5*sqrt2"), parse("1/2*sqrt2"), ExactReal(2)]
        for a in xs:
            for b in xs:
                assert a + b == b + a
                for c in xs:
                    assert (a + b) + c == a + (b + c)

    def test_mismatched_tags_rejected(self):
        with pytest.raises(ValueError, match="distinct irrationals"):
            parse("1*sqrt2") + parse("1*sqrt3")

    def test_is_rational_invariant_under_rational_add(self):
        x = parse("1/2*sqrt2")
        for q in ("1/3", "0.25", "7"):
            assert (x + parse(q)).is_rational == x.is_rational


class TestConversion:
    def test_to_float_rational(self):
        assert parse("3/10").to_float() == pytest.approx(0.3, abs=1e-17)

    def test_to_float_irrational(self):
        x = parse("1 + 1*sqrt2")
        assert x.to_float() == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-15)

    def test_zero(self):
        assert ExactReal(0).to_float() == 0.0

    def test_enclosure_ordering(self):
        small = parse("1/2*sqrt2")
        large = parse("3/4 + 1/2*sqrt2")
        assert small < large and small <= large
        assert not large < small and not large <= small
        assert small.to_float() < large.to_float()

    def test_negative_coefficient_enclosure(self):
        # -1/2 < 1 - sqrt2 < -2/5, since 1.4 < sqrt2 < 1.5.
        x = parse("1 - 1*sqrt2")
        assert x.sign() == -1
        assert parse("-1/2") < x < parse("-2/5")
        assert x.to_float() == pytest.approx(1 - math.sqrt(2), abs=1e-15)


class TestOrder:
    def test_sign_of_square_root_values_is_exact(self):
        # 131836323**2 - 2 * 93222358**2 = 1, so sqrt2 - 1 falls short of
        # 38613965/93222358 by about 4e-17, below the spacing of doubles there.
        gap = parse("-1+1*sqrt2") - parse("38613965/93222358")
        assert gap.to_float() == 0.0
        assert gap.sign() == -1
        assert (-gap).sign() == 1
        assert ExactReal(0).sign() == 0
        assert parse("-1 + 1/2*sqrt3").sign() == -1
        assert parse("-3 + 3/2*sqrt5").sign() == 1

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
        x = parse("1/4 + 1/2*sqrt2")
        assert x <= x and not x < x
        assert parse("1/3") < 1 and ExactReal(1) <= 1

    def test_pi_sign_from_rational_enclosure(self):
        assert (parse("1*pi") - 3).sign() == 1
        assert (parse("1*pi") - parse("22/7")).sign() == -1
        assert parse("-1*pi") < parse("-3")

    def test_pi_sign_raises_when_undecided(self):
        # pi - fl(pi) is about 1.2e-16: the enclosure of pi straddles fl(pi).
        x = ExactReal(-Fraction(math.pi), Fraction(1), "pi")
        with pytest.raises(ValueError, match="not decided"):
            x.sign()
        with pytest.raises(ValueError, match="not decided"):
            x < 0


class TestParsing:
    def test_decimal_literal_is_exact(self):
        x = parse("0.3")
        assert x.rat == Fraction(3, 10)
        assert x.is_rational

    def test_negative_values(self):
        assert parse("-2").rat == -2
        assert parse("-1/2*sqrt2").irr == Fraction(-1, 2)

    def test_spaces_tolerated(self):
        assert parse(" 1/4 + 1/100 * sqrt2 ") == parse("1/4+1/100*sqrt2")

    def test_round_trip_through_str(self):
        for text in ("3/10", "-2", "1/4 + 1/2*sqrt2", "1/4 - 1/2*sqrt2", "1/2*sqrt2"):
            x = parse(text)
            assert parse(str(x)) == x

    def test_rejects_garbage(self):
        for bad in ("", "sqrt2 + 1", "1/4 + 1/2*sqrt2 + 1/3*sqrt2", "1.2.3", "one"):
            with pytest.raises(ValueError):
                parse(bad)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown irrational tag"):
            parse("1/2*mystery")

    def test_floats_never_trusted(self):
        with pytest.raises(TypeError):
            ExactReal(0.3)  # type: ignore[arg-type]


class TestRegistry:
    def test_builtins_present(self):
        for tag in ("sqrt2", "sqrt3", "sqrt5", "pi"):
            x = parse(f"1/2 + 1*{tag}")
            assert x.tag == tag and not x.is_rational
