import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st
from scipy.integrate import quad

from expseries.exact import ExactReal, parse
from expseries.heat import (
    Actuator,
    blocked_set,
    coupling_coefficient,
    decay_exponent,
    distributed_controllability,
    eigenvalue,
    mode_energy,
    overlap,
    overlap_is_zero,
    report_from_document,
    report_to_document,
)


def quad_overlap(act: Actuator, j: int) -> float:
    fa, fb = act.a.to_float(), act.b.to_float()
    value, _ = quad(lambda x: math.sqrt(2) * math.sin(j * math.pi * x), fa, fb)
    return value


def random_rational_actuator(rng, max_den: int = 50) -> Actuator:
    while True:
        qa, qb = rng.integers(2, max_den + 1, size=2)
        pa = rng.integers(0, qa)
        pb = rng.integers(1, qb + 1)
        a = Fraction(int(pa), int(qa))
        b = Fraction(int(pb), int(qb))
        if a < b and b <= 1:
            return Actuator(ExactReal(a), ExactReal(b))


@st.composite
def exact_actuators(draw) -> Actuator:
    """Endpoints p/q + c*sqrt2 with c in {0, k, -k}: a - b, a + b or neither rational."""
    k = draw(st.fractions(min_value=-0.25, max_value=0.25, max_denominator=12))

    def endpoint() -> ExactReal:
        rat = draw(st.fractions(min_value=0, max_value=1, max_denominator=24))
        return ExactReal(rat, draw(st.sampled_from([Fraction(0), k, -k])), "sqrt2")

    a, b = endpoint(), endpoint()
    assume(ExactReal(0) <= a < b <= 1)
    return Actuator(a, b)


class TestSpectrum:
    def test_eigenvalues_monotone(self):
        mus = [eigenvalue(j) for j in range(1, 12)]
        lams = [decay_exponent(j) for j in range(1, 12)]
        assert all(b < a for a, b in zip(mus, mus[1:]))
        assert all(b > a > 0 for a, b in zip(lams, lams[1:]))
        assert eigenvalue(1) == -math.pi**2


class TestOverlap:
    def test_full_domain_mode_one(self):
        act = Actuator.from_strings("0", "1")
        value = overlap(act, 1)
        assert value == pytest.approx(2 * math.sqrt(2) / math.pi, rel=1e-15)
        assert value == pytest.approx(quad_overlap(act, 1), abs=1e-12)

    def test_half_domain_mode_four_vanishes(self):
        act = Actuator.from_strings("0", "1/2")
        assert overlap(act, 4) == 0.0

    def test_full_domain_even_modes_vanish(self):
        act = Actuator.from_strings("0", "1")
        assert overlap(act, 2) == 0.0

    def test_closed_form_matches_quadrature(self, rng):
        for _ in range(20):
            act = random_rational_actuator(rng)
            for j in (1, 2, 3, 7, 13, 29, 50):
                assert abs(overlap(act, j) - quad_overlap(act, j)) < 1e-10

    def test_reflection_symmetry(self, rng):
        for _ in range(5):
            act = random_rational_actuator(rng)
            mirrored = Actuator(
                ExactReal(1) - act.b, ExactReal(1) - act.a, act.kind
            )
            for j in range(1, 9):
                sign = (-1.0) ** (j + 1)
                assert overlap(mirrored, j) == pytest.approx(
                    sign * overlap(act, j), abs=1e-13
                )


class TestOverlapIsZero:
    def test_half_domain(self):
        act = Actuator.from_strings("0", "1/2")
        assert overlap_is_zero(act, 4)
        assert not any(overlap_is_zero(act, j) for j in (1, 2, 3))

    def test_mod_four_law(self):
        act = Actuator.from_strings("0", "1/2")
        for j in range(1, 1001):
            assert overlap_is_zero(act, j) == (j % 4 == 0)

    def test_irrational_endpoints_never_vanish(self):
        act = Actuator.from_strings("1/4+1/100*sqrt2", "3/4")
        assert not any(overlap_is_zero(act, j) for j in range(1, 10_001))

    def test_rational_pair(self):
        act = Actuator.from_strings("3/10", "7/10")
        assert overlap_is_zero(act, 2)  # j(a+b) = 2

    def test_exact_implies_small_float(self, rng):
        for _ in range(10):
            act = random_rational_actuator(rng)
            for j in range(1, 100):
                if overlap_is_zero(act, j):
                    assert abs(overlap(act, j)) < 1e-12

    def test_exact_and_float_agree(self, rng):
        # Zero disagreements between the exact test and |overlap| < 1e-12.
        for _ in range(20):
            act = random_rational_actuator(rng)
            for j in range(1, 257):
                assert overlap_is_zero(act, j) == (abs(overlap(act, j)) < 1e-12)

    def test_certified_coupling_snaps_to_zero(self):
        act = Actuator.from_strings("3/10", "7/10")
        assert coupling_coefficient(act, 2) == 0.0
        assert coupling_coefficient(act, 1) == overlap(act, 1)

    @given(act=exact_actuators())
    def test_coupling_zero_iff_exact_overlap_zero(self, act):
        for j in range(1, 65):
            assert (coupling_coefficient(act, j) == 0.0) == overlap_is_zero(act, j)


class TestBlockedSet:
    def test_half_domain_report(self):
        report = blocked_set(Actuator.from_strings("0", "1/2"), 12)
        assert report.verdict == "not-controllable"
        assert report.blocked_prefix == (4, 8, 12)
        assert report.moduli == ((4, (0,)),)
        assert "j % 4 != 0" in report.subspace

    def test_three_tenths_seven_tenths(self):
        report = blocked_set(Actuator.from_strings("3/10", "7/10"), 20)
        assert report.blocked_prefix == (2, 4, 5, 6, 8, 10, 12, 14, 15, 16, 18, 20)
        assert set(m for m, _ in report.moduli) == {2, 5}

    def test_irrational_actuator_controllable(self):
        report = blocked_set(Actuator.from_strings("0", "1/2+1/1000*sqrt2"), 64)
        assert report.verdict == "controllable"
        assert report.blocked_prefix == ()
        assert report.moduli == ()

    def test_characterization_matches_prefix(self, rng):
        for _ in range(10):
            act = random_rational_actuator(rng)
            report = blocked_set(act, 64)
            for j in range(1, 65):
                assert report.is_blocked(j) == (j in report.blocked_prefix)

    def test_document_round_trip(self):
        report = blocked_set(Actuator.from_strings("0", "1/2"), 12)
        assert report_from_document(report_to_document(report)) == report

    @given(act=exact_actuators(), j_max=st.integers(1, 300))
    def test_prefix_matches_exact_overlap_test(self, act, j_max):
        expected = tuple(j for j in range(1, j_max + 1) if overlap_is_zero(act, j))
        assert blocked_set(act, j_max).blocked_prefix == expected


class TestDistributed:
    def test_interior_interval(self):
        act = Actuator.from_strings("0.3", "0.7", kind="distributed")
        report = distributed_controllability(act)
        assert report.verdict == "controllable"
        # Positivity witness, quadrature-verified.
        gamma1 = mode_energy(act, 1)
        oracle, _ = quad(lambda x: 2.0 * math.sin(math.pi * x) ** 2, 0.3, 0.7)
        assert gamma1 == pytest.approx(oracle, abs=1e-12)
        assert gamma1 == pytest.approx(0.7027306914562627, abs=1e-12)
        assert gamma1 > 0

    def test_full_domain(self):
        act = Actuator.from_strings("0", "1", kind="distributed")
        assert distributed_controllability(act).verdict == "controllable"

    def test_half_domain_contrast_with_lumped(self):
        distributed = Actuator.from_strings("0", "1/2", kind="distributed")
        assert distributed_controllability(distributed).verdict == "controllable"
        lumped = Actuator.from_strings("0", "1/2", kind="lumped")
        assert blocked_set(lumped, 8).verdict == "not-controllable"

    def test_kind_checked(self):
        act = Actuator.from_strings("0", "1/2", kind="lumped")
        with pytest.raises(ValueError, match="distributed"):
            distributed_controllability(act)

    def test_mode_energy_positive_everywhere(self, rng):
        for _ in range(10):
            act = random_rational_actuator(rng)
            for j in range(1, 12):
                assert mode_energy(act, j) > 0


class TestActuator:
    def test_endpoint_order_enforced(self):
        with pytest.raises(ValueError, match="0 <= a < b <= 1"):
            Actuator.from_strings("1/2", "1/2")
        with pytest.raises(ValueError, match="0 <= a < b <= 1"):
            Actuator.from_strings("1/2", "2")

    def test_endpoint_order_decided_exactly(self):
        # sqrt2 - 1 < 38613965/93222358 by about 4e-17, and both endpoints
        # round to neighbouring doubles in the opposite order.
        a, b = "-1+1*sqrt2", "38613965/93222358"
        act = Actuator.from_strings(a, b)
        assert act.a < act.b
        with pytest.raises(ValueError, match="0 <= a < b <= 1"):
            Actuator.from_strings(b, a)

    def test_kind_validated(self):
        with pytest.raises(ValueError, match="kind"):
            Actuator.from_strings("0", "1", kind="boundary")
