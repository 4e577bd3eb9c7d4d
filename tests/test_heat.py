import json
import math
from dataclasses import fields
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad

from expseries.cli import main
from expseries.exact import ExactReal
from expseries.heat import (
    Actuator,
    ControllabilityReport,
    blocked_set,
    coupling_coefficient,
    decay_exponent,
    distributed_controllability,
    eigenvalue,
    mass_matrix,
)


def overlap_is_zero(actuator: Actuator, j: int) -> bool:
    """Exact vanishing test: beta_j = 0 iff j(a-b) or j(a+b) is an even integer.

    Decided in exact arithmetic; any irrational part makes the product
    irrational, hence never an even integer. The library decides vanishing
    from ``Actuator.blocked_moduli``; this direct test is the oracle the
    tests compare it against.
    """
    for combination in (actuator.a - actuator.b, actuator.a + actuator.b):
        if combination.is_rational:
            product = j * combination.rat
            if product.denominator == 1 and product.numerator % 2 == 0:
                return True
    return False


def mp_value(x: ExactReal) -> mpmath.mpf:
    value = mpmath.mpf(x.rat.numerator) / x.rat.denominator
    if x.irr:
        constant = mpmath.pi if x.tag == "pi" else mpmath.sqrt(int(x.tag[4:]))
        value += mpmath.mpf(x.irr.numerator) / x.irr.denominator * constant
    return value


def to_float(x: ExactReal) -> float:
    """x as a double, through 40 digits of mpmath."""
    with mpmath.workdps(40):
        return float(mp_value(x))


def closed_form_overlap(act: Actuator, j: int) -> float:
    """beta_j = sqrt(2) (cos(j pi a) - cos(j pi b)) / (j pi) in floating point,
    with no exact snapping: the float side of the float-versus-exact checks."""
    fa, fb = to_float(act.a), to_float(act.b)
    return math.sqrt(2) * (math.cos(j * math.pi * fa) - math.cos(j * math.pi * fb)) / (j * math.pi)


def quad_overlap(act: Actuator, j: int) -> float:
    fa, fb = to_float(act.a), to_float(act.b)
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


TAGS = ["sqrt2", "sqrt3", "sqrt5", "pi"]


@st.composite
def endpoint_pairs(draw) -> tuple[ExactReal, ExactReal]:
    """Two sorted endpoints p/q + c*xi with c in {0, k, -k}: b - a, a + b or
    neither rational. Each rational part is drawn in the range that keeps its
    endpoint in [0, 1], and two endpoints with the same c get distinct ones."""
    k = draw(st.fractions(min_value=-0.25, max_value=0.25, max_denominator=12))
    tag = draw(st.sampled_from(TAGS))
    irrs = [draw(st.sampled_from([Fraction(0), k, -k])) for _ in range(2)]

    def rationals(irr: Fraction):
        shift = to_float(ExactReal(0, irr, tag))
        return st.fractions(
            min_value=Fraction(math.ceil(-24 * shift), 24),
            max_value=Fraction(math.floor(24 * (1 - shift)), 24),
            max_denominator=24,
        )

    if irrs[0] == irrs[1]:
        rats = draw(st.lists(rationals(irrs[0]), min_size=2, max_size=2, unique=True))
    else:
        rats = [draw(rationals(irr)) for irr in irrs]
    a, b = sorted(ExactReal(rat, irr, tag) for rat, irr in zip(rats, irrs))
    return a, b


def in_order(a: ExactReal, b: ExactReal) -> bool:
    return ExactReal(0) <= a < b <= 1


@st.composite
def exact_actuators(draw) -> Actuator:
    a, b = draw(endpoint_pairs())
    assume(in_order(a, b))
    return Actuator(a, b)


def test_exact_actuators_keep_most_draws():
    # Hypothesis fails a test whose strategy filters out most of its draws
    # (the filter_too_much health check); stay well clear of that, and keep
    # every case of which endpoint combinations are rational.
    kept, rational = [], set()

    @settings(max_examples=300, database=None, deadline=None)
    @given(pair=endpoint_pairs())
    def draw(pair):
        kept.append(in_order(*pair))
        rational.add(((pair[1] - pair[0]).is_rational, (pair[1] + pair[0]).is_rational))

    draw()
    assert sum(kept) >= 0.5 * len(kept)
    assert rational == {(True, True), (True, False), (False, True), (False, False)}


@st.composite
def narrow_actuators(draw) -> Actuator:
    """One endpoint p/q + c*xi, the other within 1e-3 to 1e-30 of it: at a
    rational distance, or at a rational approximant (an irrational width)."""
    tag = draw(st.sampled_from(TAGS))
    rat = draw(st.fractions(min_value=0, max_value=1, max_denominator=24))
    irr = draw(st.fractions(min_value=-0.25, max_value=0.25, max_denominator=12))
    anchor = ExactReal(rat, irr, tag)
    assume(ExactReal(0) < anchor < 1)
    digits = draw(st.integers(3, 30))
    if draw(st.booleans()):
        other = anchor + Fraction(draw(st.integers(-9, 9)), 10**digits)
    else:
        other = ExactReal(Fraction(to_float(anchor)).limit_denominator(10**digits))
    assume(other != anchor and ExactReal(0) <= other <= 1)
    return Actuator(*sorted((anchor, other)))


def oracle_digits(act: Actuator) -> int:
    """Working digits that leave about 40 after the cancellations of a width
    b - a: the cosine differences lose log10(1/width) digits, and the diagonal
    C(0) - C(2j), like a product of two small sines, twice that again."""
    return 40 + 3 * math.ceil(-math.log10(to_float(act.b_minus_a)))


def mp_mass_matrix(act: Actuator, n: int) -> tuple[mpmath.mpf, list[list[mpmath.mpf]]]:
    """The width b - a and M_jk = C(j - k) - C(j + k), C(m) = integral of
    cos(m pi x) over omega, at the working precision of mpmath."""
    a, b = mp_value(act.a), mp_value(act.b)

    def cos_integral(m: int) -> mpmath.mpf:
        if m == 0:
            return b - a
        return (mpmath.sin(m * mpmath.pi * b) - mpmath.sin(m * mpmath.pi * a)) / (m * mpmath.pi)

    return b - a, [
        [cos_integral(abs(j - k)) - cos_integral(j + k) for k in range(1, n + 1)]
        for j in range(1, n + 1)
    ]


class TestMassMatrix:
    @settings(max_examples=60, deadline=None)
    @given(act=st.one_of(exact_actuators(), narrow_actuators()))
    def test_matches_mpmath(self, act):
        computed = mass_matrix(act, 32, 32)
        with mpmath.workdps(oracle_digits(act)):
            width, oracle = mp_mass_matrix(act, 32)
            for j in range(32):
                assert abs(oracle[j][j] - computed[j][j]) <= 1e-13 * oracle[j][j], (j + 1, act)
                for k in range(32):
                    assert abs(oracle[j][k] - computed[j][k]) <= 1e-14 * width, (j + 1, k + 1, act)

    def test_pi_tagged_narrow_actuator(self):
        act = Actuator.from_strings("-3+1*pi", "1416/10000")
        computed = mass_matrix(act, 8, 8)
        with mpmath.workdps(60):
            width, oracle = mp_mass_matrix(act, 8)
            for j in range(8):
                for k in range(8):
                    assert abs(oracle[j][k] - computed[j][k]) <= 1e-15 * width, (j + 1, k + 1)

    def test_narrow_mode_energy_keeps_its_sign(self):
        # (b - a) - (sin 2 pi j b - sin 2 pi j a) / (2 pi j) cancels to -2.39e-17 here.
        act = Actuator.from_strings("1/2", "5000001/10000000")
        gamma2 = mass_matrix(act, 2, 2)[1][1]
        with mpmath.workdps(60):
            oracle = mp_mass_matrix(act, 2)[1][1][1]
            assert abs(gamma2 - oracle) <= 1e-14 * oracle
        assert gamma2 == pytest.approx(2.6318945e-20, rel=1e-7)

    def test_rectangular_blocks_agree(self):
        act = Actuator.from_strings("1/5+1/10*sqrt2", "7/10")
        square = mass_matrix(act, 6, 6)
        assert mass_matrix(act, 2, 6) == square[:2]
        assert mass_matrix(act, 6, 2) == [row[:2] for row in square]
        assert mass_matrix(act, 3, 0) == [[], [], []]
        assert all(square[j][k] == square[k][j] for j in range(6) for k in range(6))


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
        value = coupling_coefficient(act, 1)
        assert value == pytest.approx(2 * math.sqrt(2) / math.pi, rel=1e-15)
        assert value == pytest.approx(quad_overlap(act, 1), abs=1e-12)

    def test_half_domain_mode_four_vanishes(self):
        act = Actuator.from_strings("0", "1/2")
        assert coupling_coefficient(act, 4) == 0.0

    def test_full_domain_even_modes_vanish(self):
        act = Actuator.from_strings("0", "1")
        assert coupling_coefficient(act, 2) == 0.0

    @settings(max_examples=80, deadline=None)
    @given(act=st.one_of(exact_actuators(), narrow_actuators()))
    # beta_3 = -2.96e-24, which the cosine difference rounds to 0.0.
    @example(act=Actuator.from_strings("1/3", "333333333334/1000000000000"))
    # beta_2 = 0 with a sin(pi) = -0.0 factor.
    @example(act=Actuator.from_strings("3/10", "7/10"))
    def test_matches_mpmath(self, act):
        with mpmath.workdps(oracle_digits(act)):
            a, b = mp_value(act.a), mp_value(act.b)
            for j in range(1, 65):
                beta = coupling_coefficient(act, j)
                if overlap_is_zero(act, j):
                    assert beta == 0.0 and math.copysign(1, beta) == 1, (j, act)
                    continue
                angle = j * mpmath.pi
                oracle = mpmath.sqrt(2) * (mpmath.cos(angle * a) - mpmath.cos(angle * b)) / angle
                assert abs(beta - oracle) <= 2e-15 * abs(oracle), (j, act)

    def test_closed_form_matches_quadrature(self, rng):
        for _ in range(20):
            act = random_rational_actuator(rng)
            for j in (1, 2, 3, 7, 13, 29, 50):
                assert abs(coupling_coefficient(act, j) - quad_overlap(act, j)) < 1e-10

    def test_reflection_symmetry(self, rng):
        for _ in range(5):
            act = random_rational_actuator(rng)
            mirrored = Actuator(ExactReal(1) - act.b, ExactReal(1) - act.a)
            for j in range(1, 9):
                sign = (-1.0) ** (j + 1)
                assert coupling_coefficient(mirrored, j) == pytest.approx(
                    sign * coupling_coefficient(act, j), abs=1e-13
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
                    assert abs(closed_form_overlap(act, j)) < 1e-12

    def test_exact_and_float_agree(self, rng):
        # Zero disagreements between the exact test and |beta_j| < 1e-12.
        for _ in range(20):
            act = random_rational_actuator(rng)
            for j in range(1, 257):
                assert overlap_is_zero(act, j) == (abs(closed_form_overlap(act, j)) < 1e-12)

    def test_certified_coupling_snaps_to_zero(self):
        act = Actuator.from_strings("3/10", "7/10")
        assert closed_form_overlap(act, 2) != 0.0
        assert coupling_coefficient(act, 2) == 0.0
        assert coupling_coefficient(act, 1) == closed_form_overlap(act, 1)

    @given(act=exact_actuators())
    def test_coupling_zero_iff_exact_overlap_zero(self, act):
        for j in range(1, 65):
            assert (coupling_coefficient(act, j) == 0.0) == overlap_is_zero(act, j)


class TestBlockedSet:
    def test_half_domain_report(self):
        report = blocked_set(Actuator.from_strings("0", "1/2"), 12)
        assert report.verdict == "not-controllable"
        assert report.blocked_prefix == (4, 8, 12)
        assert report.moduli == (4,)
        assert "j % 4 != 0" in report.subspace

    def test_three_tenths_seven_tenths(self):
        report = blocked_set(Actuator.from_strings("3/10", "7/10"), 20)
        assert report.blocked_prefix == (2, 4, 5, 6, 8, 10, 12, 14, 15, 16, 18, 20)
        assert set(report.moduli) == {2, 5}

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

    def test_document_round_trip(self, capsys):
        report = blocked_set(Actuator.from_strings("0", "1/2"), 12)
        assert main(["control", "analyze", "--a", "0", "--b", "1/2", "--jmax", "12"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(d["residues"] == [0] for d in doc["modulusCharacterization"])
        moduli = tuple(d["modulus"] for d in doc["modulusCharacterization"])
        again = ControllabilityReport(
            doc["verdict"], tuple(doc["blockedPrefix"]), moduli, doc["jMax"], doc["subspace"]
        )
        assert again == report

    @given(act=exact_actuators(), j_max=st.integers(1, 300))
    def test_prefix_matches_exact_overlap_test(self, act, j_max):
        expected = tuple(j for j in range(1, j_max + 1) if overlap_is_zero(act, j))
        assert blocked_set(act, j_max).blocked_prefix == expected


class TestDistributed:
    def test_interior_interval(self):
        act = Actuator.from_strings("0.3", "0.7")
        report = distributed_controllability(act)
        assert report.verdict == "controllable"
        # Positivity witness, quadrature-verified.
        gamma1 = mass_matrix(act, 1, 1)[0][0]
        oracle, _ = quad(lambda x: 2.0 * math.sin(math.pi * x) ** 2, 0.3, 0.7)
        assert gamma1 == pytest.approx(oracle, abs=1e-12)
        assert gamma1 == pytest.approx(0.7027306914562627, abs=1e-12)
        assert gamma1 > 0

    def test_full_domain(self):
        act = Actuator.from_strings("0", "1")
        assert distributed_controllability(act).verdict == "controllable"

    def test_half_domain_contrast_with_lumped(self):
        # The same actuator: the function asked picks the control class.
        act = Actuator.from_strings("0", "1/2")
        assert distributed_controllability(act).verdict == "controllable"
        assert blocked_set(act, 8).verdict == "not-controllable"

    @pytest.mark.parametrize("j_check", [0, -5])
    def test_mode_count_checked(self, j_check):
        act = Actuator.from_strings("0", "1/2")
        with pytest.raises(ValueError, match="j_max must be at least 1"):
            distributed_controllability(act, j_check)

    def test_mode_energy_positive_everywhere(self, rng):
        for _ in range(10):
            act = random_rational_actuator(rng)
            gammas = mass_matrix(act, 11, 11)
            for j in range(11):
                assert gammas[j][j] > 0


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

    def test_an_actuator_is_its_interval(self):
        assert [field.name for field in fields(Actuator)] == ["a", "b"]
        with pytest.raises(TypeError):
            Actuator.from_strings("0", "1", "distributed")
