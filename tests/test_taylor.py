import math
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from expseries.series import DirichletSeries, TailModel, _tail_error, evaluate
from expseries.taylor import (
    evaluate_via_expansion,
    expand,
    order_for_tolerance,
    partial_sums,
    remainder_bound,
)

from conftest import random_series, well_scaled_series


def geometric_series(n_terms: int = 40) -> DirichletSeries:
    terms = [(2.0**-j, float(j)) for j in range(1, n_terms + 1)]
    tail = TailModel(sum_bound=2.0**-n_terms, lambda_floor=float(n_terms + 1))
    return DirichletSeries(terms, tail)


@st.composite
def wide_series(draw):
    """Mixed-sign coefficients over many decades, exponents in [1e-3, 1e3]."""
    lams = draw(
        st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=60, unique=True)
    )
    alphas = [
        draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-30.0, 30.0))
        for _ in lams
    ]
    tail = draw(
        st.none()
        | st.builds(TailModel, st.floats(0.0, 1e3), st.floats(1e-3, 1e3))
    )
    return DirichletSeries(zip(alphas, lams), tail)


@st.composite
def hard_series(draw):
    """Series whose rows hold subnormal or zero terms, zero coefficients or overflow.

    Exponents near 700 at tau ~ 1 make subnormal terms, and whole rows of
    zeros beyond 745; coefficients up to 1e308 and exponents up to 3e3 at a
    small tau make the recurrence overflow. 700 terms span several blocks.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam_lo, lam_hi = draw(st.sampled_from(((1e-3, 1e3), (650.0, 800.0), (1e3, 3e3))))
    lams = np.unique(rng.uniform(lam_lo, lam_hi, draw(st.sampled_from((1, 2, 5, 30, 700)))))
    top = draw(st.sampled_from((0.0, 300.0, 308.0)))
    alphas = rng.choice([-1.0, 1.0], lams.size) * 10.0 ** rng.uniform(-320.0, top, lams.size)
    alphas[rng.random(lams.size) < draw(st.sampled_from((0.0, 0.3, 1.0)))] = draw(
        st.sampled_from((0.0, -0.0))
    )
    return DirichletSeries(zip(alphas.tolist(), lams.tolist()))


def natural_order_rows(series: DirichletSeries, tau: float, order: int):
    """``math.fsum`` of the rows ``term <- term * -lambda / n`` and of their magnitudes.

    Returns the coefficients, bounds and ``sum |alpha|`` by ``hex``, or the
    type and message of the first error, each row's signed sum first. A row
    that holds a term that is not finite raises ``OverflowError`` before its sums.
    """
    try:
        term = series.alphas * np.exp(-series.lambdas * tau)
        coeffs, bounds = [], []
        for n in range(order + 1):
            if n:
                term = term * -series.lambdas / n  # a zero coefficient's term stays a signed 0
            if not np.isfinite(term).all():
                raise OverflowError("a term overflows a double")
            coeffs.append(math.fsum(term.tolist()))
            bounds.append(math.fsum(np.abs(term).tolist()))
        s0 = math.fsum(np.abs(series.alphas).tolist())
        return [c.hex() for c in coeffs], [b.hex() for b in bounds], s0.hex()
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def expansion_bits(series: DirichletSeries, tau: float, order: int):
    """``expand``'s coefficients, bounds and ``sum |alpha|`` by ``hex``, or its error."""
    try:
        e = expand(series, tau, order)
        bits = lambda values: [v.hex() for v in values]
        return bits(e.coeffs), bits(e.coeff_bounds), e.sum_abs_alpha.hex()
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def ieee_zero_fsum(values, fsum=math.fsum):
    """``math.fsum``, except that negative zeros alone sum to -0.0, as in IEEE 754."""
    values = list(values)
    total = fsum(values)
    if values and all(v == 0.0 and math.copysign(1.0, v) < 0 for v in values):
        return -0.0
    return total


class TestExpand:
    @settings(deadline=None)
    @given(
        s=wide_series() | hard_series(),
        tau=st.floats(1e-4, 5.0),
        order=st.integers(0, 120),
        fsum=st.sampled_from((math.fsum, ieee_zero_fsum)),
    )
    # fsum overflows on a signed row, on a magnitude row alone; terms of both signs overflow.
    @example(DirichletSeries([(1e308, 1e-3), (1e308, 2e-3)]), 1.0, 3, math.fsum)
    @example(
        DirichletSeries([(1.5e308, 1.0), (-1.5e308, 1.000001), (1.5e308, 1.000002)]), 0.5, 2, math.fsum
    )
    @example(DirichletSeries([(1e300, 2e3), (-1e300, 2.5e3)]), 1e-4, 60, math.fsum)
    # A term overflows alone, and expand raises at its row.
    @example(DirichletSeries([(1e300, 100.0)]), 1e-4, 120, math.fsum)
    def test_rows_equal_natural_order_sums_bit_for_bit(self, s, tau, order, fsum):
        # Either signed-zero rule of math.fsum (Python versions differ) holds
        # for the reference and for expand alike.
        with np.errstate(all="ignore"), mock.patch.object(math, "fsum", fsum):
            expected = natural_order_rows(s, tau, order)
            assert expansion_bits(s, tau, order) == expected
            if not isinstance(expected[0], type):
                assert expected[0][0] == evaluate(s, tau).value.hex()

    @pytest.mark.parametrize("tail", [None, TailModel(0.5, 50.0)])
    def test_many_blocks_equal_natural_order_sums_bit_for_bit(self, tail):
        rng = np.random.default_rng(8)
        lams = np.unique(rng.uniform(1e-3, 1e3, 3000))
        alphas = rng.choice([-1.0, 1.0], lams.size) * 10.0 ** rng.uniform(-30, 30, lams.size)
        s = DirichletSeries(zip(alphas, lams), tail)
        assert expansion_bits(s, 0.7, 40) == natural_order_rows(s, 0.7, 40)

    def test_row_sum_overflow_raises(self):
        s = DirichletSeries([(1e308, 1e-3), (1e308, 2e-3)])
        with pytest.raises(OverflowError):
            expand(s, 1.0, 3)

    def test_single_exponential(self):
        # phi(t) = e^{-t} around tau = 1: b_n = e^{-1} (-1)^n / n!.
        exp_ = expand(DirichletSeries([(1.0, 1.0)]), 1.0, 3)
        e1 = math.exp(-1.0)
        assert exp_.coeffs == pytest.approx((e1, -e1, e1 / 2.0, -e1 / 6.0), rel=1e-15)
        assert exp_.sum_abs_alpha == 1.0

    def test_zeroth_coefficient_is_the_value(self, rng):
        for _ in range(5):
            s = random_series(rng, max_terms=20, lam_range=(0.2, 30.0))
            exp_ = expand(s, 1.0, 0)
            assert exp_.coeffs[0] == evaluate(s, 1.0).value

    def test_coefficient_magnitudes_within_bounds(self, rng):
        for _ in range(5):
            s = random_series(rng)
            exp_ = expand(s, 0.7, 30)
            b = np.abs(np.array(exp_.coeffs))
            a = np.array(exp_.coeff_bounds)
            assert np.all(b <= a)

    def test_stirling_envelope(self, rng):
        # a_n <= S0 / (tau^n sqrt(2 pi n)) for n >= 1.
        for tau in (0.3, 1.0, 3.0):
            s = random_series(rng)
            exp_ = expand(s, tau, 30)
            s0 = exp_.sum_abs_alpha
            for n in range(1, 31):
                envelope = s0 / (tau**n * math.sqrt(2.0 * math.pi * n))
                assert exp_.coeff_bounds[n] <= envelope * (1.0 + 1e-12)

    def test_tail_enters_only_the_certificate(self):
        s_tail = geometric_series()
        s_plain = DirichletSeries(s_tail.terms)
        with_tail = expand(s_tail, 0.8, 10)
        without = expand(s_plain, 0.8, 10)
        assert with_tail.coeffs == without.coeffs
        assert with_tail.coeff_bounds == without.coeff_bounds
        assert with_tail.sum_abs_alpha == without.sum_abs_alpha
        for t in (0.3, 0.8, 1.5):
            for n in range(1, 11):
                plain = remainder_bound(without, n, t).bound
                assert remainder_bound(with_tail, n, t).bound == plain + _tail_error(s_tail.tail, t)

    def test_rejects_bad_inputs(self):
        s = DirichletSeries([(1.0, 1.0)])
        with pytest.raises(ValueError, match="tau"):
            expand(s, 0.0, 3)
        with pytest.raises(ValueError, match="order"):
            expand(s, 1.0, -1)
        with pytest.raises(ValueError, match="strictly positive"):
            expand(DirichletSeries([(1.0, -1.0), (1.0, 1.0)]), 1.0, 3)

    def test_no_tail_term_where_its_factor_overflows(self):
        # (n / (e tau))^n / n! exceeds a double at tau = 1e-4, n = 120, but a
        # coefficient bound is the magnitude sum alone, so for one term it is |b_n|.
        exp_ = expand(DirichletSeries([(1.0, 1.0)]), 1e-4, 120)
        assert exp_.coeff_bounds == tuple(abs(c) for c in exp_.coeffs)

    def test_high_order_does_not_overflow(self):
        exp_ = expand(DirichletSeries([(1.0, 50.0)]), 1.0, 250)
        assert all(math.isfinite(c) for c in exp_.coeffs)
        assert all(math.isfinite(b) for b in exp_.coeff_bounds)


class TestRemainderBound:
    def test_zero_at_center(self):
        exp_ = expand(DirichletSeries([(1.0, 1.0)]), 1.0, 10)
        cert = remainder_bound(exp_, 10, 1.0)
        assert cert.bound == 0.0

    def test_known_exponential(self):
        # Oracle: the expanded function is exactly e^{-t}.
        exp_ = expand(DirichletSeries([(1.0, 1.0)]), 1.0, 10)
        t = 1.5
        measured = abs(math.exp(-t) - partial_sums(exp_, t)[10])
        cert = remainder_bound(exp_, 10, t)
        assert measured <= cert.bound
        assert cert.bound < 1e-3

    def test_heat_mode_series(self):
        terms = [(1.0 / j**2, (j * math.pi) ** 2) for j in range(1, 21)]
        s = DirichletSeries(terms)
        exp_ = expand(s, 0.5, 15)
        exact_value = evaluate(s, 0.6).value
        partials = partial_sums(exp_, 0.6)
        for n in (5, 10, 15):
            measured = abs(exact_value - partials[n])
            assert measured <= remainder_bound(exp_, n, 0.6).bound + 1e-16

    def test_rejects_out_of_interval(self):
        exp_ = expand(DirichletSeries([(1.0, 1.0)]), 1.0, 5)
        for bad_t in (0.0, -0.5, 2.0, 3.0):
            with pytest.raises(ValueError, match="t must lie in"):
                remainder_bound(exp_, 3, bad_t)

    def test_rejects_t_within_rounding_of_an_end(self):
        # |t - tau| / tau rounds to 1, where 1 / (1 - r) would divide by zero.
        exp_ = expand(DirichletSeries([(1.0, 1.0)]), 1.0, 5)
        with pytest.raises(ValueError, match="t must lie in"):
            remainder_bound(exp_, 3, 1e-300)

    def test_rejects_bad_order(self):
        exp_ = expand(DirichletSeries([(1.0, 1.0)]), 1.0, 5)
        with pytest.raises(ValueError, match="at least 1"):
            remainder_bound(exp_, 0, 1.2)
        with pytest.raises(ValueError, match="exceeds"):
            remainder_bound(exp_, 6, 1.2)

    def test_enclosure_on_random_corpus(self, rng):
        # The core soundness property, spot-checked here (full sweep in the
        # acceptance suite).
        for _ in range(5):
            s = random_series(rng, max_terms=25)
            exp_ = expand(s, 1.0, 25)
            exact_value = evaluate(s, 1.4).value
            partials = partial_sums(exp_, 1.4)
            for n in range(1, 26):
                measured = abs(exact_value - partials[n])
                assert measured <= remainder_bound(exp_, n, 1.4).bound + 1e-14


@st.composite
def series_with_true_tail(draw):
    """A tailed series and omitted terms ``(c_i, lambda_i)`` that its model
    admits: ``sum |c_i| <= sum_bound`` exactly and every ``lambda_i >= lambda_floor``."""
    lams = draw(st.lists(st.floats(0.1, 20.0), min_size=1, max_size=8, unique=True))
    alphas = [draw(st.floats(-1.0, 1.0)) for _ in lams]
    tail = TailModel(draw(st.floats(1e-6, 1.0)), draw(st.floats(0.1, 10.0)))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
    assume(sum(weights) > 0)
    fill = draw(st.sampled_from([1.0, draw(st.floats(0.0, 1.0))]))
    omitted = [
        (
            draw(st.sampled_from((-1.0, 1.0))) * tail.sum_bound * fill * w / sum(weights),
            tail.lambda_floor * (1.0 + draw(st.sampled_from([0.0, draw(st.floats(0.0, 5.0))]))),
        )
        for w in weights
    ]
    assume(sum(Fraction(abs(c)) for c, _ in omitted) <= Fraction(tail.sum_bound))
    return DirichletSeries(zip(alphas, lams), tail), omitted


class TestTailedCertificates:
    @given(
        drawn=series_with_true_tail(),
        tau=st.floats(0.3, 3.0),
        x=st.sampled_from([1.0]) | st.floats(0.05, 1.95),
        order=st.integers(1, 20),
    )
    def test_whole_series_within_every_certificate(self, drawn, tau, x, order):
        s, omitted = drawn
        t = tau * x
        exp_ = expand(s, tau, order)
        with mpmath.workdps(40):
            truth = mpmath.fsum(
                mpmath.mpf(c) * mpmath.exp(-mpmath.mpf(lam) * mpmath.mpf(t))
                for c, lam in [*s.terms, *omitted]
            )
            for n, partial in enumerate(partial_sums(exp_, t)[1:], 1):
                miss = abs(truth - mpmath.mpf(float(partial)))
                assert miss <= remainder_bound(exp_, n, t).bound + 1e-14, n
            result = evaluate_via_expansion(exp_, t)
            assert abs(truth - mpmath.mpf(result.value)) <= result.error_bound + 1e-14

    def test_tail_term_on_top_of_the_envelope(self):
        # (1, 1.5) fits the model and moves the series by e^{-1.5} at t = 1.
        s = DirichletSeries([(1.0, 1.0)], TailModel(1.0, 1.0))
        exp_ = expand(s, 1.0, 10)
        for n in range(1, 11):
            assert remainder_bound(exp_, n, 1.0).bound == evaluate(s, 1.0).error_bound
            assert remainder_bound(exp_, n, 1.0).bound >= math.exp(-1.5)
        assert evaluate_via_expansion(exp_, 0.5).error_bound >= math.exp(-0.75)


class TestEvaluateViaExpansion:
    def test_matches_known_exponential(self):
        exp_ = expand(DirichletSeries([(1.0, 1.0)]), 1.0, 20)
        result = evaluate_via_expansion(exp_, 0.9)
        assert abs(result.value - math.exp(-0.9)) < 1e-12

    def test_at_center_returns_b0(self):
        exp_ = expand(DirichletSeries([(2.0, 1.5)]), 1.0, 8)
        result = evaluate_via_expansion(exp_, 1.0)
        assert result.value == exp_.coeffs[0]
        assert result.error_bound == 0.0

    def test_edge_of_interval_still_enclosed(self, rng):
        s = random_series(rng, max_terms=15, lam_range=(0.2, 5.0))
        exp_ = expand(s, 1.0, 6)
        t = 1.999
        result = evaluate_via_expansion(exp_, t)
        truth = evaluate(s, t).value
        assert abs(result.value - truth) <= result.error_bound

    def test_rejects_outside_interval(self):
        exp_ = expand(DirichletSeries([(1.0, 1.0)]), 1.0, 5)
        with pytest.raises(ValueError):
            evaluate_via_expansion(exp_, 2.5)


class TestDerivativeConsistency:
    def test_b1_b2_match_finite_differences(self, rng):
        h = 1e-4
        for _ in range(10):
            s = well_scaled_series(rng)
            tau = 1.0
            exp_ = expand(s, tau, 2)
            f = lambda t: evaluate(s, t).value
            d1 = (f(tau + h) - f(tau - h)) / (2.0 * h)
            d2 = (f(tau + h) - 2.0 * f(tau) + f(tau - h)) / h**2
            assert abs(exp_.coeffs[1] - d1) / abs(d1) < 1e-5
            assert abs(exp_.coeffs[2] - d2 / 2.0) / abs(d2 / 2.0) < 1e-5


class TestReexpansion:
    def test_analytic_continuation_consistency(self, rng):
        # Walk the expansion center; values must agree within the combined
        # certificates wherever both expansions are valid.
        s = random_series(rng, max_terms=20, lam_range=(0.2, 20.0))
        exp1 = expand(s, 1.0, 30)
        exp2 = expand(s, 0.6, 30)
        for t in np.linspace(0.25, 1.15, 7):
            r1 = evaluate_via_expansion(exp1, float(t))
            r2 = evaluate_via_expansion(exp2, float(t))
            assert abs(r1.value - r2.value) <= r1.error_bound + r2.error_bound + 1e-14


class TestOrderSelection:
    def test_smallest_certified_order(self):
        exp_ = expand(geometric_series(), 0.8, 25)
        n = order_for_tolerance(exp_, 0.5, 1e-8)
        assert remainder_bound(exp_, n, 0.5).bound <= 1e-8
        if n > 1:
            assert remainder_bound(exp_, n - 1, 0.5).bound > 1e-8

    def test_geometric_partial_sum_convergence(self):
        s = geometric_series()
        exp_ = expand(s, 0.8, 25)
        truth = evaluate(s, 0.5).value
        final = abs(partial_sums(exp_, 0.5)[25] - truth)
        assert final <= remainder_bound(exp_, 25, 0.5).bound
        assert final < 1e-8

    def test_unreachable_tolerance_raises(self):
        exp_ = expand(DirichletSeries([(1.0, 1.0)]), 1.0, 5)
        with pytest.raises(ValueError, match="no order"):
            order_for_tolerance(exp_, 1.999, 1e-300)

    def test_tail_bound_alone_reaching_tolerance_raises(self):
        s = DirichletSeries([(1.0, 1.0)], TailModel(1e-3, 1.0))
        exp_ = expand(s, 1.0, 60)
        tail = _tail_error(s.tail, 1.5)
        for tol in (tail, tail / 2):
            with pytest.raises(ValueError, match="tail bound"):
                order_for_tolerance(exp_, 1.5, tol)
        n = order_for_tolerance(exp_, 1.5, 2 * tail)
        assert remainder_bound(exp_, n, 1.5).bound <= 2 * tail

    def test_tolerance_must_be_finite_and_positive(self):
        exp_ = expand(DirichletSeries([(1.0, 1.0)]), 1.0, 5)
        with pytest.raises(ValueError, match="positive"):
            order_for_tolerance(exp_, 1.5, 0.0)
        for tol in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                order_for_tolerance(exp_, 1.5, tol)
