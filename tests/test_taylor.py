import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from expseries.series import DirichletSeries, TailModel, evaluate
from expseries.taylor import (
    _tail_coefficient_bound,
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


def natural_order_rows(series: DirichletSeries, tau: float, order: int):
    """``expand``'s recurrence rows summed in increasing-exponent order."""
    tail_sum = series.tail.sum_bound if series.tail is not None else 0.0
    term = series.alphas * np.exp(-series.lambdas * tau)
    coeffs, bounds = [], []
    for n in range(order + 1):
        if n:
            term = term * (-series.lambdas) / n
        coeffs.append(math.fsum(term.tolist()))
        bounds.append(
            math.fsum(np.abs(term).tolist()) + _tail_coefficient_bound(tail_sum, tau, n)
        )
    return tuple(coeffs), tuple(bounds)


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


class TestExpand:
    @given(s=wide_series(), tau=st.floats(0.05, 5.0), order=st.integers(0, 120))
    def test_rows_equal_natural_order_sums_bit_for_bit(self, s, tau, order):
        exp_ = expand(s, tau, order)
        coeffs, bounds = natural_order_rows(s, tau, order)
        bits = lambda values: [float(v).hex() for v in values]
        assert bits(exp_.coeffs) == bits(coeffs)
        assert bits(exp_.coeff_bounds) == bits(bounds)
        assert exp_.coeffs[0] == evaluate(s, tau).value

    @pytest.mark.parametrize("tail", [None, TailModel(0.5, 50.0)])
    def test_many_blocks_equal_natural_order_sums_bit_for_bit(self, tail):
        rng = np.random.default_rng(8)
        lams = np.unique(rng.uniform(1e-3, 1e3, 3000))
        alphas = rng.choice([-1.0, 1.0], lams.size) * 10.0 ** rng.uniform(-30, 30, lams.size)
        s = DirichletSeries(zip(alphas, lams), tail)
        exp_ = expand(s, 0.7, 40)
        coeffs, bounds = natural_order_rows(s, 0.7, 40)
        bits = lambda values: [float(v).hex() for v in values]
        assert bits(exp_.coeffs) == bits(coeffs)
        assert bits(exp_.coeff_bounds) == bits(bounds)

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
            assert np.all(b <= a * (1.0 + 1e-14) + 1e-300)

    def test_stirling_envelope(self, rng):
        # a_n <= S0 / (tau^n sqrt(2 pi n)) for n >= 1.
        for tau in (0.3, 1.0, 3.0):
            s = random_series(rng)
            exp_ = expand(s, tau, 30)
            s0 = exp_.sum_abs_alpha
            for n in range(1, 31):
                envelope = s0 / (tau**n * math.sqrt(2.0 * math.pi * n))
                assert exp_.coeff_bounds[n] <= envelope * (1.0 + 1e-12)

    def test_tail_contribution_added(self):
        s_tail = geometric_series()
        s_plain = DirichletSeries(s_tail.terms)
        with_tail = expand(s_tail, 0.8, 10)
        without = expand(s_plain, 0.8, 10)
        assert with_tail.coeffs == without.coeffs
        assert all(
            bt >= bp for bt, bp in zip(with_tail.coeff_bounds, without.coeff_bounds)
        )
        assert with_tail.coeff_bounds[0] == pytest.approx(
            without.coeff_bounds[0] + 2.0**-40
        )

    def test_rejects_bad_inputs(self):
        s = DirichletSeries([(1.0, 1.0)])
        with pytest.raises(ValueError, match="tau"):
            expand(s, 0.0, 3)
        with pytest.raises(ValueError, match="order"):
            expand(s, 1.0, -1)
        with pytest.raises(ValueError, match="strictly positive"):
            expand(DirichletSeries([(1.0, -1.0), (1.0, 1.0)]), 1.0, 3)

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

    def test_tolerance_must_be_finite_and_positive(self):
        exp_ = expand(DirichletSeries([(1.0, 1.0)]), 1.0, 5)
        with pytest.raises(ValueError, match="positive"):
            order_for_tolerance(exp_, 1.5, 0.0)
        for tol in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                order_for_tolerance(exp_, 1.5, tol)
