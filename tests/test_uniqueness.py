import math

import numpy as np
import pytest

from expseries.series import DirichletSeries, TailModel, evaluate, shift_normalize
from expseries.uniqueness import (
    PeelResult,
    SampledSignal,
    SeparationWarning,
    chebyshev_sample,
    is_identically_zero,
    peel_leading,
)

from conftest import random_series


def exponential_sum_signal(
    alphas, lams, horizon: float, n_samples: int, noise: float = 0.0, seed: int = 0
) -> SampledSignal:
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, horizon, n_samples)
    values = sum(a * np.exp(-l * t) for a, l in zip(alphas, lams))
    if noise:
        values = values + rng.standard_normal(n_samples) * noise
    return SampledSignal(t.tolist(), np.asarray(values).tolist(), horizon)


def per_node_verdict(series: DirichletSeries, horizon: float, tol: float, nodes: int) -> bool:
    """The vanishing test as one ``evaluate`` call per node."""
    for t in chebyshev_sample(horizon, nodes):
        result = evaluate(series, float(t))
        if abs(result.value) + result.error_bound > tol:
            return False
    return True


class TestIsIdenticallyZero:
    @pytest.mark.parametrize("tail", [None, TailModel(1e-3, 40.0)])
    def test_many_blocks_match_per_node_evaluate(self, tail):
        rng = np.random.default_rng(9)
        lams = np.unique(rng.uniform(0.1, 100.0, 3000))
        alphas = rng.standard_normal(lams.size)
        s = DirichletSeries(zip(alphas, lams), tail)
        horizon = 1.5
        # A tolerance equal to one node's |value| + bound flips on its last bit.
        for t in chebyshev_sample(horizon, 33):
            result = evaluate(s, float(t))
            tol = abs(result.value) + result.error_bound
            for probe in (tol, math.nextafter(tol, 0.0)):
                assert is_identically_zero(s, horizon, probe, nodes=33) == per_node_verdict(
                    s, horizon, probe, 33
                )

    def test_fails_only_at_the_last_node(self):
        # Each pair a (e^{-l t} - e^{-(l + 0.01) t}) with l <= 0.5 rises on
        # [0, 1], so the sum is 0 at t = 0 and largest at the last node.
        rng = np.random.default_rng(10)
        lams = np.unique(rng.uniform(0.1, 0.5, 1500))
        alphas = rng.uniform(0.0, 1.0, lams.size)
        s = DirichletSeries(list(zip(alphas, lams)) + list(zip(-alphas, lams + 0.01)))
        nodes = chebyshev_sample(1.0, 33)
        before, last = (abs(evaluate(s, float(t)).value) for t in nodes[-2:])
        tol = 0.5 * (last + before)
        assert not per_node_verdict(s, 1.0, tol, 33)
        assert not is_identically_zero(s, 1.0, tol, nodes=33)
        assert is_identically_zero(s, 1.0, last, nodes=33)

    def test_negative_exponents_stop_before_an_overflowing_node(self):
        # e^{800 t} overflows for t > 0.89; the test fails at t = 0.0024 first.
        s = DirichletSeries([(1.0, -800.0), (-1.0, -801.0)])
        assert not is_identically_zero(s, 1.0, 1e-9, nodes=33)

    def test_nan_node_value_fails(self):
        # 0 * e^{1000 t} is NaN for t > 0.71, yet phi(1) = 1e-12 e^30 is about 10.7.
        s = DirichletSeries([(0.0, -1000.0), (1e-12, -30.0)])
        with pytest.warns(RuntimeWarning):
            assert not is_identically_zero(s, 1.0, 1.0)

    def test_zero_coefficients(self):
        s = DirichletSeries([(0.0, 1.0), (0.0, 2.0)])
        assert is_identically_zero(s, 1.0, 1e-12)

    def test_two_mode_difference_is_nonzero(self):
        # Vanishes at t = 0 but not at t = 1: e^-1 - e^-2 = 0.23254...
        s = DirichletSeries([(1.0, 1.0), (-1.0, 2.0)])
        assert abs(evaluate(s, 1.0).value - 0.23254415793482963) < 1e-15
        assert not is_identically_zero(s, 1.0, 1e-6)

    def test_near_cancellation_below_tolerance(self):
        # |e^-t - e^-(1+1e-9)t| <= 1e-9 t e^-t, far below the tolerance: the
        # verdict is about the tolerance, not about exact coefficients.
        s = DirichletSeries([(1.0, 1.0), (-1.0, 1.0 + 1e-9)])
        assert is_identically_zero(s, 1.0, 1e-6)

    def test_soundness_small_mass_is_zero(self, rng):
        # sup |phi| <= sum |alpha_j| for nonnegative exponents.
        for _ in range(5):
            s = random_series(rng, max_terms=8, lam_range=(0.0, 20.0), total_abs=(1e-9, 1e-8))
            assert is_identically_zero(s, 2.0, 1e-7)

    def test_single_heat_modes_are_nonzero(self):
        for j in (1, 2, 3, 5):
            beta = math.sqrt(2) * (1 - math.cos(j * math.pi)) / (j * math.pi)
            if beta == 0.0:
                continue
            s = DirichletSeries([(beta, (j * math.pi) ** 2)])
            assert not is_identically_zero(s, 1.0, 1e-9)

    def test_shift_invariant_verdict(self, rng):
        s = random_series(rng, max_terms=6, lam_range=(-2.0, 8.0), total_abs=(0.5, 2.0))
        shifted, shift = shift_normalize(s)
        scale = max(math.exp(-shift * t) for t in (0.0, 1.0))
        tol = 1e-9
        assert is_identically_zero(s, 1.0, tol) == is_identically_zero(
            shifted, 1.0, tol / scale if scale > 1 else tol
        )

    def test_nodes_cover_endpoints(self):
        nodes = chebyshev_sample(2.0, 9)
        assert nodes[0] == 0.0
        assert nodes[-1] == pytest.approx(2.0)
        assert np.all(np.diff(nodes) > 0)

    def test_validation(self):
        s = DirichletSeries([(1.0, 1.0)])
        with pytest.raises(ValueError):
            is_identically_zero(s, 0.0, 1e-6)
        with pytest.raises(ValueError):
            is_identically_zero(s, 1.0, 0.0)
        for tol in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                is_identically_zero(s, 1.0, tol)


class TestPeelLeading:
    def test_single_mode_exact(self):
        signal = exponential_sum_signal([2.0], [1.0], 5.0, 50)
        result = peel_leading(signal, [1.0], 1)
        assert abs(result.recovered[0][0] - 2.0) < 1e-6
        assert result.residual_norm < 1e-12

    def test_zero_signal(self):
        t = np.linspace(0.0, 3.0, 30)
        signal = SampledSignal(t.tolist(), [0.0] * 30, 3.0)
        result = peel_leading(signal, [1.0, 2.5], 2)
        assert all(abs(a) < 1e-10 for a, _ in result.recovered)
        assert result.residual_norm < 1e-10

    def test_heat_mode_pair(self):
        lams = [math.pi**2, 4 * math.pi**2]
        signal = exponential_sum_signal([1.0, -0.5], lams, 1.0, 200)
        result = peel_leading(signal, lams, 2)
        assert abs(result.recovered[0][0] - 1.0) < 1e-4
        assert abs(result.recovered[1][0] + 0.5) < 1e-4

    def test_recovered_order_matches_lambdas(self):
        signal = exponential_sum_signal([1.0, 2.0, 3.0], [1.0, 3.0, 5.0], 4.0, 100)
        result = peel_leading(signal, [1.0, 3.0, 5.0], 3)
        assert [lam for _, lam in result.recovered] == [1.0, 3.0, 5.0]

    def test_noise_sweep_errors_decrease(self):
        lams = [1.0, 2.2, 3.5]
        alphas = [1.5, -0.8, 0.6]
        errors = []
        for k, sigma in enumerate((1e-4, 1e-6, 1e-8)):
            signal = exponential_sum_signal(alphas, lams, 6.0, 400, noise=sigma, seed=k)
            result = peel_leading(signal, lams, 3)
            errors.append(
                max(abs(a_est - a) for (a_est, _), a in zip(result.recovered, alphas))
            )
        assert errors[0] > errors[1] > errors[2]
        assert errors[1] < 1e-4

    def test_partial_extraction_protected_from_fast_modes(self):
        # Only the slow mode is extracted; the unmodeled fast one must not
        # corrupt it beyond the dominance-window guarantee.
        signal = exponential_sum_signal([2.0, 3.0], [1.0, 5.0], 6.0, 400)
        result = peel_leading(signal, [1.0, 5.0], 1)
        assert abs(result.recovered[0][0] - 2.0) < 0.2

    def test_separation_warning(self):
        signal = exponential_sum_signal([1.0, 1.0], [1.0, 1.05], 2.0, 60)
        with pytest.warns(SeparationWarning):
            peel_leading(signal, [1.0, 1.05], 2)

    @pytest.mark.parametrize(
        "alphas, lams, horizon, n_samples, noise",
        [
            ([2.0], [1.0], 5.0, 50, 0.0),
            ([1.0, -0.5], [math.pi**2, 4 * math.pi**2], 1.0, 200, 0.0),
            ([1.0, 2.0, 3.0], [1.0, 3.0, 5.0], 4.0, 100, 0.0),
            ([1.5, -0.8, 0.6], [1.0, 2.2, 3.5], 6.0, 400, 1e-4),
            ([1.5, -0.8, 0.6], [1.0, 2.2, 3.5], 6.0, 400, 1e-8),
            ([2.0, -1.0], [1.0, 2.5], 5.0, 80, 0.0),
        ],
    )
    def test_full_extraction_is_joint_least_squares(self, alphas, lams, horizon, n_samples, noise):
        signal = exponential_sum_signal(alphas, lams, horizon, n_samples, noise=noise)
        result = peel_leading(signal, lams, len(lams))
        design = np.exp(-np.outer(signal.time_array, lams))
        reference = np.linalg.lstsq(design, signal.value_array, rcond=None)[0]
        got = np.array([a for a, _ in result.recovered])
        assert np.max(np.abs(got - reference)) <= 1e-12 * np.max(np.abs(reference))
        singular = np.linalg.svd(design, compute_uv=False)
        assert result.condition == pytest.approx(singular[0] / singular[-1], rel=1e-9)
        assert result.fallback_windows == ()

    def test_partial_extraction_of_heat_modes_stays_finite(self):
        # Two of four heat modes: the windowed fits are strongly coupled.
        lams = [(j * math.pi) ** 2 for j in range(1, 5)]
        alphas = [1.0, -0.6, 0.4, 0.3]
        signal = exponential_sum_signal(alphas, lams, 1.0, 300, noise=1e-9)
        result = peel_leading(signal, lams, 2)
        got = np.array([a for a, _ in result.recovered])
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - alphas[:2])) < math.fsum(abs(a) for a in alphas)
        assert math.isfinite(result.condition)

    @pytest.mark.parametrize("horizon, n_samples", [(1.0, 300), (0.6, 240)])
    def test_partial_extraction_of_two_heat_modes_is_accurate(self, horizon, n_samples):
        # At t >= ln(10) / (16 - 9) pi^2 the third mode is at most a tenth of
        # the second, which bounds how far it can pull the fit.
        lams = [(j * math.pi) ** 2 for j in range(1, 5)]
        alphas = [1.0, -0.6, 0.4, 0.3]
        signal = exponential_sum_signal(alphas, lams, horizon, n_samples, noise=1e-9)
        result = peel_leading(signal, lams, 2)
        got = np.array([a for a, _ in result.recovered])
        assert np.max(np.abs(got - alphas[:2])) <= 0.05
        assert result.fallback_windows == ()

    @pytest.mark.parametrize(
        "alphas, lams, horizon, n_samples, count",
        [
            ([1.0, -0.6, 0.4, 0.3], [(j * math.pi) ** 2 for j in range(1, 5)], 1.0, 300, 2),
            ([1.0, -0.6, 0.4, 0.3], [(j * math.pi) ** 2 for j in range(1, 5)], 0.6, 240, 3),
            ([2.0, 3.0], [1.0, 5.0], 6.0, 400, 1),
            ([1.5, -0.8, 0.6], [1.0, 2.2, 3.5], 6.0, 400, 2),
        ],
    )
    def test_partial_extraction_is_least_squares_on_shared_window(
        self, alphas, lams, horizon, n_samples, count
    ):
        signal = exponential_sum_signal(alphas, lams, horizon, n_samples, noise=1e-9)
        result = peel_leading(signal, lams, count)
        t = signal.time_array
        window = t >= math.log(10.0) / (lams[count] - lams[count - 1])
        design = np.exp(-np.outer(t[window], lams[:count]))
        reference = np.linalg.lstsq(design, signal.value_array[window], rcond=None)[0]
        got = np.array([a for a, _ in result.recovered])
        assert np.max(np.abs(got - reference)) <= 1e-12 * np.max(np.abs(reference))
        singular = np.linalg.svd(design, compute_uv=False)
        assert result.condition == pytest.approx(singular[0] / singular[-1], rel=1e-9)

    def test_short_horizon_window_falls_back_to_last_quarter(self):
        # ln(10) / (5 - 1) > horizon: no sample lies in the dominance window.
        signal = exponential_sum_signal([2.0, 3.0], [1.0, 5.0], 0.5, 40)
        result = peel_leading(signal, [1.0, 5.0], 1)
        assert result.fallback_windows == (0,)
        assert np.isfinite(result.recovered[0][0])

    def test_window_with_fewer_than_two_samples_per_mode_falls_back(self):
        # ln(10) / (10 - 2) = 0.288: only the last 3 of 60 samples lie in the
        # shared window, fewer than 2 per extracted mode.
        lams = [1.0, 2.0, 10.0]
        signal = exponential_sum_signal([1.0, -0.5, 0.2], lams, 0.3, 60)
        with pytest.warns(SeparationWarning, match="gaps"):
            result = peel_leading(signal, lams, 2)
        assert result.fallback_windows == (0, 1)
        design = np.exp(-np.outer(signal.time_array[-15:], lams[:2]))
        reference = np.linalg.lstsq(design, signal.value_array[-15:], rcond=None)[0]
        got = np.array([a for a, _ in result.recovered])
        assert np.max(np.abs(got - reference)) <= 1e-12 * np.max(np.abs(reference))

    def test_mode_without_signal_on_its_window_is_pinned_to_zero(self):
        # exp(-1000 t) underflows to 0 for every t >= 1.
        t = np.linspace(1.0, 2.0, 40)
        signal = SampledSignal(t.tolist(), (2.0 * np.exp(-t)).tolist(), 2.0)
        with pytest.warns(SeparationWarning, match="no signal"):
            result = peel_leading(signal, [1.0, 1000.0], 2)
        assert result.recovered[1] == (0.0, 1000.0)
        assert result.recovered[0][0] == pytest.approx(2.0, rel=1e-12)

    def test_validation(self):
        signal = exponential_sum_signal([1.0], [1.0], 2.0, 10)
        with pytest.raises(ValueError, match="exceeds"):
            peel_leading(signal, [1.0], 2)
        with pytest.raises(ValueError, match="strictly increasing"):
            peel_leading(signal, [2.0, 1.0], 1)
        with pytest.raises(ValueError, match="samples"):
            peel_leading(exponential_sum_signal([1.0], [1.0], 2.0, 3), [1.0, 2.0], 2)


class TestSampledSignal:
    def test_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SampledSignal([0.0, 0.0], [1.0, 1.0], 1.0)
        with pytest.raises(ValueError, match="within"):
            SampledSignal([0.0, 2.0], [1.0, 1.0], 1.0)
        with pytest.raises(ValueError, match="equal length"):
            SampledSignal([0.0, 0.5], [1.0], 1.0)
