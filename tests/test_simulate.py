import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from expseries.control import (
    ControlFunction,
    SpectralState,
    synthesize_distributed,
    synthesize_lumped,
)
from expseries.heat import Actuator, blocked_set, coupling_coefficient, eigenvalue
from expseries.simulate import (
    Trajectory,
    observability_series,
    observability_signal,
    project_onto_v,
    propagate,
    trajectory_from_csv,
    trajectory_to_csv,
    verify_control,
)
from expseries.uniqueness import is_identically_zero


FREE_DECAY_MODE1 = 5.172318620381234e-05  # exp(-pi^2), quadrature-free oracle


class TestPropagate:
    def test_free_decay(self):
        act = Actuator.from_strings("0", "1")
        traj = propagate(SpectralState.unit_mode(1, 3), None, act, 1.0, steps=32)
        assert traj.states[-1, 0] == pytest.approx(FREE_DECAY_MODE1, rel=1e-12)
        assert traj.states[-1, 1] == 0.0
        assert traj.states[-1, 2] == 0.0

    def test_zero_state_stays_zero(self):
        act = Actuator.from_strings("0", "1")
        traj = propagate(SpectralState.zero(4), None, act, 1.0, steps=16)
        assert np.all(traj.states == 0.0)

    def test_energy_decays_without_control(self):
        act = Actuator.from_strings("0", "1")
        traj = propagate(SpectralState((1.0, -0.5, 0.25)), None, act, 0.5, steps=32)
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.all(np.diff(norms) < 0)

    def test_steering_verified_against_synthesis(self):
        act = Actuator.from_strings("0", "1")
        z0 = SpectralState.unit_mode(1)
        z1 = SpectralState.zero(1)
        control, _ = synthesize_lumped(z0, z1, act, 1.0, 1, 1e-6)
        traj = propagate(z0, control, act, 1.0, steps=64, target=z1)
        assert traj.terminal_error < 1e-8

    def test_closed_form_matches_quadrature(self):
        # Lumped exponential-sum control: closed-form convolution vs scipy.
        act = Actuator.from_strings("0", "1")
        control = ControlFunction(
            kind="lumped",
            horizon=1.0,
            exponents=(eigenvalue(1), eigenvalue(2)),
            coeffs=(0.3, -0.7),
        )
        traj = propagate(SpectralState.zero(3), control, act, 1.0, steps=16)
        for j in (1, 3):
            beta = coupling_coefficient(act, j)
            mu = eigenvalue(j)
            oracle, _ = quad(
                lambda s: math.exp(mu * (1.0 - s)) * float(control.profile(s)),
                0.0,
                1.0,
                limit=200,
            )
            assert traj.states[-1, j - 1] == pytest.approx(beta * oracle, abs=1e-12)

    def test_callable_control_matches_closed_form(self):
        act = Actuator.from_strings("0", "1")
        control = ControlFunction(
            kind="lumped", horizon=1.0, exponents=(eigenvalue(1),), coeffs=(0.5,)
        )
        as_callable = lambda s: 0.5 * np.exp(eigenvalue(1) * (1.0 - np.asarray(s)))
        exact = propagate(SpectralState.unit_mode(1, 2), control, act, 1.0, steps=16)
        quadrature = propagate(SpectralState.unit_mode(1, 2), as_callable, act, 1.0, steps=16)
        assert np.max(np.abs(exact.states - quadrature.states)) < 1e-9

    def test_control_nan_between_probe_points_is_rejected_quickly(self):
        act = Actuator.from_strings("0", "1")
        u = lambda s: np.where((s > 0.1) & (s < 0.2), np.nan, 1.0)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="finite"):
            propagate(SpectralState.zero(2), u, act, 1.0)
        assert time.perf_counter() - start < 1.0

    def test_unresolved_jump_warns_and_stays_accurate(self):
        act = Actuator.from_strings("0", "1")
        jump = 1e8
        u = lambda s: jump * (np.asarray(s) >= 0.3)
        # With 16 steps the depth limit is reached on panels a few ulps wide,
        # where the jump still misses the tolerance.
        with pytest.warns(RuntimeWarning, match="quadrature on"):
            traj = propagate(SpectralState.zero(2), u, act, 1.0, steps=16)
        for j in (1, 2):
            mu = eigenvalue(j)
            exact = coupling_coefficient(act, j) * jump * math.expm1(mu * 0.7) / mu
            assert traj.states[-1, j - 1] == pytest.approx(exact, rel=1e-12)

    def test_noisy_control_stops_at_the_panel_budget(self):
        act = Actuator.from_strings("0", "1")
        rng = np.random.default_rng(5)
        u = lambda s: 1.0 + 1e-3 * rng.standard_normal(np.shape(s))
        start = time.perf_counter()
        with pytest.warns(RuntimeWarning, match="budget") as record:
            traj = propagate(SpectralState.zero(2), u, act, 1.0, steps=16)
        assert time.perf_counter() - start < 5.0
        assert len(record) == 16  # one per step
        mu = eigenvalue(1)
        exact = coupling_coefficient(act, 1) * math.expm1(mu) / mu
        assert traj.states[-1, 0] == pytest.approx(exact, rel=1e-2)

    def test_square_wave_with_thousands_of_jumps_stops_at_the_panel_budget(self):
        act = Actuator.from_strings("0", "1")
        u = lambda s: np.where(np.floor(3200.0 * np.asarray(s)) % 2 == 0, 1.0, -1.0)
        start = time.perf_counter()
        with pytest.warns(RuntimeWarning, match="budget"):
            propagate(SpectralState.zero(2), u, act, 1.0, steps=16)
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("jumps, expected, tol", [(3200, -1.4067e-4, 1e-4), (640, -7.0332e-4, 1e-5)])
    def test_square_wave_at_the_budget_stays_accurate(self, jumps, expected, tol):
        act = Actuator.from_strings("0", "1")
        u = lambda s: np.where(np.floor(jumps * np.asarray(s)) % 2 == 0, 1.0, -1.0)
        with pytest.warns(RuntimeWarning, match="budget"):
            traj = propagate(SpectralState.zero(2), u, act, 1.0, steps=16)
        # Exact piecewise integral of e^{mu (1 - s)} u(s) over the 'jumps' pieces.
        mu = eigenvalue(1)
        edges = np.arange(jumps + 1) / jumps
        pieces = (np.exp(mu * (1.0 - edges[:-1])) - np.exp(mu * (1.0 - edges[1:]))) / mu
        signs = np.where(np.arange(jumps) % 2 == 0, 1.0, -1.0)
        exact = coupling_coefficient(act, 1) * math.fsum((signs * pieces).tolist())
        assert exact == pytest.approx(expected, abs=1e-8)
        assert abs(traj.states[-1, 0] - exact) < tol

    def test_smooth_callable_is_integrated_once_per_step(self):
        act = Actuator.from_strings("0", "1")
        calls = []

        def u(s):
            calls.append(1)
            return 0.5 * np.exp(eigenvalue(1) * (1.0 - np.asarray(s)))

        steps = 64
        propagate(SpectralState.unit_mode(1, 3), u, act, 1.0, steps=steps)
        assert len(calls) <= 3 * steps + 2

    def test_blocked_modes_under_callable_match_free_decay(self):
        act = Actuator.from_strings("0", "1/2")
        z0 = SpectralState((1.0, -0.5, 0.25, 1.0, 0.0, 0.5, 0.0, -0.75))
        u = lambda s: np.cos(3.0 * np.asarray(s))
        forced = propagate(z0, u, act, 1.0, steps=32)
        free = propagate(z0, None, act, 1.0, steps=32)
        blocked = [3, 7]
        assert np.array_equal(forced.states[:, blocked], free.states[:, blocked])
        assert not np.array_equal(forced.states[:, :3], free.states[:, :3])

    def test_semigroup_property(self):
        act = Actuator.from_strings("0", "1")
        horizon = 1.0
        control = ControlFunction(
            kind="lumped",
            horizon=horizon,
            exponents=(eigenvalue(1), eigenvalue(2)),
            coeffs=(0.4, -0.2),
        )
        z0 = SpectralState((1.0, 0.5, -0.25))
        whole = propagate(z0, control, act, horizon, steps=32)
        first = propagate(z0, control_restriction_first_half(control), act, 0.5, steps=16)
        mid = SpectralState(first.states[-1])
        second = propagate(
            mid, control_restriction_second_half(control), act, 0.5, steps=16
        )
        assert np.max(np.abs(second.states[-1] - whole.states[-1])) < 1e-10

    def test_blocked_subspace_invariant_under_free_flow(self):
        act = Actuator.from_strings("0", "1/2")
        z0 = SpectralState((0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.5))
        traj = propagate(z0, None, act, 1.0, steps=16)
        unblocked = [j - 1 for j in range(1, 9) if j % 4 != 0]
        assert np.all(traj.states[:, unblocked] == 0.0)

    def test_distributed_steering(self):
        act = Actuator.from_strings("0.3", "0.7", kind="distributed")
        z0 = SpectralState.unit_mode(1)
        z1 = SpectralState.zero(1)
        control, _ = synthesize_distributed(z0, z1, act, 1.0, 1, 1e-6)
        traj = propagate(z0, control, act, 1.0, steps=32, target=z1)
        assert traj.terminal_error < 1e-8

    def test_verify_control_exposes_spillover(self):
        # The widened simulation sees forcing leak into untargeted modes;
        # the targeted mode is still hit and the leak is quantified.
        act = Actuator.from_strings("0", "1/3")
        z0 = SpectralState.unit_mode(1)
        z1 = SpectralState.zero(1)
        control, predicted = synthesize_lumped(z0, z1, act, 1.0, 1, 1e-6)
        wide = verify_control(z0, z1, control, act, 1.0)
        assert wide.n_modes == 2
        assert abs(wide.states[-1, 0]) < 1e-12
        assert wide.states[-1, 1] != 0.0  # leak into the untargeted mode
        assert wide.terminal_error >= predicted

    def test_distributed_eight_random_targets(self, rng):
        act = Actuator.from_strings("0.3", "0.7", kind="distributed")
        z0 = SpectralState(tuple(rng.standard_normal(8)))
        z1 = SpectralState(tuple(rng.standard_normal(8)))
        control, predicted = synthesize_distributed(z0, z1, act, 1.0, 8, 1e-6)
        assert predicted == 0.0
        traj = propagate(z0, control, act, 1.0, steps=32, target=z1)
        assert traj.terminal_error < 1e-8

    def test_validation(self):
        act = Actuator.from_strings("0", "1")
        with pytest.raises(ValueError, match="steps"):
            propagate(SpectralState.unit_mode(1), None, act, 1.0, steps=8)
        with pytest.raises(ValueError, match="horizon"):
            propagate(SpectralState.unit_mode(1), None, act, 0.0)
        bad = ControlFunction(
            kind="distributed",
            horizon=1.0,
            exponents=(eigenvalue(1), eigenvalue(2)),
            coeffs=(1.0, 1.0),
        )
        with pytest.raises(ValueError, match="modes"):
            propagate(SpectralState.unit_mode(1), bad, act, 1.0)
        mismatched = ControlFunction(
            kind="lumped", horizon=2.0, exponents=(), coeffs=()
        )
        with pytest.raises(ValueError, match="horizon"):
            propagate(SpectralState.unit_mode(1), mismatched, act, 1.0)
        with pytest.raises(ValueError, match="finite"):
            propagate(SpectralState.unit_mode(1), lambda s: np.full_like(np.asarray(s), np.inf), act, 1.0)


def control_restriction_first_half(control: ControlFunction) -> ControlFunction:
    # u(s) for s in [0, T/2]: same exponents, horizon T, evaluated directly;
    # as a control over [0, T/2] the profile is sum c_k e^{nu_k (T - s)}
    # = sum (c_k e^{nu_k T/2}) e^{nu_k (T/2 - s)}.
    half = control.horizon / 2.0
    coeffs = tuple(
        c * math.exp(nu * half) for c, nu in zip(control.coeffs, control.exponents)
    )
    return ControlFunction(kind="lumped", horizon=half, exponents=control.exponents, coeffs=coeffs)


def control_restriction_second_half(control: ControlFunction) -> ControlFunction:
    # u(s + T/2) = sum c_k e^{nu_k (T/2 - s)}: same coefficients, horizon T/2.
    half = control.horizon / 2.0
    return ControlFunction(
        kind="lumped", horizon=half, exponents=control.exponents, coeffs=control.coeffs
    )


class TestObservability:
    def test_blocked_mode_yields_exact_zero_signal(self):
        act = Actuator.from_strings("0", "1/2")
        signal = observability_signal(SpectralState.unit_mode(4), act, 1.0, 33)
        assert all(v == 0.0 for v in signal.values)
        series = observability_series(SpectralState.unit_mode(4), act)
        assert is_identically_zero(series, 1.0, 1e-15)

    def test_unblocked_mode_matches_closed_form(self):
        act = Actuator.from_strings("0", "1")
        signal = observability_signal(SpectralState.unit_mode(1), act, 1.0, 17)
        beta1 = coupling_coefficient(act, 1)
        for t, v in zip(signal.times, signal.values):
            assert v == pytest.approx(beta1 * math.exp(eigenvalue(1) * t), rel=1e-12)
        series = observability_series(SpectralState.unit_mode(1), act)
        assert not is_identically_zero(series, 1.0, 1e-9)

    def test_zero_state(self):
        act = Actuator.from_strings("0", "1")
        signal = observability_signal(SpectralState.zero(3), act, 1.0, 9)
        assert all(v == 0.0 for v in signal.values)

    def test_duality_over_mode_range(self):
        act = Actuator.from_strings("0", "1/2")
        report = blocked_set(act, 16)
        for j in range(1, 17):
            series = observability_series(SpectralState.unit_mode(j), act)
            vanishes = is_identically_zero(series, 1.0, 1e-15)
            assert vanishes == report.is_blocked(j)

    def test_sample_count_validated(self):
        act = Actuator.from_strings("0", "1")
        with pytest.raises(ValueError, match="samples"):
            observability_signal(SpectralState.unit_mode(1), act, 1.0, 1)


class TestProjectOntoV:
    def test_blocked_mode_removed(self):
        report = blocked_set(Actuator.from_strings("0", "1/2"), 8)
        assert project_onto_v(SpectralState.unit_mode(4), report).norm() == 0.0

    def test_unblocked_mode_unchanged(self):
        report = blocked_set(Actuator.from_strings("0", "1/2"), 8)
        y = SpectralState.unit_mode(3)
        assert project_onto_v(y, report) == y

    def test_componentwise(self):
        report = blocked_set(Actuator.from_strings("0", "1/2"), 8)
        y = SpectralState((0.0, 0.0, 1.0, 1.0))
        projected = project_onto_v(y, report)
        assert projected.coeffs == (0.0, 0.0, 1.0, 0.0)

    def test_idempotent_and_nonexpansive(self, rng):
        report = blocked_set(Actuator.from_strings("0", "1/2"), 16)
        y = SpectralState(tuple(rng.standard_normal(16)))
        once = project_onto_v(y, report)
        assert project_onto_v(once, report) == once
        assert once.norm() <= y.norm()


class TestTrajectoryCsv:
    def test_round_trip(self):
        act = Actuator.from_strings("0", "1")
        traj = propagate(
            SpectralState((1.0, -0.5)), None, act, 1.0, steps=16, target=SpectralState.zero(2)
        )
        text = trajectory_to_csv(traj)
        again = trajectory_from_csv(text)
        assert np.array_equal(again.times, traj.times)
        assert np.array_equal(again.states, traj.states)
        assert again.terminal_error == traj.terminal_error
