import json
import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from expseries._numerics import BLOCK_ELEMENTS, _gl_panels, adaptive_gauss_legendre
from expseries.cli import main
from expseries.control import (
    ControlFunction,
    SpectralState,
    synthesize_distributed,
    synthesize_lumped,
)
from expseries.heat import (
    Actuator,
    blocked_set,
    coupling_coefficient,
    decay_exponent,
    eigenvalue,
)
from expseries.series import DirichletSeries
from expseries.simulate import (
    Trajectory,
    observability_signal,
    project_onto_v,
    propagate,
    verify_control,
)
from expseries.uniqueness import is_identically_zero

from test_heat import exact_actuators, mp_mass_matrix


FREE_DECAY_MODE1 = 5.172318620381234e-05  # exp(-pi^2), quadrature-free oracle


def sensor_series(y: SpectralState, act: Actuator) -> DirichletSeries:
    """The sensor output sum_j beta_j y_j exp(-lambda_j t) as a series, for
    checking the exact observability verdict against the vanishing test."""
    return DirichletSeries(
        (coupling_coefficient(act, j) * y.mode(j), decay_exponent(j))
        for j in range(1, y.n_modes + 1)
    )


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

    def test_unresolved_jump_raises_naming_its_step(self):
        act = Actuator.from_strings("0", "1")
        calls = []

        def u(s):
            calls.append(len(s))
            return 1e8 * (np.asarray(s) >= 0.3)

        # With 16 steps the depth limit is reached on panels a few ulps wide,
        # where the jump still misses the tolerance.
        match = r"^quadrature on \[0\.25, 0\.3125\] missed tolerance 1e-10 after 48 halvings$"
        with pytest.raises(ValueError, match=match):
            propagate(SpectralState.zero(2), u, act, 1.0, steps=16)
        # One call per round, each within a block: the whole steps, then the
        # halvings at depths 0 to 48.
        assert len(calls) == 1 + 49

    def test_unit_jump_matches_its_exact_integral(self):
        # A bang-bang control: the panel holding the jump resolves before the depth limit.
        act = Actuator.from_strings("0", "1")
        u = lambda s: 1.0 * (np.asarray(s) >= 0.3)
        traj = propagate(SpectralState.zero(2), u, act, 1.0, steps=16)
        for j in (1, 2):
            mu = eigenvalue(j)
            exact = coupling_coefficient(act, j) * math.expm1(mu * 0.7) / mu
            assert traj.states[-1, j - 1] == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize(
        "u",
        [
            lambda s: 1.0 + 1e-3 * np.random.default_rng(5).standard_normal(np.shape(s)),
            lambda s: np.where(np.floor(3200.0 * np.asarray(s)) % 2 == 0, 1.0, -1.0),
        ],
        ids=["noise", "square-wave"],
    )
    def test_rough_control_raises_at_the_panel_budget(self, u):
        act = Actuator.from_strings("0", "1")
        start = time.perf_counter()
        match = r"^quadrature on \[0\.0, 0\.0625\] needs more than 1000 panels$"
        with pytest.raises(ValueError, match=match):
            propagate(SpectralState.zero(2), u, act, 1.0, steps=16)
        assert time.perf_counter() - start < 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(["smooth", "cusp", "unit-jump"]),
        at=st.floats(0.0, 1.0),
        steps=st.integers(16, 256),
        width=st.integers(1, 8),
    )
    def test_quadrature_equals_recursive_bisection(self, kind, at, steps, width):
        # Whether a panel is accepted depends on that panel alone, so the
        # batched rounds must give what halving each step on its own gives.
        times = np.linspace(0.0, 1.0, steps + 1)
        rates = -((np.pi * np.arange(1, width + 1)) ** 2)
        u = {
            "smooth": lambda s: np.cos(3.0 * s + at),
            "cusp": lambda s: np.sqrt(np.abs(s - at)),
            "unit-jump": lambda s: 1.0 * (s >= at),
        }[kind]
        f = lambda s, k: np.exp(np.outer(times[k + 1] - s, rates)) * u(s)[:, None]

        def bisect(k, lo, hi, whole, depth):
            mid = 0.5 * (lo + hi)
            los, his = np.array([lo, mid]), np.array([mid, hi])
            left, right = _gl_panels(f, width, los, his, np.array([k, k]))
            total = left + right
            if np.max(np.abs(total - whole)) > 1e-10 and depth < 48:
                return bisect(k, lo, mid, left, depth + 1) + bisect(k, mid, hi, right, depth + 1)
            return [total]

        expected = []
        for k, (lo, hi) in enumerate(zip(times[:-1].tolist(), times[1:].tolist())):
            whole = _gl_panels(f, width, np.array([lo]), np.array([hi]), np.array([k]))[0]
            expected.append(sum(bisect(k, lo, hi, whole, 0)))
        got = adaptive_gauss_legendre(f, times, width)
        assert got.tobytes() == np.array(expected).tobytes()

    def test_smooth_callable_is_integrated_once_per_step(self):
        # One call for the whole-step panels of every step and one for all
        # their halves; at 256 steps the halves exceed BLOCK_ELEMENTS node
        # values and are split into blocks. The count does not grow with steps.
        act = Actuator.from_strings("0", "1")
        for steps, most in ((64, 2), (256, 4)):
            calls = []

            def u(s):
                calls.append(1)
                return 0.5 * np.exp(eigenvalue(1) * (1.0 - np.asarray(s)))

            propagate(SpectralState.unit_mode(1, 3), u, act, 1.0, steps=steps)
            assert len(calls) <= most, steps

    @pytest.mark.parametrize("n_modes", [3, 9, 1500])
    def test_no_call_sees_more_than_a_block(self, n_modes):
        act = Actuator.from_strings("0", "1")
        sizes = []

        def u(s):
            sizes.append(len(s))
            return np.sqrt(np.abs(np.asarray(s) - 0.37))

        propagate(SpectralState.unit_mode(1, n_modes), u, act, 1.0, steps=256)
        assert len(sizes) > 4  # a non-smooth control needs several rounds
        # At least one 16-node panel per call, however many modes there are.
        assert all(size * n_modes <= max(BLOCK_ELEMENTS, 16 * n_modes) for size in sizes)

    @settings(max_examples=40, deadline=None)
    @given(
        terms=st.lists(
            st.tuples(st.floats(-400.0, 2.0), st.floats(-1.0, 1.0)), min_size=1, max_size=6
        ),
        n_modes=st.integers(2, 8),
        steps=st.integers(16, 128),
        ends=st.tuples(st.integers(0, 12), st.integers(1, 12)).filter(lambda e: e[0] < e[1]),
    )
    def test_callable_profile_matches_closed_form(self, terms, n_modes, steps, ends):
        act = Actuator.from_strings(f"{ends[0]}/12", f"{ends[1]}/12")
        exponents, coeffs = zip(*terms)
        control = ControlFunction(kind="lumped", horizon=1.0, exponents=exponents, coeffs=coeffs)
        z0 = SpectralState(tuple(np.linspace(1.0, -0.5, n_modes)))
        closed = propagate(z0, control, act, 1.0, steps=steps)
        quadrature = propagate(z0, control.profile, act, 1.0, steps=steps)
        assert np.max(np.abs(closed.states - quadrature.states)) < 1e-9

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
        act = Actuator.from_strings("0.3", "0.7")
        z0 = SpectralState.unit_mode(1)
        z1 = SpectralState.zero(1)
        control, _ = synthesize_distributed(z0, z1, act, 1.0, 1)
        traj = propagate(z0, control, act, 1.0, steps=32, target=z1)
        assert traj.terminal_error < 1e-8

    def test_distributed_control_steers_the_heat_equation(self):
        # Each term 1_omega c_k exp(mu_k (T - s)) phi_k also feeds every other
        # mode through M_jk; with 200 modes simulated the three targeted ones
        # are hit to the moment residual (they missed by 2e-6 and 6.5e-6 when
        # each term fed only its own mode).
        act = Actuator.from_strings("1/5+1/10*sqrt2", "7/10")
        z0 = SpectralState((1.0, 1.0, 1.0))
        control, predicted = synthesize_distributed(z0, SpectralState.zero(3), act, 1.0, 3)
        wide = SpectralState(z0.coeffs + (0.0,) * 197)
        final = propagate(wide, control, act, 1.0, steps=16).states[-1]
        assert np.max(np.abs(final[:3])) <= 1e-15
        assert np.linalg.norm(final[:3]) <= predicted + 1e-20
        assert np.linalg.norm(final[3:]) > 1e-7  # spillover, which the prediction omits

    @settings(max_examples=30, deadline=None)
    @given(
        act=exact_actuators(),
        coeffs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4),
        n_modes=st.integers(1, 5),
    )
    def test_distributed_closed_form_matches_mpmath(self, act, coeffs, n_modes):
        # z_j(T) = exp(mu_j T) z0_j + sum_k M_jk c_k (exp((mu_j + mu_k) T) - 1) / (mu_j + mu_k)
        # with T = 1/10 and z0 = phi_1, summed in 40-digit arithmetic.
        exponents = tuple(eigenvalue(k) for k in range(1, len(coeffs) + 1))
        control = ControlFunction("distributed", 0.1, exponents, tuple(coeffs))
        final = propagate(SpectralState.unit_mode(1, n_modes), control, act, 0.1, steps=16)
        with mpmath.workdps(40):
            mass = mp_mass_matrix(act, max(n_modes, len(coeffs)))[1]
            rate = [-((k * mpmath.pi) ** 2) for k in range(1, max(n_modes, len(coeffs)) + 1)]
            for j in range(n_modes):
                terms = [mass[j][k] * c * mpmath.expm1((rate[j] + rate[k]) / 10) / (rate[j] + rate[k])
                         for k, c in enumerate(coeffs)]
                exact = (mpmath.exp(rate[0] / 10) if j == 0 else 0) + mpmath.fsum(terms)
                scale = 1 + mpmath.fsum(abs(t) for t in terms)
                assert abs(final.states[-1, j] - exact) <= 1e-14 * scale, (j + 1, act)

    def test_distributed_terms_beyond_the_state_still_feed_it(self):
        act = Actuator.from_strings("3/10", "7/10")
        z0 = SpectralState((1.0, -0.5, 0.25, 0.5))
        control, _ = synthesize_distributed(z0, SpectralState.zero(4), act, 1.0, 4)
        short = propagate(SpectralState((1.0, -0.5)), control, act, 1.0, steps=16)
        padded = propagate(SpectralState((1.0, -0.5, 0.0, 0.0)), control, act, 1.0, steps=16)
        np.testing.assert_array_equal(short.states, padded.states[:, :2])

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
        act = Actuator.from_strings("0.3", "0.7")
        z0 = SpectralState(tuple(rng.standard_normal(8)))
        z1 = SpectralState(tuple(rng.standard_normal(8)))
        control, predicted = synthesize_distributed(z0, z1, act, 1.0, 8)
        assert predicted <= math.sqrt(8) * control.moment_residual
        traj = propagate(z0, control, act, 1.0, steps=32, target=z1)
        assert traj.terminal_error < 1e-8

    def test_validation(self):
        act = Actuator.from_strings("0", "1")
        with pytest.raises(ValueError, match="steps"):
            propagate(SpectralState.unit_mode(1), None, act, 1.0, steps=8)
        with pytest.raises(ValueError, match="horizon"):
            propagate(SpectralState.unit_mode(1), None, act, 0.0)
        mismatched = ControlFunction(
            kind="lumped", horizon=2.0, exponents=(), coeffs=()
        )
        with pytest.raises(ValueError, match="horizon"):
            propagate(SpectralState.unit_mode(1), mismatched, act, 1.0)
        with pytest.raises(ValueError, match="finite"):
            propagate(SpectralState.unit_mode(1), lambda s: np.full_like(np.asarray(s), np.inf), act, 1.0)

    @pytest.mark.parametrize(
        "u, shape",
        [(lambda s: 1.0, r"\(\)"), (lambda s: np.ones(len(s) - 1), r"\(1023,\)")],
        ids=["scalar", "wrong-length"],
    )
    def test_callable_must_be_vectorized(self, u, shape):
        act = Actuator.from_strings("0", "1")
        with pytest.raises(ValueError, match=rf"times of shape \(1024,\) to shape {shape}"):
            propagate(SpectralState.unit_mode(1), u, act, 1.0)


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
        series = sensor_series(SpectralState.unit_mode(4), act)
        assert is_identically_zero(series, 1.0, 1e-15)

    def test_unblocked_mode_matches_closed_form(self):
        act = Actuator.from_strings("0", "1")
        signal = observability_signal(SpectralState.unit_mode(1), act, 1.0, 17)
        beta1 = coupling_coefficient(act, 1)
        for t, v in zip(signal.times, signal.values):
            assert v == pytest.approx(beta1 * math.exp(eigenvalue(1) * t), rel=1e-12)
        series = sensor_series(SpectralState.unit_mode(1), act)
        assert not is_identically_zero(series, 1.0, 1e-9)

    def test_zero_state(self):
        act = Actuator.from_strings("0", "1")
        signal = observability_signal(SpectralState.zero(3), act, 1.0, 9)
        assert all(v == 0.0 for v in signal.values)

    def test_duality_over_mode_range(self):
        act = Actuator.from_strings("0", "1/2")
        report = blocked_set(act, 16)
        for j in range(1, 17):
            series = sensor_series(SpectralState.unit_mode(j), act)
            vanishes = is_identically_zero(series, 1.0, 1e-15)
            assert vanishes == report.is_blocked(j)

    def test_sample_count_validated(self):
        act = Actuator.from_strings("0", "1")
        with pytest.raises(ValueError, match="samples"):
            observability_signal(SpectralState.unit_mode(1), act, 1.0, 1)


class TestProjectOntoV:
    def test_blocked_mode_removed(self):
        report = blocked_set(Actuator.from_strings("0", "1/2"), 8)
        projected = project_onto_v(SpectralState.unit_mode(4), report)
        assert np.linalg.norm(projected.coeff_array) == 0.0

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
        assert np.linalg.norm(once.coeff_array) <= np.linalg.norm(y.coeff_array)


class TestTrajectoryCsv:
    def test_round_trip(self, tmp_path):
        act = Actuator.from_strings("0", "1")
        traj = propagate(
            SpectralState((1.0, -0.5)), None, act, 1.0, steps=16, target=SpectralState.zero(2)
        )
        # A control with no terms is free decay, as None is.
        free = tmp_path / "free.json"
        free.write_text(json.dumps({"kind": "lumped", "T": 1.0, "exponents": [], "coeffs": []}))
        out = tmp_path / "traj.csv"
        argv = ["control", "simulate", "--control", str(free), "--a", "0", "--b", "1",
                "--z0", "[1.0, -0.5]", "--z1", "0", "--steps", "16", "--no-header"]
        assert main(argv + ["--out", str(out)]) == 0
        header, *rows, (label, error) = (line.split(",") for line in out.read_text().splitlines())
        assert header == ["t", "z_1", "z_2"]
        table = np.array(rows, dtype=float)
        assert np.array_equal(table[:, 0], traj.times)
        assert np.array_equal(table[:, 1:], traj.states)
        assert (label, float(error)) == ("terminalError", traj.terminal_error)
