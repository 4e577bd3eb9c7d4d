import math

import numpy as np
import pytest
from scipy.integrate import quad

from expseries.control import (
    BlockedModeError,
    ConditioningError,
    ConditioningWarning,
    ControlFunction,
    MomentProblem,
    SpectralState,
    control_from_document,
    control_to_document,
    gram_matrix,
    solve_moment_problem,
    synthesize_distributed,
    synthesize_lumped,
)
from expseries.heat import Actuator, eigenvalue


def quad_gram_entry(mu_i: float, mu_k: float, horizon: float) -> float:
    value, _ = quad(lambda s: math.exp((mu_i + mu_k) * (horizon - s)), 0.0, horizon)
    return value


def quad_moment(control: ControlFunction, mu: float) -> float:
    horizon = control.horizon
    value, _ = quad(
        lambda s: math.exp(mu * (horizon - s)) * float(control.profile(s)),
        0.0,
        horizon,
        limit=200,
    )
    return value


class TestGramMatrix:
    def test_single_heat_mode(self):
        g = gram_matrix([-math.pi**2], 1.0)
        oracle = quad_gram_entry(-math.pi**2, -math.pi**2, 1.0)
        assert g[0, 0] == pytest.approx(oracle, abs=1e-14)
        assert g[0, 0] == pytest.approx(0.05066059168563722, abs=1e-15)

    def test_zero_exponent_limit(self):
        g = gram_matrix([0.0], 2.0)
        assert g[0, 0] == 2.0

    def test_two_modes_match_quadrature(self):
        mus = [-math.pi**2, -4 * math.pi**2]
        g = gram_matrix(mus, 1.0)
        for i in range(2):
            for k in range(2):
                assert g[i, k] == pytest.approx(
                    quad_gram_entry(mus[i], mus[k], 1.0), abs=1e-12
                )
        assert np.min(np.linalg.eigvalsh(g)) > 0

    def test_spd_up_to_eight_modes(self):
        for n in range(1, 9):
            mus = [eigenvalue(j) for j in range(1, n + 1)]
            eigs = np.linalg.eigvalsh(gram_matrix(mus, 1.0))
            assert np.all(eigs > 0)

    def test_duplicate_exponents_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            gram_matrix([-1.0, -1.0], 1.0)

    def test_near_cancelling_rates_use_series(self):
        g = gram_matrix([-5e-13, 2e-13], 3.0)
        # Off-diagonal rate is -3e-13: the closed form would divide ~1e-13
        # by itself; the series value is T + O(rate T^2).
        assert g[0, 1] == pytest.approx(3.0, rel=1e-10)


class TestSolveMomentProblem:
    def test_scalar_solve(self):
        mp = MomentProblem((-math.pi**2,), (1.0,), 1.0)
        control = solve_moment_problem(mp)
        assert control.coeffs[0] == pytest.approx(19.739208854986785, rel=1e-12)
        assert quad_moment(control, -math.pi**2) == pytest.approx(1.0, abs=1e-9)
        assert control.moment_residual <= 1e-12

    def test_zero_moments_zero_control(self):
        mp = MomentProblem((-1.0, -4.0), (0.0, 0.0), 1.0)
        control = solve_moment_problem(mp)
        assert control.coeffs == (0.0, 0.0)
        assert control.energy == 0.0

    def test_six_modes_regularized_attainable_moments(self):
        # Moments of an energy-bounded control; raw O(1) moments would need
        # energy ~1/sigma_min(G) and the reg term would dominate them.
        rng = np.random.default_rng(7)
        mus = tuple(eigenvalue(j) for j in range(1, 7))
        gram = gram_matrix(mus, 1.0)
        weights = rng.standard_normal(6)
        weights /= np.linalg.norm(weights)
        moments = gram @ weights
        mp = MomentProblem(mus, tuple(moments), 1.0)
        control = solve_moment_problem(mp, regularization=1e-10)
        for mu, m in zip(mus, moments):
            assert abs(quad_moment(control, mu) - m) < 1e-6

    def test_six_modes_exact_solve_small_residual(self):
        rng = np.random.default_rng(3)
        mus = tuple(eigenvalue(j) for j in range(1, 7))
        moments = tuple(rng.standard_normal(6))
        control = solve_moment_problem(MomentProblem(mus, moments, 1.0))
        scale = max(abs(m) for m in moments)
        assert control.moment_residual <= 1e-8 * scale
        for mu, m in zip(mus, moments):
            assert abs(quad_moment(control, mu) - m) < 1e-8 * scale

    def test_energy_is_minimal_among_feasible_controls(self):
        # Any zero-moment perturbation increases the L2 energy.
        mus = (-1.0, -4.0, -9.0)
        moments = (0.5, -0.2, 0.1)
        control = solve_moment_problem(MomentProblem(mus, moments, 1.0))

        def energy(fn) -> float:
            value, _ = quad(lambda s: fn(s) ** 2, 0.0, 1.0, limit=200)
            return value

        base = lambda s: float(control.profile(s))
        base_energy = energy(base)
        assert base_energy == pytest.approx(control.energy, rel=1e-8)

        gram = gram_matrix(mus, 1.0)
        rng = np.random.default_rng(5)
        for _ in range(5):
            # Random probe minus its moment projection: a feasible direction.
            rates = rng.uniform(-12.0, -0.1, size=2)
            amps = rng.standard_normal(2)
            probe = lambda s: float(
                amps[0] * math.exp(rates[0] * (1.0 - s))
                + amps[1] * math.exp(rates[1] * (1.0 - s))
            )
            probe_moments = np.array(
                [quad(lambda s: math.exp(mu * (1.0 - s)) * probe(s), 0, 1)[0] for mu in mus]
            )
            correction = np.linalg.solve(gram, probe_moments)
            fix = lambda s: float(
                sum(c * math.exp(mu * (1.0 - s)) for c, mu in zip(correction, mus))
            )
            perturbed = lambda s: base(s) + probe(s) - fix(s)
            assert energy(perturbed) >= base_energy - 1e-10

    def test_conditioning_error_on_singular_gram(self):
        # Rates this close make every Gram entry exactly T: a singular solve.
        mp = MomentProblem((1e-300, 0.0), (1.0, 2.0), 1.0)
        with pytest.raises(ConditioningError, match="solve failed"):
            solve_moment_problem(mp)

    def test_large_mode_counts_keep_small_residuals(self):
        # Backward-stable solves leave tiny residuals even at cond ~1e14;
        # the conditioning guard is for outright breakdown.
        mus = tuple(eigenvalue(j) for j in range(1, 13))
        control = solve_moment_problem(MomentProblem(mus, tuple(np.ones(12)), 1.0))
        assert control.moment_residual <= 1e-6
        assert control.gram_condition > 1e10

    def test_exponents_must_decrease(self):
        with pytest.raises(ValueError, match="decreasing"):
            MomentProblem((-4.0, -1.0), (1.0, 1.0), 1.0)


class TestSynthesizeLumped:
    def test_kill_first_mode(self):
        act = Actuator.from_strings("0", "1")
        control, predicted = synthesize_lumped(
            SpectralState.unit_mode(1), SpectralState.zero(1), act, 1.0, 1, 1e-6
        )
        # Achieved moment must cancel the free decay of mode 1.
        beta1 = 2 * math.sqrt(2) / math.pi
        achieved = quad_moment(control, eigenvalue(1))
        assert abs(math.exp(eigenvalue(1)) + beta1 * achieved) < 1e-8
        assert predicted < 1e-8

    def test_trivial_target_zero_control(self):
        act = Actuator.from_strings("0", "1")
        control, predicted = synthesize_lumped(
            SpectralState.zero(3), SpectralState.zero(3), act, 1.0, 3, 1e-6
        )
        assert all(c == 0.0 for c in control.coeffs)
        assert predicted == 0.0

    def test_blocked_mode_raises(self):
        act = Actuator.from_strings("0", "1/2")
        with pytest.raises(BlockedModeError, match="mode 4"):
            synthesize_lumped(
                SpectralState.zero(4), SpectralState.unit_mode(4), act, 1.0, 4, 1e-6
            )

    def test_blocked_mode_with_trivial_requirement_skipped(self):
        act = Actuator.from_strings("0", "1/2")
        z0 = SpectralState((1.0, 0.0, 0.5, 0.0))
        control, _ = synthesize_lumped(z0, SpectralState.zero(4), act, 1.0, 4, 1e-6)
        assert len(control.exponents) == 3  # modes 1, 2, 3 retained; 4 skipped

    def test_predicted_error_nonincreasing_in_n(self):
        act = Actuator.from_strings("0", "1/3")  # blocks only multiples of 6
        z0 = SpectralState(tuple(1.0 / j for j in range(1, 6)))
        z1 = SpectralState.zero(5)
        previous = None
        for n in range(1, 6):
            _, predicted = synthesize_lumped(z0, z1, act, 1.0, n, 1e-6)
            if previous is not None:
                assert predicted <= previous + 1e-8
            previous = predicted

    def test_many_modes_warns(self):
        # omega = (0, 1/3) blocks only multiples of 6: ten requested modes
        # leave nine retained, beyond the honest-conditioning cap of eight.
        act = Actuator.from_strings("0", "1/3")
        z0 = SpectralState((0.0,) * 10)
        z1 = SpectralState(tuple(0.0 if j == 6 else 1e-30 for j in range(1, 11)))
        with pytest.warns(ConditioningWarning):
            try:
                synthesize_lumped(z0, z1, act, 1.0, 10, 1e-6)
            except ConditioningError:
                pass

    def test_horizon_validated(self):
        act = Actuator.from_strings("0", "1")
        with pytest.raises(ValueError, match="horizon"):
            synthesize_lumped(
                SpectralState.unit_mode(1), SpectralState.zero(1), act, 0.0, 1, 1e-6
            )

    def test_wrong_kind_rejected(self):
        act = Actuator.from_strings("0", "1", kind="distributed")
        with pytest.raises(ValueError, match="lumped"):
            synthesize_lumped(
                SpectralState.unit_mode(1), SpectralState.zero(1), act, 1.0, 1, 1e-6
            )


class TestSynthesizeDistributed:
    def test_free_dynamics_reach_target(self):
        act = Actuator.from_strings("0.3", "0.7", kind="distributed")
        z0 = SpectralState((1.0, -0.5))
        z1 = SpectralState(
            tuple(math.exp(eigenvalue(j) * 1.0) * z0.coeffs[j - 1] for j in (1, 2))
        )
        control, predicted = synthesize_distributed(z0, z1, act, 1.0, 2, 1e-6)
        assert all(abs(c) < 1e-18 for c in control.coeffs)
        assert predicted == 0.0

    def test_tail_energy_reported(self):
        act = Actuator.from_strings("0.3", "0.7", kind="distributed")
        z0 = SpectralState((1.0, 0.0, 0.25))
        control, predicted = synthesize_distributed(
            z0, SpectralState.zero(3), act, 1.0, 2, 1e-6
        )
        tail = abs(math.exp(eigenvalue(3)) * 0.25)
        assert predicted == pytest.approx(tail, rel=1e-12)

    def test_wrong_kind_rejected(self):
        act = Actuator.from_strings("0.3", "0.7", kind="lumped")
        with pytest.raises(ValueError, match="distributed"):
            synthesize_distributed(
                SpectralState.unit_mode(1), SpectralState.zero(1), act, 1.0, 1, 1e-6
            )


@pytest.mark.parametrize(
    "synthesize, kind", [(synthesize_lumped, "lumped"), (synthesize_distributed, "distributed")]
)
@pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0])
def test_eps_must_be_finite_and_positive(synthesize, kind, eps):
    act = Actuator.from_strings("0.3", "0.7", kind=kind)
    with pytest.raises(ValueError, match="eps must be"):
        synthesize(SpectralState.unit_mode(1), SpectralState.zero(1), act, 1.0, 1, eps)


class TestSpectralState:
    def test_unit_mode(self):
        z = SpectralState.unit_mode(3)
        assert z.coeffs == (0.0, 0.0, 1.0)
        assert z.norm() == 1.0
        assert z.mode(3) == 1.0
        assert z.mode(7) == 0.0

    def test_parseval_norm(self):
        z = SpectralState((3.0, 4.0))
        assert z.norm() == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SpectralState(())
        with pytest.raises(ValueError):
            SpectralState((math.nan,))


class TestDocuments:
    def test_round_trip(self):
        mp = MomentProblem((-1.0, -4.0), (0.5, -0.25), 2.0)
        control = solve_moment_problem(mp)
        doc = control_to_document(control)
        assert set(doc) == {
            "kind",
            "T",
            "exponents",
            "coeffs",
            "momentResidual",
            "energy",
            "gramCondition",
        }
        assert control_from_document(doc) == control
