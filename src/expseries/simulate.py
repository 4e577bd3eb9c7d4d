"""Modal simulator for the controlled 1D heat equation.

States are propagated mode by mode through the variation-of-constants
formula

    z_j(t) = exp(mu_j t) z_j(0) + sum_k W_jk integral_0^t exp(mu_j (t-s)) u_k(s) ds,

where the input map W carries control term k to mode j: ``W_jk = beta_j``,
the actuator overlap (exactly zero on blocked modes), for a lumped control and
the actuator mass matrix ``M_jk`` for a distributed one. The system is
diagonal in the eigenbasis, so no mesh is involved: for exponential-sum
controls the convolution is evaluated in closed form, which makes this an
independent, quadrature-free verification path for the moment synthesis.
Vectorized callable controls advance by the exact step recursion

    F_k = exp(mu h_k) F_{k-1} + beta * integral_{t_{k-1}}^{t_k} exp(mu (t_k-s)) u(s) ds,

where one adaptive Gauss-Legendre quadrature integrates every step and every
mode at once: each call of ``u`` serves the panels of all steps in a round,
in blocks of bounded size. It converges or raises ``ValueError``: on a node
value that is not finite, and on a step it cannot resolve within its limits.
The sensor output sampled by :func:`observability_signal` vanishes
identically iff :func:`project_onto_v` zeroes every coordinate of ``y``
(the uniqueness principle), so observability is decided exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._numerics import adaptive_gauss_legendre, exp_integral_grid
from .control import ControlFunction, SpectralState
from .heat import Actuator, coupling_coefficient, eigenvalue, mass_matrix
from .series import _require_positive
from .uniqueness import SampledSignal

ControlLike = ControlFunction | Callable[[np.ndarray], np.ndarray] | None


@dataclass(frozen=True)
class Trajectory:
    """Modal states on a time grid, with the terminal miss when a target is given."""

    times: np.ndarray
    states: np.ndarray
    terminal_error: float | None = None

    def __post_init__(self) -> None:
        if self.states.shape[0] != self.times.shape[0]:
            raise ValueError("one state row per time is required")

    @property
    def n_modes(self) -> int:
        return self.states.shape[1]


def _mode_rates(n: int) -> np.ndarray:
    return np.array([eigenvalue(j) for j in range(1, n + 1)])


def _couplings(actuator: Actuator, n: int) -> np.ndarray:
    """beta_j for modes 1..n, exactly zero on blocked modes."""
    return np.array([coupling_coefficient(actuator, j) for j in range(1, n + 1)])


def propagate(
    z0: SpectralState,
    control: ControlLike,
    actuator: Actuator,
    horizon: float,
    steps: int = 64,
    target: SpectralState | None = None,
) -> Trajectory:
    """Propagate ``z0`` under ``control`` over [0, horizon] on ``steps`` intervals.

    ``control`` may be None (free decay), a :class:`ControlFunction`, or a
    plain callable ``u(s)`` treated as a lumped profile, which maps an array
    of times to an array of the same shape. A callable is integrated on every
    grid step and mode at once with adaptive Gauss-Legendre panels
    (tolerance 1e-10 per panel, each call of ``u`` serving a round of
    panels), and the forced parts are carried between steps by ``exp(mu h)``.
    ``ValueError`` is raised if ``u`` returns another shape or is not finite
    at a quadrature node, and if a step's panels miss the tolerance after 48
    halvings or would number more than 1000; it names the step's interval.
    """
    horizon = _require_positive(horizon, "horizon")
    steps = int(steps)
    if steps < 16:
        raise ValueError("steps must be at least 16")

    n = z0.n_modes
    times = np.linspace(0.0, horizon, steps + 1)
    rates = _mode_rates(n)
    states = np.exp(np.outer(times, rates)) * z0.coeff_array

    if isinstance(control, ControlFunction):
        if abs(control.horizon - horizon) > 1e-12 * max(1.0, horizon):
            raise ValueError(
                f"control horizon {control.horizon} does not match simulation horizon {horizon}"
            )
        k = len(control.coeffs)
        if control.kind == "lumped":
            weights = np.outer(_couplings(actuator, n), np.ones(k))
        else:
            weights = np.array(mass_matrix(actuator, n, k))
        for column, nu, c in zip(weights.T, control.exponents, control.coeffs):
            conv = exp_integral_grid(rates + nu, times)
            states += column * c * np.exp(nu * (horizon - times))[:, None] * conv
    elif callable(control):
        def integrand(s: np.ndarray, k: np.ndarray) -> np.ndarray:
            values = np.asarray(control(s), dtype=float)
            if values.shape != s.shape:
                raise ValueError(f"u maps times of shape {s.shape} to shape {values.shape}")
            return np.exp(np.outer(times[k + 1] - s, rates)) * values[:, None]
        integrals = adaptive_gauss_legendre(integrand, times, n)
        betas = _couplings(actuator, n)
        forced = np.zeros(n)
        for k, (decay, step) in enumerate(zip(np.exp(np.outer(np.diff(times), rates)), integrals)):
            forced = decay * forced + betas * step
            states[k + 1] += forced
    elif control is not None:
        raise TypeError("control must be None, a ControlFunction, or a callable u(s)")

    terminal_error = None
    if target is not None:
        width = max(n, target.n_modes)
        final = np.zeros(width)
        final[:n] = states[-1]
        goal = np.zeros(width)
        goal[: target.n_modes] = target.coeff_array
        terminal_error = float(np.linalg.norm(final - goal))

    return Trajectory(times=times, states=states, terminal_error=terminal_error)


def verify_control(
    z0: SpectralState,
    z1: SpectralState,
    control: ControlLike,
    actuator: Actuator,
    horizon: float,
) -> Trajectory:
    """Propagate on the 64-step grid with the mode count widened to twice the request.

    Simulating 2N modes, N the larger state's mode count, exposes spillover
    into modes N+1..2N, and the terminal error includes it; spillover beyond
    mode 2N is not simulated, so the whole-state miss can be larger.
    """
    width = 2 * max(z0.n_modes, z1.n_modes)
    padded0 = SpectralState(z0.coeffs + (0.0,) * (width - z0.n_modes))
    padded1 = SpectralState(z1.coeffs + (0.0,) * (width - z1.n_modes))
    return propagate(padded0, control, actuator, horizon, steps=64, target=padded1)


def observability_signal(
    y: SpectralState, actuator: Actuator, horizon: float, samples: int
) -> SampledSignal:
    """The lumped sensor output t -> sum_j exp(mu_j t) y_j beta_j on [0, horizon].

    This is exactly the exponential sum whose identical vanishing
    characterizes unobservable states; blocked modes contribute exactly zero,
    so a state supported on the blocked set yields the all-zero signal.
    """
    samples = int(samples)
    if samples < 2:
        raise ValueError("samples must be at least 2")
    horizon = _require_positive(horizon, "horizon")
    n = y.n_modes
    rates = _mode_rates(n)
    weights = _couplings(actuator, n) * y.coeff_array
    times = np.linspace(0.0, horizon, samples)
    values = np.exp(np.outer(times, rates)) @ weights
    return SampledSignal(times, values, horizon)


def project_onto_v(y: SpectralState, report) -> SpectralState:
    """Zero out the blocked-mode coordinates of ``y``.

    Idempotent and norm nonincreasing; membership is decided by the report's
    exact modular characterization, which covers every mode index.
    """
    coeffs = [
        0.0 if report.is_blocked(j) else y.mode(j) for j in range(1, y.n_modes + 1)
    ]
    return SpectralState(coeffs)
