"""Modal simulator for the controlled 1D heat equation.

States are propagated mode by mode through the variation-of-constants
formula

    z_j(t) = exp(mu_j t) z_j(0) + beta_j * integral_0^t exp(mu_j (t-s)) u(s) ds,

with ``beta_j`` the actuator overlap (exactly zero on blocked modes). The
system is diagonal in the eigenbasis, so no mesh is involved: for
exponential-sum controls the convolution is evaluated in closed form, which
makes this an independent, quadrature-free verification path for the moment
synthesis. Arbitrary callable controls advance by the exact step recursion

    F_k = exp(mu h_k) F_{k-1} + beta * integral_{t_{k-1}}^{t_k} exp(mu (t_k-s)) u(s) ds,

where one adaptive Gauss-Legendre quadrature integrates every step and every
mode at once: each call of ``u`` serves the panels of all steps in a round,
in blocks of bounded size. Every node value must be finite (``ValueError``
otherwise); a panel that misses the tolerance at the depth limit, and a step
that runs out of its panel budget, each emit a ``RuntimeWarning``.
Distributed controls drive each mode through its own channel with weight
``gamma_j`` (the per-mode convention shared with the synthesizer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._numerics import adaptive_gauss_legendre, exp_integral_grid
from .control import ControlFunction, SpectralState
from .heat import Actuator, coupling_coefficient, decay_exponent, eigenvalue, mode_energy
from .series import DirichletSeries, _require_positive
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


def _vectorized(control: Callable) -> Callable[[np.ndarray], np.ndarray]:
    probe = np.array([0.0, 1e-3])
    try:
        out = np.asarray(control(probe), dtype=float)
        if out.shape == probe.shape:
            return control
    except Exception:
        pass
    return lambda s: np.array([float(control(x)) for x in np.atleast_1d(s)])


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
    plain callable ``u(s)`` treated as a lumped profile. A callable is
    integrated on every grid step and mode at once with adaptive
    Gauss-Legendre panels (tolerance 1e-10 per panel, each call of ``u``
    serving a round of panels), and the forced parts are carried between
    steps by ``exp(mu h)``. ``ValueError`` is raised if ``u`` is not finite
    at a quadrature node; ``RuntimeWarning`` is emitted if a panel misses the
    tolerance at the depth limit or a step spends its budget of 1000 panels.
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
        # Each term reaches the modes in ``cols`` with the given weights:
        # lumped term k every mode through beta, distributed term i only
        # mode i+1 through gamma_{i+1}.
        if control.kind == "lumped":
            channels = [(slice(None), _couplings(actuator, n))] * len(control.coeffs)
        else:
            if len(control.coeffs) > n:
                raise ValueError(
                    f"distributed control drives {len(control.coeffs)} modes "
                    f"but the state carries only {n}"
                )
            channels = [
                (slice(i, i + 1), np.array([mode_energy(actuator, i + 1)]))
                for i in range(len(control.coeffs))
            ]
        for (cols, weights), nu, c in zip(channels, control.exponents, control.coeffs):
            conv = exp_integral_grid(rates[cols] + nu, times)
            states[:, cols] += weights * c * np.exp(nu * (horizon - times))[:, None] * conv
    elif callable(control):
        u = _vectorized(control)
        integrals = adaptive_gauss_legendre(
            lambda s, k: np.exp(np.outer(times[k + 1] - s, rates))
            * np.asarray(u(s), dtype=float)[:, None],
            times,
            n,
        )
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
    steps: int = 64,
) -> Trajectory:
    """Propagate with the mode count widened to twice the request.

    Simulating more modes than the synthesis targeted exposes control
    spillover into untargeted modes; the reported terminal error includes it.
    """
    width = 2 * max(z0.n_modes, z1.n_modes)
    padded0 = SpectralState(z0.coeffs + (0.0,) * (width - z0.n_modes))
    padded1 = SpectralState(z1.coeffs + (0.0,) * (width - z1.n_modes))
    return propagate(padded0, control, actuator, horizon, steps=steps, target=padded1)


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


def observability_series(y: SpectralState, actuator: Actuator) -> DirichletSeries:
    """The same sensor output as a series, composable with the vanishing test."""
    terms = [
        (float(coupling_coefficient(actuator, j) * y.mode(j)), decay_exponent(j))
        for j in range(1, y.n_modes + 1)
    ]
    return DirichletSeries(terms)


def project_onto_v(y: SpectralState, report) -> SpectralState:
    """Zero out the blocked-mode coordinates of ``y``.

    Idempotent and norm nonincreasing; membership is decided by the report's
    exact modular characterization, which covers every mode index.
    """
    coeffs = [
        0.0 if report.is_blocked(j) else y.mode(j) for j in range(1, y.n_modes + 1)
    ]
    return SpectralState(coeffs)
