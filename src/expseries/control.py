"""Moment-method control synthesis for the modal heat system.

A control is sought as an exponential sum, the known form of the minimum-norm
solution of the truncated moment problem: lumped, ``u(s) = sum_k c_k
exp(mu_k (T - s))``, or distributed, ``1_omega(x) sum_k c_k exp(mu_k (T - s))
phi_k(x)``. Matching the moments reduces to ``(W o G) c = m`` (``o`` the
entrywise product) with the Gram matrix

    G_jk = integral_0^T exp((mu_j + mu_k)(T - s)) ds
         = (exp((mu_j + mu_k) T) - 1) / (mu_j + mu_k),

(with the limit T on the diagonal sum zero), where ``W = 1`` and ``m_j =
delta_j / beta_j`` for a lumped control, ``W = M``, the actuator mass matrix,
and ``m_j = delta_j`` for a distributed one. ``W o G`` is positive definite
(Schur product theorem), but its condition number grows fast with the mode
count for heat exponents ``mu_j = -(j pi)^2``. So every control reports it and
its moment residual, an unregularized solve whose residual exceeds ``1e-6 *
max|m|`` raises :class:`ConditioningError`, and a Tikhonov knob is offered.

Blocked modes of a lumped control (zero actuator overlap) are hard errors
when their moment requirement is nontrivial: the caller must project the
request onto the controllable subspace first (see
:func:`expseries.simulate.project_onto_v`), keeping the blocked/controllable
decomposition visible. Every other ``beta_j`` is accurate to a few ulps
relative, however narrow the actuator; only one that underflows is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import BlockedModeError, ConditioningError
from ._numerics import _no_overflow, exp_integral
from .heat import Actuator, _blocked, coupling_coefficient, eigenvalue, mass_matrix
from .series import _require_finite, _require_positive


@dataclass(frozen=True, init=False)
class SpectralState:
    """Coordinates of a state in the eigenbasis {phi_j}, modes 1..N.

    ``coeff_array`` is a read-only array of ``coeffs``; copies and pickles are
    rebuilt through the constructor.
    """

    coeffs: tuple[float, ...]

    def __init__(self, coeffs: Sequence[float]) -> None:
        cleaned = tuple(_require_finite(c, "state coefficient") for c in coeffs)
        if not cleaned:
            raise ValueError("a state needs at least one mode")
        object.__setattr__(self, "coeffs", cleaned)

    @classmethod
    def zero(cls, n_modes: int) -> "SpectralState":
        return cls((0.0,) * int(n_modes))

    @classmethod
    def unit_mode(cls, j: int, n_modes: int | None = None) -> "SpectralState":
        j = int(j)
        if j < 1:
            raise ValueError("mode index must be positive")
        n = max(int(n_modes or j), j)
        coeffs = [0.0] * n
        coeffs[j - 1] = 1.0
        return cls(coeffs)

    @property
    def n_modes(self) -> int:
        return len(self.coeffs)

    def __reduce__(self):
        return SpectralState, (self.coeffs,)

    @cached_property
    def coeff_array(self) -> np.ndarray:
        array = np.array(self.coeffs, dtype=float)
        array.flags.writeable = False
        return array

    def mode(self, j: int) -> float:
        """Coefficient of mode j, zero beyond the stored range."""
        j = int(j)
        if j < 1:
            raise ValueError("mode index must be positive")
        return self.coeffs[j - 1] if j <= len(self.coeffs) else 0.0


@dataclass(frozen=True)
class ControlFunction:
    """A synthesized control: exponential-sum profile(s) on [0, horizon].

    Lumped: the scalar profile ``u(s) = sum_k coeffs[k] exp(exponents[k] (T-s))``.
    Distributed: ``u(x, s) = 1_omega(x) sum_k coeffs[k] exp(exponents[k] (T-s))
    phi_{k+1}(x)``, so term k feeds every mode j through ``M_{j,k+1}``.
    """

    kind: str
    horizon: float
    exponents: tuple[float, ...]
    coeffs: tuple[float, ...]
    moment_residual: float | None = None
    energy: float | None = None
    gram_condition: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("lumped", "distributed"):
            raise ValueError("kind must be 'lumped' or 'distributed'")
        if len(self.exponents) != len(self.coeffs):
            raise ValueError("exponents and coeffs must have equal length")
        _require_positive(self.horizon, "horizon")
        for nu in self.exponents:
            _require_finite(nu, "control exponent")
        for c in self.coeffs:
            _require_finite(c, "control coefficient")

    def profile(self, s) -> np.ndarray:
        """Scalar lumped profile u(s); zero for an empty coefficient set."""
        if self.kind != "lumped":
            raise ValueError("profile() is the scalar form of a lumped control")
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        for nu, c in zip(self.exponents, self.coeffs):
            out = out + c * np.exp(nu * (self.horizon - s))
        return out


@np.errstate(over="ignore", invalid="ignore")
def gram_matrix(exponents: Sequence[float], horizon: float) -> np.ndarray:
    """Gram matrix of the kernels ``exp(mu_k (T - s))`` on [0, T], or ``OverflowError``."""
    exps = [_require_finite(m, "exponent") for m in exponents]
    if len(set(exps)) != len(exps):
        raise ValueError("duplicate exponents make the Gram matrix singular")
    horizon = _require_positive(horizon, "horizon")
    return _no_overflow(exp_integral(np.add.outer(exps, exps), horizon), "the Gram matrix")


@np.errstate(over="ignore", invalid="ignore")
def solve_moment_problem(
    exponents: Sequence[float], moments: Sequence[float], horizon: float,
    regularization: float = 0.0, weights: np.ndarray | None = None,
) -> tuple[ControlFunction, np.ndarray]:
    """Solve ``(W o G + regularization I) c = m``; return the control and ``W o G c - m``.

    ``moments[j]`` is the target moment of ``exp(exponents[j] (T - s))`` on
    [0, horizon], the exponents in any order. ``weights`` W is None (all ones)
    for a lumped control and the actuator mass matrix for a distributed one.
    The control reports the moment residual ``max_j |(W o G c - m)_j|``, its
    squared L2 norm ``c' (W o G) c`` as energy and the condition number of
    ``W o G``; a residual or energy that overflows raises ``OverflowError``. At
    zero regularization a residual above ``1e-6 * max|m|`` raises
    :class:`ConditioningError`: regularize or drop modes instead.
    """
    regularization = _require_finite(regularization, "regularization")
    if regularization < 0:
        raise ValueError("regularization must be nonnegative")
    exponents = tuple(map(float, exponents))
    gram = gram_matrix(exponents, horizon)
    if weights is not None:
        gram = weights * gram
    moments = np.array(moments, dtype=float)
    if not exponents or moments.shape != (len(exponents),) or not np.isfinite(moments).all():
        raise ValueError("moments must be one finite value per exponent, and exponents nonempty")
    system = gram + regularization * np.eye(len(moments))
    try:
        coeffs = np.linalg.solve(system, moments)
        coeffs = coeffs + np.linalg.solve(system, moments - system @ coeffs)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"moment system solve failed: {exc}") from exc
    residuals = gram @ coeffs - moments
    residual = _no_overflow(float(np.max(np.abs(residuals))), "the moment residual")
    energy = _no_overflow(float(coeffs @ gram @ coeffs), "the energy")
    scale = float(np.max(np.abs(moments)))
    if regularization == 0.0 and residual > 1e-6 * scale:
        raise ConditioningError(
            f"moment residual {residual:.3e} exceeds 1e-6 * max|m| = {1e-6 * scale:.3e}; "
            "increase regularization or drop modes"
        )
    control = ControlFunction(
        kind="lumped" if weights is None else "distributed",
        horizon=float(horizon),
        exponents=exponents,
        coeffs=tuple(float(c) for c in coeffs),
        moment_residual=residual,
        energy=energy,
        gram_condition=float(np.linalg.cond(gram)),
    )
    return control, residuals


def _synthesis_setup(
    z0: SpectralState,
    z1: SpectralState,
    horizon: float,
    n_modes: int,
) -> tuple[float, int, list[float], float]:
    """Validate a synthesis request and return ``(horizon, n_modes, deltas,
    tail_energy)``.

    ``deltas[j-1] = z1_j - exp(mu_j T) z0_j`` is the state change mode j
    needs, over every mode either state carries, and ``tail_energy`` sums
    their squares beyond ``n_modes``.
    """
    horizon = _require_positive(horizon, "horizon")
    n_modes = int(n_modes)
    if n_modes < 1:
        raise ValueError("n_modes must be at least 1")
    deltas = [
        z1.mode(j) - math.exp(eigenvalue(j) * horizon) * z0.mode(j)
        for j in range(1, max(n_modes, z0.n_modes, z1.n_modes) + 1)
    ]
    return horizon, n_modes, deltas, math.fsum(d * d for d in deltas[n_modes:])


def synthesize_lumped(
    z0: SpectralState,
    z1: SpectralState,
    actuator: Actuator,
    horizon: float,
    n_modes: int,
    eps: float = 1e-6,
    regularization: float = 0.0,
) -> tuple[ControlFunction, float]:
    """Lumped control steering modes 1..n_modes of z0 toward z1.

    Blocked modes (exact zero overlap) with a nontrivial moment requirement
    raise :class:`BlockedModeError`; blocked modes whose requirement is
    already met by free decay are skipped. Mode 1 is never blocked (no blocked
    modulus is 1), so a moment system is always solved. An unblocked mode whose
    overlap underflows to 0.0 raises :class:`ConditioningError`. The returned
    ``predicted_error`` is the 2-norm of the terminal miss that the moment
    residuals ``r_j`` imply on the retained modes (``beta_j r_j``) together
    with the state change still needed beyond ``n_modes``. It does not count
    the control's spillover into modes beyond ``n_modes``, which
    :func:`expseries.simulate.verify_control` measures. A number that overflows raises
    ``OverflowError``. ``eps`` is validated (finite and positive) but not used; it keeps
    its place only because callers pass it by position before ``regularization``.
    """
    _require_positive(eps, "eps")
    horizon, n_modes, deltas, tail_energy = _synthesis_setup(z0, z1, horizon, n_modes)
    couplings: dict[int, float] = {}
    for j in range(1, n_modes + 1):
        if _blocked(j, actuator.blocked_moduli):
            if deltas[j - 1] != 0.0:
                raise BlockedModeError(
                    f"mode {j} cannot be steered: actuator {actuator.describe()} "
                    f"has exactly zero overlap with phi_{j}"
                )
            continue
        beta = coupling_coefficient(actuator, j)
        if beta == 0.0:
            raise ConditioningError(
                f"mode {j} is not blocked, but the overlap of actuator "
                f"{actuator.describe()} with phi_{j} rounds to 0.0 in double precision"
            )
        couplings[j] = beta

    control, moment_residuals = solve_moment_problem(
        [eigenvalue(j) for j in couplings],
        _no_overflow([deltas[j - 1] / beta for j, beta in couplings.items()], "a moment"),
        horizon, regularization,
    )
    mismatch = math.fsum(
        (beta * float(r)) ** 2 for beta, r in zip(couplings.values(), moment_residuals)
    )
    return control, math.sqrt(_no_overflow(mismatch + tail_energy, "the predicted error"))


def synthesize_distributed(
    z0: SpectralState, z1: SpectralState, actuator: Actuator, horizon: float, n_modes: int,
    *, regularization: float = 0.0,
) -> tuple[ControlFunction, float]:
    """Distributed control of least L2(omega x (0, T)) norm steering modes
    1..n_modes of z0 toward z1: ``(M o G + regularization I) c = delta``, M
    the actuator mass matrix, so no mode is blocked. ``predicted_error`` is the
    2-norm of the moment residuals and of the state change still needed beyond
    ``n_modes``; as for a lumped control, spillover is not counted, and a number
    that overflows raises ``OverflowError``.
    """
    horizon, n_modes, deltas, tail_energy = _synthesis_setup(z0, z1, horizon, n_modes)
    control, residuals = solve_moment_problem(
        [eigenvalue(j) for j in range(1, n_modes + 1)],
        _no_overflow(deltas[:n_modes], "a state change"), horizon,
        regularization, np.array(mass_matrix(actuator, n_modes, n_modes)),
    )
    miss = math.fsum(r * r for r in residuals.tolist()) + tail_energy
    return control, math.sqrt(_no_overflow(miss, "the predicted error"))
