"""Moment-method control synthesis for the modal heat system.

A lumped control is sought as an exponential sum
``u(s) = sum_k c_k exp(mu_k (T - s))``, the known form of the minimum-norm
solution of the truncated moment problem. Matching the target moments
``m_j = integral_0^T exp(mu_j (T - s)) u(s) ds`` then reduces to the linear
system ``G c = m`` with the Gram matrix

    G_jk = integral_0^T exp((mu_j + mu_k)(T - s)) ds
         = (exp((mu_j + mu_k) T) - 1) / (mu_j + mu_k),

(with the limit T on the diagonal sum zero). G is symmetric positive
definite for distinct exponents but becomes catastrophically ill conditioned
for heat exponents ``mu_j = -(j pi)^2`` beyond roughly eight modes; the
solver therefore reports the moment residual and Gram condition number, and
offers an explicit Tikhonov knob rather than pretending more modes come for
free.

Blocked modes (zero actuator overlap) are hard errors when their moment
requirement is nontrivial: the caller must project the request onto the
controllable subspace first (see :func:`expseries.simulate.project_onto_v`),
keeping the blocked/controllable decomposition visible.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ._numerics import exp_integral
from .heat import Actuator, coupling_coefficient, eigenvalue, mode_energy
from .series import _require_finite


class BlockedModeError(Exception):
    """A requested mode has exactly zero actuator overlap."""


class ConditioningError(Exception):
    """The moment solve is too ill conditioned to trust at the requested setup."""


class ConditioningWarning(UserWarning):
    """The Gram matrix is entering its numerically hopeless regime."""


@dataclass(frozen=True, init=False)
class SpectralState:
    """Coordinates of a state in the eigenbasis {phi_j}, modes 1..N."""

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

    @cached_property
    def coeff_array(self) -> np.ndarray:
        return np.array(self.coeffs, dtype=float)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeff_array))

    def mode(self, j: int) -> float:
        """Coefficient of mode j, zero beyond the stored range."""
        j = int(j)
        if j < 1:
            raise ValueError("mode index must be positive")
        return self.coeffs[j - 1] if j <= len(self.coeffs) else 0.0


@dataclass(frozen=True)
class MomentProblem:
    """Target moments ``m_j`` for kernels ``exp(mu_j (T - s))`` on [0, T]."""

    exponents: tuple[float, ...]
    moments: tuple[float, ...]
    horizon: float

    def __post_init__(self) -> None:
        exps = tuple(_require_finite(m, "exponent") for m in self.exponents)
        moms = tuple(_require_finite(m, "moment") for m in self.moments)
        if len(exps) != len(moms) or not exps:
            raise ValueError("exponents and moments must be nonempty and equally long")
        if any(b >= a for a, b in zip(exps, exps[1:])):
            raise ValueError("exponents must be strictly decreasing")
        horizon = _require_finite(self.horizon, "horizon")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "moments", moms)
        object.__setattr__(self, "horizon", horizon)


@dataclass(frozen=True)
class ControlFunction:
    """A synthesized control: exponential-sum profile(s) on [0, horizon].

    Lumped: the scalar profile ``u(s) = sum_k coeffs[k] exp(exponents[k] (T-s))``.
    Distributed: ``coeffs[i]`` drives mode i+1 through its own per-mode channel
    ``u_i(s) = coeffs[i] exp(exponents[i] (T-s))``.
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

    def mode_profile(self, i: int, s) -> np.ndarray:
        """Per-mode channel u_i(s) of a distributed control (i is 0-based)."""
        if self.kind != "distributed":
            raise ValueError("mode_profile() applies to distributed controls")
        s = np.asarray(s, dtype=float)
        return self.coeffs[i] * np.exp(self.exponents[i] * (self.horizon - s))


def gram_matrix(exponents: Sequence[float], horizon: float) -> np.ndarray:
    """Gram matrix of the kernels ``exp(mu_k (T - s))`` on [0, T]."""
    exps = [_require_finite(m, "exponent") for m in exponents]
    if len(set(exps)) != len(exps):
        raise ValueError("duplicate exponents make the Gram matrix singular")
    horizon = _require_finite(horizon, "horizon")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    n = len(exps)
    gram = np.empty((n, n))
    for i in range(n):
        for k in range(i, n):
            gram[i, k] = gram[k, i] = exp_integral(exps[i] + exps[k], horizon)
    return gram


def solve_moment_problem(
    problem: MomentProblem, regularization: float = 0.0
) -> ControlFunction:
    """Solve ``(G + regularization I) c = m`` and package the lumped control.

    Reports the achieved moment residual ``max_j |(G c - m)_j|`` and the
    control energy ``c' G c``. At zero regularization a residual above
    ``1e-6 * max|m|`` raises :class:`ConditioningError`: regularize or drop
    modes instead of trusting the coefficients.
    """
    return _solve_moments(problem, regularization)[0]


def _solve_moments(
    problem: MomentProblem, regularization: float
) -> tuple[ControlFunction, np.ndarray]:
    """:func:`solve_moment_problem` plus the moment residual vector ``G c - m``."""
    regularization = _require_finite(regularization, "regularization")
    if regularization < 0:
        raise ValueError("regularization must be nonnegative")
    gram = gram_matrix(problem.exponents, problem.horizon)
    moments = np.array(problem.moments, dtype=float)
    system = gram + regularization * np.eye(len(moments))
    try:
        coeffs = np.linalg.solve(system, moments)
        coeffs = coeffs + np.linalg.solve(system, moments - system @ coeffs)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"moment system solve failed: {exc}") from exc
    residuals = gram @ coeffs - moments
    residual = float(np.max(np.abs(residuals)))
    scale = float(np.max(np.abs(moments))) if moments.size else 0.0
    if not math.isfinite(residual):
        raise ConditioningError("moment solve produced non-finite residuals")
    if regularization == 0.0 and residual > 1e-6 * scale:
        raise ConditioningError(
            f"moment residual {residual:.3e} exceeds 1e-6 * max|m| = {1e-6 * scale:.3e}; "
            "increase regularization or drop modes"
        )
    control = ControlFunction(
        kind="lumped",
        horizon=problem.horizon,
        exponents=problem.exponents,
        coeffs=tuple(float(c) for c in coeffs),
        moment_residual=residual,
        energy=float(coeffs @ gram @ coeffs),
        gram_condition=float(np.linalg.cond(gram)),
    )
    return control, residuals


def _mode_deltas(
    z0: SpectralState, z1: SpectralState, horizon: float, n_total: int
) -> list[float]:
    """Required state changes ``z1_j - exp(mu_j T) z0_j`` for j = 1..n_total."""
    return [
        z1.mode(j) - math.exp(eigenvalue(j) * horizon) * z0.mode(j)
        for j in range(1, n_total + 1)
    ]


def synthesize_lumped(
    z0: SpectralState,
    z1: SpectralState,
    actuator: Actuator,
    horizon: float,
    n_modes: int,
    eps: float,
    regularization: float = 0.0,
) -> tuple[ControlFunction, float]:
    """Lumped control steering modes 1..n_modes of z0 toward z1.

    Blocked modes (exact zero overlap) with a nontrivial moment requirement
    raise :class:`BlockedModeError`; blocked modes whose requirement is
    already met by free decay are skipped. The returned ``predicted_error``
    combines the achieved moment mismatch with the tail energy of target
    components beyond ``n_modes``. If it is at most ``eps`` the terminal
    state misses ``z1`` by at most that amount for targets supported on the
    retained modes.
    """
    horizon = _require_finite(horizon, "horizon")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if actuator.kind != "lumped":
        raise ValueError("actuator kind must be 'lumped'")
    n_modes = int(n_modes)
    if n_modes < 1:
        raise ValueError("n_modes must be at least 1")
    if eps <= 0:
        raise ValueError("eps must be positive")

    n_total = max(n_modes, z0.n_modes, z1.n_modes)
    deltas = _mode_deltas(z0, z1, horizon, n_total)

    retained: list[int] = []
    couplings: dict[int, float] = {}
    for j in range(1, n_modes + 1):
        beta = coupling_coefficient(actuator, j)
        if beta == 0.0:
            if deltas[j - 1] != 0.0:
                raise BlockedModeError(
                    f"mode {j} cannot be steered: actuator {actuator.describe()} "
                    f"has exactly zero overlap with phi_{j}"
                )
            continue
        retained.append(j)
        couplings[j] = beta

    tail_energy = math.fsum(d * d for d in deltas[n_modes:])

    if not retained:
        control = ControlFunction(
            kind="lumped",
            horizon=horizon,
            exponents=(),
            coeffs=(),
            moment_residual=0.0,
            energy=0.0,
        )
        return control, math.sqrt(tail_energy)

    if len(retained) > 8 and regularization == 0.0:
        warnings.warn(
            f"{len(retained)} heat modes make the Gram matrix severely ill "
            "conditioned; consider regularization or fewer modes",
            ConditioningWarning,
            stacklevel=2,
        )

    problem = MomentProblem(
        exponents=tuple(eigenvalue(j) for j in retained),
        moments=tuple(deltas[j - 1] / couplings[j] for j in retained),
        horizon=horizon,
    )
    control, moment_residuals = _solve_moments(problem, regularization)
    mismatch = math.fsum(
        (couplings[j] * float(r)) ** 2 for j, r in zip(retained, moment_residuals)
    )
    return control, math.sqrt(mismatch + tail_energy)


def synthesize_distributed(
    z0: SpectralState,
    z1: SpectralState,
    actuator: Actuator,
    horizon: float,
    n_modes: int,
    eps: float,
) -> tuple[ControlFunction, float]:
    """Distributed control: per-mode channels, each retained mode hit exactly.

    Mode j is driven through its own channel ``u_j(s) = d_j exp(mu_j (T-s))``
    acting with weight ``gamma_j = integral of phi_j^2 over omega > 0``; cross
    couplings between channels are not modeled (the simulator applies the
    same per-mode convention). The predicted error is the tail energy of
    target components beyond ``n_modes`` only.
    """
    horizon = _require_finite(horizon, "horizon")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if actuator.kind != "distributed":
        raise ValueError("actuator kind must be 'distributed'")
    if not actuator.b.to_float() > actuator.a.to_float():
        raise ValueError("actuator endpoints a < b are equal in double precision")
    n_modes = int(n_modes)
    if n_modes < 1:
        raise ValueError("n_modes must be at least 1")
    if eps <= 0:
        raise ValueError("eps must be positive")

    n_total = max(n_modes, z0.n_modes, z1.n_modes)
    deltas = _mode_deltas(z0, z1, horizon, n_total)

    exponents = tuple(eigenvalue(j) for j in range(1, n_modes + 1))
    coeffs = []
    for j in range(1, n_modes + 1):
        gamma = mode_energy(actuator, j)
        gain = gamma * exp_integral(2.0 * eigenvalue(j), horizon)
        coeffs.append(deltas[j - 1] / gain)
    gram = gram_matrix(exponents, horizon)
    d = np.array(coeffs)
    control = ControlFunction(
        kind="distributed",
        horizon=horizon,
        exponents=exponents,
        coeffs=tuple(float(c) for c in coeffs),
        moment_residual=0.0,
        energy=float(d @ gram @ d),
    )
    tail_energy = math.fsum(x * x for x in deltas[n_modes:])
    return control, math.sqrt(tail_energy)


# ---------------------------------------------------------------------------
# Structured-text documents
# ---------------------------------------------------------------------------


def profile_to_csv(control: ControlFunction, samples: int = 65) -> str:
    """CSV of the control on a uniform grid: rows ``s,u`` for lumped controls,
    one column per mode channel for distributed ones."""
    samples = int(samples)
    if samples < 2:
        raise ValueError("samples must be at least 2")
    grid = np.linspace(0.0, control.horizon, samples)
    if control.kind == "lumped":
        values = control.profile(grid)
        lines = ["s,u"]
        lines += [f"{float(s)!r},{float(u)!r}" for s, u in zip(grid, values)]
    else:
        n = len(control.coeffs)
        lines = ["s," + ",".join(f"u_{i + 1}" for i in range(n))]
        columns = [control.mode_profile(i, grid) for i in range(n)]
        for row, s in enumerate(grid):
            cells = ",".join(repr(float(col[row])) for col in columns)
            lines.append(f"{float(s)!r},{cells}")
    return "\n".join(lines) + "\n"


def control_to_document(control: ControlFunction) -> dict:
    doc: dict = {
        "kind": control.kind,
        "T": control.horizon,
        "exponents": list(control.exponents),
        "coeffs": list(control.coeffs),
    }
    if control.moment_residual is not None:
        doc["momentResidual"] = control.moment_residual
    if control.energy is not None:
        doc["energy"] = control.energy
    if control.gram_condition is not None:
        doc["gramCondition"] = control.gram_condition
    return doc


def control_from_document(doc: dict) -> ControlFunction:
    return ControlFunction(
        kind=str(doc["kind"]),
        horizon=float(doc["T"]),
        exponents=tuple(float(x) for x in doc["exponents"]),
        coeffs=tuple(float(x) for x in doc["coeffs"]),
        moment_residual=doc.get("momentResidual"),
        energy=doc.get("energy"),
        gram_condition=doc.get("gramCondition"),
    )
