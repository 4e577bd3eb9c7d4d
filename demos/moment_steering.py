"""Steering heat modes to zero by the moment method, verified by simulation.

The target "kill the first six modes of z0 = sum phi_j / j" with the
full-domain actuator omega = (0, 1). Even modes have zero overlap (blocked),
so the request is projected onto the controllable subspace first; the blocked
modes decay on their own. An independent modal simulator with closed-form
convolution checks the terminal state.
"""

import numpy as np

from expseries.control import SpectralState, synthesize_lumped
from expseries.heat import Actuator, blocked_set
from expseries.simulate import project_onto_v, verify_control


def main() -> None:
    actuator = Actuator.from_strings("0", "1")
    horizon, n_modes = 1.0, 6
    z0 = SpectralState(tuple(1.0 / j for j in range(1, n_modes + 1)))
    z1 = SpectralState.zero(n_modes)

    report = blocked_set(actuator, n_modes)
    print(f"actuator {actuator.describe()}: blocked modes {list(report.blocked_prefix)}")
    print("projecting the request onto the controllable subspace\n")

    control, predicted = synthesize_lumped(
        project_onto_v(z0, report),
        project_onto_v(z1, report),
        actuator,
        horizon,
        n_modes,
    )
    print(f"retained exponents: {[f'{mu:.2f}' for mu in control.exponents]}")
    print(f"coefficients:       {[f'{c:.3e}' for c in control.coeffs]}")
    print(f"moment residual:    {control.moment_residual:.3e}")
    print(f"control energy:     {control.energy:.3e}")
    print(f"Gram condition:     {control.gram_condition:.3e}")
    print(f"predicted error:    {predicted:.3e}")

    # Simulate twice the synthesized modes so spillover is part of the error.
    trajectory = verify_control(z0, z1, control, actuator, horizon)
    print(f"\nsimulated terminal error over {trajectory.n_modes} modes: "
          f"{trajectory.terminal_error:.3e}")
    print("terminal modal amplitudes:")
    for j, amplitude in enumerate(trajectory.states[-1], start=1):
        note = ""
        if report.is_blocked(j):
            note = " (blocked, free decay)"
        elif j > n_modes:
            note = " (untargeted: control spillover)"
        print(f"  mode {j}: {amplitude:+.3e}{note}")

    norms = np.linalg.norm(trajectory.states, axis=1)
    print("\nstate norm along the trajectory:")
    for k in range(0, len(trajectory.times), 16):
        print(f"  t = {trajectory.times[k]:.3f}   |z| = {norms[k]:.6e}")


if __name__ == "__main__":
    main()
