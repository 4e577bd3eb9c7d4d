"""Recovering exponential-sum coefficients from noisy samples by peeling.

A sum that vanishes on an interval has all-zero coefficients, so sampled
values determine the coefficients once the exponents are known. The peel
fits the slowest modes by one least-squares solve on a late-time window where
the modes left out have decayed below a tenth of the fastest mode extracted;
with every mode extracted, as here, the window is every sample. The same
machinery powers the observability test: a heat mode with zero actuator
overlap produces the identically-zero sensor signal.
"""

import numpy as np

from expseries.control import SpectralState
from expseries.heat import Actuator
from expseries.simulate import observability_series, observability_signal
from expseries.uniqueness import SampledSignal, is_identically_zero, peel_leading


def main() -> None:
    rng = np.random.default_rng(2)
    lams = [1.0, 2.0, 3.0]
    alphas = [1.2, -0.7, 0.5]
    times = np.linspace(0.0, 6.0, 400)
    clean = sum(a * np.exp(-l * times) for a, l in zip(alphas, lams))

    print("true coefficients:", alphas, "at exponents", lams)
    print(f"{'noise':>8} {'recovered coefficients':>42} {'max error':>12}")
    for sigma in (0.0, 1e-4, 1e-6, 1e-8):
        noisy = clean + rng.standard_normal(len(times)) * sigma
        signal = SampledSignal(times, noisy, 6.0)
        result = peel_leading(signal, lams, 3)
        estimates = [a for a, _ in result.recovered]
        error = max(abs(e - a) for e, a in zip(estimates, alphas))
        formatted = ", ".join(f"{e:+.8f}" for e in estimates)
        print(f"{sigma:>8.0e} [{formatted}] {error:>12.2e}")

    print("\nvanishing test as an observability check, omega = (0, 1/2):")
    act = Actuator.from_strings("0", "1/2")
    for j in (1, 3, 4, 8):
        y = SpectralState.unit_mode(j)
        signal = observability_signal(y, act, 1.0, 33)
        verdict = is_identically_zero(observability_series(y, act), 1.0, 1e-12)
        peak = max(abs(v) for v in signal.values)
        status = "unobservable (blocked)" if verdict else "observable"
        print(f"  mode {j}: peak sensor output {peak:.3e} -> {status}")


if __name__ == "__main__":
    main()
