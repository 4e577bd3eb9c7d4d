"""The overflow rule: every number the library computes is finite, or the call raises OverflowError.

The inputs sit at the edge of the double range: zero coefficients, exponents
down to -1000, coefficients up to 1e308, opposite-sign pairs, states near the
largest double and control exponents up to 1e3. A numpy ``RuntimeWarning``
that escapes a call fails the test too (``error::RuntimeWarning`` in
pyproject.toml).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from expseries.control import (
    ControlFunction,
    SpectralState,
    gram_matrix,
    synthesize_distributed,
    synthesize_lumped,
)
from expseries.heat import Actuator
from expseries.series import DirichletSeries, TailModel, evaluate
from expseries.simulate import observability_signal, propagate
from expseries.taylor import expand, partial_sums, remainder_bound
from expseries.uniqueness import is_identically_zero

# Modes 4, 8, ... are blocked under HALF, so it steers any of the first three; under
# UNIT, a sensor output of three modes near the largest double overflows.
HALF = Actuator.from_strings("0", "1/2")
UNIT = Actuator.from_strings("0", "1")

coefficients = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 1e308, -1e308)),
    st.floats(-1e308, 1e308),
)
# Up to the largest double: three modes of these overflow a sum.
state_values = st.one_of(
    st.sampled_from((0.0, 1.0, 1e200, -1e300, 1.7e308, -1.7e308)),
    st.floats(-1.7e308, 1.7e308),
)
states = st.lists(state_values, min_size=1, max_size=3).map(SpectralState)


@st.composite
def edge_series(draw, lowest: float = -1000.0):
    """Up to 8 terms with exponents in [lowest, 1000], alternately opposite pairs, maybe a tail."""
    lams = draw(st.lists(st.floats(lowest, 1000.0), min_size=1, max_size=8, unique=True))
    alphas = draw(st.lists(coefficients, min_size=len(lams), max_size=len(lams)))
    if draw(st.booleans()):
        alphas = [-alphas[k - 1] if k % 2 else a for k, a in enumerate(alphas)]
    tail = draw(st.none() | st.builds(TailModel, st.floats(0.0, 1e308), st.floats(1e-3, 1e3)))
    return DirichletSeries(zip(alphas, lams), tail)


def finite(value) -> bool:
    """True when every number in ``value`` (a dataclass, sequence, array or number) is finite."""
    if value is None or isinstance(value, (str, bool)):
        return True
    if dataclasses.is_dataclass(value):
        return all(finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return all(map(finite, value))
    return bool(np.isfinite(value).all())


def obeys_the_rule(call, *args, **kwargs):
    """``call``'s result, after checking that it is finite; None where the call overflowed."""
    try:
        result = call(*args, **kwargs)
    except OverflowError:
        return None
    assert finite(result), result
    return result


class TestContract:
    @settings(deadline=None)
    @given(s=edge_series(), t=st.floats(-10.0, 10.0))
    def test_evaluate(self, s, t):
        assume(s.tail is None or t >= 0)
        obeys_the_rule(evaluate, s, t)

    @settings(deadline=None)
    @given(
        s=edge_series(lowest=1e-3),
        tau=st.floats(1e-4, 5.0),
        order=st.integers(0, 120),
        where=st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
        far=st.floats(-1e300, 1e300),
        n=st.integers(1, 120),
    )
    def test_expand_partial_sums_and_remainder_bound(self, s, tau, order, where, far, n):
        expansion = obeys_the_rule(expand, s, tau, order)
        if expansion is None:
            return
        for t in (where * tau, far):
            obeys_the_rule(partial_sums, expansion, t)
        t = where * tau
        if 1 <= n <= order and 0.0 < t < 2.0 * tau and abs(t - tau) / tau < 1.0:
            obeys_the_rule(remainder_bound, expansion, n, t)

    @settings(deadline=None)
    @given(
        s=edge_series(),
        horizon=st.floats(0.1, 3.0),
        tol=st.floats(1e-300, 1e300),
        nodes=st.sampled_from((2, 5, 33)),
    )
    def test_is_identically_zero(self, s, horizon, tol, nodes):
        obeys_the_rule(is_identically_zero, s, horizon, tol, nodes)

    @settings(deadline=None)
    @given(
        z0=states,
        target=st.none() | states,
        kind=st.sampled_from(("lumped", "distributed")),
        actuator=st.sampled_from((HALF, UNIT)),
        horizon=st.floats(1e-3, 1.0),
        terms=st.lists(st.tuples(st.floats(-1e3, 1e3), coefficients), min_size=1, max_size=3),
    )
    def test_propagate(self, z0, target, kind, actuator, horizon, terms):
        exponents, coeffs = zip(*terms)
        control = ControlFunction(kind, horizon, exponents, coeffs)
        obeys_the_rule(propagate, z0, control, actuator, horizon, steps=16, target=target)

    @settings(deadline=None)
    @given(
        y=states,
        actuator=st.sampled_from((HALF, UNIT)),
        horizon=st.floats(1e-3, 10.0),
        samples=st.integers(2, 9),
    )
    def test_observability_signal(self, y, actuator, horizon, samples):
        obeys_the_rule(observability_signal, y, actuator, horizon, samples)

    @settings(deadline=None)
    @given(
        z0=states,
        z1=states,
        horizon=st.floats(1e-3, 1.0),
        n_modes=st.integers(1, 3),
        synthesize=st.sampled_from((synthesize_lumped, synthesize_distributed)),
    )
    def test_synthesizers(self, z0, z1, horizon, n_modes, synthesize):
        obeys_the_rule(synthesize, z0, z1, HALF, horizon, n_modes, regularization=1e-9)


class TestRepros:
    """The calls that, before the rule, returned a non-finite number or raised another error."""

    def test_terms_that_overflow_to_opposite_infinities(self):
        with pytest.raises(OverflowError):
            evaluate(DirichletSeries([(1.0, -1000.0), (-1.0, -1001.0)]), 1.0)
        with pytest.raises(OverflowError):
            expand(DirichletSeries([(1e300, 100.0), (-1e300, 101.0)]), 1e-4, 120)

    def test_a_zero_coefficient_on_an_overflowing_exponential_is_zero(self):
        value = evaluate(DirichletSeries([(0.0, -1000.0)]), 1.0)
        assert (value.value, value.error_bound) == (0.0, 0.0)

    def test_a_zero_coefficient_does_not_fail_the_vanishing_test(self):
        assert is_identically_zero(DirichletSeries([(0.0, -1000.0), (1e-20, 1.0)]), 1.0, 1e-6)

    def test_an_overflowing_remainder_bound(self):
        expansion = expand(DirichletSeries([(1e300, 1.0)]), 1.0, 5)
        assert remainder_bound(expansion, 5, 1.9).bound < 1e302
        with pytest.raises(OverflowError):
            remainder_bound(expansion, 5, 1.999999999999)

    @pytest.mark.parametrize("order", [1, 5], ids=["infinite-sum", "opposite-infinities"])
    def test_overflowing_partial_sums(self, order):
        # (t - tau)^n overflows: one term is -inf, and from order 2 one is +inf too.
        expansion = expand(DirichletSeries([(1e300, 1.0)]), 1.0, order)
        with pytest.raises(OverflowError):
            partial_sums(expansion, 1e300)

    def test_an_overflowing_control(self):
        control = ControlFunction("lumped", 1.0, (1e3,), (1e300,))
        with pytest.raises(OverflowError):
            propagate(SpectralState.unit_mode(1), control, UNIT, 1.0, steps=16)

    def test_an_overflowing_gram_matrix(self):
        # e**(800 * 2) overflows; a RuntimeWarning would fail the test too.
        with pytest.raises(OverflowError, match="the Gram matrix"):
            gram_matrix([400.0, 1.0], 2.0)

    def test_an_overflowing_sensor_output(self):
        with pytest.raises(OverflowError):
            observability_signal(SpectralState((1.7e308, 0.0, 1.7e308)), UNIT, 1.0, 2)

    @pytest.mark.parametrize(
        "synthesize, z0, z1, actuator, horizon, n_modes",
        [
            # The energy overflows.
            (synthesize_lumped, (1e200, 0.0, 0.0), (0.0,), UNIT, 1.0, 1),
            # The state change beyond mode 1, and so the predicted error, overflows.
            (synthesize_lumped, (1.0, 0.0, 1e200), (0.0,), UNIT, 1.0, 1),
            (synthesize_distributed, (1e200, 0.0, 0.0), (0.0,), HALF, 0.001, 2),
            # The state change z1 - exp(mu T) z0 itself overflows.
            (synthesize_distributed, (-1.7e308,), (1.7e308,), HALF, 0.001, 1),
        ],
        ids=["lumped-energy", "lumped-predicted-error", "distributed", "distributed-change"],
    )
    def test_an_overflowing_control_synthesis(self, synthesize, z0, z1, actuator, horizon, n_modes):
        with pytest.raises(OverflowError):
            synthesize(SpectralState(z0), SpectralState(z1), actuator, horizon, n_modes)
