"""Series terms and signal samples are stored once, in read-only arrays.

Both constructors validate whole arrays. A copy of the per-element rule they
replaced, kept here as the reference, checks that they store the same values
in the same order and raise the same exceptions with the same messages; a
profiler hook checks that they make no Python call per element.
"""

import copy
import gc
import math
import pickle
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expseries.series import DirichletSeries, TailModel, evaluate
from expseries.uniqueness import SampledSignal, peel_leading


# ---------------------------------------------------------------------------
# The per-element rule, as the constructors applied it before storing arrays
# ---------------------------------------------------------------------------


def finite(value, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")
    return value


def reference_terms(terms) -> tuple[tuple[float, float], ...]:
    cleaned = []
    for pair in terms:
        alpha, lam = pair
        cleaned.append((finite(alpha, "coefficient"), finite(lam, "exponent")))
    if not cleaned:
        raise ValueError("a series needs at least one term")
    cleaned.sort(key=lambda item: item[1])
    for (_, left), (_, right) in zip(cleaned, cleaned[1:]):
        if left == right:
            raise ValueError(f"duplicate exponent {left!r}")
    return tuple(cleaned)


def reference_samples(times, values, horizon):
    horizon = finite(horizon, "horizon")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    times = tuple(finite(t, "sample time") for t in times)
    values = tuple(finite(v, "sample value") for v in values)
    if not times:
        raise ValueError("signal needs at least one sample")
    if len(times) != len(values):
        raise ValueError("times and values must have equal length")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("sample times must be strictly increasing")
    if times[0] < 0 or times[-1] > horizon:
        raise ValueError("sample times must lie within [0, horizon]")
    return times, values, horizon


def outcome(build):
    """What ``build()`` returns, or the type and message of what it raises."""
    try:
        return build()
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def bits(value):
    """Floats as hex strings, so that 0.0 and -0.0 differ; other leaves unchanged."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return value


# ---------------------------------------------------------------------------
# Parity with the per-element rule
# ---------------------------------------------------------------------------

# Every entry converts with float(); NaN and infinities appear as floats and
# as strings, and the sampled values collide often enough to make duplicates.
numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-100.0, 100.0, allow_nan=False),
    st.integers(-(10**20), 10**20),
    st.fractions(max_denominator=1000),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-1000, 1000).map(str),
    st.booleans(),
    st.sampled_from([0.0, -0.0, 1, 1.0, "1", " 1.0 ", Fraction(2, 2), True, "1e400", "-inf", 0.5]),
)


def term_containers(pairs):
    """Builders of the same terms as lists, tuples, a zip and, if floats, an array."""
    alphas, lams = [a for a, _ in pairs], [l for _, l in pairs]
    builders = [
        lambda: [list(p) for p in pairs],
        lambda: tuple(pairs),
        lambda: zip(alphas, lams),
    ]
    if pairs:
        rows = [[float(a), float(l)] for a, l in pairs]
        builders.append(lambda: np.array(rows).reshape(len(pairs), 2))
    return builders


class TestSeriesParity:
    @settings(max_examples=400, deadline=None)
    @given(pairs=st.lists(st.tuples(numbers, numbers), max_size=8))
    def test_matches_per_element_rule(self, pairs):
        for make in term_containers(pairs):
            expected = outcome(lambda: reference_terms(make()))
            got = outcome(lambda: DirichletSeries(make()).terms)
            assert bits(got) == bits(expected)

    @settings(max_examples=200, deadline=None)
    @given(
        lams=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=12, unique=True),
        data=st.data(),
    )
    def test_arrays_hold_the_sorted_terms(self, lams, data):
        alphas = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=len(lams), max_size=len(lams)))
        s = DirichletSeries(zip(alphas, lams))
        assert bits(s.terms) == bits(reference_terms(zip(alphas, lams)))
        for array, column in ((s.alphas, 0), (s.lambdas, 1)):
            assert array.dtype == np.float64 and array.ndim == 1 and not array.flags.writeable
            assert bits(tuple(array.tolist())) == bits(tuple(t[column] for t in s.terms))

    def test_first_bad_entry_names_the_error(self):
        # Input order decides, and a coefficient comes before its exponent.
        with pytest.raises(ValueError, match="^exponent must be finite$"):
            DirichletSeries([(1.0, math.nan), (math.inf, 2.0)])
        with pytest.raises(ValueError, match="^coefficient must be finite$"):
            DirichletSeries([(1.0, 1.0), (math.nan, math.inf)])

    def test_duplicate_reports_the_first_of_the_pair_in_input_order(self):
        with pytest.raises(ValueError, match=r"^duplicate exponent -0\.0$"):
            DirichletSeries([(1.0, 3.0), (1.0, -0.0), (2.0, 0.0)])
        with pytest.raises(ValueError, match=r"^duplicate exponent 0\.0$"):
            DirichletSeries([(2.0, 0.0), (1.0, -0.0)])

    @pytest.mark.parametrize("terms", [[(1.0, 2.0, 3.0)], [(1.0,)], [(1.0, 1.0), ()]])
    def test_malformed_pair_rejected(self, terms):
        with pytest.raises(ValueError, match="every term must be a"):
            DirichletSeries(terms)


samples = st.lists(numbers, max_size=6)


class TestSignalParity:
    @settings(max_examples=400, deadline=None)
    @given(
        times=st.one_of(samples, st.lists(st.floats(0.0, 4.0), max_size=6).map(sorted)),
        data=st.data(),
    )
    def test_matches_per_element_rule(self, times, data):
        # Mostly a valid horizon and one value per time, so that later checks are reached.
        mostly = data.draw(st.sampled_from([True, True, True, False]), label="mostly valid")
        size = len(times) if mostly else None
        values = data.draw(st.lists(numbers, min_size=size or 0, max_size=size or 6))
        horizon = data.draw(st.floats(4.0, 5.0) if mostly else numbers)
        expected = outcome(lambda: reference_samples(times, values, horizon))

        def build(times, values):
            signal = SampledSignal(times, values, horizon)
            return signal.times, signal.values, signal.horizon

        assert bits(outcome(lambda: build(times, values))) == bits(expected)
        assert bits(outcome(lambda: build(tuple(times), tuple(values)))) == bits(expected)

    def test_arrays_hold_the_samples(self):
        signal = SampledSignal([0, Fraction(1, 3), "0.5"], [True, -2, "1e-300"], 1)
        assert signal.times == (0.0, 1.0 / 3.0, 0.5)
        assert signal.values == (1.0, -2.0, 1e-300)
        assert signal.time_array.tolist() == list(signal.times)
        assert signal.value_array.tolist() == list(signal.values)
        assert signal.time_array.dtype == signal.value_array.dtype == np.float64
        assert not (signal.time_array.flags.writeable or signal.value_array.flags.writeable)

    @pytest.mark.parametrize(
        "times, values, message",
        [
            (np.zeros((2, 2)), [1.0, 2.0], "sample times must be one-dimensional"),
            (0.5, [1.0], "sample times must be one-dimensional"),
            ([0.0, 0.5], [[1.0], [2.0]], "sample values must be one-dimensional"),
        ],
    )
    def test_non_1d_input_rejected(self, times, values, message):
        with pytest.raises(ValueError, match=message):
            SampledSignal(times, values, 1.0)


# ---------------------------------------------------------------------------
# Stored arrays cannot be changed
# ---------------------------------------------------------------------------


class TestReadOnly:
    def test_series_arrays_reject_writes(self):
        s = DirichletSeries([(1.0, 0.0), (2.0, 1.0)])
        for array in (s.alphas, s.lambdas):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 100.0
        assert evaluate(s, 0.0).value == 3.0
        assert s.terms == ((1.0, 0.0), (2.0, 1.0))

    def test_signal_arrays_reject_writes(self):
        t = np.linspace(0.0, 4.0, 3)
        signal = SampledSignal(t, 2.0 * np.exp(-t), 4.0)
        with pytest.raises(ValueError, match="read-only"):
            signal.time_array[:] = [1.0, 0.0, 5.0]
        with pytest.raises(ValueError, match="read-only"):
            signal.value_array[0] = 0.0
        assert peel_leading(signal, [1.0], 1).recovered[0][0] == pytest.approx(2.0)

    def test_signal_copies_the_caller_arrays(self):
        t, v = np.linspace(0.0, 1.0, 4), np.ones(4)
        signal = SampledSignal(t, v, 1.0)
        t[0], v[0] = 0.5, 7.0
        assert signal.times[0] == 0.0 and signal.values[0] == 1.0
        assert t.flags.writeable and v.flags.writeable


CLONES = [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))]


class TestCopies:
    """Copies are rebuilt through the constructor, so their arrays stay read-only."""

    @pytest.mark.parametrize("clone", CLONES, ids=["deepcopy", "pickle"])
    def test_series_copy(self, clone):
        s = DirichletSeries([(2.0, 3.0), (-1.5, 0.5)], TailModel(1e-3, 10.0))
        s.terms  # cache it before copying
        twin = clone(s)
        assert twin == s and twin.tail == s.tail
        for mine, theirs in ((twin.alphas, s.alphas), (twin.lambdas, s.lambdas)):
            assert not mine.flags.writeable
            assert mine.tolist() == theirs.tolist()
        assert twin.terms == ((-1.5, 0.5), (2.0, 3.0))

    @pytest.mark.parametrize("clone", CLONES, ids=["deepcopy", "pickle"])
    def test_signal_copy(self, clone):
        t = np.linspace(0.0, 2.0, 5)
        signal = SampledSignal(t, np.exp(-t), 2.0)
        signal.times  # cache it before copying
        twin = clone(signal)
        assert twin.horizon == 2.0
        for mine, theirs in ((twin.time_array, t), (twin.value_array, np.exp(-t))):
            assert not mine.flags.writeable
            assert mine.tolist() == theirs.tolist()
        assert twin.times == signal.times and twin.values == signal.values


class TestSeriesEquality:
    def test_equal_values_compare_and_hash_equal(self):
        a = DirichletSeries([(1, 2), (3, 1)])
        b = DirichletSeries([(3.0, 1.0), (1.0, Fraction(4, 2))])
        assert a == b and hash(a) == hash(b)
        assert a != DirichletSeries([(3.0, 1.0), (1.5, 2.0)])
        assert a != DirichletSeries(a.terms, TailModel(1.0, 3.0))
        assert a != a.terms


# ---------------------------------------------------------------------------
# No Python call per element
# ---------------------------------------------------------------------------


def python_calls(build) -> int:
    """Python-level function calls made while ``build()`` runs.

    The garbage collector is off meanwhile: collections run whatever
    ``gc.callbacks`` hold (hypothesis installs one), which ``build`` does not call.
    """
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "call"

    was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        build()
    finally:
        sys.setprofile(None)
        if was_enabled:
            gc.enable()
    return count


def float_terms(n: int) -> list[tuple[float, float]]:
    return [(1.0 / (j + 1), float(n - j)) for j in range(n)]


def float_samples(n: int) -> tuple[list[float], list[float]]:
    return [j / n for j in range(n)], [math.exp(-j / n) for j in range(n)]


@pytest.mark.parametrize(
    "build",
    [
        lambda terms: DirichletSeries(terms, TailModel(1.0, 20_000.0)),
        lambda terms: DirichletSeries(zip(*zip(*terms))),
    ],
    ids=["list", "zip"],
)
def test_series_construction_makes_no_call_per_term(build):
    small, large = float_terms(10), float_terms(10_000)
    build(small)  # first calls may import or cache
    assert python_calls(lambda: build(large)) <= python_calls(lambda: build(small))


@pytest.mark.parametrize("as_array", [False, True], ids=["list", "ndarray"])
def test_signal_construction_makes_no_call_per_sample(as_array):
    def build(n):
        times, values = float_samples(n)
        if as_array:
            times, values = np.array(times), np.array(values)
        return lambda: SampledSignal(times, values, 1.0)

    build(10)()
    assert python_calls(build(10_000)) <= python_calls(build(10))
