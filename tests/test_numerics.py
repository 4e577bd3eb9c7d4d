import itertools
import math
import sys
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from expseries._numerics import BLOCK_ELEMENTS, exp_integral, row_sums

INF, NAN = math.inf, math.nan

# Magnitudes from the smallest subnormals up to 1e300.
wide = st.builds(
    lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
    st.sampled_from((-1.0, 1.0)),
    st.floats(1.0, 10.0),
    st.integers(-323, 300),
)


@st.composite
def cancelling(draw):
    """``x``/``-x`` pairs plus one tiny residue, in any order."""
    xs = draw(st.lists(wide, max_size=20))
    residue = draw(st.sampled_from((0.0, -0.0, 5e-324, -2.0**-1000, 1e-30)))
    return draw(st.permutations(xs + [-x for x in xs] + [residue]))


@st.composite
def ties(draw):
    """``1 + 2**-53 +- 2**-106`` sits next to a round-half-even tie."""
    row = [1.0, 2.0**-53, draw(st.sampled_from((1.0, -1.0))) * 2.0**-106]
    scale = 2.0 ** draw(st.integers(-900, 900))
    return draw(st.permutations([x * scale for x in row]))


@st.composite
def many_small(draw):
    """Values each below half an ulp of the largest that together reach past it."""
    count = draw(st.integers(2, 64))
    small = draw(st.floats(0.5, 1.5)) * 2.0**-53 / count
    scale = draw(st.sampled_from((1.0, -1.0))) * 2.0 ** draw(st.integers(-900, 900))
    return draw(st.permutations([scale] + [small * scale] * count))


rows = st.one_of(
    st.lists(wide, max_size=40),
    cancelling(),
    ties(),
    many_small(),
    st.lists(st.sampled_from((0.0, -0.0)), max_size=5),
    st.lists(wide | st.sampled_from((INF, -INF, NAN)), min_size=1, max_size=8),
    # Near the top of the range, fsum raises OverflowError for some orders.
    st.lists(
        st.builds(lambda sign, x: sign * x, st.sampled_from((-1.0, 1.0)), st.floats(1e307, 1.7e308)),
        min_size=1,
        max_size=6,
    ),
)


def fsum_or_error(row):
    """``math.fsum(row)`` by ``hex``, or the type and message of what it raises."""
    try:
        return math.fsum(row).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def sign_columns(signs):
    """The ``(n, 2)`` weights ``copysign(1, signs)`` and 1 of a series' signed and magnitude sums."""
    signs = np.asarray(signs, dtype=float)
    return np.stack((np.copysign(1.0, signs), np.ones(len(signs)))).T


def check_weighted_sums(magnitudes, weights, tables=None):
    """``row_sums(magnitudes, weights)`` against ``math.fsum`` of each weighted row.

    ``tables`` holds one table of weighted rows per column, by default
    ``magnitudes * column``. The sums must match by ``hex``; otherwise
    ``row_sums`` must raise the first error of the rows in order, each row's
    columns in order. A row that holds a magnitude that is not finite raises
    ``OverflowError`` before any of its columns is summed.
    """
    magnitudes = np.asarray(magnitudes, dtype=float)
    if tables is None:
        tables = [magnitudes * column for column in weights.T]
    expected = [
        [fsum_or_error(table[r].tolist()) for table in tables]
        if np.isfinite(magnitudes[r]).all()
        else [(OverflowError, "a term overflows a double")]
        for r in range(len(magnitudes))
    ]
    errors = [e for sums in expected for e in sums if isinstance(e, tuple)]
    if errors:
        kind, message = errors[0]
        with pytest.raises(kind) as raised:
            row_sums(magnitudes, weights)
        assert str(raised.value) == message
    else:
        sums = row_sums(magnitudes, weights)
        assert [[s.hex() for s in row] for row in zip(*sums)] == expected


def fsum_calls_until_error(magnitudes, weights):
    """The rows ``row_sums`` hands ``math.fsum``, in order, up to the one that overflows."""
    calls = []

    def recording_fsum(values):
        calls.append(list(values))
        return fsum(calls[-1])

    fsum = math.fsum
    with mock.patch.object(math, "fsum", recording_fsum), pytest.raises(
        OverflowError, match="intermediate overflow"
    ):
        row_sums(magnitudes, weights)
    return calls


def check_row_sums(magnitudes, signs):
    """``row_sums`` under the two columns built from ``signs``, against ``math.fsum``
    of each signed row ``copysign(magnitudes, signs)`` and each magnitude row."""
    magnitudes = np.asarray(magnitudes, dtype=float)
    tables = [np.copysign(magnitudes, signs), magnitudes]
    check_weighted_sums(magnitudes, sign_columns(signs), tables)


class TestRowSums:
    @given(row=rows)
    def test_one_row_equals_fsum_bit_for_bit(self, row):
        # Signed by itself, the magnitude row's signed row is the row.
        row = np.array(row, dtype=float)
        check_row_sums(np.abs(row).reshape(1, len(row)), row)

    @given(table=st.lists(rows, min_size=1, max_size=6), data=st.data())
    def test_each_row_of_a_block_equals_fsum(self, table, data):
        width = max(len(row) for row in table)
        padded = np.array([row + [0.0] * (width - len(row)) for row in table], dtype=float)
        # One sign per column, shared by the rows: the first row's or drawn.
        signs = data.draw(
            st.just(padded[0])
            | st.lists(
                st.sampled_from((1.0, -1.0, 0.0, -0.0, INF, -INF)), min_size=width, max_size=width
            )
        )
        check_row_sums(np.abs(padded), np.array(signs, dtype=float))

    def test_empty_rows_sum_to_zero(self):
        signed, total = row_sums(np.empty((3, 0)), sign_columns(np.empty(0)))
        assert [s.hex() for s in signed + total] == [0.0.hex()] * 6

    def test_long_rows_with_wide_spread(self):
        rng = np.random.default_rng(11)
        magnitudes = np.abs(rng.standard_normal((6, 5000)))
        magnitudes *= 10.0 ** rng.integers(-300, 300, (6, 5000))
        signs = rng.choice([-1.0, 1.0], 5000)
        # Row 1's second half repeats its first under the opposite signs.
        signs[2500:] = -signs[:2500]
        magnitudes[1, 2500:] = magnitudes[1, :2500]
        check_row_sums(magnitudes, signs)
        assert row_sums(magnitudes, sign_columns(signs))[0][1] == 0.0

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("exponent", [-900, 0, 900])
    def test_slack_covers_the_rounding_of_the_rest_sum(self, sign, exponent):
        # After the split the signed rest is a permutation of [0, c, b, -c, s].
        # Added left to right, b is lost beside c and the float sum is s, just
        # below the tie at 2**-53, while the true sum 2**-53 + 2**-110 lies
        # above it; only a slack that covers b keeps such a row from being
        # decided as 1.0. Every order is one row, so whatever order the matrix
        # product adds in, some rows lose b.
        c, b, s = 2.0**-50, 2.0**-106 + 2.0**-110, 2.0**-53 - 2.0**-106
        scale = sign * 2.0**exponent
        table = scale * np.array(list(itertools.permutations([1.0, c, b, -c, s])))
        expected = scale * (1.0 + 2.0**-52)
        assert math.fsum(table[0].tolist()) == expected
        signs = np.copysign(1.0, table[0])
        for row in table:
            signed, _ = row_sums(np.abs(row)[np.newaxis], sign_columns(row))
            assert signed[0].hex() == expected.hex()
        # One block, sign per column: |row| with the first row's signs.
        check_row_sums(np.abs(table), signs)

    def test_a_row_raises_its_signed_sums_error_first(self):
        # The signed row and the magnitudes both overflow fsum; the signed row is
        # summed first and raises, so the magnitudes are never summed.
        magnitudes = np.array([[1e308, 1e308, 1e308]])
        calls = fsum_calls_until_error(magnitudes, sign_columns([1.0, 1.0, -1.0]))
        assert calls == [[1e308, 1e308, -1e308]]
        # A row that holds an infinite magnitude raises before any sum.
        with pytest.raises(OverflowError, match="a term overflows a double"):
            row_sums(np.array([[1e308, 1e308, INF, INF]]), sign_columns([1.0, -1.0, 1.0, -1.0]))

    def test_a_sign_column_alone_never_sums_the_magnitudes(self):
        # Each row's magnitudes overflow math.fsum; their signed sums do not.
        magnitudes = np.array([[1e308, 1e308, 1.0], [1.5e308, 1e308, 1e-300], [1e308, 1e308, 0.0]])
        signs = np.array([1.0, -1.0, -1.0])
        for row in magnitudes.tolist():
            with pytest.raises(OverflowError):
                math.fsum(row)
        (signed,) = row_sums(magnitudes, sign_columns(signs)[:, :1])
        expected = [math.fsum(np.copysign(row, signs).tolist()) for row in magnitudes]
        assert [s.hex() for s in signed] == [s.hex() for s in expected]

    @given(table=st.lists(rows, min_size=1, max_size=6), data=st.data())
    def test_three_columns_each_equal_fsum(self, table, data):
        width = max(len(row) for row in table)
        padded = np.abs([row + [0.0] * (width - len(row)) for row in table])
        signs = data.draw(st.lists(st.sampled_from((1.0, -1.0)), min_size=width, max_size=width))
        check_weighted_sums(padded, np.array([signs, np.negative(signs), np.ones(width)]).T)

    def test_the_first_error_comes_in_column_order(self):
        # The row overflows fsum under 1 alone: the columns before it are summed, none after.
        magnitudes = np.array([[1e308, 1e308, 1.0, 1.0]])
        s = np.array([1.0, -1.0, 1.0, -1.0])
        ones = np.ones(4)
        for weights in ((s, -s, ones), (ones, s, -s), (-s, ones, s)):
            check_weighted_sums(magnitudes, np.array(weights).T)
            calls = fsum_calls_until_error(magnitudes, np.array(weights).T)
            summed = [(magnitudes[0] * w).tolist() for w in weights]
            assert calls == summed[: [w is ones for w in weights].index(True) + 1]

    def test_taylor_rows_need_no_per_row_fsum(self, monkeypatch):
        # One block as taylor.expand builds it: 32 magnitude rows
        # |alpha_j| e^{-lambda_j} lambda_j^n / n! for n = 0 .. 31, signed by alpha.
        rng = np.random.default_rng(5)
        width = BLOCK_ELEMENTS // 32
        lams = rng.uniform(0.1, 100.0, width)
        alphas = rng.choice([-1.0, 1.0], width) * rng.uniform(0.0, 1.0, width)
        term, table = np.abs(alphas) * np.exp(-lams), []
        for n in range(32):
            if n:
                term = term * lams / n
            table.append(term)
        table = np.array(table)
        assert table.size == BLOCK_ELEMENTS
        expected = [
            (math.fsum(np.copysign(row, alphas).tolist()).hex(), math.fsum(row.tolist()).hex())
            for row in table
        ]
        # Settling a sum adds three numbers; a sum that falls back to
        # math.fsum hands it the row's whole rest.
        whole_rows = 0
        fsum = math.fsum

        def counting(values):
            nonlocal whole_rows
            values = list(values)
            whole_rows += len(values) > 3
            return fsum(values)

        monkeypatch.setattr(math, "fsum", counting)
        signed, total = row_sums(table, sign_columns(alphas))
        monkeypatch.undo()
        assert whole_rows == 0
        assert [(a.hex(), b.hex()) for a, b in zip(signed, total)] == expected


# Magnitudes spread evenly over decades: rates in +-[1e-20, 1e3], horizons in [1e-6, 1e12].
rates = st.builds(
    lambda sign, exponent: sign * 10.0**exponent, st.sampled_from((-1.0, 1.0)), st.floats(-20, 3)
)
horizons = st.floats(-6, 12).map(lambda exponent: 10.0**exponent)


class TestExpIntegral:
    @settings(max_examples=500)
    @given(rate=rates, t=horizons)
    # x = rate * t = -0.9: a tiny rate over a long horizon is no cancellation for expm1.
    @example(rate=-9e-13, t=1e12)
    @example(rate=2.412074034250237e-08, t=52.10102755855269)  # the series side of the switch
    def test_within_3_ulps_of_expm1_over_rate(self, rate, t):
        """Pinned against 50-digit ``expm1(x) / rate`` at the float product ``x = rate * t``."""
        x = rate * t
        with np.errstate(over="ignore"):
            value = float(exp_integral(rate, t))
        with mpmath.workdps(50):
            exact = mpmath.expm1(x) / rate
            if x > math.log(sys.float_info.max) or abs(exact) > sys.float_info.max:
                assert value == math.inf  # e**x or the integral is past the double range
            else:
                assert abs(value - exact) <= 3 * math.ulp(float(exact)), (value, exact)

    def test_broadcasts_rates_over_times(self):
        times, rates = np.array([0.0, 0.5, 1.0]), np.array([-2.0, 0.0, 1e-13])
        grid = exp_integral(rates, times[:, None])
        assert grid.shape == (3, 3)
        for i, t in enumerate(times):
            for k, rate in enumerate(rates):
                assert grid[i, k] == exp_integral(rate, t)
        assert grid[:, 1].tolist() == times.tolist()  # the rate -> 0 limit is t
