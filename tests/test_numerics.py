import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from expseries._numerics import BLOCK_ELEMENTS, row_sums

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
    try:
        return math.fsum(row).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


class TestRowSums:
    @given(row=rows)
    def test_one_row_equals_fsum_bit_for_bit(self, row):
        expected = fsum_or_error(row)
        table = np.array(row, dtype=float).reshape(1, len(row))
        if isinstance(expected, type):
            with pytest.raises(expected):
                row_sums(table)
        else:
            assert row_sums(table)[0].hex() == expected

    @given(table=st.lists(rows, min_size=1, max_size=6))
    def test_each_row_of_a_block_equals_fsum(self, table):
        width = max(len(row) for row in table)
        padded = [row + [0.0] * (width - len(row)) for row in table]
        expected = [fsum_or_error(row) for row in padded]
        errors = tuple({e for e in expected if isinstance(e, type)})
        if errors:
            with pytest.raises(errors):
                row_sums(np.array(padded, dtype=float))
        else:
            assert [s.hex() for s in row_sums(np.array(padded, dtype=float))] == expected

    def test_empty_rows_sum_to_zero(self):
        assert [s.hex() for s in row_sums(np.empty((3, 0)))] == [0.0.hex()] * 3

    def test_long_rows_with_wide_spread(self):
        rng = np.random.default_rng(11)
        table = rng.standard_normal((6, 5000)) * 10.0 ** rng.integers(-300, 300, (6, 5000))
        table[1] = np.concatenate([table[0, :2500], -table[0, :2500]])
        expected = [math.fsum(row.tolist()).hex() for row in table]
        assert [s.hex() for s in row_sums(table)] == expected

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("exponent", [-900, 0, 900])
    def test_slack_covers_the_rounding_of_the_rest_sum(self, sign, exponent):
        # After one pass the rest is [0, c, b, -c, s]; added in order, b is
        # lost beside c and the naive sum is s, just below the tie at 2**-53,
        # while the true sum 2**-53 + 2**-110 lies above it. Only a slack that
        # covers b keeps this row from being decided as 1.0.
        c, b, s = 2.0**-50, 2.0**-106 + 2.0**-110, 2.0**-53 - 2.0**-106
        scale = sign * 2.0**exponent
        table = scale * np.array([[1.0, c, b, -c, s]])
        expected = scale * (1.0 + 2.0**-52)
        assert math.fsum(table[0].tolist()) == expected
        assert row_sums(table)[0].hex() == expected.hex()

    def test_taylor_rows_need_no_per_row_fsum(self, monkeypatch):
        # One block as taylor.expand builds it: rows alpha_j e^{-lambda_j}
        # (-lambda_j)^n / n! and their magnitudes, for n = 0 .. 15.
        rng = np.random.default_rng(5)
        width = BLOCK_ELEMENTS // 32
        lams = rng.uniform(0.1, 100.0, width)
        alphas = rng.choice([-1.0, 1.0], width) * rng.uniform(0.0, 1.0, width)
        term, table = alphas * np.exp(-lams), []
        for n in range(16):
            if n:
                term = term * -lams / n
            table += [term, np.abs(term)]
        table = np.array(table)
        assert table.size == BLOCK_ELEMENTS
        expected = [math.fsum(row.tolist()).hex() for row in table]
        # The one-pass test sums three numbers; a row that falls back to
        # math.fsum hands it the row's whole rest.
        whole_rows = 0
        fsum = math.fsum

        def counting(values):
            nonlocal whole_rows
            values = list(values)
            whole_rows += len(values) > 3
            return fsum(values)

        monkeypatch.setattr(math, "fsum", counting)
        sums = row_sums(table)
        monkeypatch.undo()
        assert whole_rows == 0
        assert [s.hex() for s in sums] == expected
