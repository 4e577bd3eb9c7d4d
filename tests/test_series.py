import json
import math

import numpy as np
import pytest

from expseries.cli import _series_from_document
from expseries.series import DirichletSeries, TailModel, evaluate

from conftest import random_series


def geometric_series(n_terms: int = 40) -> DirichletSeries:
    # sum_{j>=1} 2^-j e^{-j t}; truncated tail mass is exactly 2^-n_terms.
    terms = [(2.0**-j, float(j)) for j in range(1, n_terms + 1)]
    tail = TailModel(sum_bound=2.0**-n_terms, lambda_floor=float(n_terms + 1))
    return DirichletSeries(terms, tail)


def geometric_closed_form(t: float) -> float:
    x = math.exp(-t) / 2.0
    return x / (1.0 - x)


class TestEvaluate:
    def test_constant_term(self):
        s = DirichletSeries([(1.0, 0.0)])
        result = evaluate(s, 5.0)
        assert result.value == 1.0
        assert result.error_bound == 0.0

    def test_geometric_with_certified_tail(self):
        s = geometric_series()
        result = evaluate(s, 1.0)
        closed = geometric_closed_form(1.0)
        brute = math.fsum(2.0**-j * math.exp(-j) for j in range(1, 201))
        assert abs(closed - brute) < 1e-15
        assert abs(result.value - closed) <= 1e-12 + result.error_bound

    def test_cancellation_at_zero(self):
        for delta in (1e-3, 1e-6, 1e-9):
            s = DirichletSeries([(1.0, 1.0), (-1.0, 1.0 + delta)])
            assert evaluate(s, 0.0).value == 0.0

    def test_value_where_only_the_magnitudes_overflow(self):
        # |alpha| sums past the double range, the signed sum does not.
        s = DirichletSeries([(1.5e308, 1.0), (-1.5e308, 1.000001), (1.5e308, 1.000002)])
        assert evaluate(s, 0.0).value == math.fsum(s.alphas.tolist()) == 1.5e308
        # Where the signed terms overflow too, math.fsum's error is raised.
        with pytest.raises(OverflowError, match="intermediate overflow"):
            evaluate(DirichletSeries([(1.5e308, 1.0), (1.5e308, 2.0)]), 0.0)

    def test_overflowing_value_raises_instead_of_taking_a_certificate(self):
        # e^{1000} overflows: the value would be inf with an error bound of 0.
        with np.errstate(over="ignore"), pytest.raises(OverflowError, match=r"t=1\.0 is not finite"):
            evaluate(DirichletSeries([(1.0, -1000.0)]), 1.0)

    def test_negative_t_allowed_without_tail(self):
        s = DirichletSeries([(1.0, -2.0)])
        assert evaluate(s, -1.0).value == pytest.approx(math.exp(-2.0))

    def test_negative_t_rejected_with_tail(self):
        s = geometric_series()
        with pytest.raises(ValueError, match="certified tail"):
            evaluate(s, -0.5)

    def test_non_finite_t_rejected(self):
        s = DirichletSeries([(1.0, 1.0)])
        with pytest.raises(ValueError):
            evaluate(s, math.nan)
        with pytest.raises(ValueError):
            evaluate(s, math.inf)

    def test_error_bound_nonincreasing_in_t(self):
        s = geometric_series()
        bounds = [evaluate(s, t).error_bound for t in np.linspace(0.0, 5.0, 40)]
        assert all(b >= 0 for b in bounds)
        assert all(later <= earlier for earlier, later in zip(bounds, bounds[1:]))

    def test_linearity_of_disjoint_merge(self, rng):
        for _ in range(10):
            s1 = random_series(rng, max_terms=10, lam_range=(0.1, 10.0))
            s2 = random_series(rng, max_terms=10, lam_range=(11.0, 30.0))
            combined = DirichletSeries(s1.terms + s2.terms)
            for t in (0.0, 0.3, 1.7):
                lhs = evaluate(combined, t).value
                rhs = evaluate(s1, t).value + evaluate(s2, t).value
                assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


class TestConstruction:
    def test_needs_a_term(self):
        with pytest.raises(ValueError, match="at least one term"):
            DirichletSeries([])

    def test_duplicate_exponent_rejected(self):
        with pytest.raises(ValueError, match="duplicate exponent"):
            DirichletSeries([(1.0, 2.0), (3.0, 2.0)])

    def test_terms_sorted_by_exponent(self):
        s = DirichletSeries([(1.0, 5.0), (2.0, 1.0)])
        assert s.terms == ((2.0, 1.0), (1.0, 5.0))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            DirichletSeries([(math.inf, 1.0)])
        with pytest.raises(ValueError):
            DirichletSeries([(1.0, math.nan)])


class TestTailModel:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TailModel(-0.1, 1.0)
        with pytest.raises(ValueError):
            TailModel(0.1, 0.0)


class TestDocuments:
    def test_round_trip(self):
        s = geometric_series(8)
        tail = {"sumBound": s.tail.sum_bound, "lambdaFloor": s.tail.lambda_floor}
        text = json.dumps({"terms": [list(term) for term in s.terms], "tail": tail})
        again = _series_from_document(json.loads(text))
        assert again.terms == s.terms
        assert again.tail == s.tail

    def test_rational_strings_accepted(self):
        doc = {"terms": [["1/3", "1/2"], [1, "2"]], "tail": None}
        s = _series_from_document(doc)
        assert s.terms[0] == (pytest.approx(1.0 / 3.0), 0.5)
        assert s.terms[1] == (1.0, 2.0)

    def test_decimal_strings_exact(self):
        s = _series_from_document({"terms": [["0.3", "1"]], "tail": None})
        assert s.terms[0][0] == 0.3

    def test_bad_strings_rejected(self):
        with pytest.raises(ValueError):
            _series_from_document({"terms": [["1/3x", 1.0]], "tail": None})
        with pytest.raises(ValueError):
            _series_from_document({"terms": [[1.0, "1/0"]], "tail": None})

    def test_tail_round_trip(self):
        doc = {"terms": [[1.0, 1.0]], "tail": {"sumBound": "1/4", "lambdaFloor": 3}}
        assert _series_from_document(doc).tail == TailModel(0.25, 3.0)

    def test_unknown_keys_ignored(self):
        doc = {"terms": [[1.0, 1.0]], "tail": {"sumBound": "1/4", "lambdaFloor": 3}}
        extra = {
            "terms": [[1.0, 1.0]],
            "tail": {"sumBound": "1/4", "lambdaFloor": 3, "weightedBounds": {"2": [1]}},
            "note": "ignored",
        }
        assert _series_from_document(extra) == _series_from_document(doc)
