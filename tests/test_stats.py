import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casemark.errors import UndefinedOddsError
from casemark.stats import ContingencyTable, fisher_exact_two_sided, odds_ratio


def exact_two_sided(a, b, c, d):
    """Arbitrary precision enumeration oracle for the two-sided exact test.

    Point probabilities with shared margins have a common denominator, so the
    qualifying-table comparison is an exact integer comparison.
    """
    r1, r2, c1 = a + b, c + d, a + c
    k_min = max(0, c1 - r2)
    k_max = min(r1, c1)
    t_obs = math.comb(r1, a) * math.comb(r2, c1 - a)
    numerator = 0
    for k in range(k_min, k_max + 1):
        t = math.comb(r1, k) * math.comb(r2, c1 - k)
        if t <= t_obs:
            numerator += t
    return float(Fraction(numerator, math.comb(r1 + r2, c1)))


tables = st.tuples(
    st.integers(0, 40), st.integers(0, 40), st.integers(0, 40), st.integers(0, 40)
).filter(lambda t: sum(t) > 0)


class TestFisher:
    def test_balanced_table_is_one(self):
        assert fisher_exact_two_sided(ContingencyTable(5, 5, 5, 5)) == 1.0

    def test_diagonal_table(self):
        # margins (3,3,3,3): only the two extreme tables qualify, 2/20
        assert fisher_exact_two_sided(ContingencyTable(3, 0, 0, 3)) == pytest.approx(0.1, abs=1e-12)

    def test_matches_oracle_on_larger_table(self):
        p = fisher_exact_two_sided(ContingencyTable(10, 90, 10, 890))
        assert p == pytest.approx(exact_two_sided(10, 90, 10, 890), abs=1e-10)

    def test_single_support_point_is_one(self):
        assert fisher_exact_two_sided(ContingencyTable(0, 0, 5, 5)) == 1.0
        assert fisher_exact_two_sided(ContingencyTable(2, 0, 3, 0)) == 1.0

    def test_all_zero_table_rejected(self):
        with pytest.raises(ValueError):
            fisher_exact_two_sided(ContingencyTable(0, 0, 0, 0))

    @pytest.mark.parametrize("k", [1, 2, 7, 20, 50])
    def test_scaled_balanced_tables_stay_one(self, k):
        assert fisher_exact_two_sided(ContingencyTable(k, k, k, k)) == 1.0

    @settings(max_examples=200)
    @given(tables)
    def test_row_and_column_swap_invariance(self, cells):
        a, b, c, d = cells
        p1 = fisher_exact_two_sided(ContingencyTable(a, b, c, d))
        p2 = fisher_exact_two_sided(ContingencyTable(d, c, b, a))
        assert p1 == pytest.approx(p2, abs=1e-12)

    @settings(max_examples=200)
    @given(tables)
    def test_range_and_oracle(self, cells):
        a, b, c, d = cells
        p = fisher_exact_two_sided(ContingencyTable(a, b, c, d))
        assert 0.0 <= p <= 1.0
        assert p == pytest.approx(exact_two_sided(a, b, c, d), abs=1e-10)


class TestOddsRatio:
    def test_symmetric_table(self):
        assert odds_ratio(ContingencyTable(5, 5, 5, 5)) == 1.0

    def test_cross_table(self):
        assert odds_ratio(ContingencyTable(2, 1, 1, 2)) == 4.0

    def test_infinite_and_zero(self):
        assert odds_ratio(ContingencyTable(3, 0, 0, 3)) == math.inf
        assert odds_ratio(ContingencyTable(0, 3, 3, 0)) == 0.0

    def test_undefined(self):
        with pytest.raises(UndefinedOddsError):
            odds_ratio(ContingencyTable(0, 0, 0, 5))

    @settings(max_examples=200)
    @given(tables)
    def test_transposition_invariance(self, cells):
        a, b, c, d = cells
        try:
            r1 = odds_ratio(ContingencyTable(a, b, c, d))
        except UndefinedOddsError:
            with pytest.raises(UndefinedOddsError):
                odds_ratio(ContingencyTable(a, c, b, d))
            return
        assert odds_ratio(ContingencyTable(a, c, b, d)) == r1

    @settings(max_examples=200)
    @given(st.tuples(st.integers(1, 40), st.integers(1, 40), st.integers(1, 40), st.integers(1, 40)))
    def test_reciprocal_under_column_swap(self, cells):
        a, b, c, d = cells
        r = odds_ratio(ContingencyTable(a, b, c, d))
        r_swapped = odds_ratio(ContingencyTable(b, a, d, c))
        assert r * r_swapped == pytest.approx(1.0, rel=1e-12)


class TestContingencyTable:
    def test_rejects_negative_cells(self):
        with pytest.raises(ValueError):
            ContingencyTable(1, -1, 0, 0)

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            ContingencyTable(1.5, 0, 0, 0)
        with pytest.raises(ValueError):
            ContingencyTable(True, 0, 0, 1)

    def test_total(self):
        assert ContingencyTable(1, 2, 3, 4).total == 10
