import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casemark.errors import UndefinedOddsError
from casemark.stats import ContingencyTable, ExactTest, fisher_exact_two_sided, odds_ratio


def exact_p_value(a, b, c, d, slack=0):
    """Arbitrary precision enumeration oracle for the two-sided exact test,
    as a Fraction.

    Point probabilities with shared margins have a common denominator, so the
    qualifying-table comparison is an exact comparison of integers, here with
    the relative tie slack `slack` (a Fraction) taken exactly too.
    """
    r1, r2, c1 = a + b, c + d, a + c
    k_min = max(0, c1 - r2)
    k_max = min(r1, c1)
    limit = math.comb(r1, a) * math.comb(r2, c1 - a) * (1 + Fraction(slack))
    numerator = 0
    for k in range(k_min, k_max + 1):
        t = math.comb(r1, k) * math.comb(r2, c1 - k)
        if t <= limit:
            numerator += t
    return Fraction(numerator, math.comb(r1 + r2, c1))


def exact_two_sided(a, b, c, d, slack=0):
    """`exact_p_value` rounded to a float."""
    return float(exact_p_value(a, b, c, d, slack))


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

    @pytest.mark.parametrize("k", [1, 2, 5, 7, 20, 50, 500, 5000])
    def test_scaled_balanced_tables_stay_one(self, k):
        assert fisher_exact_two_sided(ContingencyTable(k, k, k, k)) == 1.0

    def test_exactly_one_whenever_every_table_qualifies(self):
        # Every table with row totals up to 12 whose whole support qualifies
        # (the oracle gives exactly 1 at these small margins).
        seen = 0
        for r1, r2 in itertools.product(range(13), repeat=2):
            for c1 in range(1, r1 + r2):
                for a in range(max(0, c1 - r2), min(r1, c1) + 1):
                    cells = (a, r1 - a, c1 - a, r2 - c1 + a)
                    if exact_two_sided(*cells, slack=Fraction(1, 10**7)) == 1.0:
                        seen += 1
                        assert fisher_exact_two_sided(ContingencyTable(*cells)) == 1.0
        assert seen > 300

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


def production_tables(count, seed, max_col1=3000):
    """Seeded tables at the margins one language's candidates see: row totals
    of 1e5 to 2e6 and column totals up to max_col1, with the top-left cell
    within a few standard deviations of its mean, so p-values span the phi
    range."""
    rng = random.Random(seed)
    for _ in range(count):
        row1, row2 = rng.randint(100_000, 2_000_000), rng.randint(100_000, 2_000_000)
        col1 = rng.randint(1, max_col1)
        n = row1 + row2
        mean = col1 * row1 / n
        sd = math.sqrt(mean * row2 / n * (n - col1) / (n - 1))
        a = min(max(round(mean + rng.gauss(0, 3) * sd), 0), col1)
        yield ContingencyTable(a, row1 - a, col1 - a, row2 - col1 + a)


def ratio_call_two_sided(row1, row2, a, c):
    """Reference for `ExactTest`'s walk, written with the pmf ratio as a
    function called per step. The walk writes the same integer products and
    the same float operations, in the same order, out in its loops, so the
    two must give the same bytes."""
    col1 = a + c
    k_min, k_max = max(0, col1 - row2), min(row1, col1)
    if k_min == k_max:
        return 1.0

    def ratio(k, step):  # pmf(k + step) / pmf(k)
        if step > 0:
            return (row1 - k) * (col1 - k) / ((k + 1) * (row2 - col1 + k + 1))
        return k * (row2 - col1 + k) / ((row1 - k + 1) * (col1 - k + 1))

    mode = (col1 + 1) * (row1 + 1) // (row1 + row2 + 2)
    step = 1 if a > mode else -1
    observed = 1.0
    for k in range(mode, a, step):
        observed *= ratio(k, step)
        if not observed:
            return 0.0
    cutoff = observed * (1.0 + 1e-7)
    kept, dropped = (1.0, 0.0) if cutoff >= 1.0 else (0.0, 1.0)
    for step, end in ((-1, k_min), (1, k_max)):
        term, side = 1.0, 0.0
        for k in range(mode, end, step):
            q = ratio(k, step)
            term *= q
            if term > cutoff:
                dropped += term
                continue
            side += term
            if term * q <= 1e-17 * side * (1.0 - q):
                break
        kept += side
    return kept / (kept + dropped)


# (row1, row2, a, c): production tables, and tables whose observed cell lies
# anywhere in the support, on either side of the mode, far into the tails
# (where the p-value underflows) or alone in it.
walked_tables = st.one_of(
    st.sampled_from([(t.a + t.b, t.c + t.d, t.a, t.c) for t in production_tables(300, seed=2024)]),
    st.tuples(st.integers(0, 3000), st.integers(0, 3000)).flatmap(
        lambda rows: st.tuples(st.just(rows[0]), st.just(rows[1]), st.integers(0, rows[0]), st.integers(0, rows[1]))
    ),
).filter(lambda table: table[0] + table[1] > 0)


class TestAgainstScipy:
    def test_matches_scipy_at_production_margins(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        phi = 0.08
        near_phi = 0
        for table in production_tables(400, seed=2022):
            p = fisher_exact_two_sided(table)
            expected = scipy_stats.fisher_exact([[table.a, table.b], [table.c, table.d]], alternative="two-sided").pvalue
            assert p == pytest.approx(expected, rel=1e-6, abs=1e-300), table
            assert (p < phi) == (expected < phi), table
            near_phi += 0.01 < expected < 0.5
        assert near_phi >= 50  # the decision check saw tables on both sides of phi


class TestExactTest:
    def test_shared_margins_match_table_at_a_time(self):
        test = ExactTest(1_000_000, 200_000)
        for a, c in [(0, 7), (5, 0), (500, 60), (3000, 0), (40, 400), (500, 60)]:
            table = ContingencyTable(a, 1_000_000 - a, c, 200_000 - c)
            assert test.p_value(a, c) == fisher_exact_two_sided(table)
            assert test.odds_ratio(a, c) == odds_ratio(table)

    def test_matches_exact_oracle_at_production_row_totals(self):
        # Needs no SciPy: the walk's crossings and truncated sides are checked
        # against the integer oracle at production row totals. Column totals
        # stop at 300 to keep the oracle's binomials small.
        phi = 0.08
        near_phi = 0
        for table in production_tables(100, seed=2023, max_col1=300):
            p = fisher_exact_two_sided(table)
            expected = exact_two_sided(table.a, table.b, table.c, table.d)
            assert p == pytest.approx(expected, rel=1e-6, abs=1e-300), table
            assert (p < phi) == (expected < phi), table
            near_phi += 0.01 < expected < 0.5
        assert near_phi >= 20  # the decision check saw tables on both sides of phi

    def test_within_1e12_of_exact_arithmetic_at_production_row_totals(self):
        # The same tie rule as the walk's, a point probability at most the
        # observed one times 1 + 1e-7, taken in exact arithmetic: what is left
        # is the walk's own float rounding, at row totals of 1e5 to 2e6.
        worst = 0.0
        for table in production_tables(40, seed=2021, max_col1=300):
            expected = exact_two_sided(table.a, table.b, table.c, table.d, slack=Fraction(1, 10**7))
            worst = max(worst, abs(fisher_exact_two_sided(table) - expected) / expected)
        assert worst <= 1e-12


    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(walked_tables)
    @example((600, 600, 600, 0))  # the p-value underflows: see the test below
    @example((600, 600, 0, 600))
    @example((7, 5, 0, 0))  # one table in the support
    @example((7, 5, 7, 5))
    def test_same_bytes_as_a_ratio_call_per_step(self, table):
        row1, row2, a, c = table
        assert ExactTest(row1, row2).p_value(a, c).hex() == ratio_call_two_sided(row1, row2, a, c).hex()

    def test_a_p_value_below_the_smallest_float_is_zero(self):
        """[600, 0; 0, 600]: the true p-value, 2 / C(1200, 600), is far below
        the smallest subnormal float, and the walk's product of point
        probability ratios from the mode underflows to zero on its way."""
        true_p = exact_p_value(600, 0, 0, 600)
        assert true_p == Fraction(2, math.comb(1200, 600))
        assert 0 < true_p < Fraction(math.ulp(0.0))
        assert ExactTest(600, 600).p_value(600, 0) == 0.0


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
