"""Exact statistics on 2x2 contingency tables.

Provides a two-sided Fisher's exact test and the sample odds ratio. The
two-sided p-value follows the point-probability definition: it sums the
hypergeometric probabilities of every table with the same margins whose point
probability does not exceed that of the observed table. `ExactTest` serves
many tables that share their row totals; the table-at-a-time functions
delegate to it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from .errors import UndefinedOddsError

# Relative slack when comparing a point probability against the observed one,
# so exact ties are not lost to float rounding.
_TIE_SLACK = math.log1p(1e-12)
# A tail stops once the bound on what it has left falls below this share of it.
_TAIL_REL = 1e-17


@dataclass(frozen=True)
class ContingencyTable:
    """Cell counts laid out as [a, b; c, d] = [inside(cand), inside(others);
    outside(cand), outside(others)]."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"cell {name} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"cell {name} must be nonnegative, got {value}")

    @property
    def total(self) -> int:
        return self.a + self.b + self.c + self.d


class ExactTest:
    """Fisher's exact test and the odds ratio for the 2x2 tables with row
    totals (row1, row2), which all candidates of one language share.

    The hypergeometric pmf is unimodal, so the tables at most as likely as
    the observed one (with 1e-12 relative slack) form two tails. Bisection
    finds where the far tail crosses the observed pmf, and each tail is summed
    outward with the pmf ratio recurrence until its geometric remainder bound
    is negligible. The lgamma terms of each column total, and the p-value of
    each (a, c), are computed once.
    """

    def __init__(self, row1: int, row2: int):
        self.row1 = row1
        self.row2 = row2
        self._log_rows = math.lgamma(row1 + 1) + math.lgamma(row2 + 1) - math.lgamma(row1 + row2 + 1)
        self._log_cols: dict[int, float] = {}
        self._p_values: dict[tuple[int, int], float] = {}

    def p_value(self, a: int, c: int) -> float:
        """Two-sided p-value of [a, row1 - a; c, row2 - c]; exactly 1.0 when
        every table of the support qualifies."""
        p_value = self._p_values.get((a, c))
        if p_value is None:
            p_value = self._p_values[a, c] = self._two_sided(a, c)
        return p_value

    def _two_sided(self, a: int, c: int) -> float:
        row1, row2, col1 = self.row1, self.row2, a + c
        k_min, k_max = max(0, col1 - row2), min(row1, col1)
        if k_min == k_max:
            if not row1 + row2:
                raise ValueError("Fisher's exact test is undefined for an all-zero table")
            return 1.0
        lgamma = math.lgamma
        log_col = self._log_cols.get(col1)
        if log_col is None:
            log_col = self._log_cols[col1] = self._log_rows + lgamma(col1 + 1) + lgamma(row1 + row2 - col1 + 1)

        def log_pmf(k: int) -> float:
            return log_col - lgamma(k + 1) - lgamma(row1 - k + 1) - lgamma(col1 - k + 1) - lgamma(row2 - col1 + k + 1)

        log_obs = log_pmf(a)
        cutoff = log_obs + _TIE_SLACK
        mode = (col1 + 1) * (row1 + 1) // (row1 + row2 + 2)  # always within the support
        # The observed side of the mode qualifies from a outward; bisection
        # finds where the other side crosses the cutoff.
        if a <= mode:
            start = max(mode, a + 1)
            left, right = a, start + bisect_left(range(start, k_max + 1), True, key=lambda k: log_pmf(k) <= cutoff)
        else:
            left = k_min - 1 + bisect_left(range(k_min, mode + 1), True, key=lambda k: log_pmf(k) > cutoff)
            right = a
        if right <= left + 1:
            return 1.0

        def relative(k: int) -> float:  # pmf(k) / pmf(a)
            return 1.0 if k == a else math.exp(log_pmf(k) - log_obs)

        total = 0.0
        if left >= k_min:
            total += self._tail(relative(left), left, k_min, -1, col1)
        if right <= k_max:
            total += self._tail(relative(right), right, k_max, 1, col1)
        return min(1.0, math.exp(log_obs) * total)

    def _tail(self, term: float, k: int, end: int, step: int, col1: int) -> float:
        # Sum of pmf(k..end) / pmf(observed), given term = pmf(k) / pmf(observed).
        # Moving away from the mode, the step ratio q only falls, so the terms
        # not yet added sum to at most term * q / (1 - q).
        row1, row2 = self.row1, self.row2
        total = term
        while k != end:
            if step > 0:
                q = (row1 - k) * (col1 - k) / ((k + 1) * (row2 - col1 + k + 1))
            else:
                q = k * (row2 - col1 + k) / ((row1 - k + 1) * (col1 - k + 1))
            if q < 1.0 and term * q < _TAIL_REL * total * (1.0 - q):
                break
            term *= q
            total += term
            k += step
        return total

    def odds_ratio(self, a: int, c: int) -> float:
        """Sample odds ratio of [a, row1 - a; c, row2 - c]; see `odds_ratio`."""
        b, d = self.row1 - a, self.row2 - c
        ad = a * d
        bc = b * c
        if bc == 0:
            if ad == 0:
                raise UndefinedOddsError(f"odds ratio 0/0 for table [{a},{b};{c},{d}]")
            return math.inf
        if ad == 0:
            return 0.0
        return ad / bc


def fisher_exact_two_sided(table: ContingencyTable) -> float:
    """Two-sided Fisher's exact test p-value for a 2x2 table: the summed
    point probabilities of the tables with its margins that are at most as
    likely as it (see `ExactTest`); exactly 1.0 when every table qualifies."""
    return ExactTest(table.a + table.b, table.c + table.d).p_value(table.a, table.c)


def odds_ratio(table: ContingencyTable) -> float:
    """Sample odds ratio (a*d)/(b*c); +inf when only b*c is zero, 0.0 when
    only a*d is zero. Raises UndefinedOddsError on 0/0."""
    return ExactTest(table.a + table.b, table.c + table.d).odds_ratio(table.a, table.c)
