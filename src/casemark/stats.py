"""Exact statistics on 2x2 contingency tables.

Provides a two-sided Fisher's exact test and the sample odds ratio. The
two-sided p-value follows the point-probability definition: it sums the
hypergeometric probabilities of every table with the same margins whose point
probability does not exceed that of the observed table by more than a
relative tie slack of 1e-7. `ExactTest` serves
many tables that share their row totals; the table-at-a-time functions
delegate to it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import UndefinedOddsError

# A table qualifies when its point probability is at most the observed one
# times this, so that exact ties are not lost to float rounding (R, SciPy).
_TIE_SLACK = 1.0 + 1e-7
# A side stops once the bound on what it has left falls below this share of it.
_TAIL_REL = 1e-17


class _Cells(NamedTuple):
    a: int
    b: int
    c: int
    d: int


class ContingencyTable(_Cells):
    """Cell counts laid out as [a, b; c, d] = [inside(cand), inside(others);
    outside(cand), outside(others)]; each is checked on construction."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"cell {name} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"cell {name} must be nonnegative, got {value}")
        return self


class ExactTest:
    """Fisher's exact test and the odds ratio for the 2x2 tables with row
    totals (row1, row2), which all candidates of one language share.

    The p-value is one walk over the hypergeometric pmf in units of its mode,
    by the ratio recurrence: the ratios from the mode to the observed cell
    give its probability, and each side is then walked outward, a term at most
    that probability (with R's and SciPy's relative tie slack of 1e-7) going
    to the kept mass and any other to the dropped mass. A side stops once the
    geometric bound on its remaining terms is negligible against its own kept
    mass. The walk uses only float + - * /, so a p-value is the same bytes on
    every IEEE-754 machine. The p-value of each (a, c) is computed once.
    """

    def __init__(self, row1: int, row2: int):
        self.row1 = row1
        self.row2 = row2
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
        mode = (col1 + 1) * (row1 + 1) // (row1 + row2 + 2)  # always within the support
        # From the mode, a step down the support lowers cells a and d by one
        # and a step up lowers b and c; with (x, y) the two cells a step
        # lowers, the pmf changes by the factor x * y / ((row1 + 1 - x) * (row2 + 1 - y)).
        down, up = (mode, row2 - col1 + mode), (row1 - mode, col1 - mode)
        n1, n2 = row1 + 1, row2 + 1
        x, y = up if a > mode else down
        observed = 1.0
        for x, y in zip(range(x, x - abs(a - mode), -1), range(y, 0, -1)):
            observed *= x * y / ((n1 - x) * (n2 - y))
        if not observed:  # below the smallest float: so is the p-value
            return 0.0
        cutoff = observed * _TIE_SLACK
        # Kept and dropped mass stay separate sums: with nothing dropped, the
        # p-value is kept / kept, exactly 1.0.
        kept, dropped = (1.0, 0.0) if cutoff >= 1.0 else (0.0, 1.0)
        for x, y in (down, up):  # each side ends where one of its two cells reaches 0
            term, side = 1.0, 0.0
            for x, y in zip(range(x, 0, -1), range(y, 0, -1)):
                q = x * y / ((n1 - x) * (n2 - y))
                term *= q
                if term > cutoff:
                    dropped += term
                    continue
                side += term
                # Away from the mode the ratio only falls, so the terms not yet
                # added sum to at most term * q / (1 - q).
                if term * q <= _TAIL_REL * side * (1.0 - q):
                    break
            kept += side
        return kept / (kept + dropped)

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
