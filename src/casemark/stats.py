"""Exact statistics on 2x2 contingency tables.

Provides a two-sided Fisher's exact test and the sample odds ratio, both
computed in log space so that large cell counts stay stable. The two-sided
p-value follows the point-probability definition: it sums the hypergeometric
probabilities of every table with the same margins whose point probability
does not exceed that of the observed table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UndefinedOddsError

# Relative slack when comparing a point probability against the observed one,
# so exact ties are not lost to float rounding.
_TIE_SLACK = math.log1p(1e-12)


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


def _log_pmf(k: int, row1: int, row2: int, col1: int) -> float:
    # Hypergeometric point probability of k successes in the top-left cell,
    # margins fixed. Plain lgamma is enough here: the Fisher contract is
    # oracle-tight only for small tables, where this is exact to ~1e-15.
    return (
        _log_binom(row1, k)
        + _log_binom(row2, col1 - k)
        - _log_binom(row1 + row2, col1)
    )


def _log_binom(n: int, k: int) -> float:
    if k == 0 or k == n:
        return 0.0
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def fisher_exact_two_sided(table: ContingencyTable) -> float:
    """Two-sided Fisher's exact test p-value for a 2x2 table.

    Sums P(k) over the support of the hypergeometric distribution with the
    observed margins, keeping every k whose point probability is <= the
    observed one (with 1e-12 relative slack). The result is clamped to [0, 1];
    a table where every outcome qualifies returns exactly 1.0.
    """
    if table.total == 0:
        raise ValueError("Fisher's exact test is undefined for an all-zero table")
    row1 = table.a + table.b
    row2 = table.c + table.d
    col1 = table.a + table.c
    k_min = max(0, col1 - row2)
    k_max = min(row1, col1)
    if k_min == k_max:
        return 1.0
    log_obs = _log_pmf(table.a, row1, row2, col1)
    cutoff = log_obs + _TIE_SLACK
    terms = []
    for k in range(k_min, k_max + 1):
        lp = _log_pmf(k, row1, row2, col1)
        if lp <= cutoff:
            terms.append(math.exp(lp))
    if len(terms) == k_max - k_min + 1:
        return 1.0
    return min(1.0, max(0.0, math.fsum(terms)))


def odds_ratio(table: ContingencyTable) -> float:
    """Sample odds ratio (a*d)/(b*c); +inf when only b*c is zero, 0.0 when
    only a*d is zero. Raises UndefinedOddsError on 0/0."""
    ad = table.a * table.d
    bc = table.b * table.c
    if bc == 0:
        if ad == 0:
            raise UndefinedOddsError(
                f"odds ratio 0/0 for table [{table.a},{table.b};{table.c},{table.d}]"
            )
        return math.inf
    if ad == 0:
        return 0.0
    return ad / bc
