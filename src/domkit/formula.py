"""Closed-form domination ratio for the step sets {1, ..., d-2, s}.

For d >= 2 and any step s outside [0, d-2], the ratio of the digraph on Z
with steps {1, ..., d-2, s} has an exact closed form.  When s = -1 (mod d)
the value is 1/d, witnessed by an efficient dominating set of period d.
Otherwise s decomposes uniquely as s = d*k + e - 1 or s = -d*k + d - e - 1
with k >= 1 and 1 <= e <= d - 1, and the ratio is the minimum of

    (k + 1) / (d*k + e)
    (2*k + e - 1) / (2*d*k - d + 2*e)
    1 / (d - 1)

with the minimizing term predicted by a case split on (d, k, e).  The code
computes the minimum and the case split independently and insists they
agree.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from .model import ConsistencyError, Decomposition, DifferenceSet, _Record, _set


class RatioCase(Enum):
    EDS_MOD = "EDS_MOD"
    CASE_E_GE_2 = "CASE_E_GE_2"
    CASE_E_EQ_1 = "CASE_E_EQ_1"
    CASE_D_MINUS_1 = "CASE_D_MINUS_1"


class RatioResult(_Record):
    """The exact ratio, the case that names its term, and the (k, e)
    decomposition of s (None in the EDS_MOD case)."""

    __slots__ = __match_args__ = ("value", "case", "decomposition")

    def __init__(self, value: Fraction, case: RatioCase, decomposition: Decomposition | None):
        _set(self, "value", value)
        _set(self, "case", case)
        _set(self, "decomposition", decomposition)


def _check_family(d: int, s: int) -> None:
    if d < 2:
        raise ValueError("d must be at least 2")
    if 0 <= s <= d - 2:
        raise ValueError("degenerate S")


def family_set(d: int, s: int) -> DifferenceSet:
    """The step set {1, ..., d-2, s}; for d = 2 just {s}."""
    _check_family(d, s)
    return DifferenceSet(tuple(range(1, d - 1)) + (s,))


def decompose(d: int, s: int) -> Decomposition:
    """Unique (sign, k, e) with s = d*k+e-1 or s = -d*k+d-e-1."""
    _check_family(d, s)
    if (s + 1) % d == 0:
        raise ValueError("modular case, no decomposition")
    if s > 0:
        # here s >= d, since s > d-2 and s = d-1 is the modular case
        e = (s + 1) % d
        k = (s + 1 - e) // d
        return Decomposition(d, s, "positive", k, e)
    # s <= -2; s = -1 is the modular case for every d
    m = d - 1 - s
    e = m % d
    k = (m - e) // d
    return Decomposition(d, s, "negative", k, e)


def domination_ratio(d: int, s: int) -> RatioResult:
    """Exact domination ratio of the digraph on Z with steps {1,...,d-2,s}."""
    _check_family(d, s)
    if (s + 1) % d == 0:
        return RatioResult(Fraction(1, d), RatioCase.EDS_MOD, None)
    dec = decompose(d, s)
    k, e = dec.k, dec.e
    # the three terms as (numerator, denominator), every denominator positive
    terms = ((k + 1, d * k + e), (2 * k + e - 1, 2 * d * k - d + 2 * e), (1, d - 1))
    if e >= 2 and d <= k + e + 1:
        case, (num, den) = RatioCase.CASE_E_GE_2, terms[0]
    elif e == 1 and d <= 2 * k + 2:
        case, (num, den) = RatioCase.CASE_E_EQ_1, terms[1]
    else:
        case, (num, den) = RatioCase.CASE_D_MINUS_1, terms[2]
    # the named term is the least iff no term is below it: a/b < num/den
    # iff a*den < num*b
    if any(a * den < num * b for a, b in terms):
        least = min(Fraction(a, b) for a, b in terms)
        raise ConsistencyError(
            f"case split picked {case.value}={Fraction(num, den)} but min is {least} "
            f"for (d={d}, s={s})"
        )
    return RatioResult(Fraction(num, den), case, dec)


def eds_exists_family(d: int, s: int) -> bool:
    """Whether the digraph with steps {1,...,d-2,s} has an efficient
    dominating set, equivalently whether its ratio is 1/d."""
    _check_family(d, s)
    return d == 2 or (s + 1) % d == 0


def general_bounds(steps: DifferenceSet) -> tuple[Fraction, Fraction]:
    """Universal (lower, upper) ratio bounds from the step count alone."""
    n = len(steps)
    if n <= 1:
        exact = Fraction(1, n + 1)
        return exact, exact
    return Fraction(1, n + 1), Fraction(1, 2)


def normalize(steps: DifferenceSet) -> DifferenceSet:
    """Ratio-preserving canonical form: divide out gcd, then fix the sign so
    the smallest-magnitude offset is positive."""
    g = math.gcd(*steps.elements)
    scaled = [x // g for x in steps.elements]
    smallest = min(abs(x) for x in scaled)
    if smallest not in scaled:
        scaled = [-x for x in scaled]
    return DifferenceSet(tuple(scaled))
