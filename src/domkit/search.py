"""Certified upper bounds on the ratio by scanning circulant quotients.

Any dominating set of the circulant on Z_p lifts to a periodic dominating
set of Z with the same density, so gamma(p)/p is an upper bound on the
ratio for every p and the scan minimum is a certified bound.  The scan cap
is the caller's; the a-priori bound on the period of an optimal periodic
set (c * 2^c where c spans the step set with 0) is reported in the result
but never enforced, since it is astronomically larger than any practical
cap.
"""

from __future__ import annotations

from fractions import Fraction

from .construct import construct_best
from .formula import domination_ratio, family_set
from .model import ConsistencyError, DifferenceSet, PeriodicSet, _Record
from .solver import MAX_MODULUS, _certify, _offsets, gamma_shared

# int-to-str conversion refuses more than 4300 digits, so a larger period
# bound is left as c*2^c; 2^14285 > 10^4300, so a huge c never forms 2^c
_DECIMAL_LIMIT = 10**4300


class SearchReport(_Record):
    """The scan's best certified ratio, its period and witness, and every
    period's (p, gamma, gamma / p) up to cap: best_ratio: Fraction,
    best_period: int, best_witness: PeriodicSet,
    per_period: tuple[tuple[int, int, Fraction], ...], cap: int,
    theoretical_cap_note: str."""

    __slots__ = __match_args__ = (
        "best_ratio",
        "best_period",
        "best_witness",
        "per_period",
        "cap",
        "theoretical_cap_note",
    )


class ConsistencyReport(_Record):
    """Formula, scan and construction for one family member, and every
    disagreement found between them: d: int, s: int, formula: RatioResult,
    search: SearchReport, constructed: PeriodicSet,
    attained_at_construction: bool, consistent: bool,
    violations: tuple[str, ...]."""

    __slots__ = __match_args__ = (
        "d",
        "s",
        "formula",
        "search",
        "constructed",
        "attained_at_construction",
        "consistent",
        "violations",
    )


def _span(steps: DifferenceSet) -> int:
    return max(max(steps.elements), 0) - min(min(steps.elements), 0)


def _cap_note(steps: DifferenceSet) -> str:
    c = _span(steps)
    bound = "c*2^c"
    if c < 14_285 and c * 2**c < _DECIMAL_LIMIT:
        bound += f" = {c * 2**c}"
    return (
        f"an optimal periodic dominating set has period at most {bound} "
        f"(c = {c}, span of the steps with 0); reported only, never scanned"
    )


def _family_ratio(steps: DifferenceSet) -> Fraction | None:
    """The closed-form ratio if steps is {1, ..., d-2, s} as family_set
    builds it (d = len(steps) + 1, s outside [0, d-2]), else None.  A step
    is never 0, so the one step left over from {1, ..., d-2} is such an s."""
    d = len(steps) + 1
    rest = set(steps.elements) - set(range(1, d - 1))
    if len(rest) != 1:
        return None
    (s,) = rest
    return domination_ratio(d, s).value


def search_ratio(steps: DifferenceSet, max_period: int, jobs: int = 1) -> SearchReport:
    """Scan periods 1..max_period and report the best certified ratio.

    Each period's gamma comes from gamma_shared, so a quotient that
    x -> +-x + a maps onto one solved earlier in the process is not solved
    again; within one scan every modulus differs, so such hits come from
    earlier scans.  Each period is solved at its key (solver._key), an
    image of its offsets under a unit multiplier that lies in a short
    arc, which has the same gamma, and the floor below holds for it too.
    The best period is the least gamma / p, then the least p.  The
    witness is always solved for best_period's own offsets, and its gamma
    must be the scan's; _certify has checked that it covers {0} | steps
    mod best_period, which is its lift dominating Z.

    For a family member (_family_ratio), the kernel stops at the floor
    ceil(p * rho) at period p: any cover of Z_p lifts to a periodic
    dominating set of Z of density gamma / p >= rho, collisions mod p
    included.  The kernel keeps a new best only if it is strictly
    smaller, so a best that meets the floor is the one the full search
    returns: gamma and the witness are gamma_exact's, only the node count
    falls.  The floor trusts the closed form; a gamma below it raises
    ConsistencyError, but a wrong rho above the true ratio would go
    unseen, so no other step set gets a floor.
    The scan is serial; jobs is kept for old callers and must be 1.
    """
    if jobs != 1:
        raise ValueError("jobs must be 1: the period scan is serial")
    if max_period < 1:
        raise ValueError("max_period must be positive")
    if max_period > MAX_MODULUS:
        raise ValueError(f"max_period {max_period} above the solver limit {MAX_MODULUS}")
    rho = _family_ratio(steps) or Fraction(0)  # no closed form: floor 0
    floors = [-(-p * rho.numerator // rho.denominator) for p in range(max_period + 1)]
    elements = steps.elements
    per_period = []
    best_p, best_gamma = 0, 1  # ratio 1/0, above any period's
    for p in range(1, max_period + 1):
        g = gamma_shared(p, _offsets(elements, p), floors[p])
        per_period.append((p, g, Fraction(g, p)))
        if g * best_p < best_gamma * p:
            best_p, best_gamma = p, g
    cert = _certify(best_p, _offsets(elements, best_p), floors[best_p])
    if cert.gamma != best_gamma:
        raise ConsistencyError(f"period {best_p}: solved again {cert.gamma} != scan {best_gamma}")
    return SearchReport(
        best_ratio=per_period[best_p - 1][2],
        best_period=best_p,
        best_witness=PeriodicSet(best_p, cert.witness),
        per_period=tuple(per_period),
        cap=max_period,
        theoretical_cap_note=_cap_note(steps),
    )


def consistency_check(d: int, s: int, max_period: int) -> ConsistencyReport:
    """Cross-validate formula, construction, and scan for one family member.

    Checks that the scan never beats the closed form, that its minimum
    equals the closed form, and that the constructed period attains it.
    """
    constructed, formula = construct_best(d, s)
    if max_period < constructed.period:
        raise ValueError("cap too small")
    steps = family_set(d, s)
    report = search_ratio(steps, max_period)
    violations = []
    if report.best_ratio != formula.value:
        violations.append(
            f"scan minimum {report.best_ratio} != formula {formula.value}"
        )
    for p, g, ratio in report.per_period:
        if ratio < formula.value:
            violations.append(f"period {p} beats the formula: {g}/{p}")
    by_period = {p: ratio for p, _, ratio in report.per_period}
    attained = by_period[constructed.period] == formula.value
    if not attained:
        violations.append(
            f"constructed period {constructed.period} does not attain the formula"
        )
    return ConsistencyReport(
        d=d,
        s=s,
        formula=formula,
        search=report,
        constructed=constructed,
        attained_at_construction=attained,
        consistent=not violations,
        violations=tuple(violations),
    )
