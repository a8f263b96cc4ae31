"""Answers computed apart from domkit, used to check every op.

Nothing here imports domkit.  The closed form is written out from the
paper's theorem; coverage, block sizes and the exact circulant solver are
this file's own code, with a search that differs from domkit's kernel
(iterative deepening on the size, branching on the lowest undominated
vertex, memoized dead states) so that a shared mistake is unlikely.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def closed_form_ratio(d: int, s: int) -> Fraction:
    """Domination ratio of Z with steps {1, ..., d-2, s}, s outside [0, d-2].

    Theorem: 1/d if s = -1 (mod d).  Otherwise write s = d*k + e - 1
    (s > 0) or s = -d*k + d - e - 1 (s < 0) with k >= 1, 1 <= e <= d-1;
    the ratio is the least of (k+1)/(dk+e), (2k+e-1)/(2dk-d+2e), 1/(d-1).
    """
    if d < 2 or 0 <= s <= d - 2:
        raise ValueError(f"({d}, {s}) is outside the theorem")
    if (s + 1) % d == 0:
        return Fraction(1, d)
    k, e = divmod(s + 1 if s > 0 else d - 1 - s, d)
    return min(
        Fraction(k + 1, d * k + e),
        Fraction(2 * k + e - 1, 2 * d * k - d + 2 * e),
        Fraction(1, d - 1),
    )


def ratio_properties_hold(d: int, s: int, ratio: Fraction) -> bool:
    """1/d <= ratio <= 1/(d-1), with ratio = 1/d exactly when an efficient
    dominating set exists (s = -1 mod d, or d = 2 where every s has one)."""
    efficient = d == 2 or (s + 1) % d == 0
    upper = Fraction(1, d - 1)
    return Fraction(1, d) <= ratio <= upper and (ratio == Fraction(1, d)) == efficient


def covers(n: int, steps, chosen) -> bool:
    """Whether chosen (residues mod n) dominates Z_n with the given steps."""
    offsets = {0} | {t % n for t in steps}
    hit = bytearray(n)
    for w in chosen:
        if not 0 <= w < n:
            return False
        for t in offsets:
            hit[(w + t) % n] = 1
    return all(hit)


def lower_bound(n: int, steps) -> int:
    """ceil(n / |S u {0}|) with S reduced mod n."""
    m = len({0} | {t % n for t in steps})
    return -(-n // m)


def block_lemma_holds(period: int, residues, d: int, s: int) -> bool:
    """Every cyclic gap between consecutive residues is at most s+1 (s > 0)
    or -s+d-1 (s < 0)."""
    bound = s + 1 if s > 0 else -s + d - 1
    rs = sorted(residues)
    gaps = [b - a for a, b in zip(rs, rs[1:])] + [rs[0] + period - rs[-1]]
    return all(1 <= g <= bound for g in gaps)


def exact_gamma(n: int, steps) -> int:
    """Domination number of the circulant on Z_n with the given steps."""
    offsets = sorted({0} | {t % n for t in steps})
    m = len(offsets)
    cover = []
    for v in range(n):
        mask = 0
        for t in offsets:
            mask |= 1 << ((v + t) % n)
        cover.append(mask)
    full = (1 << n) - 1
    dead: dict[int, int] = {}  # covered mask -> most picks that still failed

    def reachable(covered: int, left: int) -> bool:
        if covered == full:
            return True
        if left * m < n - covered.bit_count() or dead.get(covered, -1) >= left:
            return False
        x = (~covered & (covered + 1)).bit_length() - 1
        for t in offsets:
            if reachable(covered | cover[(x - t) % n], left - 1):
                return True
        dead[covered] = left
        return False

    # a rotation moves some element of any dominating set onto 0
    size = -(-n // m)
    while not reachable(cover[0], size - 1):
        size += 1
    return size


def brute_gamma(n: int, steps) -> int:
    """Exhaustive check of exact_gamma for small n."""
    for size in range(1, n + 1):
        for chosen in combinations(range(n), size):
            if covers(n, steps, chosen):
                return size
    raise AssertionError("the whole vertex set dominates")
