"""Exact domination numbers of circulant digraphs.

gamma_exact runs a branch-and-bound kernel over coverage bitmasks.  The
kernel is the C extension (domkit._core) if it imports, else its
pure-Python twin (domkit._core_py).  gamma_bruteforce is a
deliberately naive oracle that shares no search logic with the kernel:
it tries every subset in increasing cardinality order.  gamma_shared
serves the period scan: it keeps gamma alone, per class of instances
that a map x -> +-x + a carries onto each other, under one key per
class, _key, and under each offsets tuple met, so that a repeated call
is one dict probe.  It solves each class at its key, an image under a
unit multiplier that lies in a short arc, which has the same gamma and
usually a smaller search tree.
"""

from __future__ import annotations

import itertools
import math

from .model import (
    CirculantInstance,
    ConsistencyError,
    DifferenceSet,
    _check_residues,
    _gaps,
    _Record,
    _rotations_cover,
    covers_cycle,
)

try:
    from . import _core as _kernel

    KERNEL = "compiled"
except ImportError:  # extension not built; pure fallback
    from . import _core_py as _kernel

    KERNEL = "pure"


# largest modulus gamma_exact and perfect_code_exists accept: the kernels'
# n-by-n bit tables take about n^2 / 4 bytes, 16 MB here
MAX_MODULUS = 2**13

# residue r is _RESIDUES[r]; bound once, never rebound: _certify decodes
# every witness from it
_RESIDUES = tuple(range(MAX_MODULUS))


def _check_modulus(n: int) -> None:
    if n > MAX_MODULUS:
        raise ValueError(f"modulus {n} above the solver limit {MAX_MODULUS}")


class GammaCertificate(_Record):
    """Exact minimum size, one optimal witness, and the search node count:
    gamma: int, witness: frozenset[int], explored: int."""

    __slots__ = __match_args__ = ("gamma", "witness", "explored")


def kernel_name() -> str:
    """Which solve_cover kernel is active, "compiled" or "pure"."""
    return KERNEL


def reduce_mod(steps: DifferenceSet, p: int) -> CirculantInstance:
    """Reduce a step set on Z to the circulant instance on Z_p.

    Distinct steps can collide mod p, with each other or with the
    self-loop at 0; the instance keeps the closed degree |S| + 1, counted
    before reduction, so that efficiency checks see the collisions: there
    is one exactly when it exceeds |{0} | S mod p|.
    """
    if p < 1:
        raise ValueError("modulus must be positive")
    return CirculantInstance(p, frozenset(t % p for t in steps), len(steps) + 1)


def _offsets(elements, n: int) -> tuple[int, ...]:
    """{0} | elements mod n, strictly ascending: the one form both kernels
    take, and the only place that reduces offsets for a solve."""
    return tuple(sorted({0} | {t % n for t in elements}))


def gamma_exact(inst: CirculantInstance) -> GammaCertificate:
    """Exact domination number with a witness the kernel found and that is
    verified here; every call solves."""
    return _certify(inst.modulus, _offsets(inst.connection, inst.modulus), 0)


# each "0" of a numeral becomes a NUL byte, the one false byte, so that
# compress keeps exactly the residues of the set digits (translate, since
# bytes.replace takes several times as long)
_ZERO_TO_NUL = bytes.maketrans(b"0", b"\0")


def _certify(n: int, offsets: tuple[int, ...], lb: int) -> GammaCertificate:
    """gamma of Z_n with the offsets as _offsets gives them, and the
    kernel's floor lb, which must be at most gamma (the kernel cannot check
    that); a gamma below lb is an error.  Every kernel solve goes through
    here, and hands the kernel the offsets tuple itself.

    The check reads the kernel's mask alone: no bit at or above n and not
    negative, size set bits, and its rotations by the offsets cover Z_n
    (model._rotations_cover, as covers_cycle folds it); then gamma must be
    at least lb.  Only a checked mask is decoded, once: bit r of the mask
    is the reversed binary numeral's byte r, which picks residue r from
    the table _RESIDUES.  The check and _check_modulus leave at most
    n <= MAX_MODULUS selectors, so the table holds every residue picked,
    and the decode makes no int object of its own.
    """
    _check_modulus(n)
    size, mask, explored = _kernel.solve_cover(n, offsets, lb)
    # mask >> n is nonzero for a bit at or above n and for any negative mask
    if mask >> n or mask.bit_count() != size or not _rotations_cover(n, mask, offsets):
        raise ConsistencyError(f"kernel returned an invalid witness for {(n, offsets)}")
    if size < lb:
        raise ConsistencyError(f"period {n}: gamma {size} is below the floor {lb}")
    selectors = bin(mask)[:1:-1].encode().translate(_ZERO_TO_NUL)
    return GammaCertificate(size, frozenset(itertools.compress(_RESIDUES, selectors)), explored)


# gamma_shared keeps gammas until their keys hold this many residues in
# all, then drops the oldest first: one key at MAX_MODULUS can hold 8192, a
# scan round to period 32 keeps ~1,300 keys of at most 5
MAX_CACHED_RESIDUES = 2**20

# (n, T) -> gamma of Z_n with offsets T, for sorted offsets T: each _key
# solved, and each offsets tuple a call met that is not its key
_gamma_cache: dict[tuple[int, tuple[int, ...]], int] = {}
_cached_residues = 0  # residues of the offsets tuples in _gamma_cache's keys


def _key(n: int, offsets: tuple[int, ...]) -> tuple[int, ...]:
    """The key of the offsets T, distinct residues in ascending order as
    _offsets gives them (0 need not be one): one image of T per class
    under x -> +-x + a, at which gamma_shared solves and keeps the class.

    The candidates are T's own cyclic gap sequence and, if T is wide (its
    span, n minus the largest gap, exceeds 2k for k offsets), the gap
    sequence of T * d^-1 for each adjacent difference d that is a unit
    other than +-1.  Of the candidates of least span, each is read after a
    largest gap, forwards and backwards, and the least reading summed from
    0 is the key: a sorted tuple from 0 to that span.  It is u * (T - t)
    mod n for a unit u and some t in T, and a unit-affine map carries a
    cover D + T = Z_n onto uD + (uT + c) = Z_n, so gamma is the same.
    x -> +-x + c keeps the span and the adjacent differences, and turns
    each candidate's gaps into a rotation of them or of their reverse, so
    every member of a class gets the same key.  The kernel branches on the
    lowest uncovered target, so offsets in a short arc keep its tree small.

    Sound on that form only: the differences of unsorted offsets are not
    T's cyclic gap sequence.
    """
    gaps = _gaps(n, offsets)
    k = len(gaps)
    best_span, kept = n - max(gaps), [gaps]
    if best_span > 2 * k:
        for d in set(gaps):
            if d == 1 or d == n - 1 or math.gcd(d, n) != 1:
                continue  # +-1 gives T's own gaps, up to order
            u = pow(d, -1, n)
            image_gaps = _gaps(n, sorted([x * u % n for x in offsets]))
            span = n - max(image_gaps)
            if span < best_span:
                best_span, kept = span, [image_gaps]
            elif span == best_span:
                kept.append(image_gaps)
    # the gaps after a largest one, which wraps, order as their partial sums
    wrap = n - best_span
    readings = []
    for image_gaps in kept:
        doubled = image_gaps * 2
        i = -1
        for _ in range(image_gaps.count(wrap)):
            i = image_gaps.index(wrap, i + 1)
            forward = doubled[i + 1 : i + k]
            readings += (forward, forward[::-1])
    return tuple(itertools.accumulate(min(readings), initial=0))


def _keep(key: tuple[int, tuple[int, ...]], gamma: int) -> None:
    """Store gamma under key, then drop the oldest keys until they hold at
    most MAX_CACHED_RESIDUES residues in all."""
    global _cached_residues
    _gamma_cache[key] = gamma
    _cached_residues += len(key[1])
    while _cached_residues > MAX_CACHED_RESIDUES:
        oldest = next(iter(_gamma_cache))
        del _gamma_cache[oldest]
        _cached_residues -= len(oldest[1])


def gamma_shared(n: int, offsets: tuple[int, ...], lb: int = 0) -> int:
    """gamma of Z_n with the offsets, shared across its class under
    x -> +-x + a and solved at the class's _key.

    The offsets are as _offsets gives them, which _certify and _key rely
    on.  Every key of the cache is (n, T) with T an image of the offsets
    whose gamma it holds under some x -> u*x + a, u a unit, so equal keys
    mean equal gamma.  The offsets themselves are probed first, and a hit
    computes no key.  On a miss, (n, _key) is probed.  A class met for the
    first time is solved at its key with the kernel's floor lb, which must
    be a proven lower bound on gamma of the class, and kept under its key.
    Offsets that are not their key are kept too, so that they hit next
    time.  The keys hold up to MAX_CACHED_RESIDUES residues in all.  No
    witness is kept: one dominates only the offsets it was solved for.
    """
    gamma = _gamma_cache.get((n, offsets))
    if gamma is not None:
        return gamma
    key = _key(n, offsets)
    gamma = _gamma_cache.get((n, key))
    if gamma is None:
        gamma = _certify(n, key, lb).gamma
        _keep((n, key), gamma)
    if key != offsets:
        _keep((n, offsets), gamma)
    return gamma


def _cover_rows(n: int, offsets) -> list[int]:
    """Row v is the bitmask of the targets v + offsets mod n; the oracle
    and perfect_code_exists build their rows here, not from the kernel."""
    rows = []
    for v in range(n):
        mask = 0
        for t in offsets:
            mask |= 1 << ((v + t) % n)
        rows.append(mask)
    return rows


def gamma_bruteforce(inst: CirculantInstance) -> int:
    """Oracle: smallest dominating-set size by exhaustive enumeration.

    Subsets are tried in increasing cardinality; no pruning, no symmetry.
    Capped at modulus 24 to keep the enumeration honest and finite.
    """
    n = inst.modulus
    if n > 24:
        raise ValueError("oracle size limit")
    cover = _cover_rows(n, _offsets(inst.connection, n))
    full = (1 << n) - 1
    for size in range(1, n + 1):
        for combo in itertools.combinations(range(n), size):
            acc = 0
            for v in combo:
                acc |= cover[v]
            if acc == full:
                return size
    raise AssertionError("unreachable: the full vertex set always dominates")


def verify_witness(inst: CirculantInstance, witness: frozenset[int]) -> bool:
    """Whether witness dominates the instance; residues must be in range.

    The check is model.covers_cycle: an OR of the rotations of one n-bit
    mask, built from the larger of witness and the offsets and rotated by
    each element of the smaller.
    """
    _check_residues(witness, inst.modulus)
    return covers_cycle(inst.modulus, witness, _offsets(inst.connection, inst.modulus))


def perfect_code_exists(inst: CirculantInstance) -> frozenset[int] | None:
    """A witness covering every vertex exactly once, or None.

    One exists only if the closed degree |S| + 1 equals |{0} | S mod n|,
    so that no two terms collide mod n and no vertex covers a target
    twice, and divides n: a perfect code has n / (|S| + 1) vertices.
    """
    n = inst.modulus
    _check_modulus(n)
    offsets = _offsets(inst.connection, n)
    if len(offsets) != inst.closed_degree or n % len(offsets):
        return None
    cover = _cover_rows(n, offsets)
    full = (1 << n) - 1

    # depth-first over "which vertex covers the most constrained uncovered
    # target": the one with the fewest vertices still able to cover it,
    # lowest on ties; none left means backtrack, one cannot be beaten.
    # Smallest vertex first; an explicit stack because the depth is n / len(offsets),
    # past Python's recursion limit at n = 3000
    stack = [(0, ())]
    while stack:
        covered, acc = stack.pop()
        if covered == full:
            return frozenset(acc)
        best = None
        rem = ~covered & full
        while rem:
            low = rem & -rem
            rem ^= low
            x = low.bit_length() - 1
            cands = [v for v in ((x - t) % n for t in offsets) if not cover[v] & covered]
            if best is None or len(cands) < len(best):
                best = cands
                if len(best) <= 1:
                    break
        for v in sorted(best, reverse=True):
            stack.append((covered | cover[v], acc + (v,)))
    return None
