"""Exact domination numbers of circulant digraphs.

gamma_exact runs a branch-and-bound kernel over coverage bitmasks.  The
kernel is the C extension (domkit._core) if it imports, else its
pure-Python twin (domkit._core_py).  gamma_bruteforce is a
deliberately naive oracle that shares no search logic with the kernel:
it tries every subset in increasing cardinality order.  gamma_shared
serves the period scan: it keeps gamma alone, one per class of instances
that a map x -> +-x + a carries onto each other.
"""

from __future__ import annotations

import itertools

from .model import (
    CirculantInstance,
    ConsistencyError,
    DifferenceSet,
    _Record,
    _set,
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


def _check_modulus(n: int) -> None:
    if n > MAX_MODULUS:
        raise ValueError(f"modulus {n} above the solver limit {MAX_MODULUS}")


class GammaCertificate(_Record):
    """Exact minimum size, one optimal witness, and the search node count."""

    __slots__ = __match_args__ = ("gamma", "witness", "explored")

    def __init__(self, gamma: int, witness: frozenset[int], explored: int):
        _set(self, "gamma", gamma)
        _set(self, "witness", witness)
        _set(self, "explored", explored)


def kernel_name() -> str:
    """Which solve_cover kernel is active, "compiled" or "pure"."""
    return KERNEL


def reduce_mod(steps: DifferenceSet, p: int) -> CirculantInstance:
    """Reduce a step set on Z to the circulant instance on Z_p.

    Distinct steps can collide mod p; the instance keeps the collision
    counts (plus the implicit self-loop at 0) for efficiency checks.
    """
    if p < 1:
        raise ValueError("modulus must be positive")
    counts: dict[int, int] = {0: 1}
    for t in steps:
        r = t % p
        counts[r] = counts.get(r, 0) + 1
    connection = frozenset(t % p for t in steps)
    return CirculantInstance(p, connection, tuple(sorted(counts.items())))


def _offsets(inst: CirculantInstance) -> tuple[int, ...]:
    return tuple(sorted(inst.connection | {0}))


def gamma_exact(inst: CirculantInstance) -> GammaCertificate:
    """Exact domination number with a witness the kernel found and that is
    verified here; every call solves."""
    return _certify(inst, 0)


def _certify(inst: CirculantInstance, lb: int) -> GammaCertificate:
    """gamma_exact with the kernel's floor lb, which must be at most gamma
    (the kernel cannot check that); a gamma below lb is an error."""
    n = inst.modulus
    _check_modulus(n)
    offsets = _offsets(inst)
    size, mask, explored = _kernel.solve_cover(n, list(offsets), lb)
    if mask >> n:  # a negative mask too, which bin() writes with a sign
        raise ConsistencyError(f"kernel returned a mask outside Z_{n} for {(n, offsets)}")
    # digit i of the reversed binary numeral is bit i; each "0" becomes a
    # NUL byte, the one false byte, so compress keeps exactly the set bits
    digits = bin(mask)[:1:-1].encode().replace(b"0", b"\0")
    witness = frozenset(itertools.compress(range(n), digits))
    if not verify_witness(inst, witness) or len(witness) != size:
        raise ConsistencyError(f"kernel returned an invalid witness for {(n, offsets)}")
    if size < lb:
        raise ConsistencyError(f"period {n}: gamma {size} is below the floor {lb}")
    return GammaCertificate(size, witness, explored)


# gamma_shared keeps gammas until their class keys hold this many residues
# in all, then drops the oldest first: one key at MAX_MODULUS can hold
# 8192, a scan round to period 32 keeps ~700 keys of at most 5
MAX_CACHED_RESIDUES = 2**20

_gamma_cache: dict[tuple[int, tuple[int, ...]], int] = {}  # (n, class key) -> gamma
_cached_residues = 0  # class-key residues held in _gamma_cache


def _class_key(n: int, offsets: tuple[int, ...]) -> tuple[int, ...]:
    """Least sorted image of the sorted offsets T under x -> +-x + a mod n.

    If D + T covers Z_n, so does +-D + (+-T + a): gamma is the same
    across the class.  The images that start at 0 are the partial sums of
    the rotations of T's cyclic gap sequence, and of its reverse for -T;
    they order as those rotations do.
    """
    gaps = [b - a for a, b in zip(offsets, offsets[1:])] + [offsets[0] + n - offsets[-1]]
    best = min(seq[i:] + seq[:i] for seq in (gaps, gaps[::-1]) for i in range(len(seq)))
    return tuple(itertools.accumulate(best[:-1], initial=0))


def gamma_shared(inst: CirculantInstance, lb: int = 0) -> int:
    """gamma of inst, shared across its class under x -> +-x + a.

    A class met for the first time is solved for inst with the kernel's
    floor lb, which must be a proven lower bound on gamma; its gamma is
    kept, up to MAX_CACHED_RESIDUES class-key residues in all.  No witness
    is kept: one dominates only the offsets it was solved for.
    """
    global _cached_residues
    n = inst.modulus
    key = (n, _class_key(n, _offsets(inst)))
    gamma = _gamma_cache.get(key)
    if gamma is None:
        gamma = _gamma_cache[key] = _certify(inst, lb).gamma
        _cached_residues += len(key[1])
        while _cached_residues > MAX_CACHED_RESIDUES:
            oldest = next(iter(_gamma_cache))
            del _gamma_cache[oldest]
            _cached_residues -= len(oldest[1])
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
    cover = _cover_rows(n, _offsets(inst))
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
    n = inst.modulus
    for w in witness:
        if not 0 <= w < n:
            raise ValueError(f"witness residue {w} outside [0, {n})")
    return covers_cycle(n, witness, _offsets(inst))


def perfect_code_exists(inst: CirculantInstance) -> frozenset[int] | None:
    """A witness covering every vertex exactly once, or None.

    Counting is with multiplicity: if two steps collide mod n, any chosen
    vertex covers one target twice and no perfect code can exist.
    """
    n = inst.modulus
    _check_modulus(n)
    counts = inst.counts()
    if any(c > 1 for c in counts.values()):
        return None
    offsets = sorted(counts)
    m = len(offsets)
    if n % m:
        return None
    cover = _cover_rows(n, offsets)
    full = (1 << n) - 1

    # depth-first over "which vertex covers the most constrained uncovered
    # target": the one with the fewest vertices still able to cover it,
    # lowest on ties; none left means backtrack, one cannot be beaten.
    # Smallest vertex first; an explicit stack because the depth is n / m,
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
