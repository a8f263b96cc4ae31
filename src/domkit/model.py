"""Shared exact-arithmetic types for domination in Cayley digraphs of Z and Z_n.

All densities and ratios are exact rationals (stdlib Fraction); floats
never enter a math path.  Periodic subsets of Z are stored as one period
worth of residues; block structures are an equivalent gap-sequence view
of the same sets and conversions between the two are lossless.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate


class ConsistencyError(RuntimeError):
    """An internal cross-check failed that a proven identity says cannot."""


def format_ratio(value: Fraction) -> str:
    """Render a rational as the stable "num/den" wire form, e.g. "2/5"."""
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class DifferenceSet:
    """Finite set of step offsets S defining the digraph x -> x + s on Z.

    Offsets are nonzero integers, either sign; stored sorted without
    duplicates.
    """

    elements: tuple[int, ...]

    def __post_init__(self):
        elems = tuple(sorted(set(self.elements)))
        if not elems:
            raise ValueError("difference set must be nonempty")
        if 0 in elems:
            raise ValueError("0 is not a valid step offset")
        object.__setattr__(self, "elements", elems)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, value):
        return value in self.elements


@dataclass(frozen=True)
class PeriodicSet:
    """Subset of Z of the form residues + period * Z.

    residues live in [0, period); the empty residue set is allowed (it is
    simply never dominating).
    """

    period: int
    residues: frozenset[int]

    def __post_init__(self):
        if self.period < 1:
            raise ValueError("period must be positive")
        res = frozenset(self.residues)
        for r in res:
            if not 0 <= r < self.period:
                raise ValueError(f"residue {r} outside [0, {self.period})")
        object.__setattr__(self, "residues", res)

    def to_json(self) -> dict:
        return {"period": self.period, "residues": sorted(self.residues)}


@dataclass(frozen=True)
class BlockStructure:
    """Gap sequence (b1, ..., bl) describing a periodic set.

    Block i starts at a chosen residue and the next one starts bi later, so
    the induced set has period sum(sizes) and one residue per block.
    """

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(self.sizes)
        if not sizes:
            raise ValueError("block structure must have at least one block")
        if min(sizes) < 1:
            raise ValueError("block sizes must be positive")
        object.__setattr__(self, "sizes", sizes)


@dataclass(frozen=True)
class CirculantInstance:
    """Circulant digraph on Z_n given by a connection set of residues.

    connection may contain 0 when a step offset reduces to 0 mod n.
    multiplicity counts preimages in S union {0} per residue, stored as
    sorted (residue, count) pairs; counts sum to |S| + 1 for instances built
    by reduce_mod.  Only efficiency checks consult it; plain domination
    depends on the distinct residues alone.
    """

    modulus: int
    connection: frozenset[int]
    multiplicity: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        conn = frozenset(self.connection)
        for r in conn:
            if not 0 <= r < self.modulus:
                raise ValueError(f"residue {r} outside [0, {self.modulus})")
        mult = self.multiplicity
        if not mult:
            # implicit self-loop contributes one count at residue 0
            counts = {r: 1 for r in conn}
            counts[0] = counts.get(0, 0) + 1
            mult = tuple(sorted(counts.items()))
        else:
            mult = tuple(sorted(tuple(pair) for pair in mult))
            keys = {r for r, _ in mult}
            if len(keys) != len(mult):
                raise ValueError("duplicate residue in multiplicity")
            if any(c < 1 for _, c in mult):
                raise ValueError("multiplicity counts must be positive")
            if keys != conn | {0}:
                raise ValueError("multiplicity keys must be connection plus 0")
        object.__setattr__(self, "connection", conn)
        object.__setattr__(self, "multiplicity", mult)

    def counts(self) -> dict[int, int]:
        """Multiplicity as a residue -> count mapping."""
        return dict(self.multiplicity)


@dataclass(frozen=True)
class Decomposition:
    """Canonical parameters (sign, k, e) of a valid step s for a given d.

    Positive branch: s = d*k + e - 1.  Negative branch: s = -d*k + d - e - 1.
    Always k >= 1 and 1 <= e <= d - 1, so each valid s matches exactly one
    branch.
    """

    d: int
    s: int
    sign: str
    k: int
    e: int

    def __post_init__(self):
        if self.sign not in ("positive", "negative"):
            raise ValueError(f"bad sign {self.sign!r}")
        if self.k < 1 or not 1 <= self.e <= self.d - 1:
            raise ValueError("decomposition out of range")
        if self.sign == "positive":
            rebuilt = self.d * self.k + self.e - 1
        else:
            rebuilt = -self.d * self.k + self.d - self.e - 1
        if rebuilt != self.s:
            raise ValueError(f"decomposition does not rebuild s={self.s}")


def density(pset: PeriodicSet) -> Fraction:
    """Natural density |residues| / period of a periodic set."""
    return Fraction(len(pset.residues), pset.period)


def blocks_of(pset: PeriodicSet) -> BlockStructure:
    """Cyclic gap sequence of a periodic set, starting at its least residue."""
    if not pset.residues:
        raise ValueError("no blocks: empty dominating set")
    res = sorted(pset.residues)
    gaps = [res[i + 1] - res[i] for i in range(len(res) - 1)]
    gaps.append(pset.period - res[-1] + res[0])
    return BlockStructure(tuple(gaps))


def block_to_periodic(blocks: BlockStructure) -> PeriodicSet:
    """Periodic set with one residue at the start of each block, first at 0."""
    sizes = blocks.sizes
    return PeriodicSet(sum(sizes), frozenset(accumulate(sizes[:-1], initial=0)))


def covers_cycle(n: int, a: Collection[int], b: Collection[int]) -> bool:
    """Whether A + B = Z_n, for two sets of residues in [0, n).

    Coverage is the OR of the rotations of one n-bit residue mask: the
    larger set becomes the mask, in one pass that writes an n-digit binary
    numeral, and the mask is rotated by each element of the smaller set.
    That costs min(|A|, |B|) shifts of n-bit integers.  If |A| * |B| < n
    no mask is built, since A + B has at most that many elements.
    """
    if len(a) * len(b) < n:
        return False
    if len(a) < len(b):
        a, b = b, a
    digits = bytearray(b"0") * n
    for r in a:
        digits[r] = 49  # ord("1")
    # digit r from the left is bit r once the numeral is reversed
    mask = int(digits[::-1], 2)
    acc = 0
    for t in b:
        acc |= mask << t
    full = (1 << n) - 1
    # bit r + t of acc, for r + t >= n, stands for the residue r + t - n
    return (acc | acc >> n) & full == full
