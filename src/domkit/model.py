"""Shared exact-arithmetic types for domination in Cayley digraphs of Z and Z_n.

All densities and ratios are exact rationals (stdlib Fraction); floats
never enter a math path.  Periodic subsets of Z are stored as one period
worth of residues; block structures are an equivalent gap-sequence view
of the same sets and conversions between the two are lossless.
"""

from __future__ import annotations

import operator
from collections.abc import Collection, Iterable
from fractions import Fraction
from itertools import accumulate


class ConsistencyError(RuntimeError):
    """An internal cross-check failed that a proven identity says cannot."""


def format_ratio(value: Fraction) -> str:
    """Render a rational as the stable "num/den" wire form, e.g. "2/5"."""
    return f"{value.numerator}/{value.denominator}"


_set = object.__setattr__  # the one way to write a field, used by __init__


class _Record:
    """Immutable record with value semantics, what a frozen dataclass gives.

    Each subclass names its fields once, in __slots__ = __match_args__.  A
    store-only record writes no __init__: __init_subclass__ generates
    __init__(self, <field>, ...) storing each argument with _set, as
    dataclasses and namedtuple generate theirs.  A validating record
    writes its own __init__, which checks the arguments and stores each
    field with _set; a subclass inherits whichever __init__ its parent
    has.  The methods here read the fields from __match_args__, which a
    further subclass inherits; its __slots__ would be its own.  Records
    equal only records of the same class with equal fields; they are not
    tuples, so they are not iterable unless a subclass says so and json
    cannot encode them.  dataclasses is not used because importing it
    also imports inspect, ast, dis and tokenize, which about doubled the
    time to import domkit.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        if cls.__init__ is object.__init__:
            fields = cls.__match_args__
            body = "".join(f"\n    _set(self, {name!r}, {name})" for name in fields)
            namespace = {}
            exec(f"def __init__(self, {', '.join(fields)}):{body}",
                 {"_set": _set, "__name__": cls.__module__}, namespace)
            init = namespace["__init__"]
            init.__qualname__ = f"{cls.__qualname__}.__init__"  # TypeErrors name it
            cls.__init__ = init

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # pickle and copy rebuild through __init__, which validates again
        return self.__class__, self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")


def _check_residues(res: frozenset[int], n: int) -> None:
    """Raise ValueError naming a residue of res outside [0, n), if any."""
    if res:
        lo, hi = min(res), max(res)
        if lo < 0 or hi >= n:
            raise ValueError(f"residue {lo if lo < 0 else hi} outside [0, {n})")


class DifferenceSet(_Record):
    """Finite set of step offsets S defining the digraph x -> x + s on Z.

    Offsets are nonzero integers, either sign; stored sorted without
    duplicates.
    """

    __slots__ = __match_args__ = ("elements",)

    def __init__(self, elements: tuple[int, ...]):
        elems = tuple(sorted(set(elements)))
        if not elems:
            raise ValueError("difference set must be nonempty")
        if 0 in elems:
            raise ValueError("0 is not a valid step offset")
        _set(self, "elements", elems)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, value):
        return value in self.elements


class PeriodicSet(_Record):
    """Subset of Z of the form residues + period * Z.

    residues live in [0, period); the empty residue set is allowed (it is
    simply never dominating).
    """

    __slots__ = __match_args__ = ("period", "residues")

    def __init__(self, period: int, residues: frozenset[int]):
        if period < 1:
            raise ValueError("period must be positive")
        res = frozenset(residues)
        _check_residues(res, period)
        _set(self, "period", period)
        _set(self, "residues", res)

    def to_json(self) -> dict:
        return {"period": self.period, "residues": sorted(self.residues)}


class BlockStructure(_Record):
    """Gap sequence (b1, ..., bl) describing a periodic set.

    Block i starts at a chosen residue and the next one starts bi later, so
    the induced set has period sum(sizes) and one residue per block.
    """

    __slots__ = __match_args__ = ("sizes",)

    def __init__(self, sizes: tuple[int, ...]):
        sizes = tuple(sizes)
        if not sizes:
            raise ValueError("block structure must have at least one block")
        if min(sizes) < 1:
            raise ValueError("block sizes must be positive")
        _set(self, "sizes", sizes)


class CirculantInstance(_Record):
    """Circulant digraph on Z_n given by a connection set of residues.

    connection may contain 0 when a step offset reduces to 0 mod n.
    closed_degree is |S| + 1, counted before reduction; two terms of
    {0} + S collide mod n exactly when it exceeds |connection | {0}|.  The
    default, |connection| + 1, counts a 0 in connection as a second
    self-loop.  Only efficiency checks consult it; plain domination
    depends on the distinct residues alone.
    """

    __slots__ = __match_args__ = ("modulus", "connection", "closed_degree")

    def __init__(self, modulus: int, connection: frozenset[int], closed_degree: int | None = None):
        if modulus < 1:
            raise ValueError("modulus must be positive")
        conn = frozenset(connection)
        _check_residues(conn, modulus)
        degree = len(conn) + 1 if closed_degree is None else operator.index(closed_degree)
        if degree < len(conn | {0}):
            raise ValueError(f"closed degree {degree} below |connection | {{0}}|")
        _set(self, "modulus", modulus)
        _set(self, "connection", conn)
        _set(self, "closed_degree", degree)


class Decomposition(_Record):
    """Canonical parameters (sign, k, e) of a valid step s for a given d.

    Positive branch: s = d*k + e - 1.  Negative branch: s = -d*k + d - e - 1.
    Always k >= 1 and 1 <= e <= d - 1, so each valid s matches exactly one
    branch.
    """

    __slots__ = __match_args__ = ("d", "s", "sign", "k", "e")

    def __init__(self, d: int, s: int, sign: str, k: int, e: int):
        if sign not in ("positive", "negative"):
            raise ValueError(f"bad sign {sign!r}")
        if k < 1 or not 1 <= e <= d - 1:
            raise ValueError("decomposition out of range")
        if sign == "positive":
            rebuilt = d * k + e - 1
        else:
            rebuilt = -d * k + d - e - 1
        if rebuilt != s:
            raise ValueError(f"decomposition does not rebuild s={s}")
        _set(self, "d", d)
        _set(self, "s", s)
        _set(self, "sign", sign)
        _set(self, "k", k)
        _set(self, "e", e)


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


def _rotations_cover(n: int, mask: int, shifts: Iterable[int]) -> bool:
    """Whether the OR of the n-bit mask rotated left by each shift in
    [0, n) sets all n bits: whether A + shifts = Z_n for the residues A
    of the mask."""
    acc = 0
    for t in shifts:
        acc |= mask << t
    full = (1 << n) - 1
    # bit r + t of acc, for r + t >= n, stands for the residue r + t - n
    return (acc | acc >> n) & full == full


def covers_cycle(n: int, a: Collection[int], b: Collection[int]) -> bool:
    """Whether A + B = Z_n, for two sets of residues in [0, n).

    Coverage is the OR of the rotations of one n-bit residue mask: the
    larger set becomes the mask through its n-digit binary numeral, digit
    r for residue r, and _rotations_cover rotates the mask by each element
    of the smaller set.  That costs min(|A|, |B|) shifts of n-bit
    integers.  If |A| * |B| < n no mask is built, since A + B has at most
    that many elements.  solver._certify checks a kernel's mask with the
    same _rotations_cover.
    """
    if len(a) * len(b) < n:
        return False
    if len(a) < len(b):
        a, b = b, a
    digits = bytearray(b"0") * n  # one byte store per residue
    for r in a:
        digits[r] = 49  # ord("1")
    # digit r from the left is bit r once the numeral is reversed
    return _rotations_cover(n, int(digits[::-1], 2), b)
