"""Pure-Python kernel for exact minimum covering by cyclic shifts.

solve_cover finds a smallest W within Z_n such that W + offsets = Z_n,
by depth-first branch and bound over coverage bitmasks:

  - upper bound: deterministic greedy (max fresh coverage, lowest index)
    in O(n * k) for k distinct offsets; it keeps each vertex's fresh
    coverage, gain[v] == popcount(cover[v] & ~covered), and since gains
    only fall, the scan for the next pick resumes at the last one and
    still finds the pick a full rescan would (see greedy)
  - branch vertex: uncovered x with fewest allowed dominators
  - branch order: dominators by descending fresh coverage, then index
  - completeness: after a dominator is tried it is excluded from the rest
    of the node, so subtrees never overlap
  - lower bound: ceil(uncovered / len(offsets))
  - symmetry: the search fixes vertex 0 in W; rotating any cover moves
    some element onto 0, so the optimum is preserved

The compiled twin in domkit._core follows this code line by line; both
must return identical (size, witness, explored) triples.
"""

from __future__ import annotations


def greedy(n: int, offsets) -> tuple[int, int]:
    """Size and bitmask of the greedy cover: each pick is the vertex with
    the most fresh (not yet covered) targets, the lowest one on ties.

    gain[v] is the number of targets of v not yet covered, kept up to date
    instead of recomputed.  Gains only fall, and top is the largest gain:
    it drops only once no vertex has gain top.  While top stays, every
    vertex below the last pick already has a gain below top, so the scan
    for the next pick resumes there and still finds the lowest vertex with
    the largest gain.  offsets may be unreduced or repeated.
    """
    distinct = sorted({t % n for t in offsets})
    top = len(distinct)
    gain = [top] * n
    covd = bytearray(n)
    left = n
    mask = 0
    size = 0
    start = 0
    while left:
        try:
            bv = gain.index(top, start)
        except ValueError:
            top -= 1
            start = 0
            continue
        start = bv
        mask |= 1 << bv
        size += 1
        for t in distinct:
            x = (bv + t) % n
            if not covd[x]:
                covd[x] = 1
                left -= 1
                for u in distinct:
                    gain[(x - u) % n] -= 1
    return size, mask


def solve_cover(n: int, offsets: list[int]) -> tuple[int, int, int]:
    """Minimum |W|, a witness bitmask, and the node count of the search.

    offsets are reduced mod n; repeats cover nothing new, but the lower
    bound counts them, as len(offsets).
    """
    if n < 1:
        raise ValueError("modulus must be positive")
    if not offsets:
        raise ValueError("offsets must be nonempty")
    m = len(offsets)
    distinct = sorted({t % n for t in offsets})
    full = (1 << n) - 1
    # row v + 1 is row v rotated up by one bit
    cover = [sum(1 << t for t in distinct)]
    dom = [sum(1 << (-t % n) for t in distinct)]
    for table in (cover, dom):
        row = table[0]
        for _ in range(n - 1):
            row = ((row << 1) & full) | (row >> (n - 1))
            table.append(row)

    best_size, best_mask = greedy(n, distinct)
    explored = 0

    def rec(covered: int, excluded: int, chosen: int, size: int) -> None:
        nonlocal best_mask, best_size, explored
        explored += 1
        if covered == full:
            if size < best_size:
                best_size = size
                best_mask = chosen
            return
        need = (n - covered.bit_count() + m - 1) // m
        if size + need >= best_size:
            return
        rem = full & ~covered
        bx_cands = 0
        bx_count = n + 1
        while rem:
            low = rem & -rem
            rem ^= low
            x = low.bit_length() - 1
            cands = dom[x] & ~excluded
            cnt = cands.bit_count()
            if cnt == 0:
                return
            if cnt < bx_count:
                bx_count = cnt
                bx_cands = cands
                if cnt == 1:
                    break
        order = []
        cb = bx_cands
        while cb:
            low = cb & -cb
            cb ^= low
            v = low.bit_length() - 1
            order.append(((cover[v] & ~covered).bit_count(), v))
        order.sort(key=lambda gv: (-gv[0], gv[1]))
        exc = excluded
        for _, v in order:
            rec(covered | cover[v], exc, chosen | (1 << v), size + 1)
            exc |= 1 << v
            if size + need >= best_size:
                return

    rec(cover[0], 0, 1, 1)
    return best_size, best_mask, explored
