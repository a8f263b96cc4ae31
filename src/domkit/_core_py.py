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
  - explicit stack: the depth-first walk is one loop, so its depth (one
    level per chosen vertex) never meets the recursion limit; a node gets
    a stack frame only while it has a child left after the one entered;
    no closure refers to itself, so the tables are freed on return, not
    by the cyclic garbage collector

Each child is vetted from its fresh coverage g before it is entered: it
has left - g targets uncovered, so it is a leaf when that is 0, and it is
cut when size + 1 + ceil((left - g) / len(offsets)) reaches best_size.
Only the rest are entered.  Each vetted child still counts as a node.
Children come by descending g, so once one is cut every later one is cut
too: best_size falls only at a leaf, and none was met in between.  Those
children are counted at once, with the same count as entering each.

The compiled twin in domkit._core walks the same tree; both must
return identical (size, witness, explored) triples.
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
    # the root fixes vertex 0; if cover[0] is full, greedy's first pick,
    # vertex 0, already made best_size 1 and the bound below stops here
    covered = cover[0]
    chosen = 1
    size = 1
    left = n - covered.bit_count()
    need = (left + m - 1) // m
    if size + need >= best_size:
        return best_size, best_mask, 1
    excluded = 0
    explored = 1
    stack = []
    push = stack.append
    pop = stack.pop
    while True:
        # the current node is entered: not full and not cut by the bound
        uncovered = full & ~covered
        allowed = full & ~excluded
        rem = uncovered
        bx_cands = 0
        bx_count = n + 1
        while rem:
            low = rem & -rem
            rem ^= low
            cands = dom[low.bit_length() - 1] & allowed
            cnt = cands.bit_count()
            if cnt < bx_count:
                bx_count = cnt
                bx_cands = cands
                if cnt <= 1:  # no dominator left is a dead end
                    break
        order = []
        while bx_cands:
            low = bx_cands & -bx_cands
            bx_cands ^= low
            v = low.bit_length() - 1
            order.append((-(cover[v] & uncovered).bit_count(), v))
        # (-gain, v) ascending: descending fresh coverage, then index
        order.sort()
        count = len(order)
        i = 0
        while True:
            # vet child i from its gain before entering it
            if i < count:
                neg_gain, v = order[i]
                cl = left + neg_gain
                if cl and size + 1 + (cl + m - 1) // m < best_size:
                    explored += 1
                    if i + 1 < count:
                        push((covered, chosen, size, left, need, order, count, i + 1,
                              excluded | (1 << v)))
                    covered |= cover[v]
                    chosen |= 1 << v
                    size += 1
                    left = cl
                    need = (cl + m - 1) // m
                    break
                if cl:
                    # cut by the bound, and so is every later child
                    explored += count - i
                else:
                    # a leaf is always smaller than best_size: this node
                    # passed the bound with need >= 1
                    explored += 1
                    best_size = size + 1
                    best_mask = chosen | (1 << v)
            # this node is done: resume the nearest one the bound allows
            while stack:
                covered, chosen, size, left, need, order, count, i, excluded = pop()
                if size + need < best_size:
                    break
            else:
                return best_size, best_mask, explored
