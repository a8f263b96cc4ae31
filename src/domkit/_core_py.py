"""Pure-Python kernel for exact minimum covering by cyclic shifts.

solve_cover finds a smallest W within Z_n such that W + offsets = Z_n,
by depth-first branch and bound over coverage bitmasks:

  - upper bound: deterministic greedy (max fresh coverage, lowest index)
    in two phases for k distinct offsets T.  While some vertex has all k
    targets fresh, the pick is the lowest vertex outside picks + (T - T),
    read off one bitmask that shrinks with each pick.  Then each vertex's
    fresh coverage, gain[v] == popcount(cover[v] & ~covered), is counted
    from the targets left and kept up to date; since gains only fall, the
    scan for the next pick resumes at the last one and still finds the
    pick a full rescan would (see greedy)
  - branch vertex: uncovered x with fewest allowed dominators, the
    lowest on ties; the pass looks only at the uncovered targets in
    touched, the union of cover[v] over the excluded vertices v, and at
    the lowest uncovered target outside it.  A target outside touched
    keeps all k distinct dominators, the most any target has, and the
    pass, in ascending order, keeps only a strictly smaller count, so
    of those targets only the lowest can be picked; the lowest
    uncovered target is always looked at, so the same x is picked,
    also when the pass stops at a count of 0 or 1.  A node costs
    |touched & uncovered| + 1 targets instead of |uncovered|
  - branch order: dominators by descending fresh coverage, then index
  - completeness: after a dominator is tried it is excluded from the rest
    of the node, so subtrees never overlap
  - lower bound: ceil(uncovered / len(offsets))
  - symmetry: the search fixes vertex 0 in W; rotating any cover moves
    some element onto 0, so the optimum is preserved
  - explicit stack: the depth-first walk is one loop, so its depth (one
    level per chosen vertex) never meets the recursion limit; a node gets
    a stack frame (its uncovered, allowed and touched masks, branch
    order and next child) only while it has a child left after the one
    entered; no closure refers to itself, so the tables are freed on
    return, not by the cyclic garbage collector
  - set-up: the root needs only its uncovered count, n minus the distinct
    offsets, so the n-row cover and dom tables are built only when the
    greedy bound does not already cut the root

Each child is vetted from its fresh coverage g before it is entered: it
has left - g targets uncovered, so it is a leaf when that is 0, and it is
cut when size + 1 + ceil((left - g) / len(offsets)) reaches best_size.
Only the rest are entered.  Each vetted child still counts as a node.
Children come by descending g, so once one is cut every later one is cut
too: best_size falls only at a leaf, and none was met in between.  Those
children are counted at once, with the same count as entering each.

A child that passes the bound when best_size - size == 3 is at the last
level: it has size best_size - 2, so of its own children only a leaf can
pass the bound, and the first of them decides it.  Its children come by
descending coverage, then index, so that first one is a leaf exactly
when some allowed vertex covers all of the child's uncovered targets,
and then it is the lowest such vertex.  So the child is resolved in
place, without a frame or a branch order: one pass over its at most
len(offsets) uncovered targets takes the branch vertex's candidate count
(lowest target first, stopping at a count of 0 or 1, as an entered node
does) and the AND of the targets' allowed dominators, whose lowest bit
is the leaf.  If the pass stopped early at a single dominator, that
vertex is a leaf only if it covers every uncovered target.  Entering
would count:
  - no leaf: the child and each of its candidates, all cut; then the
    next child is vetted with this one excluded
  - a leaf: the child and the leaf, which makes best_size = size + 2;
    then, with need == 1, every later child is cut, and counted, as
    above; with need > 1 this node is cut too and counts nothing more

A floor lb, 0 unless given, stops the search once best_size <= lb: at
the root after greedy, and right after each new best, before anything
else is counted (in place, before the later children a leaf cuts).
Passing lb <= gamma changes neither size nor witness: the best is
replaced only by a strictly smaller cover, so a best of size gamma is
the one the full search returns; only explored falls.  The search does
not check lb: one above gamma may return a cover that is not minimum.
The period scan (domkit.search) passes ceil(p * rho) with rho the
closed-form ratio, so there the result trusts the closed form.

The compiled twin in domkit._core enters those last-level children
instead and looks at every uncovered target for the branch vertex; it
walks the same tree and both must return identical (size, witness,
explored) triples, for every lb.
"""

from __future__ import annotations

import itertools
import operator


_LOW64 = (1 << 64) - 1
_COVERED = bytes.maketrans(b"01", b"\x00\x01")
_UNCOVERED = bytes.maketrans(b"01", b"\x01\x00")


def greedy(n: int, offsets) -> tuple[int, int]:
    """Size and bitmask of the greedy cover: each pick is the vertex with
    the most fresh (not yet covered) targets, the lowest one on ties.

    gain[v] is the number of targets of v not yet covered.  Gains only
    fall, and top is the largest gain: it drops only once no vertex has
    gain top.  While top stays, every vertex below the last pick already
    has a gain below top, so the scan for the next pick resumes there and
    still finds the lowest vertex with the largest gain.

    Phase 1 makes the picks of top == k, k the number of distinct
    offsets T.  v has gain k iff v is outside picks + (T - T), and these
    picks ascend, so fresh holds the vertices from the last pick, base,
    on that are outside picks + (T - T), bit j for vertex base + j.  Each
    pick masks out its own T - T (keep), and the next pick is the lowest
    bit left, to which fresh is shifted down.  The picks' mask and the
    covered set are formed once, at the end.  Phase 2, if targets are
    left, counts gain from them alone and runs the gain loop from
    top = k - 1 and start = 0, where phase 1 leaves it.
    offsets may be unreduced or repeated.
    """
    distinct = sorted({t % n for t in offsets})
    full = (1 << n) - 1
    tmask = 0
    for t in distinct:
        tmask |= 1 << t
    # keep is all but T - T: the OR of T's mask rotated right by each u,
    # folded back into n bits, complemented
    wide = tmask << n
    acc = 0
    for u in distinct:
        acc |= wide >> u
    keep = full & ~(acc | acc >> n)
    picks = [0]
    fresh = keep
    base = 0
    while fresh:
        low = fresh & _LOW64 or fresh
        j = (low & -low).bit_length() - 1
        base += j
        picks.append(base)
        fresh = fresh >> j & keep
    digits = bytearray(b"0") * n  # digits[~v] is vertex v's binary digit
    for v in picks:
        digits[~v] = 49
    mask = int(digits, 2)
    acc = 0
    for t in distinct:
        acc |= mask << t
    covered = (acc | acc >> n) & full  # picks + T
    if covered == full:
        return len(picks), mask
    rows = format(covered, "b").zfill(n)[::-1].encode()  # rows[x] is x's digit in covered
    covd = bytearray(rows.translate(_COVERED))
    gain = [0] * n
    for x in itertools.compress(range(n), rows.translate(_UNCOVERED)):
        for u in distinct:
            gain[x - u] += 1  # a negative index wraps mod n
    left = n - covered.bit_count()
    size = len(picks)
    top = len(distinct) - 1
    start = 0
    while left:
        try:
            bv = gain.index(top, start)
        except ValueError:
            top -= 1
            start = 0
            continue
        start = bv
        digits[~bv] = 49
        size += 1
        for t in distinct:
            x = bv + t
            if x >= n:
                x -= n
            if not covd[x]:
                covd[x] = 1
                left -= 1
                for u in distinct:
                    gain[x - u] -= 1
    return size, int(digits, 2)


def solve_cover(n: int, offsets: list[int], lb: int = 0, /) -> tuple[int, int, int]:
    """Minimum |W|, a witness bitmask, and the node count of the search.

    offsets are reduced mod n; repeats cover nothing new, but the lower
    bound counts them, as len(offsets).  The search stops once its best
    cover has at most lb elements (see the module docstring).
    """
    lb = operator.index(lb)  # as the compiled kernel parses its arguments
    if n < 1:
        raise ValueError("modulus must be positive")
    if lb < 0:
        raise ValueError("lb must be nonnegative")
    if not offsets:
        raise ValueError("offsets must be nonempty")
    m = len(offsets)
    distinct = sorted({t % n for t in offsets})
    best_size, best_mask = greedy(n, distinct)
    # the root fixes vertex 0, which covers the distinct offsets; if that
    # is everything, greedy's first pick, vertex 0, already made best_size
    # 1 and the bound below stops here
    size = 1
    left = n - len(distinct)
    need = (left + m - 1) // m
    if size + need >= best_size or best_size <= lb:
        return best_size, best_mask, 1

    full = (1 << n) - 1
    # row v + 1 is row v rotated up by one bit
    cover = [sum(1 << t for t in distinct)]
    dom = [sum(1 << (-t % n) for t in distinct)]
    for table in (cover, dom):
        row = table[0]
        for _ in range(n - 1):
            row = ((row << 1) & full) | (row >> (n - 1))
            table.append(row)

    uncovered = full ^ cover[0]
    allowed = full
    touched = 0
    chosen = 1
    explored = 1
    # a branch order key is (uncovered targets after v) << shift | v
    shift = n.bit_length()
    vmask = (1 << shift) - 1
    stack = []
    push = stack.append
    pop = stack.pop
    while True:
        # the current node is entered: not full and not cut by the bound;
        # a target outside touched has the most dominators, so of those
        # only the lowest can be picked
        rem = uncovered & ~touched
        rem = (uncovered & touched) | (rem & -rem)
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
            order.append((left - (cover[v] & uncovered).bit_count()) << shift | v)
        # ascending keys: descending fresh coverage, then index
        order.sort()
        count = len(order)
        i = 0
        while True:
            # vet child i from its gain before entering it
            if i < count:
                key = order[i]
                cl = key >> shift
                v = key & vmask
                if cl and size + 1 + (cl + m - 1) // m < best_size:
                    explored += 1
                    if best_size - size != 3:
                        if i + 1 < count:
                            push((uncovered, chosen, size, left, need, order, count, i + 1,
                                  allowed ^ (1 << v), touched | cover[v]))
                        uncovered &= ~cover[v]
                        chosen |= 1 << v
                        size += 1
                        left = cl
                        need = (cl + m - 1) // m
                        break
                    # the child is at the last level: resolve it in place
                    rest = uncovered & ~cover[v]
                    rem = rest
                    leaves = allowed
                    bx_count = n + 1
                    while rem:
                        low = rem & -rem
                        rem ^= low
                        cands = dom[low.bit_length() - 1] & allowed
                        leaves &= cands
                        cnt = cands.bit_count()
                        if cnt < bx_count:
                            bx_count = cnt
                            if cnt <= 1:
                                break
                    leaf = leaves & -leaves
                    if leaf and rem and rest & ~cover[leaf.bit_length() - 1]:
                        leaf = 0  # the one dominator left misses a target
                    if not leaf:
                        # every grandchild is cut: count them, try the next child
                        explored += bx_count
                        allowed ^= 1 << v
                        touched |= cover[v]
                        i += 1
                        continue
                    explored += 1
                    best_size = size + 2
                    best_mask = chosen | (1 << v) | leaf
                    if best_size <= lb:
                        return best_size, best_mask, explored
                    if need == 1:
                        # the later children are cut by the new best_size
                        explored += count - i - 1
                elif cl:
                    # cut by the bound, and so is every later child
                    explored += count - i
                else:
                    # a leaf is always smaller than best_size: this node
                    # passed the bound with need >= 1
                    explored += 1
                    best_size = size + 1
                    best_mask = chosen | (1 << v)
                    if best_size <= lb:
                        return best_size, best_mask, explored
            # this node is done: resume the nearest one the bound allows
            while stack:
                uncovered, chosen, size, left, need, order, count, i, allowed, touched = pop()
                if size + need < best_size:
                    break
            else:
                return best_size, best_mask, explored
