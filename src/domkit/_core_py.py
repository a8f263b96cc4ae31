"""Pure-Python kernel for exact minimum covering by cyclic shifts.

solve_cover finds a smallest W within Z_n such that W + offsets = Z_n,
by depth-first branch and bound over coverage bitmasks.  The k offsets T
are as domkit.solver._offsets gives them, strictly ascending in [0, n);
anything else is a ValueError.

  - upper bound: deterministic greedy (max fresh coverage, lowest index)
    in two phases for the k offsets T.  While some vertex has all k
    targets fresh, the pick is the lowest vertex outside picks + (T - T).
    Every element of T - T lies within c of 0 mod n, so below n - c no
    exclusion wraps past n and these picks are first-fit on a window of
    c + 1 bits; the window alone decides the next pick, so once it
    repeats, the whole periods of picks up to n - c are written at once,
    and only the last vertices are stepped through on n bits.  Then each
    vertex's fresh coverage, gain[v] == popcount(cover[v] & ~covered), is
    counted from the targets left, from the lowest of them less the
    largest offset on, and kept up to date; since gains only fall, the
    scan for the next pick resumes at the last one and still finds the
    pick a full rescan would (see greedy)
  - branch vertex: uncovered x with fewest allowed dominators, the
    lowest on ties; the pass looks only at the uncovered targets in
    touched, the union of cover[v] over the excluded vertices v, and at
    the lowest uncovered target outside it.  A target outside touched
    keeps all k dominators, the most any target has, and the pass, in
    ascending order, keeps only a strictly smaller count, so of those
    targets only the lowest can be picked; the lowest uncovered target
    is always looked at, so the same x is picked, also when the pass
    stops at a count of 0 or 1.  A node costs |touched & uncovered| + 1
    targets instead of |uncovered|
  - branch order: dominators by descending fresh coverage, then index
  - completeness: after a dominator is tried it is excluded from the rest
    of the node, so subtrees never overlap
  - lower bound: ceil(uncovered / k)
  - symmetry: the search fixes vertex 0 in W; rotating any cover moves
    some element onto 0, so the optimum is preserved
  - explicit stack: the depth-first walk is one loop, so its depth (one
    level per chosen vertex) never meets the recursion limit; a node gets
    a stack frame (its uncovered, allowed and touched masks, branch
    order and next child) only while it has a child left after the one
    entered; no closure refers to itself, so the tables are freed on
    return, not by the cyclic garbage collector
  - set-up: the root needs only its uncovered count, n - k, so the n-row
    cover and dom tables are built only when the greedy bound does not
    already cut the root

Each child is vetted from its fresh coverage g before it is entered: it
has left - g targets uncovered, so it is a leaf when that is 0, and it is
cut when size + 1 + ceil((left - g) / k) reaches best_size.  Only the
rest are entered.  Each vetted child still counts as a node.
Children come by descending g, so once one is cut every later one is cut
too: best_size falls only at a leaf, and none was met in between.  Those
children are counted at once, with the same count as entering each.

A child that passes the bound when best_size - size == 3 is at the last
level: it has size best_size - 2, so of its own children only a leaf can
pass the bound, and the first of them decides it.  Its children come by
descending coverage, then index, so that first one is a leaf exactly
when some allowed vertex covers all of the child's uncovered targets,
and then it is the lowest such vertex.  So the child is resolved in
place, without a frame or a branch order: one pass over its at most k
uncovered targets takes the branch vertex's candidate count (lowest
target first, stopping at a count of 0 or 1, as an entered node does)
and the AND of the targets' allowed dominators, whose lowest bit is the
leaf.  If the pass stopped early at a single dominator, that vertex is
a leaf only if it covers every uncovered target.  Entering would count:
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

A memo replays repeated subtrees.  Below a node, until a leaf makes a
new best, the walk reads only the node's uncovered targets (and from
them left and need), allowed on reach, cover[v] & uncovered for v in
reach, and the gap best_size - size; reach, the dominators of the
uncovered targets, is the OR of uncovered rotated down by each offset.
touched only narrows the branch pass, which picks the target the full
pass would, and chosen and lb are read only at a leaf.  So a subtree
that makes no new best counts a number of nodes that its key (gap,
uncovered, allowed & reach) alone decides, and a later child with the
same key would walk the same subtree and make no new best either.  Such
a child is vetted and counted as before, and then, instead of being
entered, it adds the stored count, and the walk goes on as when that
subtree is finished.  A child that is entered pushes a marker frame
under its subtree, with its key, best_size and explored; the marker
cannot pass the bound (its size + need is n + 1), so the resume loop
drops it once the subtree is finished, and stores the subtree's count
then if best_size has not changed.  The memo runs only at children with
a gap of 4 or more, since one with a gap of 3 resolves its own children
in place, so that its subtree is one level, and only once the solve has
counted _MEMO_START nodes: on the small trees of the gamma benchmark
the keys cost more than the hits save.  Each stored entry is charged
2n + 1024 bits, its two masks and about what its tuple, count and dict
slot take; once _MEMO_BITS are charged it stores nothing more and still
answers hits.  It holds ints and tuples of ints only.

The compiled twin in domkit._core enters those last-level children
instead, looks at every uncovered target for the branch vertex, and has
no memo; it walks the same tree and both must return identical (size,
witness, explored) triples, for every lb.
"""

from __future__ import annotations

import itertools
import operator


_LOW64 = (1 << 64) - 1
# the memo of subtree node counts (see the module docstring) runs once a
# solve has counted _MEMO_START nodes, and stores no more once its entries
# are charged _MEMO_BITS bits, 2n + 1024 each
_MEMO_START = 4096
_MEMO_BITS = 1 << 24
_ONES = bytes.maketrans(b"01", b"\x00\x01")


def greedy(n: int, offsets) -> tuple[int, int]:
    """Size and bitmask of the greedy cover: each pick is the vertex with
    the most fresh (not yet covered) targets, the lowest one on ties.

    The k offsets T ascend strictly within [0, n).  Phase 1 makes the
    picks that have all k targets fresh.  v has gain k iff v is outside
    picks + D, D = T - T, and these picks ascend: each is the lowest
    vertex above the last pick, base, outside picks + D.  D is symmetric
    mod n, and c is its largest element up to n / 2, so every element of D
    is within c of 0.  Hence below limit = n - c no exclusion wraps past
    n: a vertex v < limit meets a pick p < v only if v - p <= c.  There
    the picks are first-fit on a window of c + 1 bits, bit i for vertex
    base + i, set if a pick excludes it: the next pick is base + j, j the
    lowest clear bit (bit 0, base itself, is always set), and the window
    becomes window >> j | (D within [0, c]).  The window alone decides
    what comes next, so once a window repeats, the picks since its first
    sight repeat with it, and the whole periods that end below limit are
    written at once, as one period's pattern times (2^(reps * step) - 1)
    // (2^step - 1).  From the last pick below limit, the vertices left to
    pick from are those outside the window and outside the exclusions of
    the picks below c, which wrap past 0 to limit and up.  Phase 1 steps
    through them on n - base bits, each pick masking out its own D
    (keep).  When limit holds fewer than 8 windows (c + 1 bits each), the
    window run was measured not to pay, and these steps cover all of Z_n
    from vertex 0.

    Phase 2, if targets are left, counts gain[v], the number of v's
    targets still left, from those targets alone: every vertex with a gain
    lies at or above lo, the lowest target left less the largest offset,
    so gains are kept for vertices lo on, counted target by target.  Gains
    only fall, and top starts at the largest gain there is and drops only
    once no vertex has gain top.  While top stays, every vertex below the
    last pick already has a gain below top, so the scan for the next pick
    resumes there and still finds the lowest vertex with the largest gain.
    """
    k = len(offsets)
    full = (1 << n) - 1
    tmask = 0
    for t in offsets:
        tmask |= 1 << t
    # D is the OR of T's mask rotated right by each u, folded back into n
    # bits; keep is all but D
    wide = tmask << n
    acc = 0
    for u in offsets:
        acc |= wide >> u
    diff = (acc | acc >> n) & full
    keep = full ^ diff
    c = (diff & ((2 << (n >> 1)) - 1)).bit_length() - 1  # D's largest up to n / 2
    limit = n - c
    mask = size = 1
    base = 0
    fresh = keep
    if limit >= 8 * (c + 1):
        near = diff & ((2 << c) - 1)
        window = near
        seen = {near: 0}  # window -> the pick it first followed
        while True:
            j = (window ^ (window + 1)).bit_length() - 1  # bit 0 is set
            if base + j >= limit:
                break
            base += j
            mask |= 1 << base
            size += 1
            window = window >> j | near
            if seen:
                first = seen.setdefault(window, base)
                if first != base:
                    seen = None
                    step = base - first
                    reps = (limit - 1 - base) // step
                    pattern = mask >> first ^ 1  # the picks in (first, base]
                    mask |= pattern * ((1 << reps * step) - 1) // ((1 << step) - 1) << base
                    size += reps * pattern.bit_count()
                    base += reps * step
        # bit i of hi is limit + i in D, so a pick p < c excludes limit + i
        # for each bit i - p of hi
        hi = diff >> limit
        early = mask & ((1 << c) - 1)
        wrap = 0
        while early:
            low = early & -early
            wrap |= hi * low
            early ^= low
        wrap &= (1 << c) - 1
        fresh = ((1 << (n - base)) - 1) & ~(window | wrap << (limit - base))
    picked = off = 0  # bit j of fresh and of picked is vertex base + j
    while fresh:
        low = fresh & _LOW64 or fresh
        j = (low & -low).bit_length() - 1
        off += j
        picked |= 1 << off
        size += 1
        fresh = fresh >> j & keep
    mask |= picked << base
    acc = 0
    for t in offsets:
        acc |= mask << t
    covered = (acc | acc >> n) & full  # picks + T
    if covered == full:
        return size, mask
    rest = full ^ covered
    lo = max((rest & -rest).bit_length() - 1 - offsets[-1], 0)
    m = n - lo
    # index x stands for vertex lo + x from here on; x - u below 0 wraps
    # mod n, which happens only when lo == 0
    rows = format(rest >> lo, "b").encode().translate(_ONES)
    wanted = bytearray(rows[::-1].ljust(n, b"\0"))  # 1 while target x is left
    gain = [0] * m
    for x in itertools.compress(range(m), wanted):
        for u in offsets:
            gain[x - u] += 1
    left = rest.bit_count()
    top = k - 1
    while top not in gain:
        top -= 1
    start = 0
    late = bytearray((m + 7) >> 3)  # bit x: pick lo + x
    while left:
        try:
            bv = gain.index(top, start)
        except ValueError:
            top -= 1
            start = 0
            continue
        start = bv
        late[bv >> 3] |= 1 << (bv & 7)
        size += 1
        for t in offsets:
            x = bv + t
            if x >= n:
                x -= n
            if wanted[x]:
                wanted[x] = 0
                left -= 1
                for u in offsets:
                    gain[x - u] -= 1
    return size, mask | int.from_bytes(late, "little") << lo


def solve_cover(n: int, offsets: tuple[int, ...], lb: int = 0, /) -> tuple[int, int, int]:
    """Minimum |W|, a witness bitmask, and the node count of the search,
    for offsets strictly ascending in [0, n).  The search stops once its
    best cover has at most lb elements (see the module docstring).
    """
    lb = operator.index(lb)  # as the compiled kernel parses its arguments
    if n < 1:
        raise ValueError("modulus must be positive")
    if lb < 0:
        raise ValueError("lb must be nonnegative")
    if not offsets:
        raise ValueError("offsets must be nonempty")
    if offsets[0] < 0 or offsets[-1] >= n or not all(map(operator.lt, offsets, offsets[1:])):
        raise ValueError("offsets must ascend within [0, n)")
    k = len(offsets)
    best_size, best_mask = greedy(n, offsets)
    # the root fixes vertex 0, which covers the offsets; if that is
    # everything, greedy's first pick, vertex 0, already made best_size 1
    # and the bound below stops here
    size = 1
    left = n - k
    need = (left + k - 1) // k
    if size + need >= best_size or best_size <= lb:
        return best_size, best_mask, 1

    full = (1 << n) - 1
    # row v + 1 is row v rotated up by one bit
    cover = [sum(1 << t for t in offsets)]
    dom = [sum(1 << (-t % n) for t in offsets)]
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
    memo = {}  # (gap, uncovered, allowed & reach) -> nodes below the node
    budget = _MEMO_BITS
    ups = [n - t for t in offsets]
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
                if cl and size + 1 + (cl + k - 1) // k < best_size:
                    explored += 1
                    if best_size - size != 3:
                        if i + 1 < count:
                            push((uncovered, chosen, size, left, need, order, count, i + 1,
                                  allowed ^ (1 << v), touched | cover[v]))
                        rest = uncovered & ~cover[v]
                        if explored >= _MEMO_START and best_size - size > 4:
                            # the child's key: reach is the OR of its
                            # uncovered rotated down by each offset
                            acc = 0
                            for up in ups:
                                acc |= rest << up
                            state = (best_size - size - 1, rest, allowed & (acc | acc >> n))
                            nodes = memo.get(state)
                            if nodes is not None:
                                # count the child's subtree and go on as when
                                # it is finished
                                explored += nodes
                                i = count
                                continue
                            if budget > 0:
                                # a marker under the child's subtree; its
                                # size + need exceeds n, so it is never resumed
                                push((state, best_size, 0, explored, n + 1, None, 0, 0, 0, 0))
                        uncovered = rest
                        chosen |= 1 << v
                        size += 1
                        left = cl
                        need = (cl + k - 1) // k
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
                if order is None and chosen == best_size and budget > 0:
                    # a marker (state, best_size, 0, explored, ...) from the
                    # entry of a child whose subtree is now finished
                    memo[uncovered] = explored - left
                    budget -= 2 * n + 1024
            else:
                return best_size, best_mask, explored
