import gc
import heapq
import itertools
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tracemalloc
from collections import Counter

import pytest
from conftest import LDSHARED, SRC, compile_core

import domkit._core_py as core_py
from domkit import solver
from domkit.construct import verify_efficient
from domkit.formula import domination_ratio, family_set
from domkit.model import CirculantInstance, DifferenceSet, PeriodicSet
from domkit.solver import (
    MAX_MODULUS,
    gamma_bruteforce,
    gamma_exact,
    gamma_shared,
    kernel_name,
    perfect_code_exists,
    reduce_mod,
    verify_witness,
)


def random_instance(rng, max_n=18, max_steps=4):
    n = rng.randint(1, max_n)
    count = rng.randint(1, max_steps)
    steps = rng.sample([x for x in range(-30, 31) if x != 0], count)
    return reduce_mod(DifferenceSet(tuple(steps)), n)


def test_reduce_mod_examples():
    inst = reduce_mod(DifferenceSet((1, 4)), 5)
    assert inst.connection == frozenset({1, 4})
    assert inst.closed_degree == 3
    inst = reduce_mod(DifferenceSet((1, 6)), 6)
    assert inst.connection == frozenset({0, 1})
    assert inst.closed_degree == 3  # 6 collides with the self-loop
    inst = reduce_mod(DifferenceSet((1, 2, 8)), 14)
    assert inst.connection == frozenset({1, 2, 8})
    assert inst.closed_degree == 4
    inst = reduce_mod(DifferenceSet((1, 4, 6)), 5)
    assert inst.connection == frozenset({1, 4})
    assert inst.closed_degree == 4  # 1 and 6 share a residue
    with pytest.raises(ValueError):
        reduce_mod(DifferenceSet((1,)), 0)


def test_reduce_mod_multiplicity_sums():
    # the closed degree counts every step and the self-loop, whatever
    # collides, and never falls below the distinct residues it counts
    rng = random.Random(31337)
    for _ in range(200):
        count = rng.randint(1, 5)
        steps = DifferenceSet(tuple(rng.sample([x for x in range(-20, 21) if x], count)))
        p = rng.randint(1, 12)
        inst = reduce_mod(steps, p)
        assert inst.closed_degree == len(steps) + 1
        assert inst.closed_degree >= len(inst.connection | {0})


def test_reduce_mod_matches_counted_residues():
    # the whole record against {0} + S mod p counted directly: no
    # collision, two steps on one residue, a step at 0 mod p, and p = 1;
    # the closed degree exceeds the offsets exactly when some residue of
    # {0} + S mod p is counted twice
    rng = random.Random(2718)
    cases = [((1, 4), 5), ((1, 6), 5), ((5, 7), 5), ((-3, 2), 1), ((1, 2, 8), 14)]
    for _ in range(300):
        steps = tuple(rng.sample([x for x in range(-20, 21) if x], rng.randint(1, 5)))
        cases.append((steps, rng.randint(1, 12)))
    collided = 0
    for steps, p in cases:
        conn = frozenset(t % p for t in steps)
        inst = reduce_mod(DifferenceSet(steps), p)
        assert inst == CirculantInstance(p, conn, len(steps) + 1), (steps, p)
        counts = Counter([0] + [t % p for t in steps])
        collides = max(counts.values()) > 1
        assert (inst.closed_degree > len(solver._offsets(conn, p))) is collides, (steps, p)
        collided += collides
    assert 0 < collided < len(cases)


@pytest.mark.parametrize(
    "n, connection, expected",
    [
        (5, {1, 2}, 2),
        (11, {1, 6}, 4),
        (14, {1, 2, 8}, 4),
        (1, set(), 1),
        (10, {1, 2, 3}, 3),
        (6, {1, 2, 4}, 2),
        (3, set(), 3),
    ],
)
def test_gamma_exact_examples(n, connection, expected):
    cert = gamma_exact(CirculantInstance(n, frozenset(connection)))
    assert cert.gamma == expected
    assert len(cert.witness) == expected
    assert cert.explored >= 1


def test_gamma_certificate_properties():
    rng = random.Random(5150)
    for _ in range(150):
        inst = random_instance(rng)
        cert = gamma_exact(inst)
        m = len(inst.connection | {0})
        assert cert.gamma >= math.ceil(inst.modulus / m)
        assert len(cert.witness) == cert.gamma
        assert verify_witness(inst, cert.witness)


def test_gamma_matches_bruteforce():
    rng = random.Random(90210)
    for _ in range(120):
        inst = random_instance(rng, max_n=14)
        assert gamma_exact(inst).gamma == gamma_bruteforce(inst)


def test_gamma_monotone_in_connection():
    # adding a residue never increases gamma
    rng = random.Random(246810)
    for _ in range(100):
        n = rng.randint(2, 16)
        base = frozenset(rng.sample(range(1, n), rng.randint(0, min(3, n - 1))))
        extra = rng.randrange(1, n)
        small = gamma_exact(CirculantInstance(n, base | {extra})).gamma
        big = gamma_exact(CirculantInstance(n, base)).gamma
        assert small <= big


def test_bruteforce_size_cap():
    with pytest.raises(ValueError, match="oracle size limit"):
        gamma_bruteforce(CirculantInstance(25, frozenset({1})))


def test_verify_witness():
    inst = CirculantInstance(3, frozenset())
    assert verify_witness(inst, frozenset({0, 1, 2})) is True
    assert verify_witness(inst, frozenset({0, 1})) is False
    inst = CirculantInstance(5, frozenset({1, 2}))
    assert verify_witness(inst, frozenset({0, 2})) is True
    for w in (-1, 5):
        with pytest.raises(ValueError, match=r"outside \[0, 5\)"):
            verify_witness(inst, frozenset({0, w}))


@pytest.mark.parametrize("compiled", [False, True], ids=["pure", "compiled"])
def test_witness_decodes_the_kernel_mask(monkeypatch, core_c, compiled):
    # the witness is the residues of the mask the kernel returned: at the
    # least moduli, up to MAX_MODULUS and back down.  Z_n with steps {n},
    # offsets {0}, has the full mask as its one cover: at n = MAX_MODULUS
    # it picks the last residue of solver's table
    if compiled and core_c is None:
        pytest.skip("no C compiler")
    kernel = core_c if compiled else core_py
    masks = []
    solve = kernel.solve_cover

    def recorded(n, offsets, lb=0):
        out = solve(n, offsets, lb)
        masks.append(out[1])
        return out

    monkeypatch.setattr(solver, "_kernel", kernel)
    monkeypatch.setattr(kernel, "solve_cover", recorded)
    cases = [(n, (1, 2)) for n in (1, 2, 257, 8191, MAX_MODULUS, 5, 3000, 100)]
    for n, steps in [*cases, (MAX_MODULUS, (MAX_MODULUS,)), (5, (5,))]:
        witness = gamma_exact(reduce_mod(DifferenceSet(steps), n)).witness
        assert witness == {i for i in range(n) if masks[-1] >> i & 1}, (n, steps)
        if steps == (n,):
            assert masks[-1] == (1 << n) - 1 and witness == set(range(n)), n


# gamma_exact in a fresh interpreter, which imported domkit.solver and
# nothing else of the test suite: the module's globals before and after
KEEPS_NOTHING = """
import sys
sys.path.insert(0, sys.argv[1])
from domkit import solver
from domkit.model import DifferenceSet
before = dict(vars(solver))
for n, steps in ((solver.MAX_MODULUS, (1, 2)), (5, (5,))):
    solver.gamma_exact(solver.reduce_mod(DifferenceSet(steps), n))
after = vars(solver)
assert after.keys() == before.keys(), sorted(after.keys() ^ before.keys())
rebound = [name for name, value in before.items() if after[name] is not value]
assert not rebound, rebound
assert solver._gamma_cache == {}
"""


def test_gamma_exact_keeps_nothing():
    proc = subprocess.run(
        [sys.executable, "-I", "-c", KEEPS_NOTHING, str(SRC)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "n, connection, found",
    [
        (4, {1, 2, 3}, True),
        (5, {1, 4}, False),
        (6, {2, 4}, True),
        (6, {0, 1}, False),  # double self-loop can never cover exactly once
        (1, set(), True),
        (86, {54}, False),  # v -> v + 54 splits Z_86 into two odd cycles
        (74, {40}, False),
    ],
)
def test_perfect_code_examples(n, connection, found):
    witness = perfect_code_exists(CirculantInstance(n, frozenset(connection)))
    assert (witness is not None) is found


def test_perfect_code_witness_is_exact():
    # each of the terms {0} + S covers on its own, so colliding terms
    # would count a target twice
    rng = random.Random(8675309)
    hits = 0
    for _ in range(300):
        n = rng.randint(1, 16)
        steps = rng.sample([x for x in range(-30, 31) if x != 0], rng.randint(1, 4))
        inst = reduce_mod(DifferenceSet(tuple(steps)), n)
        witness = perfect_code_exists(inst)
        if witness is None:
            continue
        hits += 1
        counts = Counter((w + t) % n for w in witness for t in [0, *steps])
        assert counts == Counter(range(n))
        assert len(witness) * inst.closed_degree == n
    assert hits > 0


def test_perfect_code_agrees_with_verify_efficient():
    # the solver's efficiency check against construct's, by brute force over
    # every n / closed_degree-subset of Z_n; steps drawn from a small range
    # so that many collide mod n
    rng = random.Random(16180)
    found = collided = 0
    for _ in range(250):
        n = rng.randint(1, 14)
        count = rng.randint(1, 4)
        steps = DifferenceSet(tuple(rng.sample([x for x in range(-16, 17) if x], count)))
        inst = reduce_mod(steps, n)
        witness = perfect_code_exists(inst)
        size, rest = divmod(n, inst.closed_degree)
        efficient = not rest and any(
            verify_efficient(PeriodicSet(n, frozenset(w)), steps)
            for w in itertools.combinations(range(n), size)
        )
        assert (witness is not None) is efficient, (sorted(steps), n)
        if witness is not None:
            assert verify_efficient(PeriodicSet(n, witness), steps)
        found += witness is not None
        collided += inst.closed_degree > len(inst.connection | {0})
    assert found and collided


def test_perfect_code_is_minimum_dominating():
    # a perfect code meets the degree lower bound with equality
    for n, conn in [(4, {1, 2, 3}), (6, {2, 4}), (8, {1, 6, 7})]:
        inst = CirculantInstance(n, frozenset(conn))
        witness = perfect_code_exists(inst)
        if witness is not None:
            assert len(witness) == gamma_exact(inst).gamma


def test_perfect_code_large_modulus():
    # the search is one level deep per chosen vertex, 1000 levels here
    inst = reduce_mod(DifferenceSet((1, 2)), 3000)
    witness = perfect_code_exists(inst)
    assert witness == frozenset(range(0, 3000, 3))


def test_modulus_guard():
    # the bit tables take about n^2 / 4 bytes; refuse before building them
    inst = reduce_mod(DifferenceSet((1, 2)), MAX_MODULUS + 1)
    with pytest.raises(ValueError, match="solver limit"):
        gamma_exact(inst)
    with pytest.raises(ValueError, match="solver limit"):
        perfect_code_exists(inst)


def rescanning_greedy(n, offsets):
    """The greedy bound as first written: every pick rescans all n vertices."""
    cover = []
    for v in range(n):
        mask = 0
        for t in offsets:
            mask |= 1 << ((v + t) % n)
        cover.append(mask)
    full = (1 << n) - 1
    best_mask = covd = size = 0
    while covd != full:
        bv, bg = 0, -1
        for v in range(n):
            g = (cover[v] & ~covd).bit_count()
            if g > bg:
                bg, bv = g, v
        best_mask |= 1 << bv
        covd |= cover[bv]
        size += 1
    return size, best_mask


def lazy_greedy(n, offsets):
    """The same greedy by lazy evaluation: a heap of (-gain, v) whose gains
    are stale but never too low, since gains only fall; the first entry
    popped with its gain still current is the lowest vertex with the
    largest gain."""
    cover = [sum(1 << ((v + t) % n) for t in offsets) for v in range(n)]
    full = (1 << n) - 1
    heap = [(-len(offsets), v) for v in range(n)]
    best_mask = covd = size = 0
    while covd != full:
        g, v = heapq.heappop(heap)
        fresh = (cover[v] & ~covd).bit_count()
        if fresh != -g:
            heapq.heappush(heap, (-fresh, v))
            continue
        best_mask |= 1 << v
        covd |= cover[v]
        size += 1
    return size, best_mask


def test_greedy_matches_rescanning_greedy():
    rng = random.Random(24680)
    for _ in range(2000):
        n = rng.randint(1, 40)
        # the kernels' form of negative, unreduced and repeated steps
        offsets = [rng.randint(-100, 100) for _ in range(rng.randint(1, 6))]
        offsets += rng.sample(offsets, rng.randint(0, len(offsets)))
        offsets = solver._offsets(offsets, n)
        expected = rescanning_greedy(n, offsets)
        assert core_py.greedy(n, offsets) == expected
        assert lazy_greedy(n, offsets) == expected
    # lazy_greedy is the oracle from here on: the rescanning one costs
    # O(gamma * n) popcounts, 0.3 s at n = 1600
    cases = [(n, list(range(d))) for d in range(2, 9) for n in [rng.randint(400, 1600)]]
    # the greedy's phases: it ends in phase 1 (n a multiple of d, T = 0..d-1);
    # one pick blocks every vertex (T - T = Z_n); k = n; n = 1; a spread pair
    cases += [(n, list(range(d))) for n, d in [(12, 3), (400, 4), (1600, 8)]]
    cases += [(7, [0, 1, 3]), (13, [0, 1, 3, 9]), (9, list(range(9))), (1, [0]), (1, [0, 5])]
    cases.append((1000, [0, 500]))
    # the next pick lies 100 vertices on, past the low 64-bit word
    cases.append((1000, list(range(100))))
    # family members, where phase 2 is long
    for d, s in [(3, -14), (4, 7), (5, -13), (3, 10)]:
        for n in (401, 997, 1500):
            cases.append((n, [0, *family_set(d, s).elements]))
    # phase 1's window run (c the largest element of T - T up to n / 2; the
    # run engages at n >= 9c + 8).  {0, 1, 5}: c = 5, picks 0, 2, 8, 10, ...,
    # two a period of 8; {0, 1, 2, 3, -6}: c = 9, picks 0, 4, 14, 18, ...,
    # two a period of 14.  n runs over every residue of the period, so the
    # run ends mid-period, and the exclusions that wrap past n meet the
    # last picks from one above and one below a multiple of the period
    for offsets, c, period in [([0, 1, 5], 5, 8), ([0, 1, 2, 3, -6], 9, 14)]:
        for q in (9 * c + 8, 400, 1200):
            cases += [(n, offsets) for n in range(q - 1, q + period + 1)]
    # one pick a period; eight picks before the period (c = 13); 28 picks a
    # period of 100 (c = 15); c close to n / 4 and n / 9
    cases += [(n, [0, 1]) for n in (16, 17, 18, 1601)]
    cases += [(n, [0, 9, 12, 13]) for n in (125, 126, 600, 601)]
    cases += [(n, [0, 11, 15]) for n in (600, 601, 1201)]
    cases += [(n, [0, 1, n // 4]) for n in (97, 400, 401)]
    cases += [(n, [0, 1, n // 9]) for n in (97, 400, 401)]
    # negative, unreduced and repeated steps at n >= 400
    cases += [(400, [-1, 0, 401, 5, 5]), (1201, [-1207, 3, 3, 2402, -4])]
    # hundreds of offsets, so phase 2 counts hundreds of gains per target
    cases += [(700, rng.sample(range(-700, 700), 300)), (600, list(range(0, 600, 2)))]
    # a seeded batch: n in 100..1200, span at most 30
    for _ in range(40):
        span = rng.randint(1, 30)
        offsets = [rng.randint(-span, span) for _ in range(rng.randint(1, 6))]
        cases.append((rng.randint(100, 1200), offsets))
    for n, offsets in cases:
        offsets = solver._offsets(offsets, n)
        assert core_py.greedy(n, offsets) == lazy_greedy(n, offsets), (n, offsets)


class FloorMet(Exception):
    pass


def recursive_solve_cover(n, offsets, lb=0):
    """solve_cover as first written: one recursive call per search node,
    stopped once the best cover has at most lb elements."""
    m = len(offsets)
    full = (1 << n) - 1
    cover = [sum(1 << t for t in offsets)]
    dom = [sum(1 << (-t % n) for t in offsets)]
    for table in (cover, dom):
        row = table[0]
        for _ in range(n - 1):
            row = ((row << 1) & full) | (row >> (n - 1))
            table.append(row)

    best_size, best_mask = core_py.greedy(n, offsets)
    if best_size <= lb:
        return best_size, best_mask, 1
    explored = 0

    def rec(covered, excluded, chosen, size):
        nonlocal best_mask, best_size, explored
        explored += 1
        if covered == full:
            if size < best_size:
                best_size = size
                best_mask = chosen
                if best_size <= lb:
                    raise FloorMet
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

    try:
        rec(cover[0], 0, 1, 1)
    except FloorMet:
        pass
    return best_size, best_mask, explored


def small_random_inputs(rng):
    """2,000 (n, offsets) with n <= 24, the kernels' form of negative,
    unreduced and repeated steps."""
    for _ in range(2000):
        n = rng.randint(1, 24)
        offsets = [rng.randint(-100, 100) for _ in range(rng.randint(1, 6))]
        offsets += rng.sample(offsets, rng.randint(0, len(offsets)))
        yield n, solver._offsets(offsets, n)


def test_solve_cover_matches_recursive_solve_cover():
    rng = random.Random(97531)
    for n, offsets in small_random_inputs(rng):
        assert core_py.solve_cover(n, offsets) == recursive_solve_cover(n, offsets)
    # the gamma benchmark's sizes, where nearly half the entered nodes are
    # one level above the leaves, which the pure kernel resolves in place
    for _ in range(150):
        n = rng.randint(25, 32)
        offsets = solver._offsets(rng.sample(range(1, n), rng.randint(1, 4)), n)
        assert core_py.solve_cover(n, offsets) == recursive_solve_cover(n, offsets)
    # many offsets, so few targets per node and many dominators per target
    for _ in range(300):
        n = rng.randint(1, 32)
        offsets = solver._offsets([rng.randint(-100, 100) for _ in range(rng.randint(1, 12))], n)
        assert core_py.solve_cover(n, offsets) == recursive_solve_cover(n, offsets)
    # sparse 2-step sets, where the targets an excluded vertex covers are
    # far fewer than the uncovered ones
    for n in range(36, 49, 4):
        offsets = [0] + sorted(rng.sample(range(1, 9), 2))
        assert core_py.solve_cover(n, offsets) == recursive_solve_cover(n, offsets)
    pure = core_py.solve_cover(46, [0, 1, 4])
    assert (pure[0], pure[2]) == (19, 44056)
    assert pure == recursive_solve_cover(46, [0, 1, 4])
    # a deep tree: 151,050 nodes
    assert core_py.solve_cover(30, [0, 1, 16]) == recursive_solve_cover(30, [0, 1, 16])


@pytest.mark.parametrize("bits", [core_py._MEMO_BITS, 4096])
def test_memo_matches_recursive_solve_cover(monkeypatch, bits):
    # the memo at every child with a gap of 4 or more, from the first node
    # on; 4,096 bits hold four entries at these n, and storing stops
    # partway through 434 of the 2,000 searches without a floor
    monkeypatch.setattr(core_py, "_MEMO_START", 0)
    monkeypatch.setattr(core_py, "_MEMO_BITS", bits)
    for n, offsets in small_random_inputs(random.Random(97531)):
        full = recursive_solve_cover(n, offsets)
        assert core_py.solve_cover(n, offsets) == full
        for lb in {full[0] - 1, full[0]} - {0}:
            assert core_py.solve_cover(n, offsets, lb) == recursive_solve_cover(n, offsets, lb)


def test_memo_keeps_deep_node_counts():
    # counts of the search without the memo, which the pure kernel's memo
    # replays: {1, 4} at periods 60 and 70 with their floors
    assert core_py.solve_cover(60, [0, 1, 4], 24) == (24, 0x294A5294A5294A5, 620877)
    assert core_py.solve_cover(70, [0, 1, 4], 28)[::2] == (28, 4682540)


def test_memo_memory_is_bounded():
    # {1, 2, 7} mod 1200, whose perfect code the greedy bound misses: a
    # 138,411-node search that peaks at about 0.63 MB without the memo
    # (mostly the n-row tables) and 1.4 MB with it
    tracemalloc.start()
    try:
        result = core_py.solve_cover(1200, [0, 1, 2, 7])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result[::2] == (300, 138411)
    assert peak < 2 * 2**20


def test_floor_keeps_size_and_witness():
    # a floor at most gamma only cuts the search short once a best of size
    # gamma is found, which the full search would keep
    rng = random.Random(1729)
    for _ in range(200):
        n = rng.randint(1, 30)
        offsets = solver._offsets(rng.sample(range(1, max(2, n)), min(n - 1, rng.randint(1, 4))), n)
        size, mask, explored = core_py.solve_cover(n, offsets)
        for lb in {0, size // 2, size - 1, size}:
            floored = core_py.solve_cover(n, offsets, lb)
            assert floored[:2] == (size, mask)
            assert floored[2] <= explored
    # {1, 4} at period 38 has gamma 16 = ceil(38 * 2/5), its ratio's floor
    assert core_py.solve_cover(38, [0, 1, 4])[2] == 13725
    assert core_py.solve_cover(38, [0, 1, 4], 16)[2] == 1190


def test_root_cut_builds_no_tables():
    # greedy's every other vertex meets the root's bound, so the search
    # ends at the root without the n-row bit tables (about 9 MB here)
    tracemalloc.start()
    try:
        result = core_py.solve_cover(8192, [0, 1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result == (4096, sum(1 << v for v in range(0, 8192, 2)), 1)
    assert peak < 2**20


def stack_depth():
    frame, depth = sys._getframe(1), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_deep_search_ignores_recursion_limit(core_c):
    # gamma = 250 chosen vertices, one search level each, under a limit of 50
    n, offsets = 1250, [0, 1, 2, 3, 1244]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 50)
    try:
        pure = core_py.solve_cover(n, offsets)
        compiled = core_c.solve_cover(n, offsets) if core_c is not None else pure
    finally:
        sys.setrecursionlimit(limit)
    size, mask, explored = pure
    assert (size, explored) == (250, 508)
    assert verify_witness(CirculantInstance(n, frozenset(offsets[1:])),
                          frozenset(v for v in range(n) if mask >> v & 1))
    assert compiled == pure


def test_solve_cover_leaves_no_garbage():
    # the search state must be freed on return, not by the cyclic collector
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        core_py.solve_cover(30, [0, 1, 16])
        core_py.solve_cover(1600, list(range(8)))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def refuse(*args):
    raise AssertionError("must not be called here")


def recorded_certify(monkeypatch):
    """Patches solver._certify to log the modulus of each solve."""
    solved, certify = [], solver._certify

    def recorded(n, offsets, lb):
        solved.append(n)
        return certify(n, offsets, lb)

    monkeypatch.setattr(solver, "_certify", recorded)
    return solved


def shared(inst):
    """gamma_shared on inst's modulus and sorted offsets, with no floor."""
    return gamma_shared(inst.modulus, solver._offsets(inst.connection, inst.modulus))


def test_gamma_cache_drops_oldest_past_bound(monkeypatch, empty_caches):
    # the bound counts class-key residues: (0, 1) holds 2, (0, 1, 3) holds 3
    monkeypatch.setattr(solver, "MAX_CACHED_RESIDUES", 7)
    insts = [reduce_mod(DifferenceSet((1,) if n % 2 else (1, 3)), n) for n in range(10, 20)]
    gammas = [shared(inst) for inst in insts]
    assert gammas == [gamma_exact(inst).gamma for inst in insts]
    assert {type(g) for g in gammas + list(solver._gamma_cache.values())} == {int}
    assert list(solver._gamma_cache) == [(17, (0, 1)), (18, (0, 1, 3)), (19, (0, 1))]
    assert solver._cached_residues == sum(len(key) for _, key in solver._gamma_cache) == 7
    solved = recorded_certify(monkeypatch)
    assert shared(insts[0]) == gammas[0]  # evicted, so solved again and kept last
    assert solved == [10]
    assert list(solver._gamma_cache) == [(19, (0, 1)), (10, (0, 1, 3))]
    assert solver._cached_residues == 5


def test_class_cache_drops_oldest_past_bound(monkeypatch, empty_caches):
    # the cache is keyed by class: an evicted class is solved again for the
    # member that asks next, and then serves the other members.  A member
    # that is not its class key is kept under its own offsets too; the
    # bound counts the residues of every key, and the oldest go first
    monkeypatch.setattr(solver, "MAX_CACHED_RESIDUES", 6)
    insts = [reduce_mod(DifferenceSet((1,)), n) for n in range(10, 20)]
    gammas = [shared(inst) for inst in insts]
    assert gammas == [(n + 1) // 2 for n in range(10, 20)]
    assert list(solver._gamma_cache) == [(17, (0, 1)), (18, (0, 1)), (19, (0, 1))]
    assert solver._cached_residues == 6
    solved = recorded_certify(monkeypatch)
    mirror = reduce_mod(DifferenceSet((-1,)), 10)  # {0, -1}, in the class of {0, 1}
    assert shared(mirror) == 5
    assert solved == [10]
    # the class key went in first, then the mirror's own offsets
    assert list(solver._gamma_cache.items()) == [
        ((19, (0, 1)), 10),
        ((10, (0, 1)), 5),
        ((10, (0, 9)), 5),
    ]
    assert solver._cached_residues == sum(len(key) for _, key in solver._gamma_cache) == 6
    monkeypatch.setattr(solver, "_certify", refuse)
    assert shared(insts[0]) == shared(mirror) == 5
    # hits move nothing
    assert list(solver._gamma_cache) == [(19, (0, 1)), (10, (0, 1)), (10, (0, 9))]
    # a class key hit keeps the offsets, which can push out the class key
    assert shared(reduce_mod(DifferenceSet((-1,)), 19)) == 10
    assert list(solver._gamma_cache) == [(10, (0, 1)), (10, (0, 9)), (19, (0, 18))]
    assert solver._cached_residues == sum(len(key) for _, key in solver._gamma_cache) == 6


def test_gamma_shared_probes_the_offsets_before_the_class_key(monkeypatch, empty_caches):
    keyed = []
    class_key = solver._class_key

    def counted(n, offsets):
        keyed.append((n, offsets))
        return class_key(n, offsets)

    monkeypatch.setattr(solver, "_class_key", counted)
    # {0, 9} is not its class key {0, 1}: the first call keys, the next does not
    assert gamma_shared(10, (0, 9)) == 5
    assert keyed == [(10, (0, 9))]
    assert gamma_shared(10, (0, 9)) == 5
    # the class key itself is held, so its offsets key nothing either
    assert gamma_shared(10, (0, 1)) == 5
    assert keyed == [(10, (0, 9))]
    assert solver._gamma_cache == {(10, (0, 1)): 5, (10, (0, 9)): 5}
    # a class key met first keys once, and is stored once
    assert gamma_shared(14, (0, 1, 3)) == 6
    assert keyed[1:] == [(14, (0, 1, 3))]
    assert (14, (0, 1, 3)) in solver._gamma_cache
    # its mirror {0, -1, -3} keys once, needs no solve, and keeps its own offsets
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_certify", refuse)
        assert gamma_shared(14, (0, 11, 13)) == 6
        assert keyed[2:] == [(14, (0, 11, 13))]
        assert solver._gamma_cache[(14, (0, 11, 13))] == 6
        assert gamma_shared(14, (0, 11, 13)) == 6
        assert len(keyed) == 3
    assert solver._cached_residues == 2 + 2 + 3 + 3
    # every key (n, T) holds gamma of Z_n with offsets T
    rng = random.Random(10946)
    for _ in range(300):
        inst = random_instance(rng, max_n=32)
        shared(inst)
        shared(affine_image(inst, rng.choice((1, -1)), rng.choice(sorted(inst.connection | {0}))))
    assert any(class_key(n, offsets) != offsets for n, offsets in solver._gamma_cache)
    for (n, offsets), gamma in solver._gamma_cache.items():
        assert gamma == gamma_exact(CirculantInstance(n, frozenset(offsets))).gamma


def test_class_key_is_least_mirror_image():
    # up to 13 offsets: random ones, and unions of cosets of a subgroup, whose gap
    # sequences repeat, so that several rotations start at the least gap
    rng = random.Random(4181)
    cases = {"13 offsets": 0, "tied least gaps": 0}
    for i in range(900):
        n = rng.randint(1, 64)
        if i % 3:
            offsets = {0, *rng.sample(range(1, n), rng.randint(0, min(n - 1, 12)))}
        else:  # n // q offsets in each coset, 0's coset and at most 13 // (n // q) in all
            q = rng.choice([q for q in range(1, n + 1) if n % q == 0 and n // q <= 13])
            cosets = [0, *rng.sample(range(1, q), rng.randint(0, min(q, 13 // (n // q)) - 1))]
            offsets = {c + j * q for c in cosets for j in range(n // q)}
        offsets = tuple(sorted(offsets))
        least = min(
            tuple(sorted((u * t + a) % n for t in offsets)) for u in (1, -1) for a in range(n)
        )
        assert solver._class_key(n, offsets) == least
        gaps = [b - a for a, b in zip(offsets, offsets[1:] + (n,))]
        cases["13 offsets"] += len(offsets) == 13
        cases["tied least gaps"] += gaps.count(min(gaps)) > 1
    assert min(cases.values()) >= 20


def affine_image(inst, u, y):
    """inst with each offset t replaced by u * (t - y) mod n."""
    n = inst.modulus
    return CirculantInstance(n, frozenset(u * (t - y) % n for t in inst.connection | {0}))


def test_gamma_shared_across_affine_images(monkeypatch, empty_caches):
    # an image under x -> +-x + a is in the same class and is served without
    # a solve; under any other unit it may be solved, with the same gamma
    rng = random.Random(6765)
    for _ in range(200):
        inst = random_instance(rng, max_n=32)
        n = inst.modulus
        gamma = shared(inst)  # some are served by an earlier instance
        assert gamma == gamma_exact(inst).gamma
        if n <= 12:
            assert gamma == gamma_bruteforce(inst)
        y = rng.choice(sorted(inst.connection | {0}))
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_certify", refuse)
            assert shared(affine_image(inst, rng.choice((1, -1)), y)) == gamma
        unit = rng.choice([u for u in range(n) if math.gcd(u, n) == 1])
        image = affine_image(inst, unit, y)
        assert shared(image) == gamma_exact(image).gamma == gamma


def test_gamma_exact_computes_no_class_key(monkeypatch, empty_caches):
    monkeypatch.setattr(solver, "_class_key", refuse)
    for n, steps, gamma in [(14, (1, 2, 8), 4), (30, (1, 2, -14), 8), (25, (3,), 13)]:
        inst = reduce_mod(DifferenceSet(steps), n)
        cert = gamma_exact(inst)
        assert cert.gamma == gamma
        assert verify_witness(inst, cert.witness)
        assert gamma_exact(inst) == cert
    assert solver._gamma_cache == {}


def test_kernel_dispatch():
    assert kernel_name() in ("compiled", "pure")


WORD_BOUNDARY_CASES = [
    (n, solver._offsets(steps, n))
    for n in (63, 64, 65, 127, 128, 129, 191, 192, 193)
    for steps in ([1, 2, 3, -6], [1, 2, 7], [1, 5])
]


def floors(n, gamma):
    """The floors both kernels are compared at: none, below, at and above
    gamma, and n; the (size, witness, explored) contract holds for all."""
    return sorted({0, max(gamma - 1, 0), gamma, gamma + 1, n})


def test_kernels_agree_bit_for_bit(core_c):
    if core_c is None:
        pytest.skip("no C compiler")
    rng = random.Random(13579)
    for _ in range(250):
        n = rng.randint(1, 34)
        conn = frozenset(rng.sample(range(1, max(2, n)), rng.randint(0, min(4, n - 1)))) if n > 1 else frozenset()
        offsets = sorted(conn | {0})
        pure = core_py.solve_cover(n, offsets)
        assert pure == core_c.solve_cover(n, offsets)
        for lb in floors(n, pure[0]):
            assert core_py.solve_cover(n, offsets, lb) == core_c.solve_cover(n, offsets, lb)
    # searches past the root on masks of one to four 64-bit words
    for n, offsets in WORD_BOUNDARY_CASES:
        pure = core_py.solve_cover(n, offsets)
        assert pure[2] > 1
        assert pure == core_c.solve_cover(n, offsets)
        for lb in floors(n, pure[0]):
            assert core_py.solve_cover(n, offsets, lb) == core_c.solve_cover(n, offsets, lb)
    # large moduli, where the greedy bound is nearly all the work
    for n, offsets in [(1600, list(range(8))), (8192, [0, 1]), (8192, [0, 1, 2, 3]), (8192, [0, 4096])]:
        assert core_py.solve_cover(n, offsets) == core_c.solve_cover(n, offsets)
    # the pure greedy jumps whole periods of picks: a root-only solve that
    # ends in phase 2, and a 6,670-node search that its size bounds
    for n, offsets in [(8191, [0, 1, 2]), (4002, [0, 1, 5])]:
        pure = core_py.solve_cover(n, offsets)
        assert pure == core_c.solve_cover(n, offsets)
    assert pure[2] == 6670
    # a deep search: 250 chosen vertices
    assert core_py.solve_cover(1250, [0, 1, 2, 3, 1244]) == core_c.solve_cover(1250, [0, 1, 2, 3, 1244])
    # trees that the pure kernel's memo replays and the compiled one walks:
    # {1, 4} at period 60 with its floor, and family_set(4, 7) mod 1200,
    # whose perfect code the greedy bound misses
    efficient = sorted(reduce_mod(family_set(4, 7), 1200).connection | {0})
    for n, offsets, lb, explored in [(60, [0, 1, 4], 24, 620877), (1200, efficient, 0, 138411)]:
        pure = core_py.solve_cover(n, offsets, lb)
        assert pure[2] == explored
        assert pure == core_c.solve_cover(n, offsets, lb)
    # the period scan's traffic: each family member's quotients, with the
    # floor ceil(p * rho) that search_ratio passes
    scanned = set()
    for d in (3, 4, 5):
        for s in range(-14, 15):
            if 0 <= s <= d - 2:
                continue
            rho = domination_ratio(d, s).value
            for p in range(1, 33):
                inst = reduce_mod(family_set(d, s), p)
                scanned.add((p, tuple(sorted(inst.connection | {0})), math.ceil(p * rho)))
    assert len(scanned) == 1477
    for n, offsets, lb in sorted(scanned):
        assert core_py.solve_cover(n, offsets, lb) == core_c.solve_cover(n, offsets, lb)


# run by a child interpreter with the sanitizer runtime preloaded:
# argv is the sanitized module, src/ and the fixed cases as JSON
SANITIZED_AGREEMENT = """
import importlib.util, json, random, sys
sys.path.insert(0, sys.argv[2])
import domkit._core_py as core_py
from domkit.solver import _offsets
spec = importlib.util.spec_from_file_location("domkit._core", sys.argv[1])
core_c = importlib.util.module_from_spec(spec)
spec.loader.exec_module(core_c)
rng = random.Random(24680)
cases = json.loads(sys.argv[3])
for _ in range(300):
    n = rng.randint(1, 40)
    cases.append((n, _offsets([rng.randint(-100, 100) for _ in range(rng.randint(1, 5))], n)))
for n, offsets in cases:
    pure = core_py.solve_cover(n, offsets)
    assert core_c.solve_cover(n, offsets) == pure, (n, offsets)
    # floors at and below gamma stop the search early
    for lb in {pure[0] - 1, pure[0]} - {0}:
        assert core_c.solve_cover(n, offsets, lb) == core_py.solve_cover(n, offsets, lb), (n, offsets, lb)
"""


def test_core_c_clean_under_sanitizers(tmp_path):
    # AddressSanitizer and UBSan, every report fatal; the interpreter is not
    # instrumented, so the runtime is preloaded and leak checks, which
    # would report CPython's own allocations, are off
    if shutil.which(LDSHARED[0]) is None:
        pytest.skip("no C compiler")
    runtime = subprocess.run(
        [LDSHARED[0], "-print-file-name=libasan.so"], capture_output=True, text=True
    ).stdout.strip()
    if not (os.path.isabs(runtime) and os.path.isfile(runtime)):
        pytest.skip("no AddressSanitizer runtime")
    target = compile_core(
        tmp_path, "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
        "-fno-omit-frame-pointer", "-g", "-O1",
    )
    cases = WORD_BOUNDARY_CASES + [(1250, [0, 1, 2, 3, 1244]), (8192, [0, 1])]
    proc = subprocess.run(
        [sys.executable, "-c", SANITIZED_AGREEMENT, str(target), str(SRC), json.dumps(cases)],
        env=dict(os.environ, LD_PRELOAD=runtime, ASAN_OPTIONS="detect_leaks=0"),
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "runtime error" not in proc.stderr


def test_kernel_rejects_bad_input(core_c):
    for kernel in (core_py, core_c):
        if kernel is None:
            continue
        with pytest.raises(ValueError, match="modulus must be positive"):
            kernel.solve_cover(0, [0])
        with pytest.raises(ValueError, match="offsets must be nonempty"):
            kernel.solve_cover(5, [])
        with pytest.raises(ValueError, match="lb must be nonnegative"):
            kernel.solve_cover(5, [0, 1], -1)
        for lb in (1.0, "2", None):
            with pytest.raises(TypeError):
                kernel.solve_cover(5, [0, 1], lb)
        # offsets only as _offsets gives them: strictly ascending in [0, n)
        for offsets in ([1, 0], [0, 0], [-1, 2], [0, 5]):
            with pytest.raises(ValueError, match=r"offsets must ascend within \[0, n\)"):
                kernel.solve_cover(5, offsets)
        # the compiled kernel reads each offset as a Py_ssize_t first
        with pytest.raises(ValueError if kernel is core_py else (ValueError, OverflowError)):
            kernel.solve_cover(5, [0, 2**70])
