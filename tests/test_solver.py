import gc
import importlib.util
import json
import math
import os
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
from pathlib import Path

import pytest

import domkit._core_py as core_py
from domkit import solver
from domkit.model import CirculantInstance, DifferenceSet
from domkit.solver import (
    MAX_MODULUS,
    gamma_bruteforce,
    gamma_exact,
    kernel_name,
    perfect_code_exists,
    reduce_mod,
    verify_witness,
)

SRC = Path(__file__).resolve().parent.parent / "src"
CORE_C_SOURCE = SRC / "domkit" / "_core.c"
# the interpreter's own compile-and-link command for extensions
LDSHARED = shlex.split(sysconfig.get_config_var("LDSHARED") or "cc -shared")


def compile_core(directory, *flags):
    """Path of domkit._core compiled from source with flags into directory,
    a temp dir, never src/."""
    target = directory / ("_core" + sysconfig.get_config_var("EXT_SUFFIX"))
    include = sysconfig.get_paths()["include"]
    subprocess.run(
        [*LDSHARED, "-fPIC", *flags, "-I", include, str(CORE_C_SOURCE), "-o", str(target)],
        check=True,
    )
    return target


@pytest.fixture(scope="session")
def core_c(tmp_path_factory):
    """domkit._core freshly compiled from source, warnings as errors, or None
    without a C compiler."""
    if shutil.which(LDSHARED[0]) is None:
        return None
    target = compile_core(tmp_path_factory.mktemp("core_c"), "-O3", "-Wall", "-Wextra", "-Werror")
    spec = importlib.util.spec_from_file_location("domkit._core", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_instance(rng, max_n=18, max_steps=4):
    n = rng.randint(1, max_n)
    count = rng.randint(1, max_steps)
    steps = rng.sample([x for x in range(-30, 31) if x != 0], count)
    return reduce_mod(DifferenceSet(tuple(steps)), n)


def test_reduce_mod_examples():
    inst = reduce_mod(DifferenceSet((1, 4)), 5)
    assert inst.connection == frozenset({1, 4})
    inst = reduce_mod(DifferenceSet((1, 6)), 6)
    assert inst.connection == frozenset({0, 1})
    assert inst.counts() == {0: 2, 1: 1}
    inst = reduce_mod(DifferenceSet((1, 2, 8)), 14)
    assert inst.connection == frozenset({1, 2, 8})
    with pytest.raises(ValueError):
        reduce_mod(DifferenceSet((1,)), 0)


def test_reduce_mod_multiplicity_sums():
    rng = random.Random(31337)
    for _ in range(200):
        count = rng.randint(1, 5)
        steps = DifferenceSet(tuple(rng.sample([x for x in range(-20, 21) if x], count)))
        p = rng.randint(1, 12)
        inst = reduce_mod(steps, p)
        assert sum(inst.counts().values()) == len(steps) + 1
        assert set(inst.counts()) == inst.connection | {0}


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
    with pytest.raises(ValueError):
        verify_witness(inst, frozenset({5}))


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
    rng = random.Random(8675309)
    hits = 0
    for _ in range(300):
        inst = random_instance(rng, max_n=16)
        witness = perfect_code_exists(inst)
        if witness is None:
            continue
        hits += 1
        counts = {x: 0 for x in range(inst.modulus)}
        for w in witness:
            for t, c in inst.counts().items():
                counts[(w + t) % inst.modulus] += c
        assert all(c == 1 for c in counts.values())
        assert len(witness) * sum(inst.counts().values()) == inst.modulus
    assert hits > 0


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


def test_greedy_matches_rescanning_greedy():
    rng = random.Random(24680)
    for _ in range(2000):
        n = rng.randint(1, 40)
        # negative, unreduced and repeated offsets
        offsets = [rng.randint(-100, 100) for _ in range(rng.randint(1, 6))]
        offsets += rng.sample(offsets, rng.randint(0, len(offsets)))
        assert core_py.greedy(n, offsets) == rescanning_greedy(n, offsets)
    # the circulant workload's shapes: Z_n with steps 1..d-1
    for d in range(2, 9):
        n = rng.randint(400, 1600)
        offsets = list(range(d))
        assert core_py.greedy(n, offsets) == rescanning_greedy(n, offsets)


def recursive_solve_cover(n, offsets):
    """solve_cover as first written: one recursive call per search node."""
    m = len(offsets)
    distinct = sorted({t % n for t in offsets})
    full = (1 << n) - 1
    cover = [sum(1 << t for t in distinct)]
    dom = [sum(1 << (-t % n) for t in distinct)]
    for table in (cover, dom):
        row = table[0]
        for _ in range(n - 1):
            row = ((row << 1) & full) | (row >> (n - 1))
            table.append(row)

    best_size, best_mask = core_py.greedy(n, distinct)
    explored = 0

    def rec(covered, excluded, chosen, size):
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


def test_solve_cover_matches_recursive_solve_cover():
    rng = random.Random(97531)
    for _ in range(2000):
        n = rng.randint(1, 24)
        # negative, unreduced and repeated offsets
        offsets = [rng.randint(-100, 100) for _ in range(rng.randint(1, 6))]
        offsets += rng.sample(offsets, rng.randint(0, len(offsets)))
        assert core_py.solve_cover(n, offsets) == recursive_solve_cover(n, offsets)
    # the gamma benchmark's sizes, where nearly half the entered nodes are
    # one level above the leaves, which the pure kernel resolves in place
    for _ in range(150):
        n = rng.randint(25, 32)
        offsets = [0] + rng.sample(range(1, n), rng.randint(1, 4))
        assert core_py.solve_cover(n, offsets) == recursive_solve_cover(n, offsets)
    # a deep tree: 151,050 nodes
    assert core_py.solve_cover(30, [0, 1, 16]) == recursive_solve_cover(30, [0, 1, 16])


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
    n, offsets = 1250, [0, 1, 2, 3, -6]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 50)
    try:
        pure = core_py.solve_cover(n, offsets)
        compiled = core_c.solve_cover(n, offsets) if core_c is not None else pure
    finally:
        sys.setrecursionlimit(limit)
    size, mask, explored = pure
    assert (size, explored) == (250, 508)
    assert verify_witness(CirculantInstance(n, frozenset({1, 2, 3, n - 6})),
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


def test_gamma_cache_drops_oldest_past_bound(monkeypatch):
    monkeypatch.setattr(solver, "MAX_CACHED_RESIDUES", 20)
    monkeypatch.setattr(solver, "_gamma_cache", {})
    monkeypatch.setattr(solver, "_cached_residues", 0)
    insts = [reduce_mod(DifferenceSet((1,)), n) for n in range(10, 20)]
    certs = [gamma_exact(inst) for inst in insts]  # gammas 5..10, 75 residues
    held = sum(len(c.witness) for c in solver._gamma_cache.values())
    assert held == solver._cached_residues <= 20
    assert (10, (0, 1)) not in solver._gamma_cache
    assert (19, (0, 1)) in solver._gamma_cache
    assert gamma_exact(insts[0]) == certs[0]
    assert sum(len(c.witness) for c in solver._gamma_cache.values()) <= 20


def test_kernel_dispatch():
    assert kernel_name() in ("compiled", "pure")


WORD_BOUNDARY_CASES = [
    (n, offsets)
    for n in (63, 64, 65, 127, 128, 129, 191, 192, 193)
    for offsets in ([0, 1, 2, 3, -6], [0, 1, 2, 7], [0, 1, 5])
]


def test_kernels_agree_bit_for_bit(core_c):
    if core_c is None:
        pytest.skip("no C compiler")
    rng = random.Random(13579)
    for _ in range(250):
        n = rng.randint(1, 34)
        conn = frozenset(rng.sample(range(1, max(2, n)), rng.randint(0, min(4, n - 1)))) if n > 1 else frozenset()
        offsets = sorted(conn | {0})
        assert core_py.solve_cover(n, offsets) == core_c.solve_cover(n, offsets)
    # offsets outside [0, n), repeated or unsorted reduce as Python's % does
    for _ in range(100):
        n = rng.randint(1, 14)
        offsets = [rng.randint(-200, 200) for _ in range(rng.randint(1, 5))]
        assert core_py.solve_cover(n, offsets) == core_c.solve_cover(n, tuple(offsets))
    for n, offsets in [(5, [0, 2**70]), (7, [-(2**70), 3])]:
        assert core_py.solve_cover(n, offsets) == core_c.solve_cover(n, offsets)
    # searches past the root on masks of one to four 64-bit words
    for n, offsets in WORD_BOUNDARY_CASES:
        pure = core_py.solve_cover(n, offsets)
        assert pure[2] > 1
        assert pure == core_c.solve_cover(n, offsets)
    # large moduli, where the greedy bound is nearly all the work
    for n, offsets in [(1600, list(range(8))), (8192, [0, 1]), (8192, [0, 1, 2, 3])]:
        assert core_py.solve_cover(n, offsets) == core_c.solve_cover(n, offsets)
    # a deep search: 250 chosen vertices
    assert core_py.solve_cover(1250, [0, 1, 2, 3, -6]) == core_c.solve_cover(1250, [0, 1, 2, 3, -6])


# run by a child interpreter with the sanitizer runtime preloaded:
# argv is the sanitized module, src/ and the fixed cases as JSON
SANITIZED_AGREEMENT = """
import importlib.util, json, random, sys
sys.path.insert(0, sys.argv[2])
import domkit._core_py as core_py
spec = importlib.util.spec_from_file_location("domkit._core", sys.argv[1])
core_c = importlib.util.module_from_spec(spec)
spec.loader.exec_module(core_c)
rng = random.Random(24680)
cases = json.loads(sys.argv[3])
for _ in range(300):
    n = rng.randint(1, 40)
    cases.append((n, [rng.randint(-100, 100) for _ in range(rng.randint(1, 5))]))
for n, offsets in cases:
    assert core_c.solve_cover(n, offsets) == core_py.solve_cover(n, offsets), (n, offsets)
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
    cases = WORD_BOUNDARY_CASES + [(1250, [0, 1, 2, 3, -6]), (8192, [0, 1])]
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
