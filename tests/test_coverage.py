"""Coverage checks on residue masks against naive set and count references."""

import tracemalloc
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from domkit.construct import construct_best, verify_dominating, verify_efficient
from domkit.formula import family_set
from domkit.model import DifferenceSet, PeriodicSet, covers_cycle
from domkit.solver import reduce_mod, verify_witness


def naive_dominating(p, residues, steps):
    return {(r + t) % p for r in residues for t in (0, *steps)} == set(range(p))


def naive_efficient(p, residues, steps):
    counts = Counter((r + t) % p for r in residues for t in (0, *steps))
    return all(counts[x] == 1 for x in range(p))


def naive_witness(inst, witness):
    n = inst.modulus
    return {(w + t) % n for w in witness for t in inst.connection | {0}} == set(range(n))


@st.composite
def periodic_cases(draw):
    """Small periods (p = 1 included), any residue set (empty included) and
    steps of either sign, many beyond +-p, so that they often collide mod p."""
    p = draw(st.integers(1, 20))
    residues = draw(st.sets(st.integers(0, p - 1), max_size=p))
    steps = draw(st.sets(st.integers(-3 * p - 3, 3 * p + 3).filter(bool), min_size=1, max_size=5))
    return p, frozenset(residues), tuple(steps)


@st.composite
def boundary_cases(draw):
    """|residues| * (|steps| + 1) == p: q residues in Z_(mq) and m - 1 steps,
    on the classes 1..m-1 mod m lifted by multiples of m.  The lattice mZ
    with those steps is a perfect code; one class may be redrawn onto one
    already taken (steps then shrink if a redrawn step repeats or is 0)."""
    m = draw(st.integers(2, 6))
    q = draw(st.integers(1, 5))
    classes = list(range(1, m))
    if draw(st.booleans()):
        classes[draw(st.integers(0, m - 2))] = draw(st.integers(0, m - 1))
    steps = {c + m * draw(st.integers(-3 * q, 3 * q)) for c in classes} - {0}
    p = q * m
    if draw(st.booleans()):
        residues = range(0, p, m)
    else:
        residues = draw(st.sets(st.integers(0, p - 1), min_size=q, max_size=q))
    return p, frozenset(residues), tuple(steps) or (m,)


def check_against_naive(p, residues, steps):
    pset = PeriodicSet(p, residues)
    sset = DifferenceSet(steps)
    steps = sset.elements
    assert verify_dominating(pset, sset) is naive_dominating(p, residues, steps)
    assert verify_efficient(pset, sset) is naive_efficient(p, residues, steps)
    inst = reduce_mod(sset, p)
    assert verify_witness(inst, residues) is naive_witness(inst, residues)


@given(periodic_cases())
@settings(derandomize=True, max_examples=400)
def test_checks_match_naive_references(case):
    check_against_naive(*case)


@given(boundary_cases())
@settings(derandomize=True, max_examples=300)
def test_checks_match_naive_references_at_pigeonhole_boundary(case):
    check_against_naive(*case)


@given(st.integers(1, 40), st.data())
@settings(derandomize=True, max_examples=300)
def test_covers_cycle_is_symmetric_sumset(n, data):
    a = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
    b = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
    expected = {(x + y) % n for x in a for y in b} == set(range(n))
    assert covers_cycle(n, a, b) is expected
    assert covers_cycle(n, b, a) is expected


def test_sparse_huge_period_builds_no_mask():
    # a mask of 10**9 residues would take over 1 GB; |A| * |B| = 2 < p decides first
    pset = PeriodicSet(10**9, frozenset({0}))
    tracemalloc.start()
    try:
        assert verify_dominating(pset, DifferenceSet((1,))) is False
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_one_residue_against_a_full_period_of_steps():
    # 2**20 - 1 steps: the offsets become the mask, the one residue rotates it
    d = 2**20
    pset, result = construct_best(d, -1)
    assert pset == PeriodicSet(d, frozenset({0}))
    assert verify_dominating(pset, family_set(d, -1))
    assert verify_efficient(pset, family_set(d, -1))
