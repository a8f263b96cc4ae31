"""Acceptance gate: one test per criterion, exact assertions throughout.

Run `pytest -v tests/test_acceptance.py` for a one-line verdict per
criterion.  Each test prints its own wall time; the stated budgets are
targets for a laptop, enforced by keeping the work small, not by timing
asserts.
"""

import random
import time
from fractions import Fraction

from domkit.construct import (
    check_block_lemma,
    construct_best,
    verify_dominating,
    verify_efficient,
)
from domkit.formula import decompose, domination_ratio, family_set
from domkit.model import DifferenceSet, PeriodicSet, density
from domkit.search import consistency_check, search_ratio
from domkit.solver import (
    gamma_bruteforce,
    gamma_exact,
    perfect_code_exists,
    reduce_mod,
)


def family_grid(d_values, s_bound):
    for d in d_values:
        for s in range(-s_bound, s_bound + 1):
            if 0 <= s <= d - 2:
                continue
            yield d, s


def timed(name, t0):
    print(f"{name}: {time.perf_counter() - t0:.2f}s")


def test_criterion_1_closed_form_d3_families():
    t0 = time.perf_counter()
    for k in range(1, 21):
        assert domination_ratio(3, 3 * k + 2).value == Fraction(1, 3)
        assert domination_ratio(3, 3 * k + 1).value == Fraction(k + 1, 3 * k + 2)
        assert domination_ratio(3, -3 * k).value == Fraction(k + 1, 3 * k + 2)
        assert domination_ratio(3, 3 * k).value == Fraction(2 * k, 6 * k - 1)
        assert domination_ratio(3, -3 * k + 1).value == Fraction(2 * k, 6 * k - 1)
    timed("criterion 1 (d=3 closed forms, k=1..20)", t0)


def test_criterion_2_closed_form_d4_d5_tables():
    t0 = time.perf_counter()
    assert domination_ratio(4, 4).value == Fraction(1, 3)
    assert domination_ratio(4, 5).value == Fraction(1, 3)
    assert domination_ratio(4, 6).value == Fraction(2, 7)
    for k in range(1, 21):
        assert domination_ratio(4, 4 * k).value == Fraction(2 * k, 8 * k - 2)
        assert domination_ratio(4, -4 * k + 2).value == Fraction(2 * k, 8 * k - 2)
        assert domination_ratio(4, 4 * k + 1).value == Fraction(k + 1, 4 * k + 2)
        assert domination_ratio(4, -4 * k + 1).value == Fraction(k + 1, 4 * k + 2)
        assert domination_ratio(4, 4 * k + 2).value == Fraction(k + 1, 4 * k + 3)
        assert domination_ratio(4, -4 * k).value == Fraction(k + 1, 4 * k + 3)
    for s in (-3, -2, 5, 6):
        assert domination_ratio(5, s).value == Fraction(1, 4)
    for k in range(2, 21):
        assert domination_ratio(5, 5 * k).value == Fraction(2 * k, 10 * k - 3)
        assert domination_ratio(5, -5 * k + 3).value == Fraction(2 * k, 10 * k - 3)
        assert domination_ratio(5, 5 * k + 1).value == Fraction(k + 1, 5 * k + 2)
        assert domination_ratio(5, -5 * k + 2).value == Fraction(k + 1, 5 * k + 2)
    for k in range(1, 21):
        assert domination_ratio(5, 5 * k + 2).value == Fraction(k + 1, 5 * k + 3)
        assert domination_ratio(5, -5 * k + 1).value == Fraction(k + 1, 5 * k + 3)
        assert domination_ratio(5, 5 * k + 3).value == Fraction(k + 1, 5 * k + 4)
        assert domination_ratio(5, -5 * k).value == Fraction(k + 1, 5 * k + 4)
    timed("criterion 2 (d=4 and d=5 closed forms)", t0)


def test_criterion_3_construction_soundness_grid():
    t0 = time.perf_counter()
    checked = 0
    for d, s in family_grid(range(2, 9), 40):
        pset, result = construct_best(d, s)
        steps = family_set(d, s)
        assert verify_dominating(pset, steps), (d, s)
        assert density(pset) == result.value, (d, s)
        assert result.value == domination_ratio(d, s).value, (d, s)
        assert check_block_lemma(pset, d, s), (d, s)
        checked += 1
    assert checked == 539
    timed(f"criterion 3 (construction soundness, {checked} pairs)", t0)


def test_criterion_4_solver_matches_oracle():
    t0 = time.perf_counter()
    rng = random.Random(20260822)
    for _ in range(200):
        n = rng.randint(1, 18)
        count = rng.randint(1, 4)
        steps = DifferenceSet(
            tuple(rng.sample([x for x in range(-40, 41) if x != 0], count))
        )
        inst = reduce_mod(steps, n)
        assert gamma_exact(inst).gamma == gamma_bruteforce(inst), (n, steps)
    family_cases = 0
    for d, s in family_grid((3, 4, 5), 12):
        steps = family_set(d, s)
        for p in range(1, 19):
            inst = reduce_mod(steps, p)
            assert gamma_exact(inst).gamma == gamma_bruteforce(inst), (d, s, p)
            family_cases += 1
    timed(f"criterion 4 (oracle agreement, 200 random + {family_cases} family)", t0)


def test_criterion_5_published_circulant_values():
    t0 = time.perf_counter()
    for k in range(1, 9):
        inst = reduce_mod(DifferenceSet((1, 2)), 3 * k + 2)
        assert gamma_exact(inst).gamma == k + 1, k
    for k in range(1, 6):
        inst = reduce_mod(DifferenceSet((1, 3 * k)), 6 * k - 1)
        assert gamma_exact(inst).gamma == 2 * k, k
    assert gamma_exact(reduce_mod(DifferenceSet((1, 2, 3)), 10)).gamma == 3
    assert gamma_exact(reduce_mod(DifferenceSet((1, 2, 8)), 14)).gamma == 4
    timed("criterion 5 (published circulant domination numbers)", t0)


def test_criterion_6_search_consistency_grid():
    t0 = time.perf_counter()
    checked = 0
    for d, s in family_grid((3, 4, 5), 12):
        report = consistency_check(d, s, 40)
        assert report.consistent, (d, s, report.violations)
        assert report.attained_at_construction, (d, s)
        assert report.search.best_ratio == report.formula.value, (d, s)
        checked += 1
    timed(f"criterion 6 (scan consistency at cap 40, {checked} pairs)", t0)


def test_criterion_7_efficient_domination_characterization():
    t0 = time.perf_counter()
    for d, s in family_grid(range(2, 9), 40):
        steps = family_set(d, s)
        pset, result = construct_best(d, s)
        found = perfect_code_exists(reduce_mod(steps, pset.period)) is not None
        if not found:
            found = any(
                perfect_code_exists(reduce_mod(steps, p)) is not None
                for p in range(1, 2 * d + 1)
            )
        should = d == 2 or (s + 1) % d == 0
        assert found == should, (d, s)
        assert (result.value == Fraction(1, d)) == should, (d, s)
    timed("criterion 7 (efficient domination characterization)", t0)


def test_criterion_8_property_batteries():
    t0 = time.perf_counter()

    # sign symmetry: s = dk+e-1 and s = -dk+d-e-1 share value and case
    for d in range(2, 11):
        for k in range(1, 16):
            for e in range(1, d):
                pos = domination_ratio(d, d * k + e - 1)
                neg = domination_ratio(d, -d * k + d - e - 1)
                assert pos.value == neg.value, (d, k, e)
                assert pos.case == neg.case, (d, k, e)

    # range bound
    for d, s in family_grid(range(2, 11), 60):
        value = domination_ratio(d, s).value
        assert Fraction(1, d) <= value <= Fraction(1, d - 1), (d, s)

    # decompose roundtrip on every non-modular grid point
    for d, s in family_grid(range(2, 11), 60):
        if (s + 1) % d == 0:
            continue
        dec = decompose(d, s)
        if dec.sign == "positive":
            assert d * dec.k + dec.e - 1 == s, (d, s)
        else:
            assert -d * dec.k + d - dec.e - 1 == s, (d, s)

    # subset monotonicity of the scan
    rng = random.Random(482911)
    for _ in range(15):
        pool = [x for x in range(-8, 9) if x != 0]
        small = rng.sample(pool, rng.randint(1, 2))
        extra = rng.sample([x for x in pool if x not in small], 2)
        cap = rng.randint(4, 8)
        r_small = search_ratio(DifferenceSet(tuple(small)), cap).best_ratio
        r_big = search_ratio(DifferenceSet(tuple(small + extra)), cap).best_ratio
        assert r_big <= r_small

    # negation invariance of the scan
    rng = random.Random(771155)
    for _ in range(10):
        pool = [x for x in range(-7, 8) if x != 0]
        steps = tuple(rng.sample(pool, rng.randint(1, 3)))
        cap = rng.randint(3, 8)
        pos = search_ratio(DifferenceSet(steps), cap).best_ratio
        neg = search_ratio(DifferenceSet(tuple(-x for x in steps)), cap).best_ratio
        assert pos == neg

    # an efficient periodic dominating set has density exactly 1/(|S|+1)
    efficient_cases = [
        (PeriodicSet(4, frozenset({0})), DifferenceSet((1, 2, 3))),
        (PeriodicSet(8, frozenset({0, 2, 5, 7})), DifferenceSet((4,))),
        (PeriodicSet(2, frozenset({0})), DifferenceSet((3,))),
    ]
    for d in range(2, 9):
        for j in (d - 1, 2 * d - 1, 3 * d - 1, -1, -d - 1):
            if 0 <= j <= d - 2:
                continue
            pset, _ = construct_best(d, j)
            efficient_cases.append((pset, family_set(d, j)))
    for pset, steps in efficient_cases:
        assert verify_efficient(pset, steps), (pset, steps)
        assert density(pset) == Fraction(1, len(steps) + 1), (pset, steps)

    timed("criterion 8 (property batteries)", t0)
