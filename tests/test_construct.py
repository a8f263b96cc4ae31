import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domkit.construct import (
    MAX_PERIOD,
    candidate_structures,
    check_block_lemma,
    construct_best,
    verify_dominating,
    verify_efficient,
)
from domkit.formula import RatioCase, decompose, family_set
from domkit.model import DifferenceSet, PeriodicSet, block_to_periodic, density


@pytest.mark.parametrize(
    "d, s, expected",
    [
        (3, 4, [(3, 2), (5, 1, 1), (2,)]),
        (4, 8, [(4, 4, 1), (4, 5, 4, 1), (3,)]),
        (5, 13, [(5, 5, 4), (5, 9, 5, 1, 1, 1, 1), (4,)]),
    ],
)
def test_candidate_structures_examples(d, s, expected):
    structures = candidate_structures(decompose(d, s))
    assert [b.sizes for b in structures] == expected


def test_candidate_densities_match_formula_terms():
    for d in range(2, 9):
        for k in range(1, 8):
            for e in range(1, d):
                dec = decompose(d, d * k + e - 1)
                first, second, third = candidate_structures(dec)
                assert density(block_to_periodic(first)) == Fraction(k + 1, d * k + e)
                assert density(block_to_periodic(second)) == Fraction(
                    2 * k + e - 1, 2 * d * k - d + 2 * e
                )
                assert density(block_to_periodic(third)) == Fraction(1, d - 1)


@pytest.mark.parametrize(
    "period, residues, steps, expected",
    [
        (3, {0}, (1, 2), True),
        (5, {0, 3}, (1, 4), True),
        (5, {0, 1}, (1, 4), False),
        (14, {0, 4, 9, 13}, (1, 2, 8), True),
        (7, {0, 4}, (1, 2, -4), True),
        (4, {1}, (-5,), False),
        (1, set(), (1,), False),
        (1, {0}, (-7, 3), True),
        (6, {0, 3}, (1, 7), False),  # 1 and 7 collide mod 6
        (6, {0, 3}, (-5, 14), True),  # -5 = 1, 14 = 2 mod 6
        (6, {0, 2}, (1, 2), False),  # |A| * |B| == 6, but 5 is missed
    ],
)
def test_verify_dominating(period, residues, steps, expected):
    pset = PeriodicSet(period, frozenset(residues))
    assert verify_dominating(pset, DifferenceSet(steps)) is expected


@pytest.mark.parametrize(
    "period, residues, steps, expected",
    [
        (3, {0}, (1, 2), True),
        (4, {0}, (1, 2, 7), True),
        (5, {0, 3}, (1, 4), False),
        (2, {0}, (3,), True),
        (4, {0}, (1, 2, 3), True),
        (4, {0}, (1, 5), False),  # 1 and 5 collide mod 4, double cover
        (1, set(), (1,), False),
        (1, {0}, (1,), False),  # 0 and 1 both land on the one residue
        (6, {0, 3}, (-5, 14), True),
        (6, {0, 2}, (1, 2), False),  # the count is right, the cover is not
    ],
)
def test_verify_efficient(period, residues, steps, expected):
    pset = PeriodicSet(period, frozenset(residues))
    assert verify_efficient(pset, DifferenceSet(steps)) is expected


@given(
    st.integers(1, 16),
    st.sets(st.integers(0, 15), max_size=6),
    st.sets(st.integers(-12, 12).filter(bool), min_size=1, max_size=4),
)
@settings(derandomize=True, max_examples=300)
def test_efficient_implies_dominating(period, residues, steps):
    residues = {r for r in residues if r < period}
    pset = PeriodicSet(period, frozenset(residues))
    sset = DifferenceSet(tuple(steps))
    if verify_efficient(pset, sset):
        assert verify_dominating(pset, sset)
        assert density(pset) == Fraction(1, len(sset) + 1)


@pytest.mark.parametrize(
    "d, s, period, residues",
    [
        (3, 4, 5, {0, 3}),
        (4, 7, 4, {0}),
        (4, 8, 14, {0, 4, 9, 13}),
        (2, 3, 2, {0}),
        (4, 4, 6, {0, 5}),
    ],
)
def test_construct_best_examples(d, s, period, residues):
    pset, result = construct_best(d, s)
    assert pset == PeriodicSet(period, frozenset(residues))
    assert density(pset) == result.value


def test_construct_best_grid():
    for d in range(2, 13):
        for s in range(-200, 201):
            if 0 <= s <= d - 2:
                continue
            pset, result = construct_best(d, s)
            steps = family_set(d, s)
            assert verify_dominating(pset, steps)
            assert density(pset) == result.value
            assert check_block_lemma(pset, d, s)
            if result.case is RatioCase.EDS_MOD:
                continue
            # the case's template is the first one whose density is the ratio
            first = next(
                blocks
                for blocks in candidate_structures(result.decomposition)
                if Fraction(len(blocks.sizes), sum(blocks.sizes)) == result.value
            )
            assert pset == block_to_periodic(first)


def test_construct_best_errors():
    with pytest.raises(ValueError, match="degenerate"):
        construct_best(5, 2)


@pytest.mark.parametrize("s", [600001, 1048573])
def test_construct_best_checks_the_emitted_template_period(s):
    # (3^k, 2) has period s + 1; the longer (3^(k-1), 5, 3^(k-1), 1, 1) would not fit
    pset, result = construct_best(3, s)
    assert result.case is RatioCase.CASE_E_GE_2
    assert pset.period == s + 1 <= MAX_PERIOD
    assert density(pset) == result.value


def test_modular_constructions_are_efficient():
    for d in range(2, 9):
        for s in (d - 1, 2 * d - 1, -d - 1, -1):
            if 0 <= s <= d - 2:
                continue
            pset, result = construct_best(d, s)
            assert result.case is RatioCase.EDS_MOD
            assert verify_efficient(pset, family_set(d, s))


def test_nonmodular_constructions_are_not_efficient():
    for d, s in [(3, 4), (4, 8), (5, -7), (6, 16)]:
        pset, _ = construct_best(d, s)
        assert not verify_efficient(pset, family_set(d, s))


def test_check_block_lemma_examples():
    pset, _ = construct_best(3, 4)
    assert check_block_lemma(pset, 3, 4) is True
    pset, _ = construct_best(4, -4)
    assert check_block_lemma(pset, 4, -4) is True
    assert check_block_lemma(PeriodicSet(1, frozenset({0})), 5, 6) is True
    with pytest.raises(ValueError, match="not a dominating set"):
        check_block_lemma(PeriodicSet(9, frozenset({0})), 3, 4)


def test_block_lemma_on_random_dominating_sets():
    # rejection-sample dominating sets of random family instances
    rng = random.Random(424242)
    accepted = 0
    while accepted < 1000:
        d = rng.randint(2, 6)
        s = rng.choice([v for v in range(-12, 13) if not 0 <= v <= d - 2])
        period = rng.randint(1, 24)
        residues = frozenset(r for r in range(period) if rng.random() < 0.55)
        if not residues:
            continue
        pset = PeriodicSet(period, residues)
        if not verify_dominating(pset, family_set(d, s)):
            continue
        assert check_block_lemma(pset, d, s)
        accepted += 1
