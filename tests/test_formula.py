from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domkit.formula import (
    RatioCase,
    decompose,
    domination_ratio,
    eds_exists_family,
    family_set,
    general_bounds,
    normalize,
)
from domkit.model import DifferenceSet


def valid_pairs(d_range, s_range):
    for d in d_range:
        for s in s_range:
            if not 0 <= s <= d - 2:
                yield d, s


def test_family_set():
    assert family_set(4, 8).elements == (1, 2, 8)
    assert family_set(2, -5).elements == (-5,)
    assert family_set(5, -2).elements == (-2, 1, 2, 3)
    with pytest.raises(ValueError, match="degenerate"):
        family_set(4, 2)
    with pytest.raises(ValueError):
        family_set(1, 5)


@pytest.mark.parametrize(
    "d, s, sign, k, e",
    [
        (3, 4, "positive", 1, 2),
        (4, -4, "negative", 1, 3),
        (5, -2, "negative", 1, 1),
        (4, 8, "positive", 2, 1),
        (2, 6, "positive", 3, 1),
        (5, 13, "positive", 2, 4),
    ],
)
def test_decompose_examples(d, s, sign, k, e):
    dec = decompose(d, s)
    assert (dec.sign, dec.k, dec.e) == (sign, k, e)


def test_decompose_roundtrip_exhaustive():
    # every valid non-modular s in the stated window rebuilds exactly
    for d, s in valid_pairs(range(2, 13), range(-100, 101)):
        if (s + 1) % d == 0:
            continue
        dec = decompose(d, s)
        assert dec.d == d and dec.s == s
        assert 1 <= dec.e <= d - 1 and dec.k >= 1


def test_decompose_errors():
    with pytest.raises(ValueError, match="degenerate"):
        decompose(4, 1)
    with pytest.raises(ValueError, match="modular"):
        decompose(4, 7)
    with pytest.raises(ValueError, match="modular"):
        decompose(4, -1)
    with pytest.raises(ValueError, match="modular"):
        decompose(3, -4)


@pytest.mark.parametrize(
    "d, s, value, case",
    [
        (3, 4, Fraction(2, 5), RatioCase.CASE_E_GE_2),
        (4, 4, Fraction(1, 3), RatioCase.CASE_E_EQ_1),
        (5, 6, Fraction(1, 4), RatioCase.CASE_D_MINUS_1),
        (4, 7, Fraction(1, 4), RatioCase.EDS_MOD),
        (2, 6, Fraction(1, 2), RatioCase.CASE_E_EQ_1),
        (5, -2, Fraction(1, 4), RatioCase.CASE_D_MINUS_1),
        (4, -4, Fraction(2, 7), RatioCase.CASE_E_GE_2),
    ],
)
def test_ratio_examples(d, s, value, case):
    result = domination_ratio(d, s)
    assert result.value == value
    assert result.case is case


def test_ratio_errors():
    with pytest.raises(ValueError, match="degenerate"):
        domination_ratio(4, 0)
    with pytest.raises(ValueError):
        domination_ratio(1, 3)


def test_d3_closed_forms():
    for k in range(1, 21):
        assert domination_ratio(3, 3 * k + 2).value == Fraction(1, 3)
        assert domination_ratio(3, 3 * k + 1).value == Fraction(k + 1, 3 * k + 2)
        assert domination_ratio(3, -3 * k).value == Fraction(k + 1, 3 * k + 2)
        assert domination_ratio(3, 3 * k).value == Fraction(2 * k, 6 * k - 1)
        assert domination_ratio(3, -3 * k + 1).value == Fraction(2 * k, 6 * k - 1)


def test_sign_symmetry_grid():
    for d in range(2, 9):
        for k in range(1, 21):
            for e in range(1, d):
                pos = domination_ratio(d, d * k + e - 1)
                neg = domination_ratio(d, -d * k + d - e - 1)
                assert pos.value == neg.value
                assert pos.case is neg.case


def test_mirror_symmetry_grid():
    # x -> (d - 2) - x maps {0, 1, ..., d - 2, s} onto {0, 1, ..., d - 2, d - 2 - s}
    for d, s in valid_pairs(range(2, 13), range(-60, 61)):
        assert domination_ratio(d, s).value == domination_ratio(d, d - 2 - s).value


def test_range_bound_grid():
    for d, s in valid_pairs(range(2, 9), range(-60, 61)):
        value = domination_ratio(d, s).value
        assert Fraction(1, d) <= value <= Fraction(1, d - 1)


def test_modular_case_grid():
    for d in range(2, 9):
        for s in range(-60, 61):
            if 0 <= s <= d - 2 or (s + 1) % d != 0:
                continue
            result = domination_ratio(d, s)
            assert result.case is RatioCase.EDS_MOD
            assert result.value == Fraction(1, d)
            assert result.decomposition is None


def test_eds_exists_family():
    assert eds_exists_family(4, 7) is True
    assert eds_exists_family(4, 8) is False
    assert eds_exists_family(2, 6) is True
    assert eds_exists_family(5, -1) is True
    with pytest.raises(ValueError, match="degenerate"):
        eds_exists_family(4, 2)


def test_eds_iff_ratio_one_over_d():
    for d, s in valid_pairs(range(2, 9), range(-30, 31)):
        has_eds = eds_exists_family(d, s)
        assert has_eds == (domination_ratio(d, s).value == Fraction(1, d))


def test_general_bounds():
    assert general_bounds(DifferenceSet((1, 4))) == (Fraction(1, 3), Fraction(1, 2))
    assert general_bounds(DifferenceSet((7,))) == (Fraction(1, 2), Fraction(1, 2))
    assert general_bounds(DifferenceSet((1, 2, 8))) == (Fraction(1, 4), Fraction(1, 2))


def test_normalize_examples():
    assert normalize(DifferenceSet((-1, -4))).elements == (1, 4)
    assert normalize(DifferenceSet((3, 12))).elements == (1, 4)
    assert normalize(DifferenceSet((1, 4))).elements == (1, 4)
    assert normalize(DifferenceSet((-2, 3))).elements == (-3, 2)


@given(st.sets(st.integers(-50, 50).filter(bool), min_size=1, max_size=5))
@settings(derandomize=True)
def test_normalize_properties(elements):
    import math

    result = normalize(DifferenceSet(tuple(elements)))
    assert math.gcd(*result.elements) == 1
    assert min(abs(x) for x in result.elements) in result.elements
    assert normalize(result) == result
