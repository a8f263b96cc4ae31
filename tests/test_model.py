from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domkit.model import (
    BlockStructure,
    CirculantInstance,
    Decomposition,
    DifferenceSet,
    PeriodicSet,
    block_to_periodic,
    blocks_of,
    density,
    format_ratio,
)


def test_format_parse_examples():
    assert format_ratio(Fraction(2, 5)) == "2/5"
    assert format_ratio(Fraction(4, 14)) == "2/7"


@given(st.integers(-10**9, 10**9), st.integers(1, 10**9))
@settings(derandomize=True)
def test_format_parse_roundtrip(num, den):
    q = Fraction(num, den)
    assert Fraction(format_ratio(q)) == q


def test_difference_set_canonicalizes():
    s = DifferenceSet((4, 1, 4, -2))
    assert s.elements == (-2, 1, 4)
    assert len(s) == 3
    assert 4 in s and 2 not in s


def test_difference_set_rejects_bad_input():
    with pytest.raises(ValueError):
        DifferenceSet(())
    with pytest.raises(ValueError):
        DifferenceSet((1, 0, 4))


def test_periodic_set_validation():
    p = PeriodicSet(5, frozenset({0, 3}))
    assert p.period == 5
    with pytest.raises(ValueError):
        PeriodicSet(0, frozenset())
    with pytest.raises(ValueError):
        PeriodicSet(5, frozenset({5}))
    with pytest.raises(ValueError):
        PeriodicSet(5, frozenset({-1}))


def test_periodic_set_json_roundtrip():
    p = PeriodicSet(14, frozenset({0, 4, 9, 13}))
    obj = p.to_json()
    assert obj == {"period": 14, "residues": [0, 4, 9, 13]}
    assert PeriodicSet(obj["period"], frozenset(obj["residues"])) == p


def test_block_structure_validation():
    with pytest.raises(ValueError):
        BlockStructure(())
    with pytest.raises(ValueError):
        BlockStructure((3, 0))
    assert BlockStructure([3, 2]).sizes == (3, 2)


def test_density_examples():
    assert density(PeriodicSet(10, frozenset({0, 4, 8}))) == Fraction(3, 10)
    assert density(PeriodicSet(3, frozenset({0}))) == Fraction(1, 3)
    assert density(PeriodicSet(4, frozenset())) == 0


def test_blocks_of_examples():
    assert blocks_of(PeriodicSet(5, frozenset({0, 3}))).sizes == (3, 2)
    assert blocks_of(PeriodicSet(6, frozenset({0, 2, 5}))).sizes == (2, 3, 1)
    with pytest.raises(ValueError, match="no blocks"):
        blocks_of(PeriodicSet(4, frozenset()))


def test_block_to_periodic_examples():
    assert block_to_periodic(BlockStructure((3, 2))) == PeriodicSet(5, frozenset({0, 3}))
    assert block_to_periodic(BlockStructure((4,))) == PeriodicSet(4, frozenset({0}))
    assert block_to_periodic(BlockStructure((1, 1, 1))) == PeriodicSet(
        3, frozenset({0, 1, 2})
    )


@given(st.lists(st.integers(1, 30), min_size=1, max_size=12))
@settings(derandomize=True)
def test_blocks_roundtrip(sizes):
    b = BlockStructure(tuple(sizes))
    assert blocks_of(block_to_periodic(b)) == b


@given(st.lists(st.integers(1, 30), min_size=1, max_size=12))
@settings(derandomize=True)
def test_block_density_identity(sizes):
    b = BlockStructure(tuple(sizes))
    assert density(block_to_periodic(b)) == Fraction(len(sizes), sum(sizes))


def test_circulant_instance_default_multiplicity():
    inst = CirculantInstance(6, frozenset({1, 2}))
    assert inst.counts() == {0: 1, 1: 1, 2: 1}
    # residue 0 in the connection is a second self-loop
    inst = CirculantInstance(6, frozenset({0, 1}))
    assert inst.counts() == {0: 2, 1: 1}


def test_circulant_instance_validation():
    with pytest.raises(ValueError):
        CirculantInstance(0, frozenset())
    with pytest.raises(ValueError):
        CirculantInstance(4, frozenset({4}))
    with pytest.raises(ValueError):
        CirculantInstance(4, frozenset({1}), ((1, 1),))  # missing the 0 key
    with pytest.raises(ValueError):
        CirculantInstance(4, frozenset({1}), ((0, 0), (1, 1)))


def test_decomposition_validation():
    Decomposition(3, 4, "positive", 1, 2)
    Decomposition(4, -4, "negative", 1, 3)
    with pytest.raises(ValueError):
        Decomposition(3, 4, "positive", 1, 1)  # rebuilds 3, not 4
    with pytest.raises(ValueError):
        Decomposition(3, 4, "sideways", 1, 2)
    with pytest.raises(ValueError):
        Decomposition(3, 2, "positive", 0, 3)
