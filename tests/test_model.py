import copy
import inspect
import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import domkit
from domkit.formula import RatioCase, RatioResult
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
from domkit.search import ConsistencyReport, SearchReport
from domkit.solver import GammaCertificate

# one instance's fields per record type, in declaration order and already
# in the canonical form each __init__ stores
_DEC = Decomposition(4, 8, "positive", 2, 1)
_RATIO = RatioResult(Fraction(2, 7), RatioCase.CASE_E_EQ_1, _DEC)
_PSET = PeriodicSet(14, frozenset({0, 4, 9, 13}))
_REPORT = SearchReport(Fraction(2, 7), 14, _PSET, ((1, 1, Fraction(1)),), 14, "note")
RECORDS = [
    (DifferenceSet, {"elements": (-2, 1, 4)}),
    (PeriodicSet, {"period": 14, "residues": frozenset({0, 4, 9, 13})}),
    (BlockStructure, {"sizes": (4, 5, 4, 1)}),
    (CirculantInstance, {"modulus": 6, "connection": frozenset({1, 2}), "closed_degree": 4}),
    (Decomposition, {"d": 4, "s": 8, "sign": "positive", "k": 2, "e": 1}),
    (RatioResult, {"value": Fraction(2, 7), "case": RatioCase.CASE_E_EQ_1, "decomposition": _DEC}),
    (GammaCertificate, {"gamma": 2, "witness": frozenset({0, 3}), "explored": 5}),
    (SearchReport, {"best_ratio": Fraction(2, 7), "best_period": 14, "best_witness": _PSET,
                    "per_period": ((1, 1, Fraction(1)),), "cap": 14,
                    "theoretical_cap_note": "note"}),
    (ConsistencyReport, {"d": 4, "s": 8, "formula": _RATIO, "search": _REPORT,
                         "constructed": _PSET, "attained_at_construction": True,
                         "consistent": True, "violations": ()}),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_contract(cls, fields):
    values = tuple(fields.values())
    record = cls(**fields)
    assert cls(*values) == record
    assert tuple(getattr(record, name) for name in fields) == values
    assert cls.__match_args__ == tuple(fields)
    assert tuple(inspect.signature(cls).parameters) == tuple(fields)
    name = next(iter(fields))
    for args, kwargs in (
        ((), {key: value for key, value in fields.items() if key != name}),  # missing
        ((*values, None), {}),  # extra positional
        (values, {"unknown": 1}),
        (values, {name: values[0]}),  # given twice
    ):
        with pytest.raises(TypeError, match=rf"^{cls.__name__}\.__init__\(\) "):
            cls(*args, **kwargs)
    assert hash(record) == hash(values)  # what a frozen dataclass hashes
    assert record != values and values != record
    # equal fields in a subclass are not enough; it keeps the parent's __init__
    sub = type("Sub", (cls,), {"__slots__": ()})
    assert sub.__init__ is cls.__init__
    twin = sub(*values)
    assert twin != record
    assert tuple(getattr(twin, key) for key in fields) == values
    assert repr(record) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in fields.items()
    ) + ")"
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is cls and twin == record
    with pytest.raises(TypeError):
        json.dumps(record)
    if cls is not DifferenceSet:  # the one record that iterates, over its steps
        with pytest.raises(TypeError):
            iter(record)
    with pytest.raises(AttributeError):
        setattr(record, name, values[0])
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert getattr(record, name) == values[0]


def test_record_subclass_keeps_validation():
    sub = type("Sub", (DifferenceSet,), {"__slots__": ()})
    assert sub((3, 1, 1)).elements == (1, 3)
    with pytest.raises(ValueError):
        sub(())


def _records(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _records(sub)


def test_records_name_their_fields_once():
    # the generated __init__ takes the fields from __match_args__, the
    # storage comes from __slots__: the two must be one tuple
    records = {cls for cls in _records(domkit.model._Record) if cls.__module__.startswith("domkit.")}
    assert {cls.__name__ for cls in records} == {cls.__name__ for cls, _ in RECORDS}
    for cls in records:
        assert "__slots__" in vars(cls) and "__match_args__" in vars(cls), cls
        assert cls.__match_args__ == cls.__slots__, cls


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
    with pytest.raises(ValueError, match=r"residue 5 outside \[0, 5\)"):
        PeriodicSet(5, frozenset({0, 5}))
    with pytest.raises(ValueError, match=r"residue -1 outside \[0, 5\)"):
        PeriodicSet(5, frozenset({-1, 2}))
    # the period is an int at construction, so no later check meets a float
    for bad in (4.5, 5.0, "5", Fraction(5), None):
        with pytest.raises(TypeError):
            PeriodicSet(bad, frozenset({0}))
    assert type(PeriodicSet(True, frozenset({0})).period) is int


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
    assert inst.closed_degree == 3
    assert inst == CirculantInstance(6, frozenset({1, 2}), 3)
    # residue 0 in the connection is a second self-loop: one more than the
    # two residues of connection | {0}
    inst = CirculantInstance(6, frozenset({0, 1}))
    assert inst.closed_degree == 3
    assert CirculantInstance(1, frozenset()).closed_degree == 1


def test_circulant_instance_validation():
    with pytest.raises(ValueError):
        CirculantInstance(0, frozenset())
    with pytest.raises(ValueError):
        CirculantInstance(4, frozenset({4}))
    # below |connection | {0}|: fewer terms than distinct residues
    with pytest.raises(ValueError, match="closed degree 2"):
        CirculantInstance(4, frozenset({1, 2}), 2)
    with pytest.raises(ValueError, match="closed degree 1"):
        CirculantInstance(4, frozenset({0, 1}), 1)
    with pytest.raises(ValueError):
        CirculantInstance(4, frozenset({1}), 0)
    for bad in (2.0, "2", Fraction(2)):
        with pytest.raises(TypeError):
            CirculantInstance(4, frozenset({1}), bad)
    # so is the modulus: 6.0 used to build, then fail inside the kernel
    for bad in (6.0, "6", Fraction(6), None):
        with pytest.raises(TypeError):
            CirculantInstance(bad, frozenset({1}))
    assert type(CirculantInstance(True, frozenset()).modulus) is int
    # the least value allowed, with and without 0 in the connection
    assert CirculantInstance(4, frozenset({0, 1}), 2).closed_degree == 2
    assert CirculantInstance(4, frozenset({1, 2}), 3).closed_degree == 3


def test_decomposition_validation():
    Decomposition(3, 4, "positive", 1, 2)
    Decomposition(4, -4, "negative", 1, 3)
    with pytest.raises(ValueError):
        Decomposition(3, 4, "positive", 1, 1)  # rebuilds 3, not 4
    with pytest.raises(ValueError):
        Decomposition(3, 4, "sideways", 1, 2)
    with pytest.raises(ValueError):
        Decomposition(3, 2, "positive", 0, 3)
