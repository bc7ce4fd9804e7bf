"""The record contract against an oracle that shares no code with the library.

Each of the 12 records has a twin here, declared with the standard library's
`@dataclass(frozen=True, slots=True)` exactly as the record was declared
before the package built its records itself: the same fields, annotations,
defaults and hand-written methods.  Every part of the contract the records
promise must read the same on a record and on its twin: `__slots__`,
`__match_args__`, the constructor signature, equality, hash, repr, pickling,
copying and frozenness.  Besides, pprint prints a record's repr, a record is
no dataclass (`dataclasses.is_dataclass` is false for it, and the other
`dataclasses` helpers and `copy.replace` refuse it with TypeError), and
building, comparing, hashing, printing, matching, pickling and copying
records loads neither `dataclasses` nor `inspect`.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import os
import pickle
import pprint
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import pytest

import pencilforge as pf


@dataclass(frozen=True, init=False, slots=True)
class NumericalClass:
    d: int
    m: tuple[int, ...]

    def __init__(self, d: int, m) -> None:
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "m", tuple(m))

    def __repr__(self) -> str:
        return f"({self.d}; {', '.join(str(x) for x in self.m)})"


@dataclass(frozen=True, slots=True)
class CremonaStep:
    indices: tuple[int, int, int]
    before: NumericalClass
    after: NumericalClass


@dataclass(frozen=True, slots=True)
class ReductionCertificate:
    chain: tuple[CremonaStep, ...]
    terminal: NumericalClass
    success: bool


@dataclass(frozen=True, slots=True)
class OrbitStructure:
    sizes: tuple[int, ...]
    rational_index: int = 0


@dataclass(frozen=True, slots=True)
class PencilSpec:
    model: str
    level: int
    mults: tuple[int, ...]
    extra_conditions: int = 0


@dataclass(frozen=True, slots=True)
class PencilReport:
    dim_lower_bound: int
    genus_upper_bound: int
    degree_to_base: int
    is_valid_pair_member: bool


@dataclass(frozen=True, slots=True)
class Unsupported:
    reason: str


@dataclass(frozen=True, init=False, slots=True)
class KodairaFibre:
    symbol: str
    index: int | None = field(init=False, compare=False, repr=False)
    starred: bool = field(init=False, compare=False, repr=False)
    euler: int = field(init=False, compare=False, repr=False)
    components: int = field(init=False, compare=False, repr=False)

    def __new__(cls, symbol: str) -> KodairaFibre:
        # the record returns its interned instance; the symbol is enough here
        new = object.__new__(cls)
        object.__setattr__(new, "symbol", symbol)
        return new

    def __init__(self, symbol: str) -> None:
        pass

    def __reduce__(self):
        return type(self), (self.symbol,)


@dataclass(frozen=True, slots=True)
class FibreConfiguration:
    places: tuple[tuple[str, KodairaFibre], ...]


@dataclass(frozen=True, slots=True)
class BranchLocus:
    places: frozenset[str]

    def __init__(self, first: str, second: str) -> None:
        object.__setattr__(self, "places", frozenset({first, second}))


@dataclass(frozen=True, slots=True)
class SectionIntersections:
    p_zero: int
    q_zero: int
    p_q: int
    components: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True, slots=True)
class KummerInputs:
    h: int
    f1: Fraction
    c_e: Fraction
    alpha: Fraction


TWINS = [NumericalClass, CremonaStep, ReductionCertificate, OrbitStructure, PencilSpec, PencilReport,
         Unsupported, KodairaFibre, FibreConfiguration, BranchLocus,
         SectionIntersections, KummerInputs]
RECORDS = {twin: getattr(pf, twin.__name__) for twin in TWINS}


def _samples(record: type) -> list:
    # instances of a record, two where a default or a variant shows
    start = pf.NumericalClass(5, (2, 2, 2, 1, 1, 1, 1, 1, 0))
    cert = pf.reduce_to_line(start)
    return {
        "NumericalClass": [start, pf.LINE],
        "CremonaStep": list(cert.chain[:2]),
        "ReductionCertificate": [cert, pf.reduce_to_line(start, 0)],
        "OrbitStructure": [pf.OrbitStructure((1, 2, 3)), pf.OrbitStructure((2, 1), 1)],
        "PencilSpec": [pf.PencilSpec("plane", 2, (1, 1, 0), 1), pf.PencilSpec("dp4", 1, (2, 0, 0, 0))],
        "PencilReport": [pf.PencilReport(2, 0, 2, True), pf.verify(pf.PencilSpec("plane", 1, (1,)))],
        "Unsupported": [pf.Unsupported("no pair")],
        "KodairaFibre": [pf.KodairaFibre("I0*"), pf.KodairaFibre("II*"), pf.KodairaFibre("I3")],
        "FibreConfiguration": [pf.FibreConfiguration((("a", "I2"), ("b", "IV*")))],
        "BranchLocus": [pf.BranchLocus("a", "b")],
        "SectionIntersections": [pf.SectionIntersections(1, 2, 3, ((1, 1),)), pf.SectionIntersections(0, 0, -1)],
        "KummerInputs": [pf.KummerInputs(10, Fraction(1, 2), 3, Fraction(1, 4))],
    }[record.__name__]


def _twin_of(value, twin: type):
    # the twin (or any class with the record's slots) holding the record's
    # field values, set past both classes' constructors
    new = object.__new__(twin)
    for name in type(value).__slots__:
        object.__setattr__(new, name, getattr(value, name))
    return new


def _swap(reduced, record: type, twin: type):
    # a twin's `__reduce_ex__` with the twin class read as the record class
    if isinstance(reduced, tuple):
        return tuple(_swap(part, record, twin) for part in reduced)
    return record if reduced is twin else reduced


PAIRS = [(twin, RECORDS[twin]) for twin in TWINS]
IDS = [twin.__name__ for twin in TWINS]


def test_every_record_has_a_twin():
    assert len(TWINS) == 12
    assert {record.__name__ for record in RECORDS.values()} == {twin.__name__ for twin in TWINS}


@pytest.mark.parametrize("twin,record", PAIRS, ids=IDS)
def test_fields_and_signature_match(twin, record):
    assert record.__match_args__ == twin.__match_args__
    assert record.__slots__ == twin.__slots__
    assert record.__qualname__ == twin.__qualname__ and record.__doc__

    def parameters(cls):
        return [(p.name, p.kind, p.default) for p in inspect.signature(cls).parameters.values()]

    assert parameters(record) == parameters(twin)


@pytest.mark.parametrize("twin,record", PAIRS, ids=IDS)
def test_values_compare_hash_and_print_alike(twin, record):
    values = _samples(record)
    twins = [_twin_of(value, twin) for value in values]
    for value, other in zip(values, twins):
        assert repr(value) == repr(other)
        assert hash(value) == hash(other)
        assert value != other and other != value  # one class only
        assert value.__eq__(other) is NotImplemented is other.__eq__(value)
        assert (value == 0) is (other == 0) is False
        # equality asks for one class: an instance of a subclass differs
        subclasses = [type("Sub", (cls,), {"__slots__": ()}) for cls in (record, twin)]
        assert (value == _twin_of(value, subclasses[0])) is (other == _twin_of(value, subclasses[1])) is False
    for a, b in zip(values, twins):
        for c, d in zip(values, twins):
            assert (a == c) is (b == d)


@pytest.mark.parametrize("twin,record", PAIRS, ids=IDS)
def test_pickles_and_copies_alike(twin, record):
    for value in _samples(record):
        other = _twin_of(value, twin)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert value.__reduce_ex__(protocol) == _swap(other.__reduce_ex__(protocol), record, twin)
            again = pickle.loads(pickle.dumps(value, protocol))
            assert type(again) is record and again == value
        for copied in (copy.copy(value), copy.deepcopy(value)):
            assert type(copied) is record and copied == value
            assert [getattr(copied, name) for name in record.__slots__] == [
                getattr(value, name) for name in record.__slots__]
        assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("twin,record", PAIRS, ids=IDS)
def test_a_subclass_pickles_and_copies_alike(twin, record):
    # an instance of a subclass keeps the record's slots in its state
    subclasses = [type("Sub", (cls,), {"__slots__": ()}) for cls in (record, twin)]
    for value in _samples(record):
        slots = [getattr(value, name) for name in record.__slots__]
        assert [_twin_of(value, subclass).__getstate__() for subclass in subclasses] == [slots, slots]
        copied = copy.copy(_twin_of(value, subclasses[0]))
        assert [getattr(copied, name) for name in record.__slots__] == slots


@pytest.mark.parametrize("twin,record", PAIRS, ids=IDS)
def test_frozen_alike(twin, record):
    for value in _samples(record):
        other = _twin_of(value, twin)
        for name in record.__slots__:
            for target in (value, other):
                with pytest.raises(dataclasses.FrozenInstanceError) as assigned:
                    setattr(target, name, None)
                with pytest.raises(dataclasses.FrozenInstanceError) as deleted:
                    delattr(target, name)
                assert str(assigned.value) == f"cannot assign to field {name!r}"
                assert str(deleted.value) == f"cannot delete field {name!r}"


@pytest.mark.parametrize("record", [RECORDS[twin] for twin in TWINS], ids=IDS)
def test_the_dataclasses_helpers_refuse_a_record(record):
    # a record is a slotted class, not a dataclass: the helpers that read
    # `__dataclass_fields__`, and `copy.replace`, refuse it
    helpers = [dataclasses.fields, dataclasses.asdict, dataclasses.astuple, dataclasses.replace]
    if sys.version_info >= (3, 13):
        helpers.append(copy.replace)
    assert not dataclasses.is_dataclass(record)
    for value in _samples(record):
        assert not dataclasses.is_dataclass(value)
        for helper in helpers:
            with pytest.raises(TypeError):
                helper(value)


@pytest.mark.parametrize("record", [RECORDS[twin] for twin in TWINS], ids=IDS)
def test_pprint_prints_the_repr(record):
    # pprint lays out field by field only a `__repr__` that dataclasses wrote
    for value in _samples(record):
        assert pprint.pformat(value, width=10_000) == repr(value)
        assert pprint.pformat(value, width=1)


SHARED = ("__eq__", "__hash__", "__repr__", "__getstate__", "__setstate__", "__setattr__", "__delattr__")


@pytest.mark.parametrize("record", [RECORDS[twin] for twin in TWINS], ids=IDS)
def test_records_share_one_base(record):
    from pencilforge.picard_lattice import _Record

    # only NumericalClass writes one of these methods itself, its repr
    assert record.__bases__ == (_Record,)
    own = {name for name in SHARED if name in vars(record)}
    assert own == ({"__repr__"} if record is pf.NumericalClass else set())
    for name in set(SHARED) - own:
        assert getattr(record, name) is vars(_Record)[name]


@pytest.mark.parametrize("record", [RECORDS[twin] for twin in TWINS], ids=IDS)
def test_generated_of_skips_the_constructor(record, monkeypatch):
    values = _samples(record)
    calls = []
    monkeypatch.setattr(record, "__init__", lambda self, *args, **kwargs: calls.append("__init__"))
    monkeypatch.setattr(record, "__post_init__", lambda self: calls.append("__post_init__"), raising=False)
    for value in values:
        # every slot, in the order of the pickled state
        built = record._of(*(getattr(value, name) for name in record.__slots__))
        assert type(built) is record and built == value
        assert repr(built) == repr(value) and hash(built) == hash(value)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(built, protocol) == pickle.dumps(value, protocol)
    assert calls == []


def test_the_kept_protocols_load_neither_dataclasses_nor_inspect():
    # build, compare, hash, print, match, pickle, copy and deep-copy records
    # in a fresh interpreter; only an assignment loads `dataclasses`, for its
    # FrozenInstanceError
    code = (
        "import copy, pickle, sys\n"
        "import pencilforge as pf\n"
        "spec = pf.PencilSpec('plane', 2, (1, 1, 0))\n"
        "cert = pf.reduce_to_line(pf.NumericalClass(5, (2, 2, 2, 1, 1, 1, 1, 1, 0)))\n"
        "fibre = pf.KodairaFibre('I0*')\n"
        "assert spec == pf.PencilSpec('plane', 2, (1, 1, 0), 0) != pf.PencilSpec('plane', 3, (1, 1, 0))\n"
        "assert hash(spec) == hash(('plane', 2, (1, 1, 0), 0))\n"
        "match spec:\n"
        "    case pf.PencilSpec(model, level, mults, extra):\n"
        "        assert (model, level, mults, extra) == ('plane', 2, (1, 1, 0), 0)\n"
        "for value in (spec, cert, fibre):\n"
        "    for again in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):\n"
        "        assert again == value and repr(again) == repr(value)\n"
        "print(repr(spec), repr(fibre))\n"
        "print('dataclasses' in sys.modules, 'inspect' in sys.modules)\n"
        "try:\n"
        "    spec.level = 3\n"
        "except Exception as exc:\n"
        "    print(type(exc).__module__, type(exc).__name__, exc)\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(Path(pf.__file__).resolve().parents[1])))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "PencilSpec(model='plane', level=2, mults=(1, 1, 0), extra_conditions=0) KodairaFibre(symbol='I0*')",
        "False False",
        "dataclasses FrozenInstanceError cannot assign to field 'level'",
    ]
