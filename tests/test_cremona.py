import copy
import dataclasses
import itertools
import pickle
import random
import weakref
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilforge.base_change import BranchLocus, FibreConfiguration, KodairaFibre
from pencilforge.cremona import (
    CremonaStep,
    ReductionCertificate,
    is_connected_class,
    quadratic_transform,
    reduce_to_line,
)
from pencilforge.heights import KummerInputs, SectionIntersections
from pencilforge.pencils import OrbitStructure, PencilSpec, Unsupported, verify
from pencilforge.picard_lattice import (
    CANONICAL,
    FIBRE,
    NumericalClass,
    arithmetic_genus,
    degree_to_base,
    intersect,
)

GOLDEN_START = NumericalClass(6, (2, 2, 2, 2, 4, 1, 1, 1, 1))

# the worked chain for the degree-five conic class
GOLDEN_CHAIN = [
    ((1, 2, 5), NumericalClass(4, (0, 0, 2, 2, 2, 1, 1, 1, 1))),
    ((3, 4, 5), NumericalClass(2, (0, 0, 0, 0, 0, 1, 1, 1, 1))),
    ((6, 7, 8), NumericalClass(1, (0, 0, 0, 0, 0, 0, 0, 0, 1))),
]


def exact(c):
    # a class holding an exact int and a 9-tuple of exact ints
    return type(c.d) is int and type(c.m) is tuple and len(c.m) == 9 and all(type(x) is int for x in c.m)


def random_class(rng, bound=9):
    return NumericalClass(rng.randint(-bound, bound),
                          tuple(rng.randint(-bound, bound) for _ in range(9)))


def random_triple(rng):
    return tuple(sorted(rng.sample(range(1, 10), 3)))


def test_golden_transform_steps():
    current = GOLDEN_START
    for indices, expected in GOLDEN_CHAIN:
        current = quadratic_transform(current, *indices)
        assert current == expected


def test_transform_rejects_bad_indices():
    with pytest.raises(ValueError):
        quadratic_transform(GOLDEN_START, 1, 1, 2)
    with pytest.raises(ValueError):
        quadratic_transform(GOLDEN_START, 0, 1, 2)
    with pytest.raises(ValueError):
        quadratic_transform(GOLDEN_START, 7, 8, 10)


def test_transform_takes_exact_integer_indices_only():
    # quadratic_transform(a, True, 2, 3) used to transform at point 1
    for bad in (True, 1.0, "1"):
        with pytest.raises(TypeError, match="point index must be an integer"):
            quadratic_transform(GOLDEN_START, bad, 2, 3)
        with pytest.raises(TypeError, match="point index must be an integer"):
            quadratic_transform(GOLDEN_START, 1, 2, bad)


# every ordered centre of three distinct points
ORDERED_CENTRES = list(itertools.permutations(range(1, 10), 3))


def plain_transform(d, m, i, j, k):
    # the transformation from its formula on plain ints
    m = list(m)
    mi, mj, mk = m[i - 1], m[j - 1], m[k - 1]
    m[i - 1], m[j - 1], m[k - 1] = d - mj - mk, d - mi - mk, d - mi - mj
    return 2 * d - mi - mj - mk, tuple(m)


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(ORDERED_CENTRES), st.integers(-10 ** 20, 10 ** 20),
       st.lists(st.integers(-10 ** 20, 10 ** 20), min_size=9, max_size=9))
def test_transform_is_the_formula_and_an_involution_at_every_centre(centre, d, m):
    assert len(ORDERED_CENTRES) == 504
    a = NumericalClass(d, m)
    t = quadratic_transform(a, *centre)
    assert (t.d, t.m) == plain_transform(d, tuple(m), *centre) and exact(t)
    assert quadratic_transform(t, *centre) == a


def test_every_ordered_centre_transforms_one_class():
    a = NumericalClass(7, (3, 1, 4, 1, 5, 9, 2, 6, 5))
    for centre in ORDERED_CENTRES:
        t = quadratic_transform(a, *centre)
        assert (t.d, t.m) == plain_transform(a.d, a.m, *centre) and exact(t)


class Index:
    # an exact integer type other than int
    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


# (entry, exception, message) for one entry of the centre (4, 5, 6); None
# stands for a repeated index, the entry copied from the next position
BAD_ENTRIES = [
    (0, ValueError, "point indices must be in 1..9, got 0"),
    (10, ValueError, "point indices must be in 1..9, got 10"),
    (-1, ValueError, "point indices must be in 1..9, got -1"),
    (None, ValueError, "Cremona centre needs three distinct indices, got {}"),
    (True, TypeError, "point index must be an integer, got True"),
    (1.0, TypeError, "point index must be an integer, got 1.0"),
    ("1", TypeError, "point index must be an integer, got '1'"),
]


@pytest.mark.parametrize("position", [0, 1, 2])
@pytest.mark.parametrize("entry, error, message", BAD_ENTRIES,
                         ids=["0", "10", "-1", "repeated", "True", "1.0", "str"])
def test_transform_refuses_each_bad_index_with_its_message(position, entry, error, message):
    centre = [4, 5, 6]
    centre[position] = centre[(position + 1) % 3] if entry is None else entry
    with pytest.raises(error) as info:
        quadratic_transform(GOLDEN_START, *centre)
    assert str(info.value) == message.format(tuple(centre))


@pytest.mark.parametrize("position", [0, 1, 2])
def test_transform_reads_an_index_object_as_its_int(position):
    centre = [4, 5, 6]
    expected = quadratic_transform(GOLDEN_START, *centre)
    centre[position] = Index(centre[position])
    t = quadratic_transform(GOLDEN_START, *centre)
    assert t == expected and exact(t)
    centre[position] = Index(centre[(position + 1) % 3].__index__())
    with pytest.raises(ValueError, match="three distinct indices"):
        quadratic_transform(GOLDEN_START, *centre)


def test_transform_is_an_involution():
    rng = random.Random(5)
    for _ in range(500):
        a = random_class(rng)
        i, j, k = random_triple(rng)
        assert quadratic_transform(quadratic_transform(a, i, j, k), i, j, k) == a


def test_transform_preserves_intersections_genus_degree():
    rng = random.Random(7)
    for _ in range(500):
        a, b = random_class(rng), random_class(rng)
        i, j, k = random_triple(rng)
        ta = quadratic_transform(a, i, j, k)
        tb = quadratic_transform(b, i, j, k)
        assert intersect(ta, tb) == intersect(a, b)
        assert arithmetic_genus(ta) == arithmetic_genus(a)
        assert degree_to_base(ta) == degree_to_base(a)


def test_transform_fixes_canonical_and_fibre():
    rng = random.Random(9)
    for _ in range(50):
        i, j, k = random_triple(rng)
        assert quadratic_transform(CANONICAL, i, j, k) == CANONICAL
        assert quadratic_transform(FIBRE, i, j, k) == FIBRE


def test_golden_chain_certificate():
    cert = reduce_to_line(GOLDEN_START)
    assert cert.success
    assert len(cert.chain) == 3
    assert [s.indices for s in cert.chain] == [ix for ix, _ in GOLDEN_CHAIN]
    assert [s.after for s in cert.chain] == [cls for _, cls in GOLDEN_CHAIN]
    assert cert.terminal == NumericalClass(1, (0, 0, 0, 0, 0, 0, 0, 0, 1))
    # built without the generated __init__, they compare, hash and print
    # like publicly built ones
    for step in cert.chain:
        rebuilt = CremonaStep(step.indices, step.before, step.after)
        assert rebuilt == step and hash(rebuilt) == hash(step) and repr(rebuilt) == repr(step)
        assert exact(step.before) and exact(step.after)
    rebuilt = ReductionCertificate(cert.chain, cert.terminal, cert.success)
    assert rebuilt == cert and hash(rebuilt) == hash(cert) and repr(rebuilt) == repr(cert)


def test_certificates_replay():
    rng = random.Random(13)
    classes = [GOLDEN_START] + [random_class(rng, bound=5) for _ in range(100)]
    for a in classes:
        cert = reduce_to_line(a)
        current = a
        for step in cert.chain:
            assert step.before == current
            assert quadratic_transform(current, *step.indices) == step.after
            current = step.after
        assert cert.terminal == current
        if cert.success:
            assert cert.terminal.d == 1


def test_already_terminal_class():
    line = NumericalClass(1, (1, 0, 0, 0, 0, 0, 0, 0, 0))
    cert = reduce_to_line(line)
    assert cert.success and cert.chain == () and cert.terminal == line


def test_conic_through_five_points_reduces_in_one_step():
    # the section class (2; 1,1,1,1,1) lands on a line class after one step
    cert = reduce_to_line(NumericalClass(2, (1, 1, 1, 1, 1, 0, 0, 0, 0)))
    assert cert.success
    assert len(cert.chain) == 1
    assert cert.chain[0].indices == (1, 2, 3)
    assert cert.terminal.d == 1


def test_connectedness_examples():
    assert is_connected_class(GOLDEN_START)
    assert is_connected_class(NumericalClass(1, (1, 0, 0, 0, 0, 0, 0, 0, 0)))


def test_adding_a_fibre_defeats_the_greedy_certificate():
    # appending a fibre raises the arithmetic genus to two, and Cremona
    # transformations preserve genus while line classes have genus <= 0, so
    # no reduction to a line can exist: the certificate must fail
    summed = GOLDEN_START + FIBRE
    assert summed == NumericalClass(9, (3, 3, 3, 3, 5, 2, 2, 2, 2))
    assert arithmetic_genus(summed) == 2
    cert = reduce_to_line(summed)
    assert not cert.success
    assert not is_connected_class(summed)
    # the greedy walk sticks where no triple of multiplicities exceeds d
    assert cert.terminal == NumericalClass(4, (1, 1, 1, 1, 1, 1, 1, 1, 2))


def test_max_steps_budget():
    cert = reduce_to_line(GOLDEN_START, max_steps=2)
    assert not cert.success and len(cert.chain) == 2
    cert = reduce_to_line(GOLDEN_START, max_steps=3)
    assert cert.success
    with pytest.raises(ValueError):
        reduce_to_line(GOLDEN_START, max_steps=-1)


def test_max_steps_takes_an_exact_integer_only():
    # reduce_to_line(a, True) used to take one step
    for bad in (True, 3.0, "3"):
        with pytest.raises(TypeError, match="max_steps must be an integer"):
            reduce_to_line(GOLDEN_START, bad)
        with pytest.raises(TypeError, match="max_steps must be an integer"):
            is_connected_class(GOLDEN_START, bad)


# an object with `d` and `m` is no NumericalClass, whatever it holds:
# exact ints, a float, a bool or a vector of the wrong length
LOOK_ALIKES = {
    "exact-ints": (6, GOLDEN_START.m),
    "float-degree": (6.0, GOLDEN_START.m),
    "float-line-degree": (1.0, GOLDEN_START.m),
    "float-multiplicity": (6, (2.0,) + GOLDEN_START.m[1:]),
    "bool-multiplicities": (6, (2, 2, 2, 2, 4, True, True, True, True)),
    "bool-degree": (True, (0,) * 8 + (1,)),
    "ten-points": (6, GOLDEN_START.m + (0,)),
    "eight-points": (6, GOLDEN_START.m[:8]),
}


@pytest.mark.parametrize("d, m", LOOK_ALIKES.values(), ids=LOOK_ALIKES)
def test_duck_typed_classes_are_refused(d, m):
    duck = SimpleNamespace(d=d, m=m)
    for call in (reduce_to_line, is_connected_class, lambda a: quadratic_transform(a, 1, 2, 5)):
        with pytest.raises(TypeError, match="a class must be a NumericalClass"):
            call(duck)


def test_divergent_class_terminates_by_budget():
    # top multiplicities never exceed d once it goes negative, or the degree
    # plummets without passing through one; either way the reducer halts
    cert = reduce_to_line(NumericalClass(2, (2, 2, 2, 0, 0, 0, 0, 0, 0)))
    assert not cert.success


# ---------------------------------------------------------------------------
# the greedy loop as first written, kept as a reference for the reducer

def _top_three(m):
    # largest multiplicities first; ties broken towards lower point index
    order = sorted(range(9), key=lambda t: (-m[t], t))[:3]
    return tuple(sorted(t + 1 for t in order))


def reference_reduce(a, max_steps):
    chain = []
    current = a
    for _ in range(max_steps):
        if current.d == 1:
            return chain, current, True
        indices = _top_three(current.m)
        if sum(current.m[t - 1] for t in indices) <= current.d:
            return chain, current, False
        nxt = quadratic_transform(current, *indices)
        chain.append((indices, current, nxt))
        current = nxt
    return chain, current, current.d == 1


@st.composite
def tied_classes(draw):
    # entries drawn from a pool of at most four values: many ties, and
    # negative entries as often as not
    pool = draw(st.lists(st.integers(-5, 15), min_size=1, max_size=4))
    m = draw(st.lists(st.sampled_from(pool), min_size=9, max_size=9))
    return NumericalClass(draw(st.integers(-5, 30)), m)


@settings(max_examples=500, deadline=None)
@given(tied_classes(), st.integers(0, 70))
def test_reduce_matches_the_reference_reducer(a, max_steps):
    cert = reduce_to_line(a, max_steps)
    chain, terminal, success = reference_reduce(a, max_steps)
    assert [(s.indices, s.before, s.after) for s in cert.chain] == chain
    assert cert.terminal == terminal
    assert cert.success is success
    # the chain replays: ascending centres, linked steps, falling degree
    current = a
    for step in cert.chain:
        i, j, k = step.indices
        assert 1 <= i < j < k <= 9
        assert step.before == current
        assert step.after == quadratic_transform(step.before, i, j, k)
        assert exact(step.after)
        assert step.after.d < step.before.d
        current = step.after
    assert cert.terminal == current and exact(cert.terminal)


def test_reduction_builds_one_class_per_step(monkeypatch):
    # each step builds its class once and never through the checked
    # constructor: a step's `after` is the next step's `before`, and the
    # chain holds one distinct class per step
    checked = []
    original = NumericalClass.__init__

    def counting_checked(self, d, m):
        checked.append(d)
        original(self, d, m)

    monkeypatch.setattr(NumericalClass, "__init__", counting_checked)
    cert = reduce_to_line(GOLDEN_START)
    assert cert.success and len(cert.chain) == len(GOLDEN_CHAIN)
    assert checked == []
    assert cert.chain[0].before is GOLDEN_START
    for step, following in zip(cert.chain, cert.chain[1:]):
        assert step.after is following.before
    assert cert.terminal is cert.chain[-1].after
    assert len({id(step.after) for step in cert.chain}) == len(cert.chain)


def test_steps_at_one_centre_share_their_indices():
    first, second = reduce_to_line(GOLDEN_START), reduce_to_line(GOLDEN_START + FIBRE)
    assert first.chain[0].indices == second.chain[0].indices == (1, 2, 5)
    assert first.chain[0].indices is second.chain[0].indices


def _records():
    # one instance of each of the package's records
    cert = reduce_to_line(GOLDEN_START)
    spec = PencilSpec("dp5", 2, (4, 1, 1, 1, 1))
    return [
        GOLDEN_START, cert.chain[0], cert,
        OrbitStructure((1, 4)), spec, verify(spec), Unsupported("no pair"),
        KodairaFibre("I3*"), FibreConfiguration((("a", "I2"), ("b", "IV*"))), BranchLocus("a", "b"),
        SectionIntersections(1, 0, 2, ((1, 1),)), KummerInputs(5, Fraction(3, 2), 1, Fraction(1, 2)),
    ]


RECORDS = _records()


@pytest.mark.parametrize("record", RECORDS, ids=[type(record).__name__ for record in RECORDS])
def test_lattice_records_are_slotted_and_frozen(record):
    assert not hasattr(record, "__dict__")
    with pytest.raises(TypeError):
        weakref.ref(record)
    for name in record.__slots__:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)
    copies = [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for again in copies + [copy.copy(record), copy.deepcopy(record)]:
        assert type(again) is type(record) and again == record
        assert hash(again) == hash(record) and _shown(again) == _shown(record)
        assert not hasattr(again, "__dict__")


def _shown(record) -> list:
    # the repr of each field, but a frozenset by value: a copy inserts the
    # elements in the original's order of iteration, so two that collide in
    # the hash table can swap places and print the other way round
    return [value if isinstance(value, frozenset) else repr(value)
            for value in (getattr(record, name) for name in type(record).__slots__)]
