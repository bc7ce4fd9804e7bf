import contextlib
import io
import itertools
import json
from functools import lru_cache
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilforge.cli import main
from pencilforge.cremona import is_connected_class, reduce_to_line
from pencilforge.pencils import (
    OrbitStructure,
    PencilSpec,
    Unsupported,
    construct_pencils,
    search_pencils,
    to_numerical_class,
    verify,
)
from pencilforge.picard_lattice import (
    FIBRE,
    NumericalClass,
    arithmetic_genus,
    degree_to_base,
    weighted_vectors,
)


def spec(model, level, mults, extra=0):
    return PencilSpec(model, level, tuple(mults), extra)


# ---------------------------------------------------------------------------
# the printed dimension / genus / degree computations

def test_dim_lower_bound_examples():
    assert verify(spec("dp5", 2, (4, 1, 1, 1, 1))).dim_lower_bound == 2
    assert verify(spec("plane", 17, (1,) + (6,) * 8)).dim_lower_bound == 2
    assert verify(spec("dp5", 10, (4, 11, 11, 11, 11))).dim_lower_bound == 2
    assert verify(spec("plane", 5, (1,) + (2,) * 6)).dim_lower_bound == 2  # 21 - 19
    assert verify(spec("plane", 1, (1,))).dim_lower_bound == 2
    assert verify(spec("dp8", 8, (13,) + (7,) * 7)).dim_lower_bound == 2
    assert verify(spec("dp8", 22, (13,) + (23,) * 7)).dim_lower_bound == 2
    assert verify(spec("dp4", 1, (2, 0, 0, 0))).dim_lower_bound == 2
    assert verify(spec("dp4", 7, (2, 8, 8, 8))).dim_lower_bound == 2


def test_dim_lower_bound_can_be_negative():
    assert verify(spec("plane", 1, (3,))).dim_lower_bound == 3 - 6


def test_genus_upper_bound_examples():
    assert verify(spec("dp8", 8, (13,) + (7,) * 7)).genus_upper_bound == 0
    assert verify(spec("dp8", 22, (13,) + (23,) * 7)).genus_upper_bound == 0
    assert verify(spec("dp4", 7, (2, 8, 8, 8))).genus_upper_bound == 0
    assert verify(spec("dp5", 2, (4, 1, 1, 1, 1))).genus_upper_bound == 0  # 6 - 6
    assert verify(spec("plane", 5, (1,) + (2,) * 6)).genus_upper_bound == 0
    assert verify(spec("plane", 3, (2, 1, 1, 1, 1, 1))).genus_upper_bound == 0


def test_degree_to_base_spec_examples():
    assert verify(spec("dp8", 8, (13,) + (7,) * 7)).degree_to_base == 2
    assert verify(spec("dp8", 22, (13,) + (23,) * 7)).degree_to_base == 2
    assert verify(spec("plane", 4, (3,) + (1,) * 7)).degree_to_base == 2
    assert verify(spec("plane", 3, (2, 1, 1, 1, 1, 1))).degree_to_base == 2  # 9 - 5 - 2
    assert verify(spec("plane", 5, (1,) + (2,) * 6)).degree_to_base == 2  # 15 - 12 - 1
    assert verify(spec("dp5", 2, (4, 1, 1, 1, 1))).degree_to_base == 2  # 10 - 4 - 4
    assert verify(spec("plane", 1, (1,))).degree_to_base == 2  # 3 - 1


def test_tangency_conditions_absorb_base_intersections():
    tangent_pair = verify(spec("plane", 2, (0, 1, 1), extra=2))
    assert (tangent_pair.degree_to_base, tangent_pair.dim_lower_bound) == (2, 2)
    tangent_one = verify(spec("plane", 2, (1, 1, 1), extra=1))
    assert (tangent_one.degree_to_base, tangent_one.dim_lower_bound) == (2, 2)


def test_verify_report():
    report = verify(spec("dp5", 2, (4, 1, 1, 1, 1)))
    assert (report.dim_lower_bound, report.genus_upper_bound, report.degree_to_base) == (2, 0, 2)
    assert report.is_valid_pair_member
    bad = verify(spec("plane", 2, (1, 1)))
    assert bad.degree_to_base == 4 and not bad.is_valid_pair_member


def test_spec_validation():
    with pytest.raises(ValueError):
        PencilSpec("dp9", 1, (1,) * 9)
    with pytest.raises(ValueError):
        PencilSpec("plane", 0, (1,))
    with pytest.raises(ValueError):
        PencilSpec("plane", 1, (1,) * 10)
    with pytest.raises(ValueError):
        PencilSpec("dp5", 1, (1, 1, 1))
    with pytest.raises(ValueError):
        PencilSpec("plane", 1, (-1,))
    with pytest.raises(ValueError):
        PencilSpec("plane", 1, (1,), extra_conditions=-1)


@pytest.mark.parametrize("model", ["dp04", "dp+4", "dp 4", "dp4 ", "dp٤", 4])
def test_models_take_one_ascii_spelling(model):
    # the strings were read as degree four and stored as spelt, unequal to
    # "dp4"; 4 failed with an AttributeError
    error, message = (ValueError, "model must be 'plane' or 'dp1'..'dp8'") if isinstance(model, str) \
        else (TypeError, "model must be a string")
    with pytest.raises(error, match=message):
        PencilSpec(model, 1, (2, 0, 0, 0))


def test_orbit_structure_validation():
    orbits = OrbitStructure((1, 4))
    assert orbits.total_points == 5
    with pytest.raises(ValueError):
        OrbitStructure(())
    with pytest.raises(ValueError):
        OrbitStructure((2, 3))  # designated orbit not of size one
    with pytest.raises(ValueError):
        OrbitStructure((1, 2), rational_index=1)
    with pytest.raises(ValueError):
        OrbitStructure((1, 0))


# ---------------------------------------------------------------------------
# construct_pencils, case by case

def both_valid(pair):
    assert not isinstance(pair, Unsupported)
    first, second = pair
    assert verify(first).is_valid_pair_member, first
    assert verify(second).is_valid_pair_member, second
    return first, second


def test_plane_two_rational_points():
    pair = construct_pencils("plane", OrbitStructure((1,) * 9))
    first, second = both_valid(pair)
    assert first == spec("plane", 1, (1, 0, 0, 0, 0, 0, 0, 0, 0))
    assert second == spec("plane", 1, (0, 1, 0, 0, 0, 0, 0, 0, 0))


def test_plane_pair_orbit_with_tangent_patterns():
    orbits = OrbitStructure((1, 2))
    first, second = both_valid(construct_pencils("plane", orbits, cubic_pattern=(1, 4, 4)))
    assert second == spec("plane", 2, (0, 1, 1), extra=2)
    for pattern in ((3, 3, 3), (5, 2, 2), (7, 1, 1)):
        first, second = both_valid(construct_pencils("plane", orbits, cubic_pattern=pattern))
        assert second == spec("plane", 2, (1, 1, 1), extra=1)
    with pytest.raises(ValueError):
        construct_pencils("plane", orbits)
    with pytest.raises(ValueError):
        construct_pencils("plane", orbits, cubic_pattern=(2, 2, 5))


def test_plane_pair_orbit_dispatches_to_smallest_extra_orbit():
    # an extra pair: conics through both two-point orbits
    _, second = both_valid(construct_pencils("plane", OrbitStructure((1, 2, 2, 4))))
    assert second == spec("plane", 2, (0, 1, 1, 1, 1, 0, 0, 0, 0))
    # an extra four-point orbit on its own
    _, second = both_valid(construct_pencils("plane", OrbitStructure((1, 2, 4))))
    assert second == spec("plane", 2, (0, 0, 0, 1, 1, 1, 1))
    # extra triple: conics through the rational point and the triple
    _, second = both_valid(construct_pencils("plane", OrbitStructure((1, 2, 3))))
    assert second == spec("plane", 2, (1, 0, 0, 1, 1, 1))
    # extra five: singular cubics
    _, second = both_valid(construct_pencils("plane", OrbitStructure((1, 2, 5))))
    assert second == spec("plane", 3, (2, 0, 0, 1, 1, 1, 1, 1))
    # extra six: singular quintics
    _, second = both_valid(construct_pencils("plane", OrbitStructure((1, 2, 6))))
    assert second == spec("plane", 5, (1, 0, 0, 2, 2, 2, 2, 2, 2))


def test_plane_cases_three_to_eight():
    expected = {
        (1, 3): spec("plane", 2, (1, 1, 1, 1)),
        (1, 4): spec("plane", 2, (0, 1, 1, 1, 1)),
        (1, 5): spec("plane", 3, (2, 1, 1, 1, 1, 1)),
        (1, 6): spec("plane", 5, (1, 2, 2, 2, 2, 2, 2)),
        (1, 7): spec("plane", 4, (3, 1, 1, 1, 1, 1, 1, 1)),
        (1, 8): spec("plane", 17, (1, 6, 6, 6, 6, 6, 6, 6, 6)),
    }
    for sizes, want in expected.items():
        first, second = both_valid(construct_pencils("plane", OrbitStructure(sizes)))
        assert first.level == 1 and first.mults[0] == 1
        assert second == want, sizes


def test_plane_rational_orbit_need_not_come_first():
    orbits = OrbitStructure((3, 1), rational_index=1)
    first, second = both_valid(construct_pencils("plane", orbits))
    assert first == spec("plane", 1, (0, 0, 0, 1))
    assert second == spec("plane", 2, (1, 1, 1, 1))


def test_plane_lonely_rational_point_unsupported():
    result = construct_pencils("plane", OrbitStructure((1, 1)))
    assert not isinstance(result, Unsupported)
    # a second pencil needs some orbit besides the contracted zero section
    lonely = construct_pencils("plane", OrbitStructure((1,)))
    assert isinstance(lonely, Unsupported)


def test_del_pezzo_pairs():
    first, second = both_valid(construct_pencils("dp5", OrbitStructure((1, 4))))
    assert first == spec("dp5", 2, (4, 1, 1, 1, 1))
    assert second == spec("dp5", 10, (4, 11, 11, 11, 11))

    first, second = both_valid(construct_pencils("dp8", OrbitStructure((1, 7))))
    assert first == spec("dp8", 8, (13,) + (7,) * 7)
    assert second == spec("dp8", 22, (13,) + (23,) * 7)

    first, second = both_valid(construct_pencils("dp4", OrbitStructure((1, 3))))
    assert first == spec("dp4", 1, (2, 0, 0, 0))
    assert second == spec("dp4", 7, (2, 8, 8, 8))


def test_del_pezzo_finer_orbits_still_work():
    first, second = both_valid(construct_pencils("dp5", OrbitStructure((1, 2, 2))))
    assert first == spec("dp5", 2, (4, 1, 1, 1, 1))
    both_valid(construct_pencils("dp8", OrbitStructure((1, 1, 6))))


# the paper's standard pairs on degree five and four: level, multiplicity at
# the rational point, multiplicity at every other point
DP5_PAIR = ((2, 4, 1), (10, 4, 11))
DP4_PAIR = ((1, 2, 0), (7, 2, 8))


def test_degree_six_rewrites():
    # a degree-six model blows up one more orbit: a second rational point
    # (the first such) gives the dp5 pair of the remaining orbits, a
    # (1, 2, 3) split the dp4 pair without the 2-orbit, and a five-point
    # orbit no pair
    orderings = {ordered for sizes in partitions(6) for ordered in itertools.permutations(sizes)}
    cases = [(sizes, r) for sizes in sorted(orderings) for r, size in enumerate(sizes) if size == 1]
    assert len(cases) == 64
    for sizes, r in cases:
        others = [i for i in range(len(sizes)) if i != r]
        singles = [i for i in others if sizes[i] == 1]
        if singles:
            model, pair, dropped = "dp5", DP5_PAIR, singles[0]
        elif sorted(sizes[i] for i in others) == [2, 3]:
            model, pair, dropped = "dp4", DP4_PAIR, next(i for i in others if sizes[i] == 2)
        else:
            assert sorted(sizes) == [1, 5]
            assert construct_pencils("dp6", OrbitStructure(sizes, r)) == Unsupported(
                "degree six with a five-point orbit admits no conic pencil pair")
            continue
        kept = [i for i in range(len(sizes)) if i != dropped]
        expected = tuple(
            spec(model, level, [at_rational if i == r else elsewhere for i in kept for _ in range(sizes[i])])
            for level, at_rational, elsewhere in pair)
        assert construct_pencils("dp6", OrbitStructure(sizes, r)) == expected, (sizes, r)
        both_valid(expected)


def test_degree_six_construct_goes_through_rewrite():
    first, second = both_valid(construct_pencils("dp6", OrbitStructure((1, 2, 3))))
    assert first.model == "dp4" and second.model == "dp4"
    assert first == spec("dp4", 1, (2, 0, 0, 0))

    first, second = both_valid(construct_pencils("dp6", OrbitStructure((1, 1, 2, 2))))
    assert first.model == "dp5"
    assert first == spec("dp5", 2, (4, 1, 1, 1, 1))

    result = construct_pencils("dp6", OrbitStructure((1, 5)))
    assert isinstance(result, Unsupported)


def test_unsupported_low_degrees():
    for degree, sizes in ((1, (1,)), (2, (1, 1)), (3, (1, 2))):
        result = construct_pencils(f"dp{degree}", OrbitStructure(sizes))
        assert isinstance(result, Unsupported)
    result = construct_pencils("dp7", OrbitStructure((1, 6)))
    assert isinstance(result, Unsupported)


def test_construct_rejects_inconsistent_orbits():
    with pytest.raises(ValueError):
        construct_pencils("dp5", OrbitStructure((1, 3)))
    with pytest.raises(ValueError):
        construct_pencils("dp6", OrbitStructure((1, 4)))
    with pytest.raises(ValueError):
        construct_pencils("plane", OrbitStructure((1,) + (2,) * 5))


# ---------------------------------------------------------------------------
# cross-module consistency

ALL_PLANE_CASES = [
    construct_pencils("plane", OrbitStructure((1,) * 9)),
    construct_pencils("plane", OrbitStructure((1, 2)), cubic_pattern=(3, 3, 3)),
    construct_pencils("plane", OrbitStructure((1, 2, 2, 4))),
    construct_pencils("plane", OrbitStructure((1, 2, 4))),
    construct_pencils("plane", OrbitStructure((1, 2, 3))),
    construct_pencils("plane", OrbitStructure((1, 2, 5))),
    construct_pencils("plane", OrbitStructure((1, 2, 6))),
    construct_pencils("plane", OrbitStructure((1, 3))),
    construct_pencils("plane", OrbitStructure((1, 4))),
    construct_pencils("plane", OrbitStructure((1, 5))),
    construct_pencils("plane", OrbitStructure((1, 6))),
    construct_pencils("plane", OrbitStructure((1, 7))),
    construct_pencils("plane", OrbitStructure((1, 8))),
]

ALL_DP_CASES = [
    construct_pencils("dp4", OrbitStructure((1, 3))),
    construct_pencils("dp5", OrbitStructure((1, 4))),
    construct_pencils("dp6", OrbitStructure((1, 2, 3))),
    construct_pencils("dp6", OrbitStructure((1, 1, 2, 2))),
    construct_pencils("dp8", OrbitStructure((1, 7))),
]


def test_lattice_agrees_with_flat_specs():
    for pair in ALL_PLANE_CASES + ALL_DP_CASES:
        for member in pair:
            if member.extra_conditions:
                continue
            cls = to_numerical_class(member)
            report = verify(member)
            assert (arithmetic_genus(cls), degree_to_base(cls)) == (report.genus_upper_bound, report.degree_to_base)


def test_del_pezzo_flat_class_matches_worked_example():
    cls = to_numerical_class(spec("dp5", 2, (4, 1, 1, 1, 1)))
    assert cls.to_list() == [6, 2, 2, 2, 2, 4, 1, 1, 1, 1]


def test_only_pencil_specs_skip_the_class_check(monkeypatch):
    # a PencilSpec has checked its fields, so its class is built without a
    # second check
    checked = []
    original = NumericalClass.__init__

    def counting(self, d, m):
        checked.append(d)
        original(self, d, m)

    monkeypatch.setattr(NumericalClass, "__init__", counting)
    for model, level, mults, expected in (("plane", 2, (1, 1, 1, 1, 1), [2, 1, 1, 1, 1, 1, 0, 0, 0, 0]),
                                          ("dp5", 2, (4, 1, 1, 1, 1), [6, 2, 2, 2, 2, 4, 1, 1, 1, 1])):
        cls = to_numerical_class(spec(model, level, mults))
        assert checked == []
        assert cls.to_list() == expected and type(cls.m) is tuple


@pytest.mark.parametrize("call", (to_numerical_class, verify), ids=lambda call: call.__name__)
@pytest.mark.parametrize("extra", (0, 1, 0.5, True))
def test_look_alike_specs_are_refused(call, extra):
    # a look-alike's fields are unchecked: extra_conditions of 0.5 would give
    # bounds of 1.5, and True would answer as 1
    duck = SimpleNamespace(model="plane", level=2, mults=(1, 1, 1, 1), extra_conditions=extra)
    with pytest.raises(TypeError, match="a spec must be a PencilSpec"):
        call(duck)


def test_pencil_classes_are_connected():
    for pair in ALL_PLANE_CASES + ALL_DP_CASES:
        for member in pair:
            if member.extra_conditions:
                continue
            assert is_connected_class(to_numerical_class(member)), member


def test_tangent_conic_flat_classes():
    # the one-tangency conic class still reduces to a line
    _, second = construct_pencils("plane", OrbitStructure((1, 2)), cubic_pattern=(3, 3, 3))
    assert is_connected_class(to_numerical_class(second))
    # with two tangencies the flat class (2; 0,1,1) drops the tangency data
    # and no Cremona chain can reach a line class (wrong self-intersection):
    # the certificate is documented to fail on it
    _, second = construct_pencils("plane", OrbitStructure((1, 2)), cubic_pattern=(1, 4, 4))
    assert not is_connected_class(to_numerical_class(second))


# ---------------------------------------------------------------------------
# exhaustive search

def triangular(x):
    return x * (x + 1) // 2


def closed_form_bounds(model, level, mults, extra=0):
    # independent oracle: the per-model dimension, genus and degree counts
    # of plane curves and of anticanonical sections on del Pezzo models
    n = level
    if model == "plane":
        dim = triangular(n + 1) - sum(triangular(x) for x in mults)
        genus = triangular(n - 2) - sum(triangular(x - 1) for x in mults)
        deg = 3 * n - sum(mults)
    else:
        degree = int(model[2:])
        dim = degree * (n * n + n) // 2 + 1 - sum((x * x + x) // 2 for x in mults)
        genus = degree * (n * n - n) // 2 + 1 - sum((x * x - x) // 2 for x in mults)
        deg = n * degree - sum(mults)
    return dim - extra, genus, deg - extra


def brute_force_search(model, sizes, n_max):
    # independent oracle: plain loops over levels and orbit-constant
    # multiplicities, checking the three criteria from the closed forms
    hits = []
    for level in range(1, n_max + 1):
        # degree two fixes the multiplicity sum; skip the rest cheaply
        mult_sum = closed_form_bounds(model, level, ())[2] - 2
        for values in itertools.product(range(n_max + 2), repeat=len(sizes)):
            if sum(v * s for v, s in zip(values, sizes)) != mult_sum:
                continue
            mults = tuple(v for v, s in zip(values, sizes) for _ in range(s))
            dim, genus, deg = closed_form_bounds(model, level, mults)
            if dim >= 2 and genus <= 0 and deg == 2:
                hits.append((level, mults))
    return hits


def partitions(total, smallest=1):
    # non-decreasing tuples of positive parts summing to total
    if total == 0:
        yield ()
    for part in range(smallest, total + 1):
        for rest in partitions(total - part, part):
            yield (part, *rest)


# every orbit partition with a rational orbit, listed first, on every model
ALL_CONFIGS = [("plane", sizes) for total in range(1, 10) for sizes in partitions(total) if sizes[0] == 1]
ALL_CONFIGS += [(f"dp{d}", sizes) for d in range(1, 9) for sizes in partitions(d) if sizes[0] == 1]


@pytest.mark.parametrize("model, sizes", ALL_CONFIGS, ids=[f"{m}-{s}" for m, s in ALL_CONFIGS])
def test_search_matches_brute_force_on_every_configuration(model, sizes):
    # keep the oracle's (n_max + 2) ** orbits loop small
    n_max = 3 if len(sizes) <= 5 else 2 if len(sizes) <= 7 else 1
    found = search_pencils(model, OrbitStructure(sizes), n_max)
    assert [(s.level, s.mults) for s in found] == brute_force_search(model, sizes, n_max)


def test_search_results_are_exact_and_equal_checked_specs():
    # every configuration at n_max 3: results built without __post_init__
    # hold exact ints and equal, hash and print like checked specs
    assert len(ALL_CONFIGS) == 112
    for model, sizes in ALL_CONFIGS:
        for s in search_pencils(model, OrbitStructure(sizes), 3):
            assert type(s.level) is int and type(s.extra_conditions) is int and type(s.mults) is tuple
            assert all(type(x) is int for x in s.mults)
            checked = PencilSpec(s.model, s.level, s.mults)
            assert checked == s and hash(checked) == hash(s) and repr(checked) == repr(s)


def test_n_max_takes_an_exact_integer_only():
    # search_pencils("plane", OrbitStructure((1, 2)), True) used to search n_max 1
    for bad in (True, 3.0, "3"):
        with pytest.raises(TypeError, match="n_max must be an integer"):
            search_pencils("plane", OrbitStructure((1, 2)), bad)


MODELS = ["plane"] + [f"dp{d}" for d in range(1, 9)]


@st.composite
def specs(draw):
    model = draw(st.sampled_from(MODELS))
    points = draw(st.integers(0, 9)) if model == "plane" else int(model[2:])
    mults = draw(st.lists(st.integers(0, 40), min_size=points, max_size=points))
    return spec(model, draw(st.integers(1, 40)), mults, draw(st.integers(0, 3)))


@settings(max_examples=300, deadline=None)
@given(specs())
def test_bounds_are_the_closed_forms(s):
    report = verify(s)
    bounds = (report.dim_lower_bound, report.genus_upper_bound, report.degree_to_base)
    assert bounds == closed_form_bounds(s.model, s.level, s.mults, s.extra_conditions)
    assert report.dim_lower_bound - report.genus_upper_bound == report.degree_to_base


def test_verify_rejects_a_non_integer_level():
    with pytest.raises(TypeError):
        verify(PencilSpec("plane", 2.5, (1,)))


def _verify_spec(payload):
    # (exit code, parsed envelope) of `pencil verify --spec` on a JSON payload
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["pencil", "verify", "--spec", json.dumps(payload)])
    return code, json.loads(out.getvalue())


def test_spec_and_orbits_take_exact_integers_only():
    for level, mults, extra in ((2.5, (1,), 0), (2, (1.9,), 0), (2, (True,), 0),
                                (True, (1,), 0), (2, (1,), 0.5), (2, (1,), False)):
        with pytest.raises(TypeError):
            PencilSpec("plane", level, mults, extra)
    # a JSON spec is read by `pencil verify`: a float, a bool or a string is an input error
    for payload in ({"model": "plane", "level": 2.7, "mults": [True, 1.9]},
                    {"model": "plane", "level": "2", "mults": [1]},
                    {"model": "plane", "level": 2, "mults": [1], "extra_conditions": 1.0}):
        code, out = _verify_spec(payload)
        assert code == 2 and out["error"]["kind"] == "input"
    code, out = _verify_spec({"model": "plane", "level": 2, "mults": [1]})
    assert code == 0
    assert {key: out["result"][key] for key in ("model", "level", "mults", "extra_conditions")} == {
        "model": "plane", "level": 2, "mults": [1], "extra_conditions": 0}

    class Two:
        def __index__(self):
            return 2

    # an exact integer type other than int is stored as the int it stands for
    converted = PencilSpec("plane", Two(), (Two(),), Two())
    assert (type(converted.level), converted.level, converted.mults, converted.extra_conditions) == (int, 2, (2,), 2)
    for sizes, rational in (((1, 2.0), 0), ((True, 2), 0), ((1, 2), False), ((1, 2), 0.0)):
        with pytest.raises(TypeError):
            OrbitStructure(sizes, rational)
    with pytest.raises(TypeError):
        construct_pencils("plane", OrbitStructure((1, 2)), cubic_pattern=(1.0, 4, 4))


class Index:
    # an exact integer type other than int
    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


# (entry, exception, message) at one position of each integer field; in the
# messages, {} stands for the field's tuple after the entry is put in
FIELD_ENTRIES = {
    "level": [
        (0, ValueError, "level must be at least 1, got 0"),
        (10, None, None),
        (-1, ValueError, "level must be at least 1, got -1"),
        (True, TypeError, "level must be an integer, got True"),
        (1.0, TypeError, "level must be an integer, got 1.0"),
        ("1", TypeError, "level must be an integer, got '1'"),
    ],
    "extra_conditions": [
        (0, None, None),
        (10, None, None),
        (-1, ValueError, "extra_conditions must be non-negative, got -1"),
        (True, TypeError, "extra_conditions must be an integer, got True"),
        (1.0, TypeError, "extra_conditions must be an integer, got 1.0"),
        ("1", TypeError, "extra_conditions must be an integer, got '1'"),
    ],
    "mults": [
        (0, None, None),
        (10, None, None),
        (-1, ValueError, "multiplicities must be non-negative, got {}"),
        (True, TypeError, "multiplicity must be an integer, got True"),
        (1.0, TypeError, "multiplicity must be an integer, got 1.0"),
        ("1", TypeError, "multiplicity must be an integer, got '1'"),
    ],
    "sizes": [
        (0, ValueError, "orbit sizes must be positive, got {}"),
        (10, None, None),
        (-1, ValueError, "orbit sizes must be positive, got {}"),
        (True, TypeError, "orbit size must be an integer, got True"),
        (1.0, TypeError, "orbit size must be an integer, got 1.0"),
        ("1", TypeError, "orbit size must be an integer, got '1'"),
    ],
    "rational_index": [
        (0, None, None),
        (10, ValueError, "rational orbit index 10 out of range"),
        (-1, ValueError, "rational orbit index -1 out of range"),
        (True, TypeError, "rational_index must be an integer, got True"),
        (1.0, TypeError, "rational_index must be an integer, got 1.0"),
        ("1", TypeError, "rational_index must be an integer, got '1'"),
    ],
}
FIELD_CASES = [(field, *case) for field, cases in FIELD_ENTRIES.items() for case in cases]


# the spec and the orbit structure that each case changes in one field
SPEC_ARGS = {"model": "plane", "level": 3, "mults": (2, 1, 1), "extra_conditions": 0}
ORBIT_ARGS = {"sizes": (1, 1, 3), "rational_index": 0}


def with_entry(field, entry):
    # the field's value with `entry` in it: the last of the three
    # multiplicities or sizes, or the scalar itself
    value = {**SPEC_ARGS, **ORBIT_ARGS}[field]
    return value[:2] + (entry,) if field in ("mults", "sizes") else entry


def build_with(field, entry):
    args = SPEC_ARGS if field in SPEC_ARGS else ORBIT_ARGS
    return (PencilSpec if args is SPEC_ARGS else OrbitStructure)(**{**args, field: with_entry(field, entry)})


@pytest.mark.parametrize("field, entry, error, message", FIELD_CASES,
                         ids=[f"{f}-{e!r}" for f, e, _, _ in FIELD_CASES])
def test_spec_and_orbit_fields_refuse_each_bad_entry_with_its_message(field, entry, error, message):
    if error is None:
        assert getattr(build_with(field, entry), field) == with_entry(field, entry)
        return
    with pytest.raises(error) as info:
        build_with(field, entry)
    assert str(info.value) == message.format(with_entry(field, entry))


@pytest.mark.parametrize("field", list(FIELD_ENTRIES))
def test_spec_and_orbit_fields_store_an_index_object_as_its_int(field):
    stored = getattr(build_with(field, Index(1)), field)
    assert stored == with_entry(field, 1)
    assert all(type(x) is int for x in stored) if field in ("mults", "sizes") else type(stored) is int
    assert build_with(field, Index(1)) == build_with(field, 1)


def ordered_orbits(total):
    # ordered tuples of positive sizes summing to total
    if total == 0:
        yield ()
    for first in range(1, total + 1):
        for rest in ordered_orbits(total - first):
            yield (first, *rest)


def test_constructed_specs_equal_their_checked_copies():
    # every plane and dp1-dp8 orbit configuration, each size-one orbit as the
    # rational one, times each cubic pattern: the specs built without a
    # second check hold exact ints and equal, hash and print like checked ones
    configs = [("plane", sizes) for total in range(1, 10) for sizes in ordered_orbits(total)]
    configs += [(f"dp{d}", sizes) for d in range(1, 9) for sizes in ordered_orbits(d)]
    cases = built = 0
    for model, sizes in configs:
        for rational in [i for i, size in enumerate(sizes) if size == 1]:
            for pattern in (None, (1, 4, 4), (3, 3, 3), (5, 2, 2), (7, 1, 1)):
                cases += 1
                try:
                    pair = construct_pencils(model, OrbitStructure(sizes, rational), pattern)
                except ValueError:
                    continue
                if isinstance(pair, Unsupported):
                    continue
                for s in pair:
                    built += 1
                    assert type(s.level) is int and type(s.extra_conditions) is int
                    assert type(s.mults) is tuple and all(type(x) is int for x in s.mults)
                    checked = PencilSpec(s.model, s.level, s.mults, s.extra_conditions)
                    assert checked == s and hash(checked) == hash(s) and repr(checked) == repr(s)
                    assert verify(checked) == verify(s)
    assert cases == 9280 and built > 0


def test_search_contains_the_constructed_dp4_pair():
    found = search_pencils("dp4", OrbitStructure((1, 3)), n_max=7)
    assert spec("dp4", 1, (2, 0, 0, 0)) in found
    assert spec("dp4", 7, (2, 8, 8, 8)) in found


def test_search_contains_the_constructed_dp8_pair():
    found = search_pencils("dp8", OrbitStructure((1, 7)), n_max=22)
    assert spec("dp8", 8, (13,) + (7,) * 7) in found
    assert spec("dp8", 22, (13,) + (23,) * 7) in found


def test_search_plane_one_eight_split_small_levels():
    # only the pencil of lines through the rational point survives: every
    # candidate touching the eight-point orbit drops the base degree below 2
    found = search_pencils("plane", OrbitStructure((1, 8)), n_max=3)
    assert [(s.level, s.mults) for s in found] == brute_force_search("plane", (1, 8), 3)
    assert found == [spec("plane", 1, (1, 0, 0, 0, 0, 0, 0, 0, 0))]


def test_search_matches_brute_force_on_a_plane_case():
    sizes = (1, 5)
    found = search_pencils("plane", OrbitStructure(sizes), n_max=4)
    assert [(s.level, s.mults) for s in found] == brute_force_search("plane", sizes, 4)
    assert spec("plane", 3, (2, 1, 1, 1, 1, 1)) in found


def test_search_output_sorted_and_valid():
    found = search_pencils("dp5", OrbitStructure((1, 4)), n_max=10)
    keys = [(s.level, s.mults) for s in found]
    assert keys == sorted(keys)
    for s in found:
        report = verify(s)
        assert report.is_valid_pair_member
    assert spec("dp5", 2, (4, 1, 1, 1, 1)) in found
    assert spec("dp5", 10, (4, 11, 11, 11, 11)) in found


def test_search_rejects_bad_arguments():
    with pytest.raises(ValueError):
        search_pencils("dp5", OrbitStructure((1, 4)), n_max=0)
    with pytest.raises(ValueError):
        search_pencils("dp4", OrbitStructure((1, 4)), n_max=3)
    with pytest.raises(ValueError):
        search_pencils("plane", OrbitStructure((1,) + (2,) * 5), n_max=3)
    with pytest.raises(ValueError):
        search_pencils("dp9", OrbitStructure((1,) * 9), n_max=3)


# ---------------------------------------------------------------------------
# fixed sections: a flat class c = F (mod 2) is F + 2E for a section E

def test_a_class_with_a_fixed_section_is_not_a_pair_member():
    # F + 2(L - E8 - E9): the bounds hold, but every member contains the
    # section L - E8 - E9 twice; verify used to answer true
    s = spec("plane", 5, (1,) * 7 + (3, 3))
    report = verify(s)
    assert (report.dim_lower_bound, report.genus_upper_bound, report.degree_to_base) == (2, 0, 2)
    assert not report.is_valid_pair_member
    assert to_numerical_class(s) == FIBRE + 2 * NumericalClass(1, (0,) * 7 + (1, 1))
    assert s not in search_pencils("plane", OrbitStructure((1,) * 9), 5)
    # on a del Pezzo model the level and every multiplicity are odd
    report = verify(spec("dp8", 3, (5, 3, 3, 3, 3, 3, 1, 1)))
    assert (report.dim_lower_bound, report.genus_upper_bound, report.degree_to_base) == (2, 0, 2)
    assert not report.is_valid_pair_member


def test_the_eight_point_search_keeps_only_the_constructed_pair():
    # (11; 7, 3^8) = F + 2(4; 3, 1^8) used to be found as well
    orbits = OrbitStructure((1, 8))
    assert search_pencils("plane", orbits, 20) == list(construct_pencils("plane", orbits))


@lru_cache(maxsize=None)
def pencil_classes(d):
    # every class (d; m) with m >= 0, c.c = 0 and c.F = 2
    return [NumericalClass(d, m) for m in weighted_vectors((1,) * 9, d * d, 3 * d - 2, 0, d)]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10).flatmap(lambda d: st.sampled_from(pencil_classes(d))))
def test_reduction_reaches_a_line_exactly_off_the_fibre_parity(c):
    fibre_parity = all((a - b) % 2 == 0 for a, b in zip(c.to_list(), FIBRE.to_list()))
    terminal = reduce_to_line(c).terminal
    if fibre_parity:
        # F + 2E_j up to the order of the points
        assert terminal.d == 3 and sorted(terminal.m) == [-1] + [1] * 8
    else:
        assert terminal.d == 1 and sorted(terminal.m) == [0] * 8 + [1]
    assert verify(spec("plane", c.d, c.m)).is_valid_pair_member is not fibre_parity


def sorted_vectors(length, squares, total, top, bottom):
    # independent oracle: the non-increasing vectors of `length` entries in
    # bottom..top with the given sum of squares and sum, by a box scan in
    # plain loops that only stops early on a sum out of reach
    out = []

    def scan(prefix, cap, squares, total):
        left = length - len(prefix)
        if not left * bottom <= total <= left * cap:
            return
        if left == 0:
            if squares == 0:
                out.append(tuple(prefix))
            return
        for x in range(cap, bottom - 1, -1):
            if x * x <= squares:
                scan(prefix + [x], x, squares - x * x, total - x)

    scan([], top, squares, total)
    return out


@lru_cache(maxsize=None)
def sections():
    # the section classes (E.E = -1, E.F = 1) with |d| <= 12, points sorted
    return [(d, m) for d in range(-12, 13) for m in sorted_vectors(9, d * d + 1, 3 * d - 1, 13, -13)]


def meets_every_section(d, m):
    # c.E >= 0 for every section class E with |d| <= 12, under every order
    # of its points: the smallest c.E pairs the sorted entries of c and E
    # (rearrangement)
    m = sorted(m, reverse=True)
    return all(d * e - sum(a * b for a, b in zip(m, f)) >= 0 for e, f in sections())


@pytest.mark.parametrize("model, points, n_max", [("plane", 9, 9), ("dp8", 8, 5), ("dp5", 5, 8)])
def test_search_keeps_exactly_the_classes_meeting_every_section(model, points, n_max):
    assert len(sections()) == 29
    found = {(s.level, tuple(sorted(s.mults, reverse=True)))
             for s in search_pencils(model, OrbitStructure((1,) * points), n_max)}
    want = set()
    for level in range(1, n_max + 1):
        # the class (d; pad, m) of a level, with c.c = 0 and c.F = 2
        d, pad = (level, ()) if model == "plane" else (3 * level, (level,) * (9 - points))
        squares, total = d * d - sum(x * x for x in pad), 3 * d - sum(pad) - 2
        for m in sorted_vectors(points, squares, total, n_max + 1, 0):
            if meets_every_section(d, pad + m):
                want.add((level, m))
    assert found == want
