import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilforge.heights import multiplication_pullback_degree
from pencilforge.pencils import PencilSpec, verify
from pencilforge.picard_lattice import (
    CANONICAL,
    FIBRE,
    LINE,
    NumericalClass,
    arithmetic_genus,
    degree_to_base,
    exceptional,
    intersect,
    mw_rank_bound,
    strict_int,
    unirationality_check,
    weighted_vectors,
)


def random_class(rng, bound=9):
    return NumericalClass(rng.randint(-bound, bound),
                          tuple(rng.randint(-bound, bound) for _ in range(9)))


def test_two_lines_meet_once():
    a = NumericalClass(1, (1, 0, 0, 0, 0, 0, 0, 0, 0))
    b = NumericalClass(1, (0, 1, 0, 0, 0, 0, 0, 0, 0))
    assert intersect(a, b) == 1


def test_canonical_class_squares_to_zero():
    assert intersect(CANONICAL, CANONICAL) == 0
    assert intersect(FIBRE, FIBRE) == 0
    assert FIBRE == -CANONICAL


def test_degree_five_conic_class_meets_fibre_twice():
    c = NumericalClass(6, (2, 2, 2, 2, 4, 1, 1, 1, 1))
    assert intersect(c, FIBRE) == 2


def test_genus_of_line_and_cubic():
    assert arithmetic_genus(NumericalClass(1, (1, 0, 0, 0, 0, 0, 0, 0, 0))) == 0
    assert arithmetic_genus(NumericalClass(3, (1,) * 9)) == 1


def test_genus_of_degree_five_conic_class():
    assert arithmetic_genus(NumericalClass(6, (2, 2, 2, 2, 4, 1, 1, 1, 1))) == 0


def test_degree_to_base_examples():
    assert degree_to_base(NumericalClass(1, (1, 0, 0, 0, 0, 0, 0, 0, 0))) == 2
    for j in range(1, 10):
        assert degree_to_base(exceptional(j)) == 1
    assert degree_to_base(NumericalClass(17, (1, 6, 6, 6, 6, 6, 6, 6, 6))) == 2


def test_intersect_symmetric_and_bilinear():
    rng = random.Random(11)
    for _ in range(300):
        a, b, c = (random_class(rng) for _ in range(3))
        assert intersect(a, b) == intersect(b, a)
        assert intersect(a + b, c) == intersect(a, c) + intersect(b, c)
        s = rng.randint(-4, 4)
        assert intersect(s * a, b) == s * intersect(a, b)


def test_genus_of_minus_one_degree_one_classes():
    # any class with a.a = -1 and a.K = -1 has genus zero
    rng = random.Random(23)
    seen = 0
    for _ in range(5000):
        a = random_class(rng, bound=3)
        if intersect(a, a) == -1 and intersect(a, CANONICAL) == -1:
            assert arithmetic_genus(a) == 0
            seen += 1
    assert seen > 0


def test_degree_to_base_is_additive():
    rng = random.Random(37)
    for _ in range(200):
        a, b = random_class(rng), random_class(rng)
        assert degree_to_base(a + b) == degree_to_base(a) + degree_to_base(b)


def test_exceptional_classes():
    e1 = exceptional(1)
    assert e1.to_list() == [0, -1, 0, 0, 0, 0, 0, 0, 0, 0]
    assert intersect(e1, e1) == -1
    with pytest.raises(ValueError):
        exceptional(0)
    with pytest.raises(ValueError):
        exceptional(10)


def test_exceptional_takes_an_exact_integer_only():
    # exceptional(True) used to return E_1
    for bad in (True, 1.0, "1"):
        with pytest.raises(TypeError, match="point index must be an integer"):
            exceptional(bad)


def test_class_arithmetic_and_serialization():
    a = NumericalClass(2, (1, 1, 1, 1, 1, 0, 0, 0, 0))
    assert NumericalClass.from_list(a.to_list()) == a
    assert (a - a).to_list() == [0] * 10
    assert (2 * a).d == 4
    assert (-a).m[0] == -1
    with pytest.raises(ValueError):
        NumericalClass(1, (0, 0))
    with pytest.raises(ValueError):
        NumericalClass.from_list([1, 2, 3])


@pytest.mark.parametrize("bad", [2.5, True, "3"])
@pytest.mark.parametrize("function", [multiplication_pullback_degree, mw_rank_bound, unirationality_check])
def test_small_bounds_take_exact_integers_only(function, bad):
    # multiplication_pullback_degree(2.5) used to return 6.25, mw_rank_bound(2.5)
    # 1.5 and unirationality_check(5.5) True; each read True as 1
    with pytest.raises(TypeError, match="must be an integer"):
        function(bad)


def test_mw_rank_bound():
    assert mw_rank_bound(9) == 8
    assert mw_rank_bound(1) == 0
    assert mw_rank_bound(4) == 3
    for bad in (0, 10, -3):
        with pytest.raises(ValueError):
            mw_rank_bound(bad)


def test_unirationality_threshold():
    assert unirationality_check(5) is True
    assert unirationality_check(4) is False
    assert unirationality_check(10) is True
    for bad in (0, 11):
        with pytest.raises(ValueError):
            unirationality_check(bad)


def riemann_roch(d, m):
    # (c.c + c.F)/2 + 1, written out for the plane class c = (d; m)
    return (d * d - sum(x * x for x in m) + 3 * d - sum(m)) // 2 + 1


def test_riemann_roch_exceeds_genus_by_fibre_degree():
    rng = random.Random(11)
    for _ in range(500):
        d, m = rng.randint(1, 9), tuple(rng.randint(0, 9) for _ in range(9))
        report = verify(PencilSpec("plane", d, m))
        assert report.dim_lower_bound == riemann_roch(d, m)
        assert report.dim_lower_bound - report.genus_upper_bound == report.degree_to_base


def test_riemann_roch_counts_plane_curves():
    # cubics through eight points: a pencil
    assert verify(PencilSpec("plane", 3, (1,) * 8)).dim_lower_bound == riemann_roch(3, (1,) * 8) == 2
    # conics through a double point: 6 - 3
    assert verify(PencilSpec("plane", 2, (2,))).dim_lower_bound == riemann_roch(2, (2,)) == 3


@pytest.mark.parametrize("weights, lo, hi", [
    ((1, 1, 1), -3, 3),
    ((1, 2, 3), 0, 4),
    ((2, 1, 1, 2), -2, 3),
    ((4,), -5, 5),
])
def test_weighted_vectors_match_brute_force(weights, lo, hi):
    # product() runs in lex order, so each bucket is already sorted
    buckets = {}
    for x in itertools.product(range(lo, hi + 1), repeat=len(weights)):
        key = (sum(w * v * v for w, v in zip(weights, x)), sum(w * v for w, v in zip(weights, x)))
        buckets.setdefault(key, []).append(x)
    for square_sum in range(-1, 30):
        for linear_sum in range(-12, 13):
            want = buckets.get((square_sum, linear_sum), [])
            assert list(weighted_vectors(weights, square_sum, linear_sum, lo, hi)) == want


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=5), st.integers(-4, 2), st.integers(0, 6),
       st.data())
def test_weighted_vectors_match_a_bucket_oracle(weights, lo, span, data):
    # the closed-form last two entries against a plain product scan; the
    # drawn sums hit buckets and miss them, negative square sums included
    hi = min(lo + span, 6)
    buckets = {}
    for x in itertools.product(range(lo, hi + 1), repeat=len(weights)):
        key = (sum(w * v * v for w, v in zip(weights, x)), sum(w * v for w, v in zip(weights, x)))
        buckets.setdefault(key, []).append(x)
    keys = data.draw(st.lists(st.sampled_from(sorted(buckets)), min_size=1, max_size=8))
    keys += data.draw(st.lists(st.tuples(st.integers(-5, 200), st.integers(-40, 40)), max_size=8))
    for square_sum, linear_sum in keys:
        want = buckets.get((square_sum, linear_sum), [])
        assert weighted_vectors(weights, square_sum, linear_sum, lo, hi) == want


def test_weighted_vectors_of_no_weights():
    assert weighted_vectors((), 0, 0, 0, 1) == [()]
    assert weighted_vectors((), 1, 0, 0, 1) == []


GOLDEN = NumericalClass(6, (2, 2, 2, 2, 4, 1, 1, 1, 1))


def test_numerical_class_rejects_non_integers_and_wrong_lengths():
    with pytest.raises(TypeError):
        NumericalClass(1.0, (0,) * 9)
    with pytest.raises(TypeError):
        NumericalClass(1, (0,) * 8 + (0.5,))
    # entries and degree are checked before the length
    with pytest.raises(TypeError):
        NumericalClass(1, (0.5,) * 8)
    with pytest.raises(TypeError):
        NumericalClass(1.5, (0,) * 8)
    # NumericalClass(True, (True,) + (0,) * 8) used to be read as (1; 1, 0, ...)
    for d, m in ((True, (0,) * 9), (1, (True,) + (0,) * 8), (1, [0] * 8 + [False])):
        with pytest.raises(TypeError, match="must be an integer"):
            NumericalClass(d, m)
    for m in ((), (0,) * 8, (0,) * 10):
        with pytest.raises(ValueError):
            NumericalClass(1, m)


def test_numerical_class_accepts_any_iterable_and_keywords():
    m = GOLDEN.m
    for built in (NumericalClass(6, list(m)), NumericalClass(6, tuple(m)),
                  NumericalClass(6, (x for x in m)), NumericalClass(d=6, m=m),
                  NumericalClass(m=list(m), d=6)):
        assert built == GOLDEN
        assert type(built.m) is tuple


def test_numerical_class_value_semantics():
    same = NumericalClass(6, [2, 2, 2, 2, 4, 1, 1, 1, 1])
    assert same == GOLDEN and hash(same) == hash(GOLDEN)
    assert hash(GOLDEN) == hash((6, (2, 2, 2, 2, 4, 1, 1, 1, 1)))
    assert GOLDEN != NumericalClass(7, GOLDEN.m)
    assert GOLDEN != (6, GOLDEN.m)
    assert repr(GOLDEN) == "(6; 2, 2, 2, 2, 4, 1, 1, 1, 1)"
    assert NumericalClass.__match_args__ == NumericalClass.__slots__ == ("d", "m")
    with pytest.raises(dataclasses.FrozenInstanceError):
        GOLDEN.d = 7
    with pytest.raises(dataclasses.FrozenInstanceError):
        GOLDEN.m = (0,) * 9
    moved = NumericalClass(d=7, m=GOLDEN.m)
    assert moved == NumericalClass(7, GOLDEN.m)
    assert NumericalClass(d=GOLDEN.d, m=[0] * 9).m == (0,) * 9
    with pytest.raises(TypeError):
        NumericalClass(d=7.0, m=GOLDEN.m)


def test_unchecked_classes_behave_like_checked_ones():
    built = NumericalClass._of(6, (2, 2, 2, 2, 4, 1, 1, 1, 1))
    assert type(built) is NumericalClass
    assert built == GOLDEN and hash(built) == hash(GOLDEN) and repr(built) == repr(GOLDEN)
    assert NumericalClass(d=7, m=built.m) == NumericalClass(7, GOLDEN.m)
    with pytest.raises(dataclasses.FrozenInstanceError):
        built.d = 7


def test_strict_int_accepts_exact_integers_only():
    assert strict_int(3, "x") == 3 and strict_int(-10 ** 30, "x") == -10 ** 30
    for bad in (True, False, 2.0, 2.7, "2", None, Fraction(2)):
        with pytest.raises(TypeError, match="level must be an integer"):
            strict_int(bad, "level")
