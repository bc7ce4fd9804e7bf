import copy
import dataclasses
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilforge.base_change import (
    BranchLocus,
    FibreConfiguration,
    FibreProductKind,
    KodairaFibre,
    SurfaceClass,
    base_changed_configuration,
    classify_quadratic_base_change,
    euler_total,
    fibre_product_genus,
    transform_fibre,
)

# Kodaira's table, written out by hand: symbol -> (euler, reduced, components)
FIBRE_TABLE = {
    "I0": (0, True, 1),
    "I1": (1, True, 1),
    "I2": (2, True, 2),
    "I3": (3, True, 3),
    "I9": (9, True, 9),
    "II": (2, True, 1),
    "III": (3, True, 2),
    "IV": (4, True, 3),
    "I0*": (6, False, 5),
    "I1*": (7, False, 6),
    "I4*": (10, False, 9),
    "IV*": (8, False, 7),
    "III*": (9, False, 8),
    "II*": (10, False, 9),
}


@pytest.mark.parametrize("symbol,expected", sorted(FIBRE_TABLE.items()))
def test_fibre_invariants_match_table(symbol, expected):
    fibre = KodairaFibre(symbol)
    assert (fibre.euler, not fibre.starred, fibre.components) == expected


def test_symbol_normalisation():
    assert KodairaFibre("I_3").symbol == "I3"
    assert KodairaFibre(" II* ").symbol == "II*"
    with pytest.raises(ValueError):
        KodairaFibre("V")
    with pytest.raises(ValueError):
        KodairaFibre("I*")


def test_unramified_places_duplicate():
    assert [f.symbol for f in transform_fibre(KodairaFibre("III"), ramified=False)] == ["III", "III"]


def test_ramified_star_fibres_lose_the_star():
    assert [f.symbol for f in transform_fibre(KodairaFibre("I0*"), True)] == ["I0"]
    assert [f.symbol for f in transform_fibre(KodairaFibre("I3*"), True)] == ["I6"]
    assert [f.symbol for f in transform_fibre(KodairaFibre("IV*"), True)] == ["IV"]
    assert [f.symbol for f in transform_fibre(KodairaFibre("III*"), True)] == ["I0*"]
    assert [f.symbol for f in transform_fibre(KodairaFibre("II*"), True)] == ["IV*"]


def test_ramified_reduced_fibres_double():
    assert [f.symbol for f in transform_fibre(KodairaFibre("I1"), True)] == ["I2"]
    assert [f.symbol for f in transform_fibre(KodairaFibre("I5"), True)] == ["I10"]
    assert [f.symbol for f in transform_fibre(KodairaFibre("II"), True)] == ["IV"]
    assert [f.symbol for f in transform_fibre(KodairaFibre("III"), True)] == ["I0*"]
    assert [f.symbol for f in transform_fibre(KodairaFibre("IV"), True)] == ["IV*"]


def test_ramified_takes_a_bool_only():
    # transform_fibre("I2", "no") used to ramify: any true value did
    for ramified in ("no", "", 0, 1, None, 1.0):
        with pytest.raises(TypeError, match="ramified must be True or False"):
            transform_fibre(KodairaFibre("I2"), ramified)
    assert [f.symbol for f in transform_fibre("I2", False)] == ["I2", "I2"]
    assert [f.symbol for f in transform_fibre("I2", True)] == ["I4"]


ALL_SYMBOLS = [f"I{n}" for n in range(13)] + [f"I{n}*" for n in range(7)] + [
    "II", "III", "IV", "II*", "III*", "IV*"]


@pytest.mark.parametrize("symbol", ALL_SYMBOLS)
def test_euler_rule_consistent_with_symbol_table(symbol):
    fibre = KodairaFibre(symbol)
    doubled = transform_fibre(fibre, ramified=False)
    assert sum(f.euler for f in doubled) == 2 * fibre.euler
    ramified = transform_fibre(fibre, ramified=True)
    expected = 2 * fibre.euler - (12 if fibre.starred else 0)
    assert sum(f.euler for f in ramified) == expected


def test_euler_totals():
    assert euler_total(FibreConfiguration.from_counts({"I0*": 2})) == 12
    assert euler_total(FibreConfiguration(())) == 0
    assert euler_total(FibreConfiguration.from_counts({"II*": 1, "I1": 2})) == 12


def test_classify_worked_cases():
    rational = FibreConfiguration.from_counts({"I0*": 1, "I1": 6})
    assert classify_quadratic_base_change(rational, BranchLocus("v0", "v1")) == SurfaceClass.RATIONAL

    trivial = FibreConfiguration.from_counts({"I0*": 2})
    assert classify_quadratic_base_change(trivial, BranchLocus("v0", "v1")) == SurfaceClass.TRIVIAL_PRODUCT

    k3 = FibreConfiguration.from_counts({"I1": 12})
    assert classify_quadratic_base_change(k3, BranchLocus("v0", "v1")) == SurfaceClass.K3


def test_classify_rejects_wrong_euler_total():
    with pytest.raises(ValueError):
        classify_quadratic_base_change(FibreConfiguration.from_counts({"I1": 5}), BranchLocus("v0", "v1"))


def test_branch_over_smooth_places_gives_k3():
    config = FibreConfiguration.from_counts({"I0*": 1, "I1": 6})
    assert classify_quadratic_base_change(config, BranchLocus("p", "q")) == SurfaceClass.K3


def test_configuration_validation_and_serialization():
    config = FibreConfiguration.from_counts({"I0*": 1, "I1": 2})
    assert config.places == (
        ("v0", KodairaFibre("I0*")),
        ("v1", KodairaFibre("I1")),
        ("v2", KodairaFibre("I1")),
    )
    with pytest.raises(ValueError):
        FibreConfiguration((("v0", "I1"), ("v0", "I2")))
    with pytest.raises(ValueError):
        BranchLocus("v0", "v0")
    for count in (2.0, True, "2"):
        with pytest.raises(TypeError):
            FibreConfiguration.from_counts({"I0*": 1, "I1": count})
    # {"I1": -3, "I0*": 2} used to drop the I1 entry and classify (I0*, I0*)
    with pytest.raises(ValueError, match="count of I1 must be non-negative, got -3"):
        FibreConfiguration.from_counts({"I1": -3, "I0*": 2})
    assert euler_total(FibreConfiguration.from_counts({"I1": 0, "I0*": 2})) == 12


# symbols by Euler number, hand-listed, for the exhaustive sweep
SYMBOLS_BY_EULER = {
    1: ["I1"], 2: ["I2", "II"], 3: ["I3", "III"], 4: ["I4", "IV"], 5: ["I5"],
    6: ["I6", "I0*"], 7: ["I7", "I1*"], 8: ["I8", "I2*", "IV*"],
    9: ["I9", "I3*", "III*"], 10: ["I10", "I4*", "II*"],
    11: ["I11", "I5*"], 12: ["I12", "I6*"],
}


def partitions(total, parts, minimum=1):
    if parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total - parts + 2):
        for rest in partitions(total - first, parts - 1, first):
            yield (first, *rest)


def all_configurations(max_fibres=5, total=12):
    for count in range(1, max_fibres + 1):
        for eulers in partitions(total, count):
            for symbols in itertools.product(*(SYMBOLS_BY_EULER[e] for e in eulers)):
                yield FibreConfiguration(tuple((f"v{i}", s) for i, s in enumerate(symbols)))


def test_exhaustive_trichotomy_transformed_totals():
    checked = 0
    for config in all_configurations():
        ids = [place for place, _ in config.places] + ["s0", "s1"]
        for first, second in itertools.combinations(ids, 2):
            branch = BranchLocus(first, second)
            verdict = classify_quadratic_base_change(config, branch)
            total = euler_total(base_changed_configuration(config, branch))
            if verdict == SurfaceClass.TRIVIAL_PRODUCT:
                assert sorted(f.symbol for _, f in config.places) == ["I0*", "I0*"]
                assert total == 0
            elif verdict == SurfaceClass.RATIONAL:
                assert total == 12
            else:
                assert total == 24
            checked += 1
    assert checked > 1000


@st.composite
def euler_twelve_branchings(draw):
    # fibres drawn one at a time until the Euler total is exactly 12, and a
    # branch locus over two listed places or two smooth ones
    symbols, left = [], 12
    while left:
        euler = draw(st.integers(1, left))
        symbols.append(draw(st.sampled_from(SYMBOLS_BY_EULER[euler])))
        left -= euler
    config = FibreConfiguration(tuple((f"v{i}", s) for i, s in enumerate(symbols)))
    ids = [place for place, _ in config.places] + ["s0", "s1"]
    first, second = draw(st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True))
    return config, BranchLocus(first, second)


@settings(max_examples=300, deadline=None)
@given(euler_twelve_branchings())
def test_base_change_conserves_euler_number(case):
    # each starred branch fibre gives back 12 of the doubled total 24
    config, branch = case
    fibres = dict(config.places)
    starred = sum(place in fibres and fibres[place].starred for place in branch.places)
    total = euler_total(base_changed_configuration(config, branch))
    assert total == 24 - 12 * starred
    verdict = {24: SurfaceClass.K3, 12: SurfaceClass.RATIONAL, 0: SurfaceClass.TRIVIAL_PRODUCT}[total]
    assert classify_quadratic_base_change(config, branch) == verdict


def hurwitz_genus(branch1, branch2):
    # Riemann-Hurwitz oracle: the normalized fibre product is a double cover
    # of one genus-zero factor, branched over the preimages of the other
    # cover's non-shared branch points.
    shared = len(branch1.places & branch2.places)
    branch_points = 2 * (2 - shared)
    two_g_minus_2 = 2 * (2 * 0 - 2) + branch_points
    return two_g_minus_2 // 2 + 1


def test_fibre_product_genus_against_hurwitz():
    a, b, c, d = "a", "b", "c", "d"
    assert fibre_product_genus(BranchLocus(a, b), BranchLocus(c, d)) == FibreProductKind.GENUS_ONE
    assert hurwitz_genus(BranchLocus(a, b), BranchLocus(c, d)) == 1
    assert fibre_product_genus(BranchLocus(a, b), BranchLocus(b, c)) == FibreProductKind.GENUS_ZERO
    assert hurwitz_genus(BranchLocus(a, b), BranchLocus(b, c)) == 0
    assert fibre_product_genus(BranchLocus(a, b), BranchLocus(a, b)) == FibreProductKind.SPLIT
    # identical covers: the product splits; each component is rational
    assert hurwitz_genus(BranchLocus(a, b), BranchLocus(a, b)) == -1


def test_fibre_product_genus_never_exceeds_one():
    ids = ["a", "b", "c", "d"]
    loci = [BranchLocus(x, y) for x, y in itertools.combinations(ids, 2)]
    for b1, b2 in itertools.product(loci, repeat=2):
        kind = fibre_product_genus(b1, b2)
        assert kind.genus is None or kind.genus <= 1


@pytest.mark.parametrize("bad", [5, None, ["I2"], b"I2"])
def test_non_string_symbols_raise_type_error(bad):
    # 5 used to fail inside the parser with an AttributeError
    with pytest.raises(TypeError, match="must be a string"):
        KodairaFibre(bad)
    with pytest.raises(TypeError):
        FibreConfiguration((("a", bad),))


@pytest.mark.parametrize("bad", [5, None, ("a",), b"a"])
def test_non_string_place_ids_raise_type_error(bad):
    # 5 and None used to become the ids "5" and "None"
    with pytest.raises(TypeError, match="place id must be a string"):
        FibreConfiguration(((bad, "I0*"),))
    with pytest.raises(TypeError, match="place id must be a string"):
        BranchLocus(bad, "a")
    with pytest.raises(TypeError, match="place id must be a string"):
        BranchLocus("a", bad)


def test_index_beyond_the_digit_limit_is_refused_by_name():
    assert KodairaFibre("I" + "9" * 2150).index == 10 ** 2150 - 1
    with pytest.raises(ValueError, match="Kodaira symbol I9+\\.\\.\\. has a 2151-digit index; at most 2150"):
        KodairaFibre("I" + "9" * 2151)



def test_each_spelling_resolves_to_one_interned_fibre():
    fibre = KodairaFibre("I2")
    assert KodairaFibre(" I_2 ") is fibre and KodairaFibre("I02") is fibre
    assert repr(fibre) == "KodairaFibre(symbol='I2')"
    assert pickle.loads(pickle.dumps(fibre)) is fibre
    assert copy.deepcopy(FibreConfiguration((("a", fibre),))).places[0][1] is fibre
    assert KodairaFibre("I3") != fibre and len({fibre, KodairaFibre("I_2")}) == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        fibre.euler = 3


# ARABIC-INDIC DIGIT THREE and FULLWIDTH DIGIT THREE
@pytest.mark.parametrize("raw", ["I٣", "I٣*", "I_٣", "I３", "I1٣"])
def test_symbol_indices_are_ascii_digits(raw):
    # "I٣" used to be read as I3
    with pytest.raises(ValueError, match="unknown Kodaira symbol"):
        KodairaFibre(raw)


def test_symbol_cache_stays_bounded():
    from pencilforge.base_change import _interned

    for n in range(10_000):
        KodairaFibre(f"I{10 ** 6 + n}")
    info = _interned.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


def test_classify_does_not_build_the_renamed_configuration():
    # the unramified place "a" would be renamed "a.1", the id of the ramified place
    config = FibreConfiguration((("a", "I1"), ("a.1", "I1"), ("b", "I10")))
    branch = BranchLocus("a.1", "z")
    assert classify_quadratic_base_change(config, branch) == SurfaceClass.K3
    with pytest.raises(ValueError, match="duplicate place ids"):
        base_changed_configuration(config, branch)


@st.composite
def colliding_branchings(draw):
    # like euler_twelve_branchings, over place ids that the renaming of
    # base_changed_configuration can collide with
    symbols, left = [], 12
    while left:
        euler = draw(st.integers(1, left))
        symbols.append(draw(st.sampled_from(SYMBOLS_BY_EULER[euler])))
        left -= euler
    pool = ["a", "a.1", "a.2", "b", "b.1", "a.1.1", "c"]
    ids = draw(st.lists(st.sampled_from(pool), min_size=len(symbols), max_size=len(symbols), unique=True)) \
        if len(symbols) <= len(pool) else [f"v{i}" for i in range(len(symbols))]
    config = FibreConfiguration(tuple(zip(ids, symbols)))
    first, second = draw(st.lists(st.sampled_from(ids + ["s0", "s1"]), min_size=2, max_size=2, unique=True))
    return config, BranchLocus(first, second)


@settings(max_examples=300, deadline=None)
@given(colliding_branchings())
def test_classify_euler_sum_matches_the_built_configuration(case):
    config, branch = case
    verdict = classify_quadratic_base_change(config, branch)
    try:
        total = euler_total(base_changed_configuration(config, branch))
    except ValueError as exc:
        assert "duplicate place ids" in str(exc)
        return
    assert verdict == {24: SurfaceClass.K3, 12: SurfaceClass.RATIONAL, 0: SurfaceClass.TRIVIAL_PRODUCT}[total]
