import time
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilforge import heights
from pencilforge.base_change import KodairaFibre
from pencilforge.heights import (
    KummerInputs,
    SectionIntersections,
    contribution,
    enumerate_section_classes,
    height_pairing,
    kummer_bound,
    multiplication_pullback_degree,
)
from pencilforge.picard_lattice import (
    FIBRE,
    NumericalClass,
    arithmetic_genus,
    degree_to_base,
    exceptional,
    intersect,
)

# ---------------------------------------------------------------------------
# independent linear algebra: cofactor determinant, adjugate and
# Gauss-Jordan inverses

def det(M):
    n = len(M)
    if n == 0:
        return 1
    if n == 1:
        return M[0][0]
    total = 0
    for j in range(n):
        if M[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in M[1:]]
        total += (-1) ** j * M[0][j] * det(minor)
    return total


def adjugate_inverse(M):
    n = len(M)
    d = det(M)
    assert d != 0
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = [r[:i] + r[i + 1:] for k, r in enumerate(M) if k != j]
            row.append(Fraction((-1) ** (i + j) * det(minor), d))
        out.append(row)
    return out


def gauss_jordan_inverse(M):
    # row reduction of [M | I] over Fraction, taking the first nonzero pivot
    n = len(M)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(M)]
    for col in range(n):
        pivot_row = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [x / pivot for x in aug[col]]
        for r in range(n):
            factor = aug[r][col]
            if r != col:
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def fibre_component_matrix(symbol):
    """Intersection matrix of non-identity components, built from the fibre
    geometry: components have self-intersection -2 and the listed adjacencies.
    Node order matches the documented indexing convention."""
    if symbol.startswith("I") and symbol not in ("II", "III", "IV", "II*", "III*", "IV*"):
        star = symbol.endswith("*")
        n = int(symbol.rstrip("*")[1:])
        if not star:
            # cycle of n nodes; drop the identity, keep the chain 1..n-1
            size = n - 1
            edges = [(i, i + 1) for i in range(1, size)]
            if n == 2:
                edges = []  # two components meeting twice: single leftover node
        else:
            # near leg (1), spine 2..n+2, far legs n+3 and n+4
            size = n + 4
            edges = [(1, 2)] + [(i, i + 1) for i in range(2, n + 2)] + [(n + 2, n + 3), (n + 2, n + 4)]
    elif symbol == "III":
        size, edges = 1, []
    elif symbol == "IV":
        size, edges = 2, [(1, 2)]
    else:
        # Bourbaki diagrams for E6, E7, E8
        size = {"IV*": 6, "III*": 7, "II*": 8}[symbol]
        edges = [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]
        if size >= 7:
            edges.append((6, 7))
        if size == 8:
            edges.append((7, 8))
    M = [[-2 if i == j else 0 for j in range(size)] for i in range(size)]
    for a, b in edges:
        M[a - 1][b - 1] = 1
        M[b - 1][a - 1] = 1
    return M


# I_2 intersects twice along the cycle but the identity absorbs both points,
# so the single leftover component still has plain self-intersection -2.
ORACLE_SYMBOLS = (
    [f"I{n}" for n in range(2, 11)]
    + ["III", "IV"]
    + [f"I{n}*" for n in range(0, 6)]
    + ["IV*", "III*", "II*"]
)


@pytest.mark.parametrize("symbol", ORACLE_SYMBOLS)
def test_contributions_match_fresh_matrix_inversion(symbol):
    A = fibre_component_matrix(symbol)
    inverse = adjugate_inverse(A)
    size = len(A)
    data = KodairaFibre(symbol)
    assert data.components == size + 1
    for i in range(size + 1):
        assert contribution(data, 0, i) == 0
        assert contribution(data, i, 0) == 0
    for i in range(1, size + 1):
        for j in range(1, size + 1):
            assert contribution(data, i, j) == -inverse[i - 1][j - 1]


@pytest.mark.parametrize("symbol,expected_det", [
    ("I5", 5), ("I9", 9), ("III", 2), ("IV", 3),
    ("I0*", 4), ("I3*", 4), ("IV*", 3), ("III*", 2), ("II*", 1),
])
def test_cartan_determinants(symbol, expected_det):
    # known determinants pin the Dynkin diagram shape: the corrections form
    # the inverse Cartan matrix, so inverting them gives the Cartan matrix
    rank = KodairaFibre(symbol).components - 1
    corrections = [[contribution(symbol, i, j) for j in range(1, rank + 1)] for i in range(1, rank + 1)]
    cartan = gauss_jordan_inverse(corrections)
    assert all(type(x) is Fraction and x.denominator == 1 for row in cartan for x in row)
    assert all(cartan[i][i] == 2 for i in range(rank))
    assert all(cartan[i][j] in (0, -1) for i in range(rank) for j in range(rank) if i != j)
    assert det(cartan) == expected_det


def test_contribution_examples():
    assert contribution("I2", 1, 1) == Fraction(1, 2)
    assert contribution("I0*", 1, 1) == 1  # a reduced outer component
    assert contribution("I0*", 3, 3) == 1
    assert contribution("II*", 0, 5) == 0
    with pytest.raises(ValueError):
        contribution("I2", 1, 2)
    with pytest.raises(ValueError):
        contribution("IV", -1, 0)


def test_shipped_matrix_is_negative_cartan():
    # A_v of a IV fibre is the negated A_2 Cartan matrix; the corrections
    # are the entries of -A_v^{-1}
    inverse = gauss_jordan_inverse(((-2, 1), (1, -2)))
    assert inverse == [
        [Fraction(-2, 3), Fraction(-1, 3)],
        [Fraction(-1, 3), Fraction(-2, 3)],
    ]
    assert all(contribution("IV", i, j) == -inverse[i - 1][j - 1] for i in (1, 2) for j in (1, 2))


def test_zero_section_height_vanishes():
    data = SectionIntersections(-1, -1, -1)
    assert height_pairing(data, chi=1) == 0


def test_disjoint_section_height_is_two():
    data = SectionIntersections(0, 0, -1)
    assert height_pairing(data, chi=1) == 2


def test_height_with_one_i2_correction():
    data = SectionIntersections(0, 0, -1, ((1, 1),))
    assert height_pairing(data, chi=1, fibres=["I2"]) == Fraction(3, 2)


@st.composite
def pairing_data(draw):
    # reducible fibres, each with the components met by P and Q
    fibres = draw(st.lists(st.sampled_from(ORACLE_SYMBOLS), max_size=4))
    comps = [draw(st.tuples(*[st.integers(0, KodairaFibre(f).components - 1)] * 2))
             for f in fibres]
    zeros = draw(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(-3, 5)))
    return fibres, comps, zeros, draw(st.integers(1, 3))


@settings(max_examples=300, deadline=None)
@given(pairing_data())
def test_height_pairing_symmetry(case):
    # swapping P and Q swaps (P.O) with (Q.O) and each component pair
    fibres, comps, (po, qo, pq), chi = case
    lhs = height_pairing(SectionIntersections(po, qo, pq, tuple(comps)), chi, fibres)
    swapped = tuple((j, i) for i, j in comps)
    assert height_pairing(SectionIntersections(qo, po, pq, swapped), chi, fibres) == lhs


def test_height_pairing_validates_inputs():
    with pytest.raises(ValueError):
        height_pairing(SectionIntersections(0, 0, -1), chi=0)
    with pytest.raises(ValueError):
        height_pairing(SectionIntersections(0, 0, -1, ((1, 1),)), chi=1, fibres=[])


@pytest.mark.parametrize("chi", [1.5, True, Fraction(1), "1"])
def test_height_pairing_takes_an_integer_chi_only(chi):
    # chi=1.5 used to give 5/2 and chi=True gave 2
    with pytest.raises(TypeError):
        height_pairing(SectionIntersections(0, 0, -1), chi=chi)


def test_constraint_values_are_checked_before_enumerating(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("enumerated before checking the constraints")

    monkeypatch.setattr(heights, "weighted_vectors", no_enumeration)
    for value in (0.5, True, "1"):
        with pytest.raises(TypeError):
            heights.enumerate_section_classes([(exceptional(1), value)], d_max=10)


def test_constraint_classes_are_checked_before_enumerating(monkeypatch):
    # a list or a tuple in place of a class used to enumerate everything and
    # then raise AttributeError from `intersect`
    def no_enumeration(*args):
        raise AssertionError("enumerated before checking the constraints")

    monkeypatch.setattr(heights, "weighted_vectors", no_enumeration)
    for cls in ("x", [1, 0, 0, 0, 0, 0, 0, 0, 0, 0], (1, (0,) * 9), None):
        with pytest.raises(TypeError, match="constraint class must be a NumericalClass"):
            heights.enumerate_section_classes([(exceptional(1), 0), (cls, 1)], d_max=1)


def test_section_data_and_constraints_take_exact_integers_only():
    for args in ((True, 1.5, 0), (0, 0, 1.0), (0, 0, -1, ((1, True),)), (0, 0, -1, ((1, 1.5),))):
        with pytest.raises(TypeError):
            SectionIntersections(*args)
    assert SectionIntersections(0, 1, 0, [[1, 1]]).components == ((1, 1),)
    with pytest.raises(TypeError):
        enumerate_section_classes([(exceptional(1), 0.5)], d_max=1)
    with pytest.raises(TypeError):
        enumerate_section_classes([(exceptional(1), True)], d_max=1)


def test_enumerate_exceptional_classes_only_at_d_zero():
    classes = enumerate_section_classes(d_max=0)
    assert classes == [exceptional(j) for j in range(1, 10)]


def test_enumerate_d_max_two_census():
    classes = enumerate_section_classes(d_max=2)
    assert len(classes) == 171
    by_degree = {}
    for c in classes:
        assert intersect(c, c) == -1
        assert degree_to_base(c) == 1
        assert arithmetic_genus(c) == 0
        by_degree[c.d] = by_degree.get(c.d, 0) + 1
    assert by_degree == {0: 9, 1: 36, 2: 126}
    assert classes == sorted(classes, key=lambda c: (c.d, c.m))


def test_enumerated_classes_hold_exact_integers():
    classes = enumerate_section_classes(d_max=6)
    assert len(classes) == len(set(classes))
    for c in classes:
        assert type(c.d) is int and type(c.m) is tuple and len(c.m) == 9
        assert all(type(x) is int for x in c.m)
        checked = NumericalClass(c.d, c.m)
        assert checked == c and hash(checked) == hash(c) and repr(checked) == repr(c)


def test_d_max_takes_an_exact_integer_only():
    # enumerate_section_classes(None, True) used to return the 45 classes of d_max 1
    for bad in (True, 2.0, "2"):
        with pytest.raises(TypeError, match="d_max must be an integer"):
            enumerate_section_classes(None, bad)


def test_enumerate_constraints_pin_a_class():
    constraints = [(exceptional(1), -1)] + [(exceptional(j), 0) for j in range(2, 10)]
    assert enumerate_section_classes(constraints, d_max=2) == [exceptional(1)]


def test_constrained_enumeration_is_a_subset():
    everything = enumerate_section_classes(d_max=2)
    lines_meeting_e1 = enumerate_section_classes([(exceptional(1), 1)], d_max=2)
    assert set(lines_meeting_e1) <= set(everything)
    assert len(lines_meeting_e1) < len(everything)


def test_multiplication_pullback_degree():
    assert multiplication_pullback_degree(1) == 1
    assert multiplication_pullback_degree(2) == 4
    assert multiplication_pullback_degree(5) == 25
    values = [multiplication_pullback_degree(n) for n in range(1, 101)]
    assert values == sorted(set(values))
    with pytest.raises(ValueError):
        multiplication_pullback_degree(0)


def test_kummer_bound_examples():
    assert kummer_bound(KummerInputs(1, 1, 1, 1)) == 1
    assert kummer_bound(KummerInputs(2, 1, 1, 1)) == 4
    assert kummer_bound(KummerInputs(2, 1, 1, 2)) == 2


def test_kummer_bound_fractional_constants():
    # h/f1 = 9/2 -> 4; (h/c_e)^(1/alpha) = sqrt(6) -> 2
    assert kummer_bound(KummerInputs(3, Fraction(2, 3), Fraction(1, 2), 2)) == 8


def test_kummer_bound_monotone_in_h():
    inputs = [KummerInputs(h, Fraction(3, 2), Fraction(1, 2), Fraction(3, 2)) for h in range(1, 30)]
    bounds = [kummer_bound(i) for i in inputs]
    assert bounds == sorted(bounds)


def test_kummer_bound_large_torsion_factor():
    # (100 / 1)^4 = 10^8 torsion orders times 100 division indices
    assert kummer_bound(KummerInputs(100, 1, 1, Fraction(1, 4))) == 10 ** 10


def test_kummer_bound_without_a_division_index_is_zero_at_once():
    # floor(3/4) = 0: the torsion factor (3/2)^(10^9) was formed all the same,
    # in time growing with 1/alpha (8.5 s at alpha = 1/3000000)
    start = time.process_time()
    assert kummer_bound(KummerInputs(3, 4, 2, Fraction(1, 10 ** 9))) == 0
    assert time.process_time() - start < 0.5


def linear_scan_torsion_max(h, c_e, alpha):
    # independent oracle: count t up while c_e * (t + 1)^alpha <= h, raised
    # to the power q of alpha = p/q and cleared of denominators
    p, q = alpha.numerator, alpha.denominator
    t = 0
    while c_e.numerator ** q * (t + 1) ** p <= h ** q * c_e.denominator ** q:
        t += 1
    return t


def test_kummer_bound_matches_linear_scan():
    constants = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5)]
    exponents = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2), Fraction(3)]
    for h in range(1, 13):
        for c_e in constants:
            for alpha in exponents:
                want = h * linear_scan_torsion_max(h, c_e, alpha)
                assert kummer_bound(KummerInputs(h, 1, c_e, alpha)) == want, (h, c_e, alpha)


@settings(max_examples=500, deadline=None)
@given(st.fractions(min_value=0, max_value=10 ** 30).filter(lambda v: v > 0),
       st.one_of(st.integers(1, 40), st.integers(100, 10 ** 5)), st.integers(1, 12))
def test_floor_root_meets_its_defining_inequality(value, p, q):
    # t**(p/q) <= value < (t+1)**(p/q), as t**p * den <= num < (t+1)**p * den
    # with value**q = num/den; the exponent is read in lowest terms
    t = heights._floor_root(value, Fraction(p, q))
    rhs = value ** Fraction(p, q).denominator
    p = Fraction(p, q).numerator
    assert type(t) is int and t >= 0
    assert t ** p * rhs.denominator <= rhs.numerator < (t + 1) ** p * rhs.denominator


def test_floor_root_of_a_tiny_exponent_is_immediate():
    # (10^20)^1000 has 20,001 digits: bisection took seconds, the root is
    # direct; a root in [1, 2) is answered before Newton's iteration, which
    # would form 2**(10^9 - 1) from its start at 2
    start = time.process_time()
    t = heights._floor_root(Fraction(10 ** 20), Fraction(1, 1000))
    assert heights._floor_root(Fraction(10), Fraction(10 ** 9)) == 1
    assert t == 10 ** 20000 and time.process_time() - start < 0.5
    assert heights._floor_root(Fraction(2 ** 3000 + 1), Fraction(1000)) == 8


def test_kummer_inputs_validation():
    with pytest.raises(ValueError):
        KummerInputs(0, 1, 1, 1)
    with pytest.raises(ValueError):
        KummerInputs(1, 0, 1, 1)
    with pytest.raises(ValueError):
        KummerInputs(1, 1, 1, Fraction(-1, 2))
    for h in (2.5, True, "2"):
        with pytest.raises(TypeError):
            KummerInputs(h, 1, 1, 1)
    parsed = KummerInputs(2, Fraction(1, 2), 3, 1)
    assert parsed.f1 == Fraction(1, 2) and parsed.c_e == 3
    assert type(parsed.c_e) is Fraction and type(parsed.alpha) is Fraction


@pytest.mark.parametrize("field", [1, 2, 3])
@pytest.mark.parametrize("bad", [0.1, 0.5, "1/2", True, None])
def test_kummer_constants_take_int_or_fraction_only(field, bad):
    # 0.1 used to become 3602879701896397/36028797018963968
    args = [2, 1, 1, 1]
    args[field] = bad
    with pytest.raises(TypeError):
        KummerInputs(*args)


# Kodaira's table, written out by hand for the types without an index:
# symbol -> (euler, components, Dynkin rank of the non-identity components)
SIMPLE_KODAIRA = {
    "II": (2, 1, 0), "III": (3, 2, 1), "IV": (4, 3, 2),
    "IV*": (8, 7, 6), "III*": (9, 8, 7), "II*": (10, 9, 8),
}


def kodaira_row(symbol):
    """(index, starred, euler, components) of a canonical symbol, from the table."""
    if symbol in SIMPLE_KODAIRA:
        euler, components, _ = SIMPLE_KODAIRA[symbol]
        return None, symbol.endswith("*"), euler, components
    if symbol.endswith("*"):
        n = int(symbol[1:-1])
        return n, True, n + 6, n + 5
    n = int(symbol[1:])
    return n, False, n, max(n, 1)


@lru_cache(maxsize=None)
def oracle_corrections(symbol):
    # -A_v^{-1} for the fibre geometry of fibre_component_matrix
    return gauss_jordan_inverse([[-x for x in row] for row in fibre_component_matrix(symbol)])


KODAIRA_SYMBOLS = ([f"I{n}" for n in range(61)] + [f"I{n}*" for n in range(31)]
                   + list(SIMPLE_KODAIRA))


@st.composite
def spelled_symbols(draw):
    # a canonical symbol, an underscore somewhere in it, spaces around it
    symbol = draw(st.sampled_from(KODAIRA_SYMBOLS))
    cut = draw(st.integers(0, len(symbol)))
    if draw(st.booleans()):
        symbol = symbol[:cut] + "_" + symbol[cut:]
    pad = st.text(" \t", max_size=2)
    return draw(pad) + symbol + draw(pad)


@settings(max_examples=300, deadline=None)
@given(spelled_symbols(), st.data())
def test_interned_fibres_match_kodaira_table_and_inverse_cartan(raw, data):
    fibre = KodairaFibre(raw)
    canonical = raw.strip().replace("_", "")
    assert fibre.symbol == canonical
    assert (fibre.index, fibre.starred, fibre.euler, fibre.components) == kodaira_row(canonical)
    rank = fibre.components - 1
    if canonical in SIMPLE_KODAIRA:
        assert rank == SIMPLE_KODAIRA[canonical][2]
    i = data.draw(st.integers(0, rank))
    j = data.draw(st.integers(0, rank))
    value = contribution(raw, i, j)
    assert type(value) is Fraction and value == contribution(fibre, j, i)
    if i == 0 or j == 0:
        assert value == 0
    elif rank <= 30:
        assert value == oracle_corrections(canonical)[i - 1][j - 1]


def test_contribution_of_a_huge_fibre_answers_at_once():
    # I240 used to invert a 239 x 239 matrix for about a minute
    start = time.perf_counter()
    assert contribution("I100000", 1, 1) == Fraction(99999, 100000)
    assert contribution("I100000", 50000, 50000) == 25000
    assert contribution("I100000*", 3, 100004) == Fraction(3, 2)
    assert contribution("I100000*", 100003, 100003) == 25001
    assert contribution("I100000*", 100003, 100004) == Fraction(50001, 2)
    assert time.perf_counter() - start < 1.0


def test_heights_holds_no_unbounded_cache():
    for name, value in vars(heights).items():
        if hasattr(value, "cache_info"):
            assert value.cache_info().maxsize is not None, name


@pytest.mark.parametrize("i,j", [(True, True), (1.0, 1), (1, "1"), (Fraction(1), 1)])
def test_component_indices_take_exact_integers_only(i, j):
    # contribution("I2", True, True) used to return 1/2
    with pytest.raises(TypeError, match="component index"):
        contribution("I2", i, j)


@pytest.mark.parametrize("fibre", [["I2"], 2, None])
def test_contribution_takes_no_coerced_symbol(fibre):
    # ["I2"] used to be looked up as the symbol "['I2']"
    with pytest.raises(TypeError):
        contribution(fibre, 1, 1)
    with pytest.raises(TypeError):
        height_pairing(SectionIntersections(0, 0, -1, ((1, 1),)), 1, [fibre])
