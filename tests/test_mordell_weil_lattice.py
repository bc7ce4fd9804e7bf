"""The height pairing against the Mordell-Weil lattices of rational elliptic surfaces.

The oracle is a published table, not the library:

* K. Oguiso and T. Shioda, "The Mordell-Weil lattice of a rational elliptic
  surface", Comment. Math. Univ. St. Paul. 40 (1991) 83-99: for each trivial
  lattice T, the Mordell-Weil lattice with its minimal height and number of
  minimal sections;
* T. Shioda, "On the Mordell-Weil lattices", Comment. Math. Univ. St. Paul. 39
  (1990) 211-240: with chi = 1, <P, P> = 2 + 2 (P.O) - sum_v contr_v(P, P).

The surface is the plane blown up at nine points with zero section O = E9.
A reducible fibre is built from (-2)-classes orthogonal to O: A_n as chains
E_i - E_{i+1}, and D_n and E_n with a class L - E_i - E_j - E_k.  Its
identity component is F minus the others with their multiplicities.  A
section class P meets each component non-negatively, and meets exactly one
component of multiplicity one: that one's index, in the numbering the
`heights` docstring fixes, is what `height_pairing` reads.

The heights of sections with P.O = 0 are at most 2, and every section of
height at most 2 has P.O = 0 on these rows (P.O >= 1 gives at least
4 - contr > 2).  So these sections are exactly the lattice vectors of norm
at most 2, whose counts are theta-series coefficients of the lattice.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest

from pencilforge import (
    FIBRE,
    LINE,
    SectionIntersections,
    enumerate_section_classes,
    exceptional as E,
    height_pairing,
    intersect,
)

O = E(9)


def chain(i: int, j: int):
    return E(i) - E(j)


def conic(i: int, j: int, k: int):
    return LINE - E(i) - E(j) - E(k)


# T, its fibres (Kodaira symbol, then each non-identity component in the
# `heights` numbering with its multiplicity in F), the Mordell-Weil lattice
# and its minimal height and number of minimal sections (Oguiso-Shioda), and
# the number of sections of each height up to 2: the minimal ones, then the
# norm-2 vectors of the lattice, which are the roots of its root lattice
# (A_2: 6, A_1: 2, D_5: 40, D_6: 60, E_6: 72, E_7: 126, E_8: 240) or, for
# D_4* = D_4 scaled by 1/2, its 24 vectors of norm 2
ROWS = {
    "0": ([], "E8", Fraction(2), 240, {Fraction(2): 240}),
    "A1": ([("I2", [(chain(1, 2), 1)])], "E7*", Fraction(3, 2), 56, {Fraction(2): 126}),
    "A1 (III)": ([("III", [(chain(1, 2), 1)])], "E7*", Fraction(3, 2), 56, {Fraction(2): 126}),
    "A2": ([("I3", [(chain(1, 2), 1), (chain(2, 3), 1)])], "E6*", Fraction(4, 3), 54, {Fraction(2): 72}),
    "A2 (IV)": ([("IV", [(chain(1, 2), 1), (chain(2, 3), 1)])], "E6*", Fraction(4, 3), 54, {Fraction(2): 72}),
    "2A1": ([("I2", [(chain(1, 2), 1)]), ("I2", [(chain(3, 4), 1)])], "D6*", Fraction(1), 12,
            {Fraction(3, 2): 64, Fraction(2): 60}),
    "A3": ([("I4", [(chain(1, 2), 1), (chain(2, 3), 1), (chain(3, 4), 1)])], "D5*", Fraction(1), 10,
           {Fraction(5, 4): 32, Fraction(2): 40}),
    # near end 1, spine 2, far ends 3 and 4
    "D4": ([("I0*", [(chain(1, 2), 1), (conic(1, 3, 5), 2), (chain(3, 4), 1), (chain(5, 6), 1)])],
           "D4*", Fraction(1), 24, {Fraction(2): 24}),
    # near end 1, spine 2 and 3, far ends 4 and 5: a near end read as a far
    # one moves sections between heights 3/4 and 1
    "D5": ([("I1*", [(chain(1, 2), 1), (chain(2, 3), 2), (chain(3, 4), 2), (chain(4, 5), 1),
                     (conic(1, 2, 3), 1)])], "A3*", Fraction(3, 4), 8, {Fraction(1): 6, Fraction(2): 12}),
    # Bourbaki: 2 is the conic class, 1-3-4-5-6(-7-8) the chain
    "E6": ([("IV*", [(chain(1, 2), 1), (conic(1, 2, 3), 2), (chain(2, 3), 2), (chain(3, 4), 3),
                     (chain(4, 5), 2), (chain(5, 6), 1)])], "A2*", Fraction(2, 3), 6, {Fraction(2): 6}),
    "E7": ([("III*", [(chain(1, 2), 2), (conic(1, 2, 3), 2), (chain(2, 3), 3), (chain(3, 4), 4),
                      (chain(4, 5), 3), (chain(5, 6), 2), (chain(6, 7), 1)])], "A1*", Fraction(1, 2), 2,
           {Fraction(2): 2}),
    "E8": ([("II*", [(chain(1, 2), 2), (conic(1, 2, 3), 3), (chain(2, 3), 4), (chain(3, 4), 6),
                     (chain(4, 5), 5), (chain(5, 6), 4), (chain(6, 7), 3), (chain(7, 8), 2)])], "0", None, 0, {}),
}

# every section class with P.O = 0: all have degree at most 6
SECTIONS = [p for p in enumerate_section_classes(d_max=6) if intersect(p, O) == 0]


def _fibres(fibres):
    # each fibre's symbol and its components, identity first
    built = []
    for symbol, parts in fibres:
        identity = FIBRE
        for component, multiplicity in parts:
            assert intersect(component, component) == -2 and intersect(component, O) == 0
            identity -= multiplicity * component
        assert intersect(identity, identity) == -2 and intersect(identity, O) == 1
        built.append((symbol, [identity, *(component for component, _ in parts)]))
    return built


def _heights(fibres) -> Counter:
    # the heights of the sections with P.O = 0, counted
    counts = Counter()
    for p in SECTIONS:
        met = []
        for _, components in fibres:
            meets = [intersect(p, component) for component in components]
            if min(meets) < 0:
                break  # not a section of this surface: it meets a component negatively
            met.append(meets.index(1))
        else:
            symbols = [symbol for symbol, _ in fibres]
            counts[height_pairing(SectionIntersections(0, 0, -1, tuple((i, i) for i in met)), 1, symbols)] += 1
    return counts


@pytest.mark.parametrize("row", ROWS)
def test_minimal_sections_match_oguiso_shioda(row):
    fibres, lattice, minimal, count, heights = ROWS[row]
    found = _heights(_fibres(fibres))
    if minimal is None:
        assert found == Counter(), lattice  # only the zero section
        return
    assert min(found) == minimal and found[minimal] == count, lattice
    assert found == Counter({minimal: count, **heights})


def test_e8_sections_are_the_240_roots():
    assert len(SECTIONS) == 240
    assert max(p.d for p in SECTIONS) == 6

    def pair(p, q):
        return height_pairing(SectionIntersections(0, 0, intersect(p, q)), 1)

    assert all(pair(p, p) == 2 for p in SECTIONS)
    # the inner products of one root of E8 with all 240
    assert Counter(pair(SECTIONS[0], q) for q in SECTIONS) == {-2: 1, -1: 56, 0: 126, 1: 56, 2: 1}
    gram = [[pair(p, q) for q in SECTIONS] for p in SECTIONS]
    # E8 is integral, and of rank 8
    assert all(x.denominator == 1 for row in gram for x in row)
    assert _rank([[x.numerator for x in row] for row in gram]) == 8


def _rank(rows) -> int:
    # the rank over the rationals of an integer matrix, by fraction-free
    # elimination that drops each row once it is cleared
    rows = [row for row in rows if any(row)]
    rank = 0
    while rows:
        top = rows.pop()
        col = next(c for c, x in enumerate(top) if x)
        rows = [[top[col] * x - row[col] * y for x, y in zip(row, top)] for row in rows]
        rows = [row for row in rows if any(row)]
        rank += 1
    return rank
