"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every expected value is exact; the oracles here (box scans, cofactor
inversion, Euler partitions) share no code with the library.
"""

import itertools
import random
import time
from fractions import Fraction
from math import isqrt

from pencilforge.base_change import (
    BranchLocus,
    FibreConfiguration,
    KodairaFibre,
    SurfaceClass,
    base_changed_configuration,
    classify_quadratic_base_change,
    euler_total,
    fibre_product_genus,
)
from pencilforge.cremona import quadratic_transform, reduce_to_line
from pencilforge.heights import (
    SectionIntersections,
    contribution,
    enumerate_section_classes,
    height_pairing,
    multiplication_pullback_degree,
)
from pencilforge.pencils import PencilSpec, verify
from pencilforge.picard_lattice import (
    NumericalClass,
    arithmetic_genus,
    degree_to_base,
    intersect,
)


def announce(number, text):
    print(f"ACCEPTANCE {number} PASS - {text}")


# ---------------------------------------------------------------------------
# 1. the worked Cremona chain, exact, under a millisecond

def test_criterion_1_cremona_golden_chain():
    start = NumericalClass(6, (2, 2, 2, 2, 4, 1, 1, 1, 1))
    expected = [
        ((1, 2, 5), [4, 0, 0, 2, 2, 2, 1, 1, 1, 1]),
        ((3, 4, 5), [2, 0, 0, 0, 0, 0, 1, 1, 1, 1]),
        ((6, 7, 8), [1, 0, 0, 0, 0, 0, 0, 0, 0, 1]),
    ]
    cert = reduce_to_line(start)
    assert cert.success and len(cert.chain) == 3
    for step, (indices, after) in zip(cert.chain, expected):
        assert step.indices == indices
        assert step.after.to_list() == after
    assert cert.terminal.to_list() == [1, 0, 0, 0, 0, 0, 0, 0, 0, 1]

    elapsed = min(timed_reduction(start) for _ in range(5))
    assert elapsed < 1e-3, f"reduction took {elapsed * 1e3:.3f} ms"
    announce(1, f"golden chain reproduced exactly in {elapsed * 1e6:.0f} us")


def timed_reduction(start):
    t0 = time.perf_counter()
    reduce_to_line(start)
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# 2. every printed pencil computation, exact integers

def test_criterion_2_printed_arithmetic():
    line_through_point = NumericalClass(1, (1, 0, 0, 0, 0, 0, 0, 0, 0))
    assert degree_to_base(line_through_point) == 2            # 3.1 - 1 = 2

    cubics = PencilSpec("plane", 3, (2, 1, 1, 1, 1, 1))
    assert verify(cubics).degree_to_base == 2                 # 9 - 5 - 2 = 2

    quintics = PencilSpec("plane", 5, (1, 2, 2, 2, 2, 2, 2))
    assert verify(quintics).dim_lower_bound == 2              # dim 21, 19 conditions
    assert verify(quintics).degree_to_base == 2               # 5.3 - 6.2 - 1 = 2

    quartics = PencilSpec("plane", 4, (3, 1, 1, 1, 1, 1, 1, 1))
    assert verify(quartics).degree_to_base == 2               # 4.3 - 7 - 3 = 2

    seventeen = PencilSpec("plane", 17, (1, 6, 6, 6, 6, 6, 6, 6, 6))
    assert verify(seventeen).dim_lower_bound == 2             # 171 - 169 = 2

    eight_low = PencilSpec("dp8", 8, (13, 7, 7, 7, 7, 7, 7, 7))
    eight_high = PencilSpec("dp8", 22, (13, 23, 23, 23, 23, 23, 23, 23))
    assert verify(eight_low).genus_upper_bound == 0
    assert verify(eight_high).genus_upper_bound == 0
    assert verify(eight_low).degree_to_base == 2              # 64 - 13 - 49 = 2
    assert verify(eight_high).degree_to_base == 2             # 22.8 - 13 - 7.23 = 2

    five_low = PencilSpec("dp5", 2, (4, 1, 1, 1, 1))
    five_high = PencilSpec("dp5", 10, (4, 11, 11, 11, 11))
    assert verify(five_low).dim_lower_bound == 2              # 16 - 10 - 4 = 2
    assert verify(five_low).genus_upper_bound == 0            # 6 - 6 = 0
    assert verify(five_low).degree_to_base == 2               # 10 - 4 - 4 = 2
    assert intersect(NumericalClass(6, (2, 2, 2, 2, 4, 1, 1, 1, 1)),
                     NumericalClass(3, (1,) * 9)) == 2        # same value on the lattice
    assert verify(five_high).dim_lower_bound == 2             # 5(110)/2 + 1 - 10 - 4(66) = 2

    announce(2, "all printed pencil computations reproduced")


# ---------------------------------------------------------------------------
# 3. base-change trichotomy, worked cases and exhaustive sweep

SYMBOLS_BY_EULER = {
    1: ["I1"], 2: ["I2", "II"], 3: ["I3", "III"], 4: ["I4", "IV"], 5: ["I5"],
    6: ["I6", "I0*"], 7: ["I7", "I1*"], 8: ["I8", "I2*", "IV*"],
    9: ["I9", "I3*", "III*"], 10: ["I10", "I4*", "II*"],
    11: ["I11", "I5*"], 12: ["I12", "I6*"],
}


def euler_partitions(total, parts, minimum=1):
    if parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total - parts + 2):
        for rest in euler_partitions(total - first, parts - 1, first):
            yield (first, *rest)


def test_criterion_3_base_change_trichotomy():
    rational = FibreConfiguration.from_counts({"I0*": 1, "I1": 6})
    assert classify_quadratic_base_change(rational, BranchLocus("v0", "v1")) == SurfaceClass.RATIONAL

    product = FibreConfiguration.from_counts({"I0*": 2})
    assert classify_quadratic_base_change(product, BranchLocus("v0", "v1")) == SurfaceClass.TRIVIAL_PRODUCT

    k3 = FibreConfiguration.from_counts({"I1": 12})
    assert classify_quadratic_base_change(k3, BranchLocus("v0", "v1")) == SurfaceClass.K3

    configs = 0
    for count in range(1, 5):
        for eulers in euler_partitions(12, count):
            for symbols in itertools.product(*(SYMBOLS_BY_EULER[e] for e in eulers)):
                config = FibreConfiguration(tuple((f"v{i}", s) for i, s in enumerate(symbols)))
                ids = [f"v{i}" for i in range(len(symbols))] + ["s0", "s1"]
                for pair in itertools.combinations(ids, 2):
                    branch = BranchLocus(*pair)
                    verdict = classify_quadratic_base_change(config, branch)
                    total = euler_total(base_changed_configuration(config, branch))
                    if verdict == SurfaceClass.TRIVIAL_PRODUCT:
                        assert sorted(s for s in symbols) == ["I0*", "I0*"]
                        assert total == 0
                    else:
                        assert total in (12, 24)
                        assert (total == 12) == (verdict == SurfaceClass.RATIONAL)
                configs += 1
    # symbol tuples over non-decreasing Euler partitions: covers every
    # multiset of <= 4 singular fibres with total 12
    assert configs == 221
    announce(3, f"trichotomy verified over {configs} configurations with <= 4 singular fibres")


# ---------------------------------------------------------------------------
# 4. contribution values against freshly inverted Cartan matrices

def cofactor_det(M):
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
        total += (-1) ** j * M[0][j] * cofactor_det(minor)
    return total


def cofactor_inverse(M):
    n = len(M)
    d = cofactor_det(M)
    return [[Fraction((-1) ** (i + j) * cofactor_det([r[:i] + r[i + 1:] for k, r in enumerate(M) if k != j]), d)
             for j in range(n)] for i in range(n)]


def fresh_cartan(symbol):
    # built from scratch: node count and edges per Dynkin type
    if symbol == "III":
        size, edges = 1, []
    elif symbol == "IV":
        size, edges = 2, [(1, 2)]
    elif symbol in ("IV*", "III*", "II*"):
        size = {"IV*": 6, "III*": 7, "II*": 8}[symbol]
        edges = [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]
        edges += [(i, i + 1) for i in range(6, size)]
    elif symbol.endswith("*"):
        n = int(symbol[1:-1])
        size = n + 4
        edges = [(i, i + 1) for i in range(1, size - 2)] + [(size - 2, size - 1), (size - 2, size)]
    else:
        n = int(symbol[1:])
        size = n - 1
        edges = [(i, i + 1) for i in range(1, size)]
    C = [[2 if i == j else 0 for j in range(size)] for i in range(size)]
    for a, b in edges:
        C[a - 1][b - 1] = C[b - 1][a - 1] = -1
    return C


def test_criterion_4_contribution_oracle_equivalence():
    symbols = [f"I{n}" for n in range(1, 10)] + ["III", "IV"]
    symbols += [f"I{n}*" for n in range(0, 5)] + ["IV*", "III*", "II*"]
    compared = 0
    for symbol in symbols:
        C = fresh_cartan(symbol)
        inverse = cofactor_inverse(C)
        size = len(C)
        assert KodairaFibre(symbol).components == size + 1
        for i in range(size + 1):
            assert contribution(symbol, i, 0) == 0
            assert contribution(symbol, 0, i) == 0
        for i in range(1, size + 1):
            for j in range(1, size + 1):
                assert contribution(symbol, i, j) == inverse[i - 1][j - 1]
                compared += 1
    announce(4, f"{compared} contribution entries equal fresh Cartan inversions")


# ---------------------------------------------------------------------------
# 5. height pairing properties

def test_criterion_5_height_properties():
    assert height_pairing(SectionIntersections(-1, -1, -1), chi=1) == 0
    assert height_pairing(SectionIntersections(0, 0, -1), chi=1) == 2

    rng = random.Random(2024)
    symbols = ["I2", "I3", "I4", "I5", "I9", "III", "IV", "I0*", "I2*", "IV*", "III*", "II*"]
    for _ in range(1000):
        fibres = [rng.choice(symbols) for _ in range(rng.randint(0, 4))]
        forward, backward = [], []
        for symbol in fibres:
            top = KodairaFibre(symbol).components - 1
            i, j = rng.randint(0, top), rng.randint(0, top)
            forward.append((i, j))
            backward.append((j, i))
        po, qo, pq = rng.randint(0, 6), rng.randint(0, 6), rng.randint(-3, 6)
        chi = rng.randint(1, 4)
        lhs = height_pairing(SectionIntersections(po, qo, pq, tuple(forward)), chi, fibres)
        rhs = height_pairing(SectionIntersections(qo, po, pq, tuple(backward)), chi, fibres)
        assert lhs == rhs
    announce(5, "zero-section height 0, disjoint-section value 2, symmetry on 1000 inputs")


# ---------------------------------------------------------------------------
# 6. section-class census against a straight box scan

def box_scan_sections(d_max):
    # independent oracle: a plain loop over the integer box, no shared code
    # with the library enumerator
    hits = []
    for d in range(-d_max, d_max + 1):
        radius = isqrt(d * d + 1)
        box = range(-radius, radius + 1)
        for m in itertools.product(box, repeat=9):
            if m[0] ** 2 + m[1] ** 2 + m[2] ** 2 + m[3] ** 2 + m[4] ** 2 \
                    + m[5] ** 2 + m[6] ** 2 + m[7] ** 2 + m[8] ** 2 != d * d + 1:
                continue
            if sum(m) != 3 * d - 1:
                continue
            hits.append((d, m))
    return sorted(hits)


def test_criterion_6_section_class_census():
    classes = enumerate_section_classes(d_max=2)
    assert len(classes) == 171
    fibre = NumericalClass(3, (1,) * 9)
    for c in classes:
        assert intersect(c, c) == -1
        assert intersect(c, fibre) == 1
        assert arithmetic_genus(c) == 0
    assert sorted((c.d, c.m) for c in classes) == box_scan_sections(2)
    announce(6, "171 section classes, equal to the brute-force box scan")


# ---------------------------------------------------------------------------
# 7. property suites

def test_criterion_7_property_suites():
    rng = random.Random(777)
    for _ in range(10_000):
        cls = NumericalClass(rng.randint(-9, 9), tuple(rng.randint(-9, 9) for _ in range(9)))
        i, j, k = sorted(rng.sample(range(1, 10), 3))
        image = quadratic_transform(cls, i, j, k)
        assert quadratic_transform(image, i, j, k) == cls
        assert arithmetic_genus(image) == arithmetic_genus(cls)
        assert degree_to_base(image) == degree_to_base(cls)

    ids = ["a", "b", "c", "d", "e"]
    loci = [BranchLocus(x, y) for x, y in itertools.combinations(ids, 2)]
    for b1, b2 in itertools.product(loci, repeat=2):
        kind = fibre_product_genus(b1, b2)
        assert kind.genus is None or kind.genus <= 1

    for n in range(1, 101):
        assert multiplication_pullback_degree(n) == n * n

    announce(7, "involution and invariance on 10^4 classes, fibre products, pullback degrees")
