"""Mordell-Weil height pairing and bounded section-class enumeration.

The pairing of two sections P, Q is

    <P, Q> = chi + (P.O) + (Q.O) - (P.Q) - sum_v contr_v(P, Q)

with one local correction per reducible fibre.  The correction is read off
the inverse of the intersection matrix A_v of the non-identity fibre
components; -A_v is the Cartan matrix of the Dynkin type attached to the
fibre symbol:

    I_n : A_{n-1}   III : A_1   IV : A_2
    I_n*: D_{n+4}   IV* : E_6   III*: E_7   II* : E_8

Component indexing (0 is always the component met by the zero section):

* I_n      -- components 1..n-1 along the cycle, so consecutive indices meet.
* III, IV  -- non-identity components numbered 1 (and 2 for IV).
* I_n*     -- 1 is the reduced component at the near end, 2..n+2 walk the
              multiplicity-two spine, n+3 and n+4 are the far-end reduced
              components.
* IV*, III*, II* -- Bourbaki numbering of E_6, E_7, E_8.

Any consistent convention gives the same multiset of correction values; the
one above is frozen so that certificates and serialized inputs replay.
All values are exact rationals: A_r and D_r entries in closed form, so a
large I_n costs no more than a small one, and E_6, E_7, E_8 by inversion.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .base_change import KodairaFibre
from .picard_lattice import NumericalClass, intersect, record, strict_fields, strict_int, weighted_vectors


@lru_cache(maxsize=3)
def _e_inverse(rank: int) -> tuple[tuple[Fraction, ...], ...]:
    # E6, E7 and E8 only: A_r and D_r have closed forms (see _correction).
    # Gauss-Jordan elimination of the Cartan matrix on the Bourbaki edges
    # 1-3, 2-4 and the chain 3-4-...-rank, beside the identity; the matrix is
    # positive definite, so every pivot in turn is nonzero
    aug = [[2 * (a == b) for b in range(rank)] + [int(a == b) for b in range(rank)] for a in range(rank)]
    for a, b in [(1, 3), (2, 4)] + [(i, i + 1) for i in range(3, rank)]:
        aug[a - 1][b - 1] = aug[b - 1][a - 1] = -1
    for col in range(rank):
        pivot = Fraction(aug[col][col])
        aug[col] = [x / pivot for x in aug[col]]
        for r in range(rank):
            factor = aug[r][col]
            if r != col and factor:
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[rank:]) for row in aug)


def _correction(fibre: KodairaFibre | str, i: int, j: int) -> tuple[int, int]:
    """contr_v(P, Q) as a numerator and a positive denominator, not reduced.

    The (i, j) entry of the inverse Cartan matrix of rank r = m_v - 1, in
    closed form for A_r and D_r:

    * A_r: min(i, j) (r + 1 - max(i, j)) / (r + 1).
    * D_r (chain 1..r-2, fork at r-2, ends r-1 and r): min(i, j) on the
      chain, i/2 from chain node i to either end, r/4 at an end with itself
      and (r - 2)/4 between the two ends.
    """
    if type(fibre) is not KodairaFibre:
        fibre = KodairaFibre(fibre)
    i = strict_int(i, "component index")
    j = strict_int(j, "component index")
    top = fibre.components - 1
    for idx in (i, j):
        if not 0 <= idx <= top:
            raise ValueError(f"component index {idx} out of range 0..{top} for {fibre.symbol}")
    if i == 0 or j == 0:
        return 0, 1
    if i > j:
        i, j = j, i
    if not fibre.starred:
        return i * (top + 1 - j), top + 1
    if fibre.index is None:
        entry = _e_inverse(top)[i - 1][j - 1]
        return entry.numerator, entry.denominator
    chain = top - 2
    if j <= chain:
        return i, 1
    if i <= chain:
        return i, 2
    return (top if i == j else chain), 4


def contribution(fibre: KodairaFibre | str, i: int, j: int) -> Fraction:
    """Local correction contr_v(P, Q) for sections meeting components i and j.

    Zero when either section meets the identity component, otherwise the
    (i, j) entry of -A_v^{-1}, i.e. of the inverse Cartan matrix.  The fibre
    is a `KodairaFibre` or its symbol string; the component indices are
    exact ints.
    """
    return Fraction(*_correction(fibre, i, j))


@record
class SectionIntersections:
    """Intersection data determining the pairing of two sections P and Q.

    `p_zero`, `q_zero` and `p_q` are (P.O), (Q.O) and (P.Q); for the pairing
    of a section with itself pass p_q = (P.P) = -chi.  `components` lists,
    for each reducible fibre in order, the component indices met by P and Q.
    """

    p_zero: int
    q_zero: int
    p_q: int
    components: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        strict_fields(self, "p_zero", "q_zero", "p_q")
        object.__setattr__(self, "components", tuple(
            (strict_int(a, "component index"), strict_int(b, "component index"))
            for a, b in self.components))


def height_pairing(data: SectionIntersections, chi: int,
                   fibres: Sequence[KodairaFibre | str] = ()) -> Fraction:
    """Evaluate the height pairing for the given intersection data.

    `fibres` lists the reducible fibres; `data.components` must supply one
    (i, j) pair per entry.
    """
    chi = strict_int(chi, "chi")
    if chi < 1:
        raise ValueError(f"Euler characteristic chi must be positive, got {chi}")
    if len(data.components) != len(fibres):
        raise ValueError(
            f"component data for {len(data.components)} fibres but {len(fibres)} fibres given")
    # the local corrections summed over one common denominator, reduced once
    num, den = 0, 1
    for f, (i, j) in zip(fibres, data.components):
        n, d = _correction(f, i, j)
        if n:
            num, den = num * d + n * den, den * d
    return Fraction((chi + data.p_zero + data.q_zero - data.p_q) * den - num, den)


def enumerate_section_classes(
    constraints: Sequence[tuple[NumericalClass, int]] | None = None,
    d_max: int = 2,
) -> list[NumericalClass]:
    """All section classes (c.c = -1, c.F = 1) with |d| <= d_max, in lex order.

    A class (d; m) is a section class iff sum m_i^2 = d^2 + 1 and
    sum m_i = 3d - 1; its arithmetic genus is then automatically zero.
    Optional constraints are pairs (class, value) filtering on prescribed
    intersection numbers.  `d_max` and the values are checked as exact ints
    and the constraint classes as `NumericalClass`es, all before enumerating;
    the classes are built from enumerator ints without a second check.
    """
    d_max = strict_int(d_max, "d_max")
    if d_max < 0:
        raise ValueError(f"d_max must be non-negative, got {d_max}")
    pinned = []
    for cls, value in constraints or ():
        if not isinstance(cls, NumericalClass):
            raise TypeError(f"a constraint class must be a NumericalClass, got {cls!r}")
        pinned.append((cls, strict_int(value, "constraint value")))
    found: list[NumericalClass] = []
    for d in range(-d_max, d_max + 1):
        square_sum = d * d + 1
        bound = isqrt(square_sum)
        for m in weighted_vectors((1,) * 9, square_sum, 3 * d - 1, -bound, bound):
            found.append(NumericalClass._of(d, m))
    if pinned:
        found = [c for c in found if all(intersect(c, cls) == value for cls, value in pinned)]
    return found


def multiplication_pullback_degree(n: int) -> int:
    """Degree n^2 of the preimage of a section under multiplication by n."""
    n = strict_int(n, "multiplication degree")
    if n < 1:
        raise ValueError(f"multiplication degree needs n >= 1, got {n}")
    return n * n


@record
class KummerInputs:
    """Degree and field constants bounding division of a new section.

    `h` is the degree of the curve over the base, `f1` the Kummer constant
    (h >= f1 * m bounds the division index m), and `c_e`, `alpha` the torsion
    degree-growth constants (c_e * m1^alpha <= h bounds the torsion order m1).
    The three constants are exact: an int or a Fraction, stored as a Fraction.
    """

    h: int
    f1: Fraction
    c_e: Fraction
    alpha: Fraction

    def __post_init__(self) -> None:
        strict_fields(self, "h")
        for name in ("f1", "c_e", "alpha"):
            # exact inputs only: Fraction(0.1) is 3602879701896397/2**55, not 1/10
            value = getattr(self, name)
            if not isinstance(value, Fraction):
                if isinstance(value, bool) or not isinstance(value, int):
                    raise TypeError(f"{name} must be an int or a Fraction, got {value!r}")
                object.__setattr__(self, name, Fraction(value))
        if self.h < 1:
            raise ValueError(f"curve degree h must be positive, got {self.h}")
        for name in ("f1", "c_e", "alpha"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive, got {getattr(self, name)}")


def _floor_root(value: Fraction, exponent: Fraction) -> int:
    """Largest integer t >= 0 with t**exponent <= value.

    With exponent p/q and value**q = num/den the test is t**p * den <= num,
    and as t**p is an integer that is t**p <= num // den: t is the integer
    p-th root of num // den, found by Newton's iteration on integers from
    2**ceil(bits / p), which is above it.
    """
    if value < 1:
        return 0
    p = exponent.numerator
    rhs = value ** exponent.denominator
    n = rhs.numerator // rhs.denominator
    if p == 1:
        return n
    if n.bit_length() <= p:
        # 1 <= n < 2**p puts the root in [1, 2)
        return 1
    t = 1 << -(-n.bit_length() // p)
    while True:
        # from above, each step lowers t until it is the floor of the root
        s = ((p - 1) * t + n // t ** (p - 1)) // p
        if s >= t:
            return t
        t = s


def kummer_bound(inputs: KummerInputs) -> int:
    """Bound n0 on the multiplication index: floor(h/f1) * floor((h/c_e)^(1/alpha)).

    The first factor bounds the division index m, the second the order m1 of
    the torsion defect; any section dividing a new one satisfies n <= m*m1.
    """
    m_max = inputs.h // inputs.f1
    if m_max == 0:
        # the torsion factor, of any size, does not change the product
        return 0
    return m_max * _floor_root(Fraction(inputs.h) / inputs.c_e, inputs.alpha)
