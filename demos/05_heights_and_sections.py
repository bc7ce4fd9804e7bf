"""
Heights, section classes and division bounds
============================================

The height pairing of two sections combines their intersection numbers with
exact local corrections at reducible fibres; the corrections are entries of
inverse Cartan matrices.  Bounded enumeration lists every numerical class a
section can have, and the division bound caps how far a new section can be
divided in the Mordell-Weil group.
"""

from collections import Counter
from fractions import Fraction

from pencilforge import (
    KodairaFibre,
    KummerInputs,
    SectionIntersections,
    contribution,
    enumerate_section_classes,
    exceptional,
    height_pairing,
    kummer_bound,
    multiplication_pullback_degree,
)

# Local corrections at the simplest reducible fibres.
print("corrections at same non-identity component:")
for symbol in ("I2", "I3", "III", "IV", "I0*", "IV*", "III*", "II*"):
    top = KodairaFibre(symbol).components - 1
    values = sorted({contribution(symbol, i, i) for i in range(1, top + 1)})
    print(f"  {symbol:4s}: {', '.join(str(v) for v in values)}")

# The zero section pairs to zero with itself; a section disjoint from it on
# a rational elliptic surface has height 2, lowered by fibre corrections.
print("\n<O, O> =", height_pairing(SectionIntersections(-1, -1, -1), chi=1))
print("<P, P>, P disjoint from O:",
      height_pairing(SectionIntersections(0, 0, -1), chi=1))
print("<P, P> meeting an I2 fibre off-identity:",
      height_pairing(SectionIntersections(0, 0, -1, ((1, 1),)), chi=1, fibres=["I2"]))

# Every numerical section class with small degree: nine exceptional curves,
# lines through two points, conics through five.
classes = enumerate_section_classes(d_max=2)
print("\nsection classes with |d| <= 2:", len(classes))
print("by plane degree:", dict(Counter(c.d for c in classes)))

# Intersection constraints cut the list down; these pin E_1 exactly.
constraints = [(exceptional(1), -1)] + [(exceptional(j), 0) for j in range(2, 10)]
print("pinned by constraints:", enumerate_section_classes(constraints, d_max=2))

# Multiplication by n pulls a section back to a degree n^2 curve, so a
# degree-h family can only divide sections boundedly far.
print("\npullback degrees:", [multiplication_pullback_degree(n) for n in (1, 2, 3, 5)])
print("division bound, h=2, f1=1, c_e=1, alpha=1:",
      kummer_bound(KummerInputs(2, 1, 1, 1)))
print("division bound, h=2, f1=1, c_e=1, alpha=2:",
      kummer_bound(KummerInputs(2, 1, 1, 2)))
print("division bound, h=3, f1=2/3, c_e=1/2, alpha=2:",
      kummer_bound(KummerInputs(3, Fraction(2, 3), Fraction(1, 2), 2)))
