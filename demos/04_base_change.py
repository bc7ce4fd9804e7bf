"""
Quadratic base change bookkeeping
=================================

Pulling back an elliptic fibration along a double cover of the base
duplicates fibres over unramified places and transforms them over the two
branch points.  The Euler total decides what the new surface is: 12 keeps
it rational, 24 gives a K3, and ramifying over both fibres of an
(I0*, I0*) configuration trivializes the surface into a product.
"""

from pencilforge import (
    BranchLocus,
    FibreConfiguration,
    KodairaFibre,
    base_changed_configuration,
    classify_quadratic_base_change,
    euler_total,
    fibre_product_genus,
    transform_fibre,
)

# The transformation table, one symbol per row.
print("fibre transforms under a ramified quadratic base change:")
for symbol in ("I1", "I4", "II", "III", "IV", "I0*", "I2*", "IV*", "III*", "II*"):
    fibre = KodairaFibre(symbol)
    image = transform_fibre(fibre, ramified=True)[0]
    print(f"  {symbol:4s} (e={fibre.euler:2d}) -> {image.symbol:4s} (e={image.euler:2d})")

# Branching over the non-reduced fibre and one nodal fibre keeps the Euler
# total at 12: the base-changed surface is again rational.
config = FibreConfiguration.from_counts({"I0*": 1, "I1": 6})
branch = BranchLocus("v0", "v1")
print("\nconfiguration:", [f"{p}:{f}" for p, f in config.places])
print("branch over v0, v1 ->", classify_quadratic_base_change(config, branch).value)
after = base_changed_configuration(config, branch)
print("transformed fibres:", [f"{p}:{f}" for p, f in after.places], "| total", euler_total(after))

# Branching over two reduced fibres doubles the total: a K3 surface.
print("branch over v1, v2 ->",
      classify_quadratic_base_change(config, BranchLocus("v1", "v2")).value)

# The only forbidden configuration: two I0* fibres, both under the branch.
both_star = FibreConfiguration.from_counts({"I0*": 2})
print("(I0*, I0*) branched at both ->",
      classify_quadratic_base_change(both_star, BranchLocus("v0", "v1")).value)

# Fibre products of two double covers: the genus depends only on how many
# branch points the covers share.
print("\nfibre products of double covers:")
for second in (BranchLocus("c", "d"), BranchLocus("b", "c"), BranchLocus("a", "b")):
    kind = fibre_product_genus(BranchLocus("a", "b"), second)
    print(f"  branch {{a,b}} x {sorted(second.places)} -> {kind.value}")
