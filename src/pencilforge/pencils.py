"""Construction, verification and search of genus-zero pencils of degree two.

A candidate linear system is described by a `PencilSpec`: the ambient model
("plane" for the projective plane, "dp1".."dp8" for a minimal del Pezzo
surface of that degree), a level n (plane curve degree, or anticanonical
multiple for del Pezzo models), one multiplicity per blown-up point, and a
count of extra linear conditions (tangencies to the fibres at base points,
used by the conic constructions and not expressible as point multiplicities).

A spec is a usable pencil member when the system is at least a pencil
(dimension bound >= 2), its members are rational (genus bound <= 0), the
induced map to the base of the elliptic fibration has degree two, and no
section is a fixed component (see `verify`).  `construct_pencils` returns
the standard pair (L1, L2) for each supported model/orbit configuration.
`search_pencils` finds every candidate as a lattice class with c.c = 0,
c.F = 2 and c - F not even, constant on each Galois orbit, with
multiplicities capped at n_max + 1.
"""

from __future__ import annotations

from .picard_lattice import (
    NumericalClass,
    arithmetic_genus,
    degree_to_base,
    intersect,
    record,
    strict_fields,
    strict_int,
    strict_ints,
    weighted_vectors,
)

PLANE = "plane"

_CUBIC_PATTERNS = {(1, 4, 4), (3, 3, 3), (5, 2, 2), (7, 1, 1)}

# level and (rational-point, other-point) multiplicities of the standard
# pencil pair on low-degree del Pezzo models
_DEL_PEZZO_PAIRS = {
    8: ((8, 13, 7), (22, 13, 23)),
    5: ((2, 4, 1), (10, 4, 11)),
    4: ((1, 2, 0), (7, 2, 8)),
}

# level, then the multiplicities at the rational point and on the chosen
# orbit, of the second member of a plane pair, by the size of that orbit;
# with at most nine points no other size is chosen
_PLANE_SECOND = {
    1: (1, 0, 1),  # lines through the second rational point
    3: (2, 1, 1),  # conics through the rational point and the three
    4: (2, 0, 1),  # conics through the four
    5: (3, 2, 1),  # cubics double at the rational point, through the five
    6: (5, 1, 2),  # quintics through the rational point, double at the six
    7: (4, 3, 1),  # quartics triple at the rational point, through the seven
    8: (17, 1, 6),  # degree 17 through it, sextuple at the eight
}


# the one spelling of each model, with its degree (None for the plane)
_MODEL_DEGREES = {PLANE: None, **{f"dp{k}": k for k in range(1, 9)}}


def model_degree(model: str) -> int | None:
    """Degree of a del Pezzo model string, or None for the plane."""
    if not isinstance(model, str):
        raise TypeError(f"model must be a string, got {model!r}")
    if model not in _MODEL_DEGREES:
        raise ValueError(f"model must be 'plane' or 'dp1'..'dp8', got {model!r}")
    return _MODEL_DEGREES[model]


@record
class OrbitStructure:
    """Galois orbit sizes of the blown-up points, one orbit designated rational.

    The designated orbit (the contracted zero section) must have size one;
    other orbits of size one may coexist with it.
    """

    sizes: tuple[int, ...]
    rational_index: int = 0

    def __post_init__(self) -> None:
        sizes = strict_ints(self.sizes, "orbit size")
        object.__setattr__(self, "sizes", sizes)
        if type(self.rational_index) is not int:
            strict_fields(self, "rational_index")
        if not sizes:
            raise ValueError("orbit structure needs at least one orbit")
        if min(sizes) < 1:
            raise ValueError(f"orbit sizes must be positive, got {self.sizes}")
        if not 0 <= self.rational_index < len(self.sizes):
            raise ValueError(f"rational orbit index {self.rational_index} out of range")
        if self.sizes[self.rational_index] != 1:
            raise ValueError("the designated rational orbit must have size one")

    @property
    def total_points(self) -> int:
        return sum(self.sizes)


@record
class PencilSpec:
    """A candidate linear system on a minimal model."""

    model: str
    level: int
    mults: tuple[int, ...]
    extra_conditions: int = 0

    def __post_init__(self) -> None:
        degree = model_degree(self.model)
        if type(self.level) is not int or type(self.extra_conditions) is not int:
            strict_fields(self, "level", "extra_conditions")
        mults = strict_ints(self.mults, "multiplicity")
        object.__setattr__(self, "mults", mults)
        if self.level < 1:
            raise ValueError(f"level must be at least 1, got {self.level}")
        if mults and min(mults) < 0:
            raise ValueError(f"multiplicities must be non-negative, got {self.mults}")
        if self.extra_conditions < 0:
            raise ValueError(f"extra_conditions must be non-negative, got {self.extra_conditions}")
        if degree is None:
            if len(self.mults) > 9:
                raise ValueError(f"the plane model has at most 9 blown-up points, got {len(self.mults)}")
        elif len(self.mults) != degree:
            raise ValueError(
                f"a degree-{degree} del Pezzo model has {degree} blown-up points, got {len(self.mults)}")


@record
class PencilReport:
    """Verification numbers for a spec and the combined validity verdict."""

    dim_lower_bound: int
    genus_upper_bound: int
    degree_to_base: int
    is_valid_pair_member: bool


@record
class Unsupported:
    """A model/orbit configuration the constructions do not cover."""

    reason: str


@record
class DegreeSixReduction:
    """Rewrite instruction for a degree-six model: blow up one orbit."""

    target_degree: int
    blow_up_orbit: int


def verify(spec: PencilSpec) -> PencilReport:
    """Evaluate the pencil criteria for a spec.

    The bounds are read off the spec's lattice class c: the genus bound is
    its arithmetic genus, the base degree is c.F, and the dimension bound (of
    the system as a space of sections, possibly negative) is Riemann-Roch,
    (c.c + c.F)/2 + 1; each extra condition, a tangency to the fibres at a
    base point, lowers the last two by one.  Besides the bounds, a spec with
    no extra conditions must not have c - F even: then E = (c - F)/2 is a
    section with c.E = -1, fixed in every member, which is F + 2E.  The test
    is numerical, like `is_connected_class`.  Tangencies make c.F = 2 +
    extra, so their bounds alone decide.
    """
    cls = to_numerical_class(spec)
    genus = arithmetic_genus(cls)
    deg = degree_to_base(cls) - spec.extra_conditions
    # Riemann-Roch exceeds the arithmetic genus by exactly c.F
    dim = genus + deg
    valid = (dim >= 2 and genus <= 0 and deg == 2
             and (spec.extra_conditions > 0 or not (cls.d % 2 and all(x % 2 for x in cls.m))))
    return PencilReport(dim, genus, deg, valid)


def to_numerical_class(spec: PencilSpec) -> NumericalClass:
    """Blow-up lattice class of a spec in the nine-point basis of the plane.

    Plane specs give (n; mults) directly.  A degree-d del Pezzo model is the
    plane blown up at 9-d points, and a section of the n-th anticanonical
    power with the given multiplicities has class (3n; n, ..., n, mults),
    with the 9-d plane points listed first.  Tangency conditions are
    invisible to the flat class, so for specs with extra conditions the
    lattice degree-to-base overshoots by that count.

    A `PencilSpec` has checked its fields, so its class is built without a
    second check; any other object with the same fields goes through the
    checked constructor.
    """
    degree = model_degree(spec.model)
    n = spec.level
    if degree is None:
        d, m = n, spec.mults + (0,) * (9 - len(spec.mults))
    else:
        d, m = 3 * n, (n,) * (9 - degree) + spec.mults
    if type(spec) is PencilSpec:
        return NumericalClass._of(d, m)
    return NumericalClass(d, m)


def _mult_vector(orbits: OrbitStructure, assignments: dict[int, int]) -> tuple[int, ...]:
    # orbits are laid out consecutively; an orbit not assigned carries 0
    mults: list[int] = []
    for orbit, size in enumerate(orbits.sizes):
        mults += [assignments.get(orbit, 0)] * size
    return tuple(mults)


def reduce_orbit_config(orbits: OrbitStructure) -> DegreeSixReduction | Unsupported:
    """Rewrite a degree-six orbit configuration to degree five or four.

    A second rational point is blown up (target degree five); failing that, a
    (1, 2, 3) split blows up the two-point orbit (target degree four).  A
    five-point orbit admits no rewrite.
    """
    if orbits.total_points != 6:
        raise ValueError(f"degree-six rewrite expects 6 points, got {orbits.total_points}")
    others = [(i, s) for i, s in enumerate(orbits.sizes) if i != orbits.rational_index]
    for i, s in others:
        if s == 1:
            return DegreeSixReduction(5, i)
    if sorted(s for _, s in others) == [2, 3]:
        two_orbit = next(i for i, s in others if s == 2)
        return DegreeSixReduction(4, two_orbit)
    return Unsupported("degree six with a five-point orbit admits no conic pencil pair")


def _drop_orbit(orbits: OrbitStructure, orbit: int) -> OrbitStructure:
    sizes = tuple(s for i, s in enumerate(orbits.sizes) if i != orbit)
    rational = orbits.rational_index - (1 if orbit < orbits.rational_index else 0)
    return OrbitStructure(sizes, rational)


def construct_pencils(
    model: str,
    orbits: OrbitStructure,
    cubic_pattern: tuple[int, int, int] | None = None,
) -> tuple[PencilSpec, PencilSpec] | Unsupported:
    """The standard pencil pair (L1, L2) for a model and orbit configuration.

    Plane configurations dispatch on the size of the smallest orbit other
    than the rational point; the two-conjugate-point case with no further
    orbits additionally needs `cubic_pattern`, the base-point multiplicity
    pattern (m1, m2, m3) of a cubic pencil inducing the surface, one of
    (1,4,4), (3,3,3), (5,2,2), (7,1,1).  Degree-six del Pezzo configurations
    are first rewritten via `reduce_orbit_config`.  Configurations the
    constructions exclude yield `Unsupported`.
    """
    degree = model_degree(model)
    if degree is None:
        if orbits.total_points > 9:
            raise ValueError(f"plane configurations have at most 9 points, got {orbits.total_points}")
        return _construct_plane(orbits, cubic_pattern)
    if orbits.total_points != degree:
        raise ValueError(
            f"degree-{degree} model expects {degree} points, got {orbits.total_points}")
    if degree in (1, 2, 3):
        return Unsupported(f"minimal models of degree {degree} carry no conic pencil pair")
    if degree == 7:
        return Unsupported("there are no minimal rational surfaces of degree seven")
    if degree == 6:
        rewrite = reduce_orbit_config(orbits)
        if isinstance(rewrite, Unsupported):
            return rewrite
        return construct_pencils(f"dp{rewrite.target_degree}", _drop_orbit(orbits, rewrite.blow_up_orbit))

    rational = orbits.rational_index
    return tuple(
        PencilSpec._of(model, level, _mult_vector(
            orbits, {i: at_rational if i == rational else elsewhere for i in range(len(orbits.sizes))}))
        for level, at_rational, elsewhere in _DEL_PEZZO_PAIRS[degree])


def _construct_plane(
    orbits: OrbitStructure,
    cubic_pattern: tuple[int, int, int] | None,
) -> tuple[PencilSpec, PencilSpec] | Unsupported:
    rational = orbits.rational_index
    first = PencilSpec._of(PLANE, 1, _mult_vector(orbits, {rational: 1}))

    others = [(i, s) for i, s in enumerate(orbits.sizes) if i != rational]
    if not others:
        return Unsupported("no orbit besides the contracted zero section")
    orbit, size = min(others, key=_by_size)
    if size == 2:
        extras = [(i, s) for i, s in others if i != orbit]
        if not extras:
            return first, _tangent_conics(orbits, orbit, cubic_pattern)
        extra, extra_size = min(extras, key=_by_size)
        if extra_size == 2:
            # conics through the four points of the two 2-orbits
            return first, PencilSpec._of(PLANE, 2, _mult_vector(orbits, {orbit: 1, extra: 1}))
        # otherwise the 2-orbit is passed over for the next smallest orbit
        orbit, size = extra, extra_size
    level, at_rational, on_orbit = _PLANE_SECOND[size]
    return first, PencilSpec._of(PLANE, level, _mult_vector(orbits, {rational: at_rational, orbit: on_orbit}))


def _by_size(pair: tuple[int, int]) -> tuple[int, int]:
    # (orbit index, size) ordered by size, ties to the lower index
    return pair[1], pair[0]


def _tangent_conics(
    orbits: OrbitStructure,
    two_orbit: int,
    cubic_pattern: tuple[int, int, int] | None,
) -> PencilSpec:
    if cubic_pattern is None:
        raise ValueError(
            "a plane configuration with a single two-point orbit needs cubic_pattern, "
            "one of (1,4,4), (3,3,3), (5,2,2), (7,1,1)")
    pattern = tuple(strict_int(x, "cubic_pattern entry") for x in cubic_pattern)
    if pattern not in _CUBIC_PATTERNS:
        raise ValueError(f"cubic_pattern must be one of {sorted(_CUBIC_PATTERNS)}, got {pattern}")
    if pattern == (1, 4, 4):
        # conics through the conjugate pair, tangent to the common fibre
        # tangents there
        return PencilSpec._of(PLANE, 2, _mult_vector(orbits, {two_orbit: 1}), 2)
    # conics through all three points, tangent to the common tangent at the
    # rational one
    mults = _mult_vector(orbits, {orbits.rational_index: 1, two_orbit: 1})
    return PencilSpec._of(PLANE, 2, mults, 1)


def search_pencils(model: str, orbits: OrbitStructure, n_max: int) -> list[PencilSpec]:
    """All pencil candidates with level <= n_max, orbit-constant multiplicities.

    Multiplicities range over 0..n_max+1, constant on each Galois orbit
    (invariance of the system forces that), with no extra conditions.  A
    spec is kept when its `verify` report has dim_lower_bound >= 2,
    genus_upper_bound <= 0 and degree_to_base == 2, unless c - F is even.  With
    c.F = 2 the dimension bound exceeds the genus bound by exactly 2, so
    these are the classes c with c.c = 0 and c.F = 2.  Sorted by (level, mults).

    `n_max` is checked as an exact int; the results are built from checked
    values (the model and point count by each level's zero-multiplicity
    spec, levels from a range, enumerator ints) and are not checked again.
    """
    n_max = strict_int(n_max, "n_max")
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    sizes = orbits.sizes
    zeros = (0,) * orbits.total_points
    results = []
    for level in range(1, n_max + 1):
        # PencilSpec checks the orbits against the model.  Multiplicity x_i
        # on the w_i points of orbit i lowers c0.c0 by w_i x_i^2 and c0.F by
        # w_i x_i, so c.c = 0 and c.F = 2 pin both sums
        c0 = to_numerical_class(PencilSpec(model, level, zeros))
        square_sum = intersect(c0, c0)
        linear_sum = degree_to_base(c0) - 2
        # c - F is even when the degree, the padding (0 on the plane, the
        # level on a del Pezzo model) and every orbit's multiplicity are odd
        odd_padding = c0.d % 2 == 1 and (model != PLANE or orbits.total_points == 9)
        for per_orbit in weighted_vectors(sizes, square_sum, linear_sum, 0, n_max + 1):
            if odd_padding and all(x % 2 for x in per_orbit):
                continue
            mults = tuple(x for x, size in zip(per_orbit, sizes) for _ in range(size))
            results.append(PencilSpec._of(model, level, mults))
    return results
