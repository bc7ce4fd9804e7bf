"""Singular-fibre bookkeeping under quadratic base change.

Fibre types use Kodaira symbols: I_n (n >= 0, spelled "I0", "I5", ...), II,
III, IV and their starred versions "I0*", "I3*", "IV*", "III*", "II*".  Local
Euler numbers:

    I_n : n      II : 2      III : 3      IV : 4
    I_n*: n + 6  IV*: 8      III*: 9      II*: 10

Starred types are the non-reduced ones (they carry a multiple component).  A
rational elliptic surface has local Euler numbers summing to 12.

For a degree-two cover of the base, ramified at exactly two places, a fibre
over an unramified place is duplicated, a reduced fibre over a ramified place
doubles its Euler contribution (I_n -> I_2n, II -> IV, III -> I0*, IV -> IV*),
and a non-reduced fibre over a ramified place contributes 2*d_v - 12
(I_n* -> I_2n, IV* -> IV, III* -> I0*, II* -> IV*, with I0* becoming smooth).
A ramified smooth fibre stays smooth; the place is simply not listed.
"""

from __future__ import annotations

import enum
import re
from collections.abc import Mapping
from dataclasses import dataclass

from .picard_lattice import strict_int

_IN_RE = re.compile(r"^I(\d+)(\*?)$")

# euler, component count, dual graph for the simple additive types
_SIMPLE_TYPES = {
    "II": (2, 1, True),
    "III": (3, 2, True),
    "IV": (4, 3, True),
    "IV*": (8, 7, False),
    "III*": (9, 8, False),
    "II*": (10, 9, False),
}


@dataclass(frozen=True)
class KodairaFibre:
    """A singular-fibre type symbol with its numerical invariants."""

    symbol: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbol", _canonical_symbol(self.symbol))

    @property
    def index(self) -> int | None:
        """n for I_n / I_n* types, None otherwise."""
        match = _IN_RE.match(self.symbol)
        return int(match.group(1)) if match else None

    @property
    def euler(self) -> int:
        """Local Euler number d_v."""
        match = _IN_RE.match(self.symbol)
        if match:
            n = int(match.group(1))
            return n + 6 if match.group(2) else n
        return _SIMPLE_TYPES[self.symbol][0]

    @property
    def reduced(self) -> bool:
        """False exactly for starred (multiple-component) types."""
        return not self.symbol.endswith("*")

    @property
    def components(self) -> int:
        """Number m_v of irreducible components."""
        match = _IN_RE.match(self.symbol)
        if match:
            n = int(match.group(1))
            if match.group(2):
                return n + 5
            return max(n, 1)  # I0 is a smooth fibre, I1 a nodal one
        return _SIMPLE_TYPES[self.symbol][1]

    def __str__(self) -> str:
        return self.symbol


def _canonical_symbol(raw: str) -> str:
    symbol = raw.strip().replace("_", "")
    if symbol in _SIMPLE_TYPES:
        return symbol
    match = _IN_RE.match(symbol)
    if match:
        return f"I{int(match.group(1))}{match.group(2)}"
    raise ValueError(f"unknown Kodaira symbol {raw!r}")


SMOOTH = KodairaFibre("I0")


@dataclass(frozen=True)
class FibreConfiguration:
    """Places of the base, each carrying a singular fibre type."""

    places: tuple[tuple[str, KodairaFibre], ...]

    def __post_init__(self) -> None:
        normalised = tuple(
            (str(place), fibre if isinstance(fibre, KodairaFibre) else KodairaFibre(fibre))
            for place, fibre in self.places
        )
        object.__setattr__(self, "places", normalised)
        ids = [place for place, _ in normalised]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate place ids in configuration: {ids}")

    @classmethod
    def from_counts(cls, counts: Mapping[str, int]) -> "FibreConfiguration":
        """Expand a {symbol: count} map into places v0, v1, ... in listed order."""
        places = []
        i = 0
        for symbol, count in counts.items():
            for _ in range(strict_int(count, f"count of {symbol}")):
                places.append((f"v{i}", KodairaFibre(symbol)))
                i += 1
        return cls(tuple(places))

    def to_json(self) -> list[dict]:
        return [{"place": place, "type": fibre.symbol} for place, fibre in self.places]

    def fibre_at(self, place: str) -> KodairaFibre:
        for p, fibre in self.places:
            if p == place:
                return fibre
        return SMOOTH


@dataclass(frozen=True)
class BranchLocus:
    """The two branch points of a quadratic cover of a genus-zero base."""

    places: frozenset[str]

    def __init__(self, first: str, second: str) -> None:
        if first == second:
            raise ValueError(f"branch points must be distinct, got {first!r} twice")
        object.__setattr__(self, "places", frozenset({str(first), str(second)}))

    def __contains__(self, place: str) -> bool:
        return place in self.places


class SurfaceClass(enum.Enum):
    """Outcome of a quadratic base change of a rational elliptic surface."""

    RATIONAL = "Rational"
    K3 = "K3"
    TRIVIAL_PRODUCT = "TrivialProduct"


class FibreProductKind(enum.Enum):
    """Genus of the fibre product of two double covers of the base."""

    GENUS_ONE = "genus1"
    GENUS_ZERO = "genus0"
    SPLIT = "split"

    @property
    def genus(self) -> int | None:
        """Genus of the (connected) fibre product; None when it splits."""
        return {"genus1": 1, "genus0": 0, "split": None}[self.value]


_RAMIFIED_REDUCED = {"II": "IV", "III": "I0*", "IV": "IV*"}
_RAMIFIED_STARRED = {"IV*": "IV", "III*": "I0*", "II*": "IV*"}


def transform_fibre(fibre: KodairaFibre, ramified: bool) -> list[KodairaFibre]:
    """Fibres above a place under a quadratic base change.

    Unramified places have two preimages carrying copies of the fibre.  A
    ramified place has one, with the type changed as in the module table.
    """
    if not isinstance(fibre, KodairaFibre):
        fibre = KodairaFibre(fibre)
    if not ramified:
        return [fibre, fibre]
    n = fibre.index
    if n is not None:
        # I_n doubles; I_n* loses its star and doubles (I0* smooths out).
        return [KodairaFibre(f"I{2 * n}")]
    if fibre.reduced:
        return [KodairaFibre(_RAMIFIED_REDUCED[fibre.symbol])]
    return [KodairaFibre(_RAMIFIED_STARRED[fibre.symbol])]


def euler_total(config: FibreConfiguration) -> int:
    """Sum of local Euler numbers over the listed places."""
    return sum(fibre.euler for _, fibre in config.places)


def base_changed_configuration(config: FibreConfiguration, branch: BranchLocus) -> FibreConfiguration:
    """Transformed fibre configuration; smooth (I0) outputs are dropped.

    Unramified places v contribute places "v.1" and "v.2"; ramified places
    keep their id.  Branch points over places absent from the configuration
    sit on smooth fibres and contribute nothing.
    """
    out: list[tuple[str, KodairaFibre]] = []
    for place, fibre in config.places:
        images = transform_fibre(fibre, place in branch)
        if len(images) == 1:
            if images[0].euler > 0:
                out.append((place, images[0]))
        else:
            out.append((f"{place}.1", images[0]))
            out.append((f"{place}.2", images[1]))
    return FibreConfiguration(tuple(out))


def classify_quadratic_base_change(config: FibreConfiguration, branch: BranchLocus) -> SurfaceClass:
    """Trichotomy for a quadratic base change of a rational elliptic surface.

    Ramifying over one non-reduced and one reduced fibre keeps the Euler
    total at 12 (still rational).  Ramifying over two non-reduced fibres
    forces the configuration (I0*, I0*) and kills every singular fibre: the
    result is a product of an elliptic curve and a rational curve.  Otherwise
    the total doubles to 24 and the base change is a K3 surface.
    """
    total = euler_total(config)
    if total != 12:
        raise ValueError(f"a rational elliptic surface has Euler total 12, got {total}")
    branch_fibres = [config.fibre_at(place) for place in sorted(branch.places)]
    if all(f.symbol == "I0*" for f in branch_fibres):
        return SurfaceClass.TRIVIAL_PRODUCT
    transformed = euler_total(base_changed_configuration(config, branch))
    if transformed == 12:
        return SurfaceClass.RATIONAL
    assert transformed == 24, f"impossible transformed Euler total {transformed}"
    return SurfaceClass.K3


def fibre_product_genus(branch1: BranchLocus, branch2: BranchLocus) -> FibreProductKind:
    """Genus of the fibre product of two double covers with the given branch loci.

    With k shared branch points the normalized fibre product is a double
    cover of either factor branched at 2(2 - k) points, so its genus is
    1 - k; identical branch loci (k = 2) make it split into two rational
    components instead.
    """
    shared = len(branch1.places & branch2.places)
    if shared == 0:
        return FibreProductKind.GENUS_ONE
    if shared == 1:
        return FibreProductKind.GENUS_ZERO
    return FibreProductKind.SPLIT
