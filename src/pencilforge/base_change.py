"""Singular-fibre bookkeeping under quadratic base change.

Fibre types use Kodaira symbols: I_n (n >= 0 in ASCII digits: "I0", "I5",
...), II, III, IV and their starred versions "I0*", "I3*", "IV*", "III*",
"II*".  Local Euler numbers:

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
from functools import lru_cache

from .picard_lattice import DERIVED, record, strict_int

_IN_RE = re.compile(r"^I([0-9]+)(\*?)$")

# the longest I_n index read: half the interpreter's default limit of 4,300
# digits for int <-> str, so that derived values such as n + 6 and the
# corrections i(n - j)/n still print.  A ramified I_n doubles its index, and
# the image is read under the same cap
_MAX_INDEX_DIGITS = 2150

# euler and component count of the types that carry no index
_SIMPLE_TYPES = {
    "II": (2, 1),
    "III": (3, 2),
    "IV": (4, 3),
    "IV*": (8, 7),
    "III*": (9, 8),
    "II*": (10, 9),
}


@record
class KodairaFibre:
    """A singular-fibre type symbol with its numerical invariants.

    `KodairaFibre(raw)` parses each distinct raw string once: it returns the
    interned instance for that spelling, whose fields were filled when the
    symbol was first seen.  Instances compare and hash by `symbol` alone.
    """

    symbol: str
    index: int | None = DERIVED  # n for I_n and I_n*
    starred: bool = DERIVED  # a multiple component
    euler: int = DERIVED  # local Euler number d_v
    components: int = DERIVED  # m_v

    def __new__(cls, symbol: str) -> "KodairaFibre":
        if not isinstance(symbol, str):
            raise TypeError(f"a Kodaira symbol must be a string, got {symbol!r}")
        return _interned(symbol)

    def __init__(self, symbol: str) -> None:
        # `__new__` returned the complete interned instance.  Without this,
        # `record` would generate an `__init__` that stores the raw spelling
        # on it: KodairaFibre(" I_2 ").symbol would read " I_2 ".
        pass

    def __reduce__(self):
        return KodairaFibre, (self.symbol,)

    def __str__(self) -> str:
        return self.symbol


@lru_cache(maxsize=1024)
def _interned(raw: str) -> KodairaFibre:
    # the one symbol cache, keyed by the raw string and bounded because I_n
    # is valid for every n; other spellings resolve to the canonical entry
    symbol = raw.strip().replace("_", "")
    if symbol in _SIMPLE_TYPES:
        index = None
        euler, components = _SIMPLE_TYPES[symbol]
    else:
        match = _IN_RE.match(symbol)
        if not match:
            raise ValueError(f"unknown Kodaira symbol {raw!r}")
        digits = match.group(1)
        if len(digits) > _MAX_INDEX_DIGITS:
            raise ValueError(f"Kodaira symbol {raw[:12]}... has a {len(digits)}-digit index; "
                             f"at most {_MAX_INDEX_DIGITS} digits are accepted")
        index = int(digits)
        symbol = f"I{index}{match.group(2)}"
        if match.group(2):
            euler, components = index + 6, index + 5
        else:
            euler, components = index, max(index, 1)  # I0 is smooth, I1 nodal
    if symbol != raw:
        return _interned(symbol)
    return KodairaFibre._of(symbol, index, symbol.endswith("*"), euler, components)


def _place_id(place: object) -> str:
    # place ids are compared as given: 5 and "5" must not meet through str()
    if not isinstance(place, str):
        raise TypeError(f"a place id must be a string, got {place!r}")
    return place


@record
class FibreConfiguration:
    """Places of the base, each carrying a singular fibre type."""

    places: tuple[tuple[str, KodairaFibre], ...]

    def __post_init__(self) -> None:
        normalised = tuple([
            (_place_id(place), fibre if isinstance(fibre, KodairaFibre) else KodairaFibre(fibre))
            for place, fibre in self.places
        ])
        object.__setattr__(self, "places", normalised)
        if len({place for place, _ in normalised}) != len(normalised):
            ids = [place for place, _ in normalised]
            raise ValueError(f"duplicate place ids in configuration: {ids}")

    @classmethod
    def from_counts(cls, counts: Mapping[str, int]) -> "FibreConfiguration":
        """Expand a {symbol: count} map into places v0, v1, ... in listed order."""
        places = []
        i = 0
        for symbol, count in counts.items():
            count = strict_int(count, f"count of {symbol}")
            if count < 0:
                raise ValueError(f"count of {symbol} must be non-negative, got {count}")
            for _ in range(count):
                places.append((f"v{i}", KodairaFibre(symbol)))
                i += 1
        return cls(tuple(places))


@record
class BranchLocus:
    """The two branch points of a quadratic cover of a genus-zero base."""

    places: frozenset[str]

    def __init__(self, first: str, second: str) -> None:
        first, second = _place_id(first), _place_id(second)
        if first == second:
            raise ValueError(f"branch points must be distinct, got {first!r} twice")
        object.__setattr__(self, "places", frozenset({first, second}))

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
    `ramified` is True or False; any other value is a TypeError.
    """
    if not isinstance(fibre, KodairaFibre):
        fibre = KodairaFibre(fibre)
    if ramified is not True and ramified is not False:
        raise TypeError(f"ramified must be True or False, got {ramified!r}")
    if not ramified:
        return [fibre, fibre]
    n = fibre.index
    if n is not None:
        # I_n doubles; I_n* loses its star and doubles (I0* smooths out).
        try:
            return [KodairaFibre(f"I{2 * n}")]
        except ValueError:
            # the only failure: the doubled index is past the digit cap
            raise ValueError(
                f"Kodaira symbol {fibre.symbol[:12]}... ramifies to I_2n, which has a "
                f"{len(str(2 * n))}-digit index; at most {_MAX_INDEX_DIGITS} digits are accepted") from None
    if fibre.starred:
        return [KodairaFibre(_RAMIFIED_STARRED[fibre.symbol])]
    return [KodairaFibre(_RAMIFIED_REDUCED[fibre.symbol])]


def euler_total(config: FibreConfiguration) -> int:
    """Sum of local Euler numbers over the listed places."""
    return sum(fibre.euler for _, fibre in config.places)


def base_changed_configuration(config: FibreConfiguration, branch: BranchLocus) -> FibreConfiguration:
    """Transformed fibre configuration; smooth (I0) outputs are dropped.

    Unramified places v contribute places "v.1" and "v.2"; ramified places
    keep their id.  Branch points over places absent from the configuration
    sit on smooth fibres and contribute nothing.  The new ids can collide
    with listed ones (places "a" and "a.1", with "a" unramified and "a.1"
    ramified), and then the configuration is rejected as holding duplicate
    ids; `classify_quadratic_base_change` does not build it.
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


# Euler total of the base change -> outcome; each starred branch fibre gives
# back 12 of the doubled total 24
_BY_TRANSFORMED_TOTAL = {24: SurfaceClass.K3, 12: SurfaceClass.RATIONAL, 0: SurfaceClass.TRIVIAL_PRODUCT}


def classify_quadratic_base_change(config: FibreConfiguration, branch: BranchLocus) -> SurfaceClass:
    """Trichotomy for a quadratic base change of a rational elliptic surface.

    Ramifying over one non-reduced and one reduced fibre keeps the Euler
    total at 12 (still rational).  Ramifying over two non-reduced fibres
    forces the configuration (I0*, I0*) and kills every singular fibre: the
    result is a product of an elliptic curve and a rational curve.  Otherwise
    the total doubles to 24 and the base change is a K3 surface.

    The transformed total is summed place by place, as in the module table:
    2 d_v over an unramified place, and over a ramified one the Euler number
    of the image, 2 d_v for a reduced fibre and 2 d_v - 12 for a starred one.
    """
    total = transformed = 0
    ramified = branch.places
    for place, fibre in config.places:
        euler = fibre.euler
        total += euler
        transformed += 2 * euler - 12 if fibre.starred and place in ramified else 2 * euler
    if total != 12:
        raise ValueError(f"a rational elliptic surface has Euler total 12, got {total}")
    return _BY_TRANSFORMED_TOTAL[transformed]


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
