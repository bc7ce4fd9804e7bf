"""Exact intersection theory on the blow-up lattice of the plane at nine points.

A divisor class is written in the geometric basis L0, L1, ..., L9 as

    d * L0  -  m1 * L1  -  ...  -  m9 * L9

where L0 is the pullback of a line and L1..L9 are the exceptional classes.
The intersection form has signature (1, 9): L0.L0 = 1, Li.Li = -1 and mixed
products vanish.  Effective curves carry non-negative multiplicities m_i in
this convention, while the exceptional class E_j itself is (0; ..., m_j=-1,
...).  All arithmetic is arbitrary-precision integer.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from math import isqrt
from operator import index, mul

_INT = frozenset({int})


def strict_int(value: object, name: str) -> int:
    """`value` as an exact int: `operator.index`, with bool rejected too.

    Used at the input boundaries so that 2.7, "2" or true never stand in for
    an integer; raises TypeError naming the offending input.
    """
    if type(value) is int:
        return value
    if not isinstance(value, bool):
        try:
            return index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


def strict_ints(values: Iterable[object], name: str) -> tuple[int, ...]:
    """`values` as a tuple of exact ints, each entry as `strict_int` takes it.

    An all-int tuple, the common case, is checked in one pass at C speed and
    kept as it is; any other entry sends the whole tuple through
    `strict_int`, which raises TypeError naming `name`.
    """
    values = tuple(values)
    if _INT.issuperset(map(type, values)):
        return values
    return tuple([strict_int(x, name) for x in values])


def strict_fields(obj: object, *names: str) -> None:
    """Apply `strict_int` to the named fields of a frozen record in its
    `__post_init__`; only values it converts are stored again."""
    for name in names:
        value = getattr(obj, name)
        if type(value) is not int:
            object.__setattr__(obj, name, strict_int(value, name))


#: The class-body value of a record field that the record fills itself: the
#: field is left out of `__init__`, equality, hashing and repr.
DERIVED = object()


class _Record:
    """The base of every record: the dataclass methods that do not depend on the fields."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return _shown(self) == _shown(other)
        return NotImplemented

    def __hash__(self):
        return hash(_shown(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __getstate__(self):
        # every record slot, from a subclass too: the dataclass's pickle state, byte for byte
        return [getattr(self, name) for cls in reversed(type(self).__mro__) for name in vars(cls).get("__slots__", ())]

    def __setstate__(self, state):
        names = [name for cls in reversed(type(self).__mro__) for name in vars(cls).get("__slots__", ())]
        for name, value in zip(names, state):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _shown(obj: _Record) -> tuple:
    return tuple([getattr(obj, name) for name in obj.__match_args__])


def record(cls: type) -> type:
    """The frozen, slotted record class that `cls`'s annotations describe.

    It compares, hashes, prints, pickles, copies and refuses assignment as
    `@dataclass(frozen=True, slots=True)` makes a class, without importing
    `dataclasses`, whose helpers do not accept it: the fields are its
    `__slots__`, so no `__dict__` and no weak references, with class-body
    values as defaults, and its `__match_args__`.  Its one base, `_Record`,
    holds the methods that do not depend on the fields; `record` compiles
    the two that do, unless the class defines its own:

    * an `__init__` taking the fields in order, positional or keyword, that
      calls `__post_init__` when the class has one;
    * an unchecked classmethod `_of` taking every field, `DERIVED` ones too,
      in pickled-state order with `__init__`'s defaults: it fills
      `object.__new__(cls)` through the slot setters and runs neither
      `__init__` nor `__post_init__`.

    A `DERIVED` field is in the slots and in the pickled state only.
    """
    annotations = cls.__annotations__
    body = {name: value for name, value in vars(cls).items() if name not in ("__dict__", "__weakref__")}
    defaults = {name: body.pop(name) for name in annotations if name in body}
    shown = [name for name in annotations if defaults.get(name) is not DERIVED]
    body["__slots__"] = tuple(annotations)
    body.setdefault("__match_args__", tuple(shown))
    new = type(cls)(cls.__name__, (_Record,), body)

    # `__init__` and `_of` store each field through its slot's own setter
    param = {name: name if defaults.get(name, DERIVED) is DERIVED else f"{name}=_default_{name}"
             for name in annotations}
    source = {
        "__init__": [f"def __init__(self, {', '.join(param[name] for name in shown)}):",
                     *(f"    _set_{name}(self, {name})" for name in shown),
                     *(["    self.__post_init__()"] if hasattr(new, "__post_init__") else [])],
        "_of": [f"def _of(cls, {', '.join(param.values())}):",
                "    self = _new(cls)",
                *(f"    _set_{name}(self, {name})" for name in annotations),
                "    return self"],
    }
    namespace = {"_new": object.__new__,
                 **{f"_set_{name}": getattr(new, name).__set__ for name in annotations},
                 **{f"_default_{name}": value for name, value in defaults.items()}}
    exec("\n".join(line for name, lines in source.items() if name not in body for line in lines), namespace)
    for name in source.keys() - body.keys():
        method = namespace[name]
        method.__qualname__ = f"{new.__qualname__}.{name}"
        setattr(new, name, classmethod(method) if name == "_of" else method)
    return new


@record
class NumericalClass:
    """A divisor class (d; m1, ..., m9) in the blow-up basis.

    Slotted: an instance has no `__dict__` and takes no weak references.
    """

    d: int
    m: tuple[int, ...]

    def __init__(self, d: int, m: Iterable[int]) -> None:
        # strict_int keeps the lattice exact: true integers only, bool
        # refused
        m = strict_ints(m, "multiplicity")
        if type(d) is not int:
            d = strict_int(d, "degree")
        if len(m) != 9:
            raise ValueError(f"multiplicity vector must have length 9, got {len(m)}")
        _set_d(self, d)
        _set_m(self, m)

    @classmethod
    def from_list(cls, coords: Sequence[int]) -> "NumericalClass":
        """Build a class from the 10-entry JSON form [d, m1, ..., m9]."""
        coords = list(coords)
        if len(coords) != 10:
            raise ValueError(f"expected 10 coordinates [d, m1..m9], got {len(coords)}")
        return cls(coords[0], tuple(coords[1:]))

    def to_list(self) -> list[int]:
        """Serialize as the 10-entry list [d, m1, ..., m9]."""
        return [self.d, *self.m]

    def __add__(self, other: "NumericalClass") -> "NumericalClass":
        return NumericalClass(self.d + other.d, tuple(a + b for a, b in zip(self.m, other.m)))

    def __sub__(self, other: "NumericalClass") -> "NumericalClass":
        return NumericalClass(self.d - other.d, tuple(a - b for a, b in zip(self.m, other.m)))

    def __neg__(self) -> "NumericalClass":
        return NumericalClass(-self.d, tuple(-a for a in self.m))

    def __rmul__(self, scalar: int) -> "NumericalClass":
        return NumericalClass(scalar * self.d, tuple(scalar * a for a in self.m))

    def __repr__(self) -> str:
        return f"({self.d}; {', '.join(str(x) for x in self.m)})"


# the slots of a class, set past the frozen __setattr__
_set_d, _set_m = NumericalClass.d.__set__, NumericalClass.m.__set__


def exceptional(j: int) -> NumericalClass:
    """The exceptional class E_j above the j-th point, 1-based."""
    j = strict_int(j, "point index")
    if not 1 <= j <= 9:
        raise ValueError(f"point index must be in 1..9, got {j}")
    m = [0] * 9
    m[j - 1] = -1
    return NumericalClass(0, tuple(m))


#: Pullback of a plane line.
LINE = NumericalClass(1, (0,) * 9)

#: Canonical class K = (-3; -1, ..., -1); K.K = 0.
CANONICAL = NumericalClass(-3, (-1,) * 9)

#: Fibre class of the elliptic fibration, F = -K = (3; 1, ..., 1).
FIBRE = -CANONICAL


def intersect(a: NumericalClass, b: NumericalClass) -> int:
    """Intersection number a.b = d_a*d_b - sum_i m_i(a)*m_i(b)."""
    return a.d * b.d - sum(map(mul, a.m, b.m))


def degree_to_base(a: NumericalClass) -> int:
    """Degree of the induced map to the base of the fibration, a.F = 3d - sum m_i."""
    return 3 * a.d - sum(a.m)


def arithmetic_genus(a: NumericalClass) -> int:
    """Arithmetic genus (a.a + a.K)/2 + 1, with a.K = -a.F.

    For an effective class this is the familiar plane-curve bound
    (d-1)(d-2)/2 - sum m_i(m_i - 1)/2.
    """
    total = intersect(a, a) - degree_to_base(a)
    assert total % 2 == 0, f"adjunction parity violated for {a}"
    return total // 2 + 1


def weighted_vectors(weights: Sequence[int], square_sum: int, linear_sum: int,
                     lo: int, hi: int) -> list[tuple[int, ...]]:
    """The list of integer vectors x with lo <= x_i <= hi,
    sum w_i x_i^2 == square_sum and sum w_i x_i == linear_sum, in ascending
    lex order.

    The weights are positive, e.g. the sizes of Galois orbits carrying one
    multiplicity each.  Each suffix is cut by weighted Cauchy-Schwarz,
    (sum w x)^2 <= (sum w)(sum w x^2).  The last two entries are solved in
    closed form: with weights u, v and remaining sums S, L, the entry x is
    an integer root of u(u+v)x^2 - 2uLx + L^2 - vS = 0, whose discriminant
    4uv(S(u+v) - L^2) the cut keeps non-negative, and y = (L - ux)/v.  The
    search fills one shared prefix and copies it out at each solution.
    """
    if not weights:
        return [()] if square_sum == linear_sum == 0 else []
    if len(weights) == 1:
        w = weights[0]
        x, rest = divmod(linear_sum, w)
        return [(x,)] if not rest and lo <= x <= hi and w * x * x == square_sum else []
    last = len(weights) - 1
    suffix = [sum(weights[i:]) for i in range(last)]
    u, v = weights[-2:]
    uv = u + v
    prefix = [0] * len(weights)
    found: list[tuple[int, ...]] = []

    def extend(i: int, squares: int, linear: int) -> None:
        if linear * linear > squares * suffix[i]:
            return
        if i < last - 1:
            w = weights[i]
            r = isqrt(squares // w)
            for x in range(max(lo, -r), min(hi, r) + 1):
                prefix[i] = x
                extend(i + 1, squares - w * x * x, linear - w * x)
            return
        disc = u * v * (squares * uv - linear * linear)
        r = isqrt(disc)
        if r * r != disc:
            return
        # the roots in ascending order, a double root once
        for top in (u * linear - r, u * linear + r) if r else (u * linear,):
            x, rest = divmod(top, u * uv)
            if rest or not lo <= x <= hi:
                continue
            y, rest = divmod(linear - u * x, v)
            if not rest and lo <= y <= hi:
                prefix[i] = x
                prefix[last] = y
                found.append(tuple(prefix))

    extend(0, square_sum, linear_sum)
    return found


def mw_rank_bound(s: int) -> int:
    """Upper bound s - 1 for the geometric Mordell-Weil rank of a surface
    induced by a cubic pencil with s distinct base points."""
    s = strict_int(s, "base point count")
    if not 1 <= s <= 9:
        raise ValueError(f"a cubic pencil has 1..9 distinct base points, got {s}")
    return s - 1


def unirationality_check(pic_rank_over_k: int) -> bool:
    """Whether a Picard rank over the ground field guarantees unirationality.

    The threshold is rank >= 5: contracting down to a minimal model then
    leaves degree at least three, and such surfaces with a rational point
    are unirational.
    """
    pic_rank_over_k = strict_int(pic_rank_over_k, "Picard rank")
    if not 1 <= pic_rank_over_k <= 10:
        raise ValueError(f"Picard rank of a rational elliptic surface is in 1..10, got {pic_rank_over_k}")
    return pic_rank_over_k >= 5
