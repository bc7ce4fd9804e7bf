"""Quadratic Cremona transformations and greedy reduction of numerical classes.

A quadratic Cremona transformation centred at three distinct points is not an
automorphism of the surface, but it acts on the blow-up lattice, fixing the
canonical and fibre classes.  Repeatedly transforming at the three largest
multiplicities drives the degree down; landing on a line class certifies that
the original class is represented by a connected curve (for base points in
general position).  The certificate is purely numerical: it cannot detect
special point positions, and a failed reduction proves nothing.
"""

from __future__ import annotations

from itertools import combinations, permutations

from .picard_lattice import NumericalClass, _set_d, _set_m, record, strict_int

DEFAULT_MAX_STEPS = 64

_new = object.__new__


@record
class CremonaStep:
    """One transformation: `after == quadratic_transform(before,*indices)`."""

    indices: tuple[int, int, int]
    before: NumericalClass
    after: NumericalClass


@record
class ReductionCertificate:
    """Replayable chain of Cremona steps ending at `terminal`.

    `success` is true when the terminal class is a line class (d == 1); for
    every pencil class arising from the standard constructions the terminal
    is then exactly a line through one point, (1; e_i).
    """

    chain: tuple[CremonaStep, ...]
    terminal: NumericalClass
    success: bool


def _centre_table() -> list:
    # table[i][j][k], for distinct 0-based i, j, k in any order, is the
    # ascending 1-based centre: one tuple per centre, shared by every step
    # taken there
    table = [[[None] * 9 for _ in range(9)] for _ in range(9)]
    for centre in combinations(range(1, 10), 3):
        for i, j, k in permutations(centre):
            table[i - 1][j - 1][k - 1] = centre
    return table


_CENTRES = _centre_table()

# the slots of the records a reduction builds, set past the frozen
# __setattr__: the values are derived from checked ints
_SETTERS = (_set_d, _set_m,
            CremonaStep.indices.__set__, CremonaStep.before.__set__, CremonaStep.after.__set__)


def _exact(a: NumericalClass) -> tuple[int, list[int]]:
    # the degree and multiplicities of a class, which a NumericalClass holds
    # as exact ints; any other object is refused
    if not isinstance(a, NumericalClass):
        raise TypeError(f"a class must be a NumericalClass, got {a!r}")
    return a.d, list(a.m)


def quadratic_transform(a: NumericalClass, i: int, j: int, k: int) -> NumericalClass:
    """Apply the quadratic transformation centred at points i, j, k (1-based).

    d' = 2d - mi - mj - mk, and each of the three chosen multiplicities m_i
    becomes d minus the other two; remaining entries are untouched.  The map
    is an involution and preserves all intersection numbers.
    """
    # exact ints in 1..9 name a centre in the table exactly when they are
    # distinct; anything else takes the checks in `_centre`
    if not (type(i) is int and type(j) is int and type(k) is int
            and 0 < i < 10 and 0 < j < 10 and 0 < k < 10 and _CENTRES[i - 1][j - 1][k - 1]):
        i, j, k = _centre(i, j, k)
    d, m = _exact(a)
    i, j, k = i - 1, j - 1, k - 1
    mi, mj, mk = m[i], m[j], m[k]
    m[i] = d - mj - mk
    m[j] = d - mi - mk
    m[k] = d - mi - mj
    # built from checked ints, as in `reduce_to_line`, with inline setters:
    # a call to `NumericalClass._of` adds about 70 ns (CPython 3.11)
    new = _new(NumericalClass)
    _set_d(new, 2 * d - mi - mj - mk)
    _set_m(new, tuple(m))
    return new


def _centre(i: object, j: object, k: object) -> tuple[int, int, int]:
    # three point indices as exact ints, distinct and in 1..9
    i, j, k = strict_int(i, "point index"), strict_int(j, "point index"), strict_int(k, "point index")
    if len({i, j, k}) != 3:
        raise ValueError(f"Cremona centre needs three distinct indices, got {(i, j, k)}")
    for t in (i, j, k):
        if not 1 <= t <= 9:
            raise ValueError(f"point indices must be in 1..9, got {t}")
    return i, j, k


def reduce_to_line(a: NumericalClass, max_steps: int = DEFAULT_MAX_STEPS) -> ReductionCertificate:
    """Greedy Cremona reduction of `a` towards a line class.

    Transforms at the three largest multiplicities (ties towards lower
    indices) while that strictly decreases the degree d.  Succeeds when a
    class with d == 1 is reached; fails when d stops decreasing first or the
    step budget runs out.

    The input must be a NumericalClass, which holds exact ints already; any
    other object is a TypeError.  The classes, steps and certificate derived
    from it are not checked again.  Each step builds its class and its
    `CremonaStep`, so the certificate is complete when the call returns;
    steps at the same centre share one `indices` tuple.
    """
    max_steps = strict_int(max_steps, "max_steps")
    if max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, got {max_steps}")
    d, m = _exact(a)

    chain: list[CremonaStep] = []
    append, index, new, centres = chain.append, m.index, _new, _CENTRES
    set_d, set_m, set_indices, set_before, set_after = _SETTERS
    current = a
    for _ in range(max_steps):
        if d == 1:
            return ReductionCertificate(tuple(chain), current, True)
        # the three largest multiplicities: their values decide whether to
        # stop, then each takes the first position not yet taken by an equal
        # value, so ties go towards lower indices
        top = sorted(m, reverse=True)
        mi, mj, mk = top[0], top[1], top[2]
        if mi + mj + mk <= d:
            # Degree would not strictly decrease; the greedy strategy is stuck.
            return ReductionCertificate(tuple(chain), current, False)
        i = index(mi)
        j = index(mj, i + 1) if mj == mi else index(mj)
        k = index(mk, j + 1) if mk == mj else index(mk)
        # the transformation at i, j, k, as in `quadratic_transform`
        m[i] = d - mj - mk
        m[j] = d - mi - mk
        m[k] = d - mi - mj
        d = 2 * d - mi - mj - mk
        # inline setters: the generated `_of` pair adds about 70 ns a step (CPython 3.11)
        nxt = new(NumericalClass)
        set_d(nxt, d)
        set_m(nxt, tuple(m))
        step = new(CremonaStep)
        set_indices(step, centres[i][j][k])
        set_before(step, current)
        set_after(step, nxt)
        append(step)
        current = nxt
    return ReductionCertificate(tuple(chain), current, d == 1)


def is_connected_class(a: NumericalClass, max_steps: int = DEFAULT_MAX_STEPS) -> bool:
    """Numerical connectedness certificate: true iff greedy reduction succeeds.

    Sufficient, not necessary, and blind to non-general point positions.
    """
    return reduce_to_line(a, max_steps).success
