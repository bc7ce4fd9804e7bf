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

from dataclasses import dataclass

from .picard_lattice import NumericalClass, strict_int

DEFAULT_MAX_STEPS = 64

_new = object.__new__
_setattr = object.__setattr__


@dataclass(frozen=True)
class CremonaStep:
    """One transformation: `after == quadratic_transform(before,*indices)`."""

    indices: tuple[int, int, int]
    before: NumericalClass
    after: NumericalClass

    def to_json(self) -> dict:
        return {
            "indices": list(self.indices),
            "before": self.before.to_list(),
            "after": self.after.to_list(),
        }


@dataclass(frozen=True)
class ReductionCertificate:
    """Replayable chain of Cremona steps ending at `terminal`.

    `success` is true when the terminal class is a line class (d == 1); for
    every pencil class arising from the standard constructions the terminal
    is then exactly a line through one point, (1; e_i).
    """

    chain: tuple[CremonaStep, ...]
    terminal: NumericalClass
    success: bool

    def to_json_list(self) -> list[dict]:
        return [step.to_json() for step in self.chain]


def _transform(d: int, m: list[int], i: int, j: int, k: int) -> int:
    # the transformation at 0-based i, j, k: rewrites m in place, returns d'
    mi, mj, mk = m[i], m[j], m[k]
    m[i] = d - mj - mk
    m[j] = d - mi - mk
    m[k] = d - mi - mj
    return 2 * d - mi - mj - mk


def _exact(a: NumericalClass) -> tuple[int, list[int]]:
    # the degree and multiplicities of a class as exact ints: a
    # NumericalClass holds them already, any other object with `d` and `m`
    # goes through the checked constructor once
    if type(a) is not NumericalClass:
        a = NumericalClass(a.d, a.m)
    return a.d, list(a.m)


def quadratic_transform(a: NumericalClass, i: int, j: int, k: int) -> NumericalClass:
    """Apply the quadratic transformation centred at points i, j, k (1-based).

    d' = 2d - mi - mj - mk, and each of the three chosen multiplicities m_i
    becomes d minus the other two; remaining entries are untouched.  The map
    is an involution and preserves all intersection numbers.
    """
    i, j, k = strict_int(i, "point index"), strict_int(j, "point index"), strict_int(k, "point index")
    if len({i, j, k}) != 3:
        raise ValueError(f"Cremona centre needs three distinct indices, got {(i, j, k)}")
    for t in (i, j, k):
        if not 1 <= t <= 9:
            raise ValueError(f"point indices must be in 1..9, got {t}")
    d, m = _exact(a)
    d = _transform(d, m, i - 1, j - 1, k - 1)
    return NumericalClass._of(d, tuple(m))


def reduce_to_line(a: NumericalClass, max_steps: int = DEFAULT_MAX_STEPS) -> ReductionCertificate:
    """Greedy Cremona reduction of `a` towards a line class.

    Transforms at the three largest multiplicities (ties towards lower
    indices) while that strictly decreases the degree d.  Succeeds when a
    class with d == 1 is reached; fails when d stops decreasing first or the
    step budget runs out.

    The input is checked once, at entry: a NumericalClass holds exact ints
    already, and any other object with `d` and `m` goes through the checked
    constructor.  The classes, steps and certificate derived from it are not
    checked again.  Each step builds its class and its `CremonaStep`, so the
    certificate is complete when the call returns.
    """
    max_steps = strict_int(max_steps, "max_steps")
    if max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, got {max_steps}")
    d, m = _exact(a)

    chain: list[CremonaStep] = []
    current = a
    for _ in range(max_steps):
        if d == 1:
            return _certificate(chain, current, True)
        # largest multiplicities first; the stable sort keeps ties towards
        # lower indices even with reverse=True
        i, j, k = sorted(sorted(range(9), key=m.__getitem__, reverse=True)[:3])
        if m[i] + m[j] + m[k] <= d:
            # Degree would not strictly decrease; the greedy strategy is stuck.
            return _certificate(chain, current, False)
        d = _transform(d, m, i, j, k)
        nxt = NumericalClass._of(d, tuple(m))
        step = _new(CremonaStep)
        _setattr(step, "indices", (i + 1, j + 1, k + 1))
        _setattr(step, "before", current)
        _setattr(step, "after", nxt)
        chain.append(step)
        current = nxt
    return _certificate(chain, current, d == 1)


def _certificate(chain: list[CremonaStep], terminal: NumericalClass, success: bool) -> ReductionCertificate:
    # the fields are built by reduce_to_line: no generated __init__ needed
    cert = _new(ReductionCertificate)
    _setattr(cert, "chain", tuple(chain))
    _setattr(cert, "terminal", terminal)
    _setattr(cert, "success", success)
    return cert


def is_connected_class(a: NumericalClass, max_steps: int = DEFAULT_MAX_STEPS) -> bool:
    """Numerical connectedness certificate: true iff greedy reduction succeeds.

    Sufficient, not necessary, and blind to non-general point positions.
    """
    return reduce_to_line(a, max_steps).success
