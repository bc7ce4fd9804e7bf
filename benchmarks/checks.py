"""Output checks that share no code with pencilforge.

Every formula here is written out again from the mathematics (plain integers
and `fractions.Fraction`), so a defect in the library cannot hide in the check.
A failed check raises `Mismatch`; the runner counts it as a failed operation.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product


class Mismatch(Exception):
    """An output that disagrees with the independent recomputation."""


def expect(condition: bool, message: str, *args) -> None:
    """Raise `Mismatch` unless `condition`; `message % args` is built only then."""
    if not condition:
        raise Mismatch(message % args if args else message)


# ---------------------------------------------------------------- lattice

def dot(a, b) -> int:
    """Intersection number of (d; m1..m9) classes given as 10-entry lists."""
    return a[0] * b[0] - sum(x * y for x, y in zip(a[1:], b[1:]))


FIBRE = [3] + [1] * 9


def genus(c) -> int:
    # p_a = (c.c + c.K)/2 + 1 with K = -F
    return (dot(c, c) - dot(c, FIBRE)) // 2 + 1


def cremona_step(c, i: int, j: int, k: int) -> list[int]:
    """Quadratic transformation at points i, j, k (1-based) on plain integers."""
    d, mi, mj, mk = c[0], c[i], c[j], c[k]
    out = list(c)
    out[0] = 2 * d - mi - mj - mk
    out[i], out[j], out[k] = d - mj - mk, d - mi - mk, d - mi - mj
    return out


def check_invariants(c, genus_value: int, degree: int, self_int: int) -> None:
    expect(genus_value == genus(c), "genus of %s: got %s, want %s", c, genus_value, genus(c))
    expect(degree == dot(c, FIBRE), "degree to base of %s: got %s", c, degree)
    expect(self_int == dot(c, c), "self-intersection of %s: got %s", c, self_int)


def check_certificate(start, chain, terminal, success: bool, require_success: bool = False) -> None:
    """Replay a reduction certificate step by step.

    `chain` lists (indices, before, after) with 10-entry classes.  Each step
    must start where the previous ended, be the quadratic transformation at
    its indices and strictly lower the degree; the terminal is the last class
    and success means it has d == 1.
    """
    current = list(start)
    for indices, before, after in chain:
        expect(list(before) == current, "certificate step starts at %s, expected %s", before, current)
        expect(len(set(indices)) == 3 and all(1 <= t <= 9 for t in indices), "bad centre %s", indices)
        nxt = cremona_step(current, *indices)
        expect(list(after) == nxt, "step at %s gave %s, expected %s", indices, after, nxt)
        expect(nxt[0] < current[0], "step at %s does not lower the degree of %s", indices, current)
        current = nxt
    expect(list(terminal) == current, "terminal %s is not the end of the chain %s", terminal, current)
    expect(success == (current[0] == 1), "success flag %s for terminal %s", success, current)
    if require_success:
        expect(success, "class %s did not reduce to a line", start)


# ---------------------------------------------------------------- pencils

def spec_class(model: str, level: int, mults) -> list[int]:
    """Nine-point lattice class of a spec: (n; mults) on the plane, and
    (3n; n.., mults) on a degree-k del Pezzo model (9-k plane points first)."""
    if model == "plane":
        return [level, *mults] + [0] * (9 - len(mults))
    return [3 * level] + [level] * (9 - len(mults)) + list(mults)


def spec_numbers(model: str, level: int, mults, extra: int) -> tuple[int, int, int]:
    """(dimension bound, genus bound, degree to base) of a spec by plain formulas.

    Riemann-Roch, adjunction and c.F on the spec's lattice class, minus one
    per extra tangency condition for the dimension and the degree.
    """
    c = spec_class(model, level, mults)
    dim = (dot(c, c) + dot(c, FIBRE)) // 2 + 1
    return dim - extra, genus(c), dot(c, FIBRE) - extra


def spec_is_valid(numbers) -> bool:
    dim, genus_bound, degree = numbers
    return dim >= 2 and genus_bound <= 0 and degree == 2


def check_spec_report(model, level, mults, extra, report) -> None:
    """`report` is (dim, genus, degree, valid) as returned by `verify`."""
    numbers = spec_numbers(model, level, mults, extra)
    expect(tuple(report[:3]) == numbers, "%s %s %s+%s: report %s, want %s",
           model, level, mults, extra, report, numbers)
    expect(report[3] == spec_is_valid(numbers), "%s %s %s: verdict %s", model, level, mults, report[3])


def orbit_blocks(sizes) -> list[range]:
    out, start = [], 0
    for size in sizes:
        out.append(range(start, start + size))
        start += size
    return out


def check_search(model: str, sizes, n_max: int, specs) -> None:
    """Every found (level, mults) is a pencil member, orbit-constant, in range
    and listed once, in ascending (level, mults) order."""
    points = sum(sizes)
    for level, mults in specs:
        expect(1 <= level <= n_max, "level %s outside 1..%s", level, n_max)
        expect(len(mults) == points, "%s multiplicities for %s points", len(mults), points)
        expect(all(0 <= x <= n_max + 1 for x in mults), "multiplicity out of range in %s", mults)
        for block in orbit_blocks(sizes):
            expect(len({mults[p] for p in block}) == 1, "%s not constant on orbit %s", mults, block)
        expect(spec_is_valid(spec_numbers(model, level, mults, 0)),
               "%s %s %s is no pencil member", model, level, mults)
    keys = [(level, tuple(mults)) for level, mults in specs]
    expect(all(a < b for a, b in zip(keys, keys[1:])), "search output not strictly ascending")


def check_construct(pair) -> None:
    """`pair` is None when unsupported, else two (model, level, mults, extra,
    report); degree-six models come back rewritten to degree five or four."""
    if pair is None:
        return
    for model, level, mults, extra, report in pair:
        check_spec_report(model, level, mults, extra, report)


def brute_search(model: str, sizes, n_max: int) -> list[tuple[int, list[int]]]:
    """All orbit-constant pencil members with level <= n_max, by a full box scan."""
    found = []
    for level in range(1, n_max + 1):
        for per_orbit in product(range(n_max + 2), repeat=len(sizes)):
            mults = [x for x, size in zip(per_orbit, sizes) for _ in range(size)]
            if spec_is_valid(spec_numbers(model, level, mults, 0)):
                found.append((level, mults))
    return sorted(found)


# ---------------------------------------------------------------- sections

def check_sections(d_max: int, classes, constraints=()) -> None:
    """Section classes: c.c = -1, c.F = 1, |d| <= d_max, each constraint met,
    strictly ascending lexicographic order."""
    for c in classes:
        expect(dot(c, c) == -1 and dot(c, FIBRE) == 1, "%s is not a section class", c)
        expect(abs(c[0]) <= d_max, "%s has |d| > %s", c, d_max)
        for cls, value in constraints:
            expect(dot(c, cls) == value, "%s violates constraint %s.c = %s", c, cls, value)
    keys = [tuple(c) for c in classes]
    expect(all(a < b for a, b in zip(keys, keys[1:])), "section classes not strictly ascending")


# ---------------------------------------------------------------- fibres

EULER = {f"I{n}": n for n in range(1, 10)}
EULER.update({"II": 2, "III": 3, "IV": 4, "IV*": 8, "III*": 9, "II*": 10})
EULER.update({f"I{n}*": n + 6 for n in range(5)})


def euler(symbol: str) -> int:
    """Local Euler number of any Kodaira symbol, I_n and I_n* for every n."""
    if symbol in ("II", "III", "IV", "IV*", "III*", "II*"):
        return EULER[symbol]
    n = int(symbol[1:].rstrip("*"))
    return n + 6 if symbol.endswith("*") else n


def components(symbol: str) -> int:
    """Number of irreducible components of a fibre."""
    if symbol in ("II", "III", "IV", "IV*", "III*", "II*"):
        return {"II": 1, "III": 2, "IV": 3, "IV*": 7, "III*": 8, "II*": 9}[symbol]
    if symbol.endswith("*"):
        return int(symbol[1:-1]) + 5
    return max(int(symbol[1:]), 1)


_RAMIFIED = {"II": "IV", "III": "I0*", "IV": "IV*", "IV*": "IV", "III*": "I0*", "II*": "IV*"}


def ramified_image(symbol: str) -> str:
    """Fibre above a ramified place of a quadratic base change."""
    if symbol in _RAMIFIED:
        return _RAMIFIED[symbol]
    n = int(symbol[1:].rstrip("*"))
    return f"I{2 * n}"


def check_transform(symbol: str, ramified: bool, images) -> None:
    want = [ramified_image(symbol)] if ramified else [symbol, symbol]
    expect(list(images) == want, "%s ramified=%s: got %s, want %s", symbol, ramified, images, want)


VERDICTS = {0: "TrivialProduct", 12: "Rational", 24: "K3"}


def check_classify(places, branch, verdict: str) -> None:
    """Euler total of the base-changed configuration decides the verdict."""
    total = 0
    for place, symbol in places:
        total += euler(ramified_image(symbol)) if place in branch else 2 * euler(symbol)
    expect(total in VERDICTS, "transformed Euler total %s not in 0/12/24", total)
    expect(verdict == VERDICTS[total], "verdict %s for Euler total %s", verdict, total)


# ---------------------------------------------------------------- heights

def _edges(symbol: str) -> tuple[int, list[tuple[int, int]]]:
    """Rank and dual-graph edges of the non-identity components, numbered as
    the heights module documents: chains for I_n, III, IV; for I_n* node 1 at
    the near end, spine 2..n+2, far ends n+3 and n+4; Bourbaki for E_6..E_8."""
    if symbol in ("IV*", "III*", "II*"):
        rank = {"IV*": 6, "III*": 7, "II*": 8}[symbol]
        return rank, [(1, 3), (3, 4), (4, 5), (2, 4)] + [(i, i + 1) for i in range(5, rank)]
    if symbol.endswith("*"):
        n = int(symbol[1:-1])
        spine = [(i, i + 1) for i in range(1, n + 2)]
        return n + 4, spine + [(n + 2, n + 3), (n + 2, n + 4)]
    rank = components(symbol) - 1
    return rank, [(i, i + 1) for i in range(1, rank)]


def _det(matrix) -> int:
    """Determinant of an integer matrix by Bareiss fraction-free elimination."""
    a = [list(row) for row in matrix]
    n, sign, prev = len(a), 1, 1
    if n == 0:
        return 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def cofactor_inverse(matrix) -> list[list[Fraction]]:
    """Inverse of an integer matrix as the adjugate over the determinant."""
    n = len(matrix)
    det = _det(matrix)
    expect(det != 0, "singular Cartan matrix")

    def minor(r, c):
        return [[matrix[i][j] for j in range(n) if j != c] for i in range(n) if i != r]

    return [[Fraction((-1) ** (i + j) * _det(minor(j, i)), det) for j in range(n)] for i in range(n)]


_INVERSES: dict[str, list[list[Fraction]]] = {}


def inverse_cartan(symbol: str) -> list[list[Fraction]]:
    if symbol not in _INVERSES:
        rank, edges = _edges(symbol)
        cartan = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
        for a, b in edges:
            cartan[a - 1][b - 1] = cartan[b - 1][a - 1] = -1
        _INVERSES[symbol] = cofactor_inverse(cartan)
    return _INVERSES[symbol]


def contribution(symbol: str, i: int, j: int) -> Fraction:
    if i == 0 or j == 0:
        return Fraction(0)
    return inverse_cartan(symbol)[i - 1][j - 1]


def height(po: int, qo: int, pq: int, comps, chi: int, fibres) -> Fraction:
    local = sum((contribution(f, i, j) for f, (i, j) in zip(fibres, comps)), Fraction(0))
    return chi + po + qo - pq - local


def check_pair(po, qo, pq, comps, chi, fibres, value: Fraction) -> None:
    want = height(po, qo, pq, comps, chi, fibres)
    expect(value == want, "height pairing %s, want %s", value, want)


def check_contrib(symbol: str, i: int, j: int, value: Fraction) -> None:
    want = contribution(symbol, i, j)
    expect(value == want, "contr(%s, %s, %s) = %s, want %s", symbol, i, j, value, want)


# ---------------------------------------------------------------- kummer

def check_kummer(h: int, f1: Fraction, c_e: Fraction, alpha: Fraction, n0: int) -> None:
    """n0 = floor(h/f1) * t with t the largest integer with t**alpha <= h/c_e,
    that is t^p <= v^q < (t+1)^p for alpha = p/q and v = h/c_e."""
    m = h * f1.denominator // f1.numerator
    if m == 0:
        expect(n0 == 0, "kummer bound %s, want 0 (no division index)", n0)
        return
    expect(n0 >= 0 and n0 % m == 0, "kummer bound %s is not a multiple of %s", n0, m)
    t = n0 // m
    v = Fraction(h) / c_e
    p, q = alpha.numerator, alpha.denominator
    if v < 1:
        expect(t == 0, "kummer torsion factor %s for h/c_e < 1", t)
        return
    vq_num, vq_den = v.numerator ** q, v.denominator ** q
    expect(t ** p * vq_den <= vq_num < (t + 1) ** p * vq_den,
           "kummer torsion factor %s does not bracket (h/c_e)^(1/alpha)", t)


# ---------------------------------------------------------------- cli

def _flags(argv) -> dict:
    """Flag values of an argv; a flag with no value maps to True."""
    out = {}
    for i, token in enumerate(argv):
        if token.startswith("--"):
            nxt = argv[i + 1] if i + 1 < len(argv) else None
            out[token] = True if nxt is None or nxt.startswith("--") else nxt
    return out


def check_cli(command: str, argv, result) -> None:
    """Check the `result` of a successful CLI request against its argv."""
    opts = _flags(argv)
    if command == "class":
        c = json.loads(opts["--class"])
        check_invariants(c, result["genus"], result["degree_to_base"], result["self_int"])
    elif command == "cremona":
        chain = [(s["indices"], s["before"], s["after"]) for s in result["chain"]]
        check_certificate(json.loads(opts["--class"]), chain, result["terminal"], result["success"])
    elif command == "pencil construct":
        if result["supported"]:
            check_construct([_spec_entry(result[key]) for key in ("l1", "l2")])
    elif command == "pencil search":
        sizes = json.loads(opts["--orbits"])["orbit_sizes"]
        n_max = int(opts["--n-max"])
        specs = [(s["level"], s["mults"]) for s in result["specs"]]
        expect(result["count"] == len(specs), "search count differs from the spec list")
        check_search(opts["--model"], sizes, n_max, specs)
        want = brute_search(opts["--model"], sizes, n_max)
        expect(specs == want, "search found %s specs, box scan %s", len(specs), len(want))
    elif command == "pencil verify":
        spec = json.loads(opts["--spec"])
        check_construct([_spec_entry(dict(spec, report=result["report"]))])
    elif command == "basechange classify":
        places = [(p["place"], p["type"]) for p in json.loads(opts["--config"])]
        check_classify(places, opts["--branch"].split(","), result)
    elif command == "basechange transform":
        ramified = opts.get("--ramified") is True
        check_transform(opts["--type"], ramified, result["fibres"])
        expect(result["euler"] == sum(euler(s) for s in result["fibres"]), "transformed Euler number")
    elif command == "height pair":
        data = json.loads(opts["--data"])
        comps = [tuple(c) for c in data["components"]]
        check_pair(data["PO"], data["QO"], data["PQ"], comps, int(opts["--chi"]),
                   json.loads(opts["--fibres"]), Fraction(result))
    elif command == "height contrib":
        check_contrib(opts["--type"], int(opts["--i"]), int(opts["--j"]), Fraction(result))
    elif command == "sections enumerate":
        constraints = json.loads(opts["--constraints"]) if "--constraints" in opts else []
        classes = result["classes"]
        expect(result["count"] == len(classes), "section count differs from the class list")
        check_sections(int(opts["--d-max"]), classes, constraints)
    elif command == "kummer bound":
        check_kummer(int(opts["--h"]), Fraction(opts["--f1"]), Fraction(opts["--c-e"]),
                     Fraction(opts["--alpha"]), result["n0"])
    else:
        raise Mismatch(f"no check for command {command!r}")


def _spec_entry(payload) -> tuple:
    report = payload["report"]
    numbers = (report["dim_lower_bound"], report["genus_upper_bound"], report["degree_to_base"],
               report["is_valid_pair_member"])
    return (payload["model"], payload["level"], payload["mults"],
            payload.get("extra_conditions", 0), numbers)
