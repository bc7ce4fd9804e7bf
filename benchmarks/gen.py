"""Seeded input generators for the three benchmark workloads.

The generators return plain data (tuples, lists, ints, strings, Fractions)
drawn from `random.Random` streams named by seed, workload and round.
Nothing here imports pencilforge, so the inputs do not depend on the code
under test.  The same seed always yields the same inputs.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction

from checks import EULER, components, cremona_step

CENSUS_N_MAX = 3
CENSUS_D_MAX = 10

# Operations per stream round and the share of each kind per round.  Kummer
# calls are few but long: they carry the latency tail (see `kummer_torsions`).
STREAM_MIX = (
    ("inv", 5000), ("reduce", 3000), ("verify", 3000), ("construct", 2000),
    ("pair", 2000), ("contrib", 2000), ("classify", 1500), ("transform", 1492),
    ("kummer", 8),
)
KUMMER_ALPHAS = ("1/2", "2/3", "3/2", "1/2", "2/3", "3/2", "1", "2")
GOLDEN = (5 ** 0.5 - 1) / 2

# CLI requests per round: valid requests per subcommand, plus invalid ones.
CLI_MIX = (
    ("class", 4), ("cremona", 4), ("pencil construct", 4), ("pencil search", 3),
    ("pencil verify", 4), ("basechange classify", 4), ("basechange transform", 3),
    ("height pair", 4), ("height contrib", 3), ("sections enumerate", 2),
    ("kummer bound", 1),
)
CLI_INVALID = 4

ALL_SYMBOLS = tuple(EULER)
REDUCIBLE = tuple(s for s in ALL_SYMBOLS if components(s) > 1)
CUBIC_PATTERNS = ((1, 4, 4), (3, 3, 3), (5, 2, 2), (7, 1, 1))
MODELS = ("plane",) + tuple(f"dp{k}" for k in range(1, 9))


def rng_for(seed: int, *parts) -> random.Random:
    """An independent, reproducible stream for one part of one workload."""
    return random.Random("/".join(str(p) for p in (seed, *parts)))


def partitions(n: int, largest: int | None = None):
    """Integer partitions of n as non-increasing tuples."""
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest or n), 0, -1):
        for rest in partitions(n - k, k):
            yield (k, *rest)


def orbit_configs() -> list[tuple[str, tuple[int, ...]]]:
    """Every (model, orbit partition) `search_pencils` accepts: plane with 1..9
    points and dp1..dp8, each with at least one rational (size-one) orbit."""
    out = []
    for n in range(1, 10):
        out += [("plane", p) for p in partitions(n) if 1 in p]
    for k in range(1, 9):
        out += [(f"dp{k}", p) for p in partitions(k) if 1 in p]
    return out


def _layout(rng: random.Random, sizes) -> tuple[tuple[int, ...], int]:
    # Seeded orbit order and choice of the designated rational orbit.
    sizes = list(sizes)
    rng.shuffle(sizes)
    rational = rng.choice([i for i, s in enumerate(sizes) if s == 1])
    return tuple(sizes), rational


def _point_count(model: str) -> int:
    return 9 if model == "plane" else int(model[2:])


def random_config(rng: random.Random, max_orbits: int | None = None):
    """A random model and orbit layout with a rational orbit."""
    while True:
        model = rng.choice(MODELS)
        n = rng.randint(1, 9) if model == "plane" else _point_count(model)
        choices = [p for p in partitions(n) if 1 in p and (max_orbits is None or len(p) <= max_orbits)]
        if choices:
            sizes, rational = _layout(rng, rng.choice(choices))
            return model, sizes, rational


# ---------------------------------------------------------------- census

def census_round(seed: int) -> list[tuple]:
    """One census pass: a search over every configuration, then the section census.

    The census is exhaustive, so the seed changes nothing.  Orbits are listed
    smallest first, rational orbit first: a seeded orbit order changed the
    work by up to a fifth, and a seeded pass order moved the median
    operation by as much, through garbage collection and cache state.
    """
    ops = [("search", model, tuple(sorted(parts)), 0, CENSUS_N_MAX) for model, parts in orbit_configs()]
    return ops + [("sections", CENSUS_D_MAX)]


def census_order(round_index: int, count: int) -> list[int]:
    """The order of the census operations in one round, the same for every seed.

    Round 0 keeps the listed order.  Later rounds are shuffled by round
    index, so the operations timed next to one another change from round to
    round.  Operations of similar length then have their times taken at
    different moments, and a slow spell of the machine lands on one of them
    instead of on all of them together.
    """
    order = list(range(count))
    if round_index:
        rng_for("census", round_index).shuffle(order)
    return order


# ---------------------------------------------------------------- stream

def random_class(rng: random.Random) -> list[int]:
    d = rng.randint(-4, 24)
    top = max(abs(d) // 2, 1) + 1
    return [d] + [rng.randint(-2, top) for _ in range(9)]


def cremona_word(rng: random.Random, depth: int) -> list[tuple[int, int, int]]:
    return [tuple(sorted(rng.sample(range(1, 10), 3))) for _ in range(depth)]


def line_class(start: int) -> list[int]:
    """(1; 0..0) for start 0, else the line through point `start`, (1; e_start)."""
    coords = [1] + [0] * 9
    if start:
        coords[start] = 1
    return coords


def transformed_line(coords, word) -> list[int]:
    for i, j, k in word:
        coords = cremona_step(coords, i, j, k)
    return coords


def random_spec(rng: random.Random) -> tuple:
    model = rng.choice(MODELS)
    level = rng.randint(1, 8)
    count = rng.randint(1, 9) if model == "plane" else _point_count(model)
    mults = tuple(min(rng.randint(0, level + 1), rng.randint(0, level + 1)) for _ in range(count))
    extra = rng.choice((0, 0, 0, 1, 2))
    return model, level, mults, extra


def random_pair_data(rng: random.Random) -> tuple:
    chi = rng.choice((1, 1, 1, 2))
    fibres = tuple(rng.choice(REDUCIBLE) for _ in range(rng.randint(0, 4)))
    comps = tuple((rng.randrange(components(f)), rng.randrange(components(f))) for f in fibres)
    return rng.randint(0, 3), rng.randint(0, 3), rng.randint(-chi, 3), comps, chi, fibres


def euler12(rng: random.Random) -> tuple[str, ...]:
    """A random fibre configuration with Euler total 12."""
    left, out = 12, []
    while left:
        symbol = rng.choice([s for s in ALL_SYMBOLS if EULER[s] <= left])
        out.append(symbol)
        left -= EULER[symbol]
    return tuple(out)


def random_classify(rng: random.Random) -> tuple:
    fibres = euler12(rng)
    places = tuple((f"v{i}", s) for i, s in enumerate(fibres))
    ids = [p for p, _ in places] + ["w0", "w1"]
    return places, tuple(rng.sample(ids, 2))


def kummer_inputs(rng: random.Random, torsion: int, alpha: str | None = None) -> tuple:
    """(h, f1, c_e, alpha) whose torsion factor floor((h/c_e)^(1/alpha)) is
    close to `torsion`; f1 and c_e do not change the work."""
    alpha = Fraction(alpha or rng.choice(KUMMER_ALPHAS))
    c_e = Fraction(rng.choice(("1", "1/2", "3", "5/4")))
    h = max(3, round(torsion ** float(alpha) * c_e))
    return h, Fraction(rng.choice(("1", "2", "3/2", "7/3"))), c_e, alpha


def stream_op(rng: random.Random, kind: str) -> tuple:
    """One stream operation: its kind, then the arguments as the library takes them."""
    if kind == "inv":
        a, b = random_class(rng), random_class(rng)
        return ("inv", a[0], tuple(a[1:]), b[0], tuple(b[1:]))
    if kind == "reduce":
        return ("reduce", line_class(rng.randint(0, 9)), cremona_word(rng, rng.randint(1, 20)))
    if kind == "verify":
        return ("verify", *random_spec(rng))
    if kind == "construct":
        return ("construct", *random_config(rng), rng.choice(CUBIC_PATTERNS))
    if kind == "pair":
        po, qo, pq, comps, chi, fibres = random_pair_data(rng)
        return ("pair", po, qo, pq, comps, chi, list(fibres))
    if kind == "contrib":
        symbol = rng.choice(REDUCIBLE)
        n = components(symbol)
        return ("contrib", symbol, rng.randrange(n), rng.randrange(n))
    if kind == "classify":
        return ("classify", *random_classify(rng))
    if kind == "transform":
        return ("transform", rng.choice(("I0",) + ALL_SYMBOLS), rng.random() < 0.5)
    raise ValueError(kind)


def kummer_torsions(round_index: int) -> list[int]:
    """The torsion factors of one stream round's kummer calls, the same for every seed.

    One call in each of eight strata of log torsion, 10**(5 (k + u) / 8) for
    k = 0..7, up to 10**5; the offset u steps by the golden ratio from round
    to round.  A run's calls in one stratum then vary continuously in length,
    and the tail percentile, which falls in the middle of the second-highest
    stratum, moves in proportion with the machine's speed.  On a plateau of
    equal calls it jumped between the speeds of the machine's slow and fast
    spells, whichever held more of the plateau's calls.
    """
    u = (0.5 + round_index * GOLDEN) % 1.0
    return [round(10 ** (5 * (k + u) / 8)) for k in range(8)]


def stream_round(seed: int, round_index: int) -> list[tuple]:
    """One round of the stream: fixed counts per kind, seeded order and inputs.

    The kummer calls depend on the round index only, so their share of the
    tail is the same for every seed.
    """
    rng = rng_for(seed, "stream", round_index)
    ops = []
    for kind, count in STREAM_MIX:
        if kind == "kummer":
            fixed = rng_for("kummer", round_index)
            ops += [("kummer", *kummer_inputs(fixed, t, a))
                    for t, a in zip(kummer_torsions(round_index), KUMMER_ALPHAS)]
        else:
            ops += [stream_op(rng, kind) for _ in range(count)]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- cli

def cli_request(rng: random.Random, command: str, depth: int) -> list[str]:
    """argv for one valid request of the given subcommand, at small sizes.

    `depth` is the number of Cremona transforms behind a `cremona` class.
    """
    if command == "class":
        return ["class", "--class", json.dumps(random_class(rng))]
    if command == "cremona":
        coords = transformed_line(line_class(rng.randint(0, 9)), cremona_word(rng, depth))
        return ["cremona", "--class", json.dumps(coords)]
    if command in ("pencil construct", "pencil search"):
        model, sizes, rational = random_config(rng, max_orbits=4)
        orbits = json.dumps({"orbit_sizes": list(sizes), "rational_orbit_index": rational})
        if command == "pencil search":
            return ["pencil", "search", "--model", model, "--orbits", orbits,
                    "--n-max", str(rng.randint(1, 3))]
        pattern = ",".join(map(str, rng.choice(CUBIC_PATTERNS)))
        return ["pencil", "construct", "--model", model, "--orbits", orbits, "--cubic-pattern", pattern]
    if command == "pencil verify":
        model, level, mults, extra = random_spec(rng)
        spec = {"model": model, "level": level, "mults": list(mults), "extra_conditions": extra}
        return ["pencil", "verify", "--spec", json.dumps(spec)]
    if command == "basechange classify":
        places, branch = random_classify(rng)
        config = [{"place": p, "type": s} for p, s in places]
        return ["basechange", "classify", "--config", json.dumps(config), "--branch", ",".join(branch)]
    if command == "basechange transform":
        argv = ["basechange", "transform", "--type", rng.choice(("I0",) + ALL_SYMBOLS)]
        return argv + (["--ramified"] if rng.random() < 0.5 else [])
    if command == "height pair":
        po, qo, pq, comps, chi, fibres = random_pair_data(rng)
        data = {"PO": po, "QO": qo, "PQ": pq, "components": [list(c) for c in comps]}
        return ["height", "pair", "--data", json.dumps(data), "--chi", str(chi),
                "--fibres", json.dumps(list(fibres))]
    if command == "height contrib":
        symbol = rng.choice(REDUCIBLE)
        n = components(symbol)
        return ["height", "contrib", "--type", symbol, "--i", str(rng.randrange(n)),
                "--j", str(rng.randrange(n))]
    if command == "sections enumerate":
        argv = ["sections", "enumerate", "--d-max", str(rng.randint(0, 3))]
        if rng.random() < 0.5:
            constraint = [[0] + [0] * 8 + [-1], rng.randint(0, 1)]  # (P.E9) fixed
            argv += ["--constraints", json.dumps([constraint])]
        return argv
    if command == "kummer bound":
        h, f1, c_e, alpha = kummer_inputs(rng, rng.randint(1, 1000))
        return ["kummer", "bound", "--h", str(h), "--f1", str(f1), "--c-e", str(c_e), "--alpha", str(alpha)]
    raise ValueError(command)


# Malformed (exit 2) or out-of-domain (exit 3) requests with their exit codes.
INVALID_REQUESTS = (
    (["class", "--class", "[1, 0, 0, 0, 0, 0, 0, 0, 0]"], 2),
    (["cremona", "--class", "[6, 2, 2,"], 2),
    (["pencil", "verify", "--spec", '{"level": 2, "mults": [1]}'], 2),
    (["basechange", "classify", "--config", '{"I1": 5}', "--branch", "v0,v1"], 3),
    (["height", "pair", "--data", '{"PO": 0, "QO": 0, "PQ": -1}', "--chi", "0"], 3),
    (["height", "contrib", "--type", "I3", "--i", "5", "--j", "1"], 3),
    (["sections", "enumerate", "--d-max", "-1"], 3),
    (["pencil", "search", "--model", "plane", "--orbits", '{"orbit_sizes": [1, 2]}', "--n-max", "0"], 3),
    (["basechange", "transform", "--type", "I2**"], 3),
    (["kummer", "bound", "--h", "5", "--f1", "1", "--c-e", "1", "--alpha", "0"], 3),
)


def cli_round(seed: int, round_index: int) -> list[tuple]:
    """One round of CLI requests: ("cli", command, argv, expected exit, Cremona depth)."""
    rng = rng_for(seed, "cli", round_index)
    ops = []
    for command, count in CLI_MIX:
        for _ in range(count):
            depth = rng.randint(1, 20) if command == "cremona" else 0
            ops.append(("cli", command, cli_request(rng, command, depth), 0, depth))
    for argv, code in rng.sample(INVALID_REQUESTS, CLI_INVALID):
        ops.append(("cli", "invalid " + " ".join(argv[:2]), argv, code, 0))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- properties

def _shares(counter: Counter) -> dict:
    total = sum(counter.values())
    return {key: round(value / total, 6) for key, value in sorted(counter.items())}


def _depth_histogram(depths) -> dict:
    return {str(k): v for k, v in sorted(Counter(depths).items())}


def input_properties(workload: str, seed: int) -> dict:
    """Properties of a workload's inputs that its behaviour depends on.

    Computed from round 0, which every run executes in full.
    """
    if workload == "census":
        ops = census_round(seed)
        return {
            "n_max": CENSUS_N_MAX,
            "d_max": CENSUS_D_MAX,
            "configurations": sum(op[0] == "search" for op in ops),
            "op_shares": _shares(Counter(op[0] for op in ops)),
            "models": _shares(Counter(op[1] for op in ops if op[0] == "search")),
        }
    if workload == "stream":
        ops = stream_round(seed, 0)
        seen: set[str] = set()
        with_symbol = repeats = 0
        for op in ops:
            symbols = _fibre_symbols(op)
            if symbols:
                with_symbol += 1
                repeats += any(s in seen for s in symbols)
                seen.update(symbols)
        return {
            "ops_per_round": len(ops),
            "op_shares": _shares(Counter(op[0] for op in ops)),
            "cremona_depth_histogram": _depth_histogram(len(op[2]) for op in ops if op[0] == "reduce"),
            "fibre_symbol_ops_share": round(with_symbol / len(ops), 6),
            "fibre_symbol_repeat_share": round(repeats / max(with_symbol, 1), 6),
            "kummer_torsions": kummer_torsions(0),
        }
    if workload == "cli":
        ops = cli_round(seed, 0)
        return {
            "requests_per_round": len(ops),
            "n_max_limit": 3,
            "d_max_limit": 3,
            "subcommand_shares": _shares(Counter(op[1] for op in ops if op[3] == 0)),
            "invalid_share": round(sum(op[3] != 0 for op in ops) / len(ops), 6),
            "cremona_depth_histogram": _depth_histogram(op[4] for op in ops if op[1] == "cremona"),
        }
    raise ValueError(workload)


def _fibre_symbols(op: tuple) -> tuple[str, ...]:
    if op[0] == "pair":
        return tuple(op[6])
    if op[0] in ("contrib", "transform"):
        return (op[1],)
    if op[0] == "classify":
        return tuple(s for _, s in op[1])
    return ()
