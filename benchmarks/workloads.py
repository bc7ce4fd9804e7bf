"""The three workloads: how each operation calls pencilforge and is checked.

A workload hands out rounds of operations (`round`), runs one operation
against the library (`call`, the timed part), turns the result into plain
data (`plain`) and checks that data with `checks` (`check`).  `plain` reads
results through their public fields; for cli it also replays the request
in-process, which the check compares against.  `kind` names an operation's
kind for the per-kind time shares.  `clock` times `call`, `tail_percentile`
fixes the tail metric, `repeats_round` says whether every round runs the
same operations (in the order `order(index)` gives), and `share_root` names the root spans whose time the layer shares
divide.
"""

from __future__ import annotations

import io
import json
import os
import resource
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pencilforge as pf
from pencilforge import base_change, cli, cremona, heights, pencils, picard_lattice

import checks
import gen
import spans

# Fill the Cartan caches of `heights` for every reducible fibre type, as
# set-up code and `warm_up` do.
WARM_UP = "import pencilforge as pf\nfor s in {!r}:\n    pf.contribution(s, 1, 1)\n".format(gen.REDUCIBLE)


def children_cpu_ns() -> int:
    """User plus system CPU time of all finished child processes, in ns."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return round((usage.ru_utime + usage.ru_stime) * 1e9)


def _cert(cert) -> tuple:
    chain = [(list(s.indices), s.before.to_list(), s.after.to_list()) for s in cert.chain]
    return chain, cert.terminal.to_list(), cert.success


def _report(report) -> tuple:
    return (report.dim_lower_bound, report.genus_upper_bound, report.degree_to_base,
            report.is_valid_pair_member)


class Census:
    """Every orbit configuration searched at n_max 3, plus the section census."""

    name = "census"
    tail_percentile = 90.0
    clock = staticmethod(time.thread_time_ns)
    repeats_round = True
    share_root = spans.BENCH

    def __init__(self, seed: int) -> None:
        self.ops = gen.census_round(seed)

    def order(self, index: int) -> list[int]:
        return gen.census_order(index, len(self.ops))

    def round(self, index: int) -> list[tuple]:
        return [self.ops[i] for i in self.order(index)]

    @staticmethod
    def kind(op) -> str:
        return f"search {op[1]}" if op[0] == "search" else op[0]

    def warm(self) -> None:
        warm_up()

    def call(self, op):
        if op[0] == "search":
            _, model, sizes, rational, n_max = op
            specs = pf.search_pencils(model, pf.OrbitStructure(sizes, rational), n_max)
            return specs, [pf.reduce_to_line(pf.to_numerical_class(s)) for s in specs]
        classes = pf.enumerate_section_classes(None, op[1])
        return classes, [pf.reduce_to_line(c) for c in classes]

    def plain(self, op, raw):
        found, certs = raw
        if op[0] == "search":
            found = [(s.level, list(s.mults)) for s in found]
        else:
            found = [c.to_list() for c in found]
        return found, [_cert(c) for c in certs]

    def check(self, op, data) -> None:
        found, certs = data
        checks.expect(len(found) == len(certs), "one certificate per result")
        if op[0] == "search":
            _, model, sizes, _, n_max = op
            checks.check_search(model, sizes, n_max, found)
            for (level, mults), cert in zip(found, certs):
                checks.check_certificate(checks.spec_class(model, level, mults), *cert, require_success=True)
        else:
            checks.check_sections(op[1], found)
            for c, cert in zip(found, certs):
                checks.check_certificate(c, *cert)


class Stream:
    """A warm, in-process stream of small library calls in a fixed mix."""

    name = "stream"
    # 1.5 samples per 20,000-operation round lie beyond it: the middle of the
    # second-highest kummer stratum (see gen.kummer_torsions)
    tail_percentile = 99.9925
    clock = staticmethod(time.thread_time_ns)
    repeats_round = False
    share_root = spans.BENCH

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def round(self, index: int) -> list[tuple]:
        return gen.stream_round(self.seed, index)

    @staticmethod
    def kind(op) -> str:
        return op[0]

    def warm(self) -> None:
        warm_up()

    def call(self, op):
        kind = op[0]
        if kind == "inv":
            a, b = pf.NumericalClass(op[1], op[2]), pf.NumericalClass(op[3], op[4])
            return pf.arithmetic_genus(a), pf.degree_to_base(a), pf.intersect(a, a), pf.intersect(a, b)
        if kind == "reduce":
            c = pf.NumericalClass.from_list(op[1])
            for i, j, k in op[2]:
                c = pf.quadratic_transform(c, i, j, k)
            return c, pf.reduce_to_line(c)
        if kind == "verify":
            return pf.verify(pf.PencilSpec(*op[1:]))
        if kind == "construct":
            _, model, sizes, rational, pattern = op
            pair = pf.construct_pencils(model, pf.OrbitStructure(sizes, rational), pattern)
            if isinstance(pair, pf.Unsupported):
                return None
            return [(s, pf.verify(s)) for s in pair]
        if kind == "pair":
            po, qo, pq, comps, chi, fibres = op[1:]
            return pf.height_pairing(pf.SectionIntersections(po, qo, pq, comps), chi, fibres)
        if kind == "contrib":
            return pf.contribution(*op[1:])
        if kind == "classify":
            config = pf.FibreConfiguration(op[1])
            return pf.classify_quadratic_base_change(config, pf.BranchLocus(*op[2])).value
        if kind == "transform":
            return pf.transform_fibre(pf.KodairaFibre(op[1]), op[2])
        if kind == "kummer":
            return pf.kummer_bound(pf.KummerInputs(*op[1:]))
        raise ValueError(kind)

    def plain(self, op, raw):
        kind = op[0]
        if kind == "reduce":
            return raw[0].to_list(), _cert(raw[1])
        if kind == "verify":
            return _report(raw)
        if kind == "construct":
            return raw and [(s.model, s.level, list(s.mults), s.extra_conditions, _report(r)) for s, r in raw]
        if kind == "transform":
            return [f.symbol for f in raw]
        return raw

    def check(self, op, data) -> None:
        kind = op[0]
        if kind == "inv":
            a, b = [op[1], *op[2]], [op[3], *op[4]]
            checks.check_invariants(a, *data[:3])
            checks.expect(data[3] == checks.dot(a, b), "%s.%s = %s", a, b, data[3])
        elif kind == "reduce":
            start = gen.transformed_line(op[1], op[2])
            checks.expect(data[0] == start, "Cremona word gave %s, want %s", data[0], start)
            checks.check_certificate(start, *data[1])
        elif kind == "verify":
            checks.check_spec_report(*op[1:], data)
        elif kind == "construct":
            checks.check_construct(data)
        elif kind == "pair":
            checks.check_pair(*op[1:], data)
        elif kind == "contrib":
            checks.check_contrib(*op[1:], data)
        elif kind == "classify":
            checks.check_classify(op[1], op[2], data)
        elif kind == "transform":
            checks.check_transform(op[1], op[2], data)
        elif kind == "kummer":
            checks.check_kummer(*op[1:], data)


# Child interpreters start without `site`: in a typical environment its
# site-packages hooks cost tens of milliseconds, vary from start to start,
# and no change to pencilforge can touch them.  pencilforge needs only the
# standard library and PYTHONPATH.
PYTHON = (sys.executable, "-S")


def child_env(root) -> dict:
    """Environment of child interpreters: this one's, with the source tree
    as the module path."""
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def replay(argv) -> tuple:
    """In-process `cli.main(argv)`: (exit code, standard output)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue()


class Cli:
    """Cold `python -m pencilforge.cli` subprocesses, one at a time."""

    name = "cli"
    tail_percentile = 90.0
    # one child at a time, so the delta around a request is that child's time
    clock = staticmethod(children_cpu_ns)
    repeats_round = False
    # the library runs in the in-process replay; a cold child's own layers
    # cannot be traced from here
    share_root = spans.AFTER

    def __init__(self, seed: int, root) -> None:
        self.seed = seed
        self.env = child_env(root)
        self.cwd = str(root)
        self.replay_ns: list[int] = []

    def round(self, index: int) -> list[tuple]:
        return gen.cli_round(self.seed, index)

    @staticmethod
    def kind(op) -> str:
        return "invalid" if op[3] else op[1]

    def warm(self) -> None:
        replay(["class", "--class", "[1, 0, 0, 0, 0, 0, 0, 0, 0, 0]"])

    def call(self, op):
        proc = subprocess.run([*PYTHON, "-m", "pencilforge.cli", *op[2]], cwd=self.cwd, env=self.env,
                              capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout

    def plain(self, op, raw):
        # the in-process replay that the check compares against
        start = time.thread_time_ns()
        replayed = replay(op[2])
        self.replay_ns.append(time.thread_time_ns() - start)
        return raw, replayed

    def check(self, op, data) -> None:
        (code, out), replayed = data
        _, command, argv, expected, _ = op
        checks.expect((code, out) == replayed, "%s: subprocess %s differs from in-process %s",
                      command, code, replayed[0])
        checks.expect(code == expected, "%s: exit %s, want %s", command, code, expected)
        if expected == 0:
            envelope = json.loads(out)
            checks.expect(envelope.get("ok") is True, "%s: envelope not ok", command)
            checks.check_cli(command, argv, envelope["result"])
        elif out:
            checks.expect(json.loads(out).get("ok") is False, "%s: error without ok false", command)

    @staticmethod
    def digest_view(data):
        # exit code and successful result; error texts may change freely
        (code, out), _ = data
        return code, (json.loads(out)["result"] if code == 0 else None)


def steps(cert) -> tuple[int, bool]:
    return len(cert.chain), cert.success


def size(result) -> tuple[int, bool]:
    return len(result), True


def trace_targets() -> list[tuple]:
    """(owner, attribute, span name, tally, top only) for every traced call.

    Input objects built by the benchmark count towards their module; built
    inside the library, they count towards the calling function.
    """
    pl, bc = picard_lattice, base_change
    return [
        (pl.NumericalClass, "__init__", "picard_lattice.class_new", None, False),
        (pl, "arithmetic_genus", "picard_lattice.invariants", None, False),
        (pl, "degree_to_base", "picard_lattice.invariants", None, False),
        (pl, "intersect", "picard_lattice.invariants", None, False),
        (cremona, "quadratic_transform", "cremona.transform", None, False),
        (cremona, "reduce_to_line", "cremona.reduce", steps, False),
        (pencils, "search_pencils", "pencils.search", size, False),
        (pencils, "verify", "pencils.verify", None, False),
        (pencils, "construct_pencils", "pencils.construct", None, False),
        (pencils, "to_numerical_class", "pencils.to_class", None, False),
        (pencils.PencilSpec, "__init__", "pencils.new", None, True),
        (pencils.OrbitStructure, "__init__", "pencils.new", None, True),
        (heights, "height_pairing", "heights.pair", None, False),
        (heights, "contribution", "heights.contrib", None, False),
        (heights, "enumerate_section_classes", "heights.sections", size, False),
        (heights, "kummer_bound", "heights.kummer", None, False),
        (heights.SectionIntersections, "__init__", "heights.new", None, True),
        (heights.KummerInputs, "__init__", "heights.new", None, True),
        (bc, "classify_quadratic_base_change", "base_change.classify", None, False),
        (bc, "transform_fibre", "base_change.transform", None, False),
        (bc.KodairaFibre, "__init__", "base_change.new", None, True),
        (bc.FibreConfiguration, "__init__", "base_change.new", None, True),
        (bc.BranchLocus, "__init__", "base_change.new", None, True),
        (cli, "main", "cli.main", None, False),
    ]


def warm_up() -> None:
    """Fill the library's caches before timing, as the `WARM_UP` probe does."""
    for symbol in gen.REDUCIBLE:
        pf.contribution(symbol, 1, 1)
