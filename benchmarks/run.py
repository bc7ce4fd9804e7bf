"""pencilforge benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload census|stream|cli --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from `src/` without
installing.  Operations run in rounds (a census pass, 20,000 stream calls,
40 CLI requests) until `--seconds` of wall time have passed, finishing the
current round.  Operations are timed in CPU time of the thread, or of the
child process for CLI requests (see README.md).  Set-up is timed in fresh
interpreters between rounds; peak memory in a process of its own
(`peak.py`) that repeats round 0's calls before the timed loop.  Every
output is checked by `checks.py`; round 0's outputs are also hashed and
compared with `digests.json`.  Human-readable lines come first; the last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for `--trace 0` and the per-layer metrics, from
the span recorder, for `--trace 1`.  Details go to `benchmarks/out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import checks
import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("census", "stream", "cli")
MODULES = ("picard_lattice", "cremona", "pencils", "heights", "base_change", "cli")
PROBES = 15


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def machine_facts() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                         model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu_model": model}


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


# ---------------------------------------------------------------- probes

def probe(code: str, env) -> float:
    """CPU seconds of a fresh interpreter, started as the cli workload starts
    its children, running `code`."""
    import workloads

    start = workloads.children_cpu_ns()
    subprocess.run([*workloads.PYTHON, "-c", code], cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=120)
    return (workloads.children_cpu_ns() - start) / 1e9


class SetupProbes:
    """Set-up runs (fresh interpreter + import + cache warm-up; for cli the
    import of `pencilforge.cli` alone), due at even times over the timed loop.

    The machine's speed changes for seconds at a time, and five probes in
    a row all landed in one such spell; spread over the run, most runs see
    both speeds.  `setup_s` is the fastest probe: the probe times fall into
    two clusters about 1.5 times apart, and a run's median landed in either
    one (it spread by 0.26-0.28 over ten census runs, the minimum by 0.07).
    Called before each operation, it runs a probe when one is due (between
    rounds would bunch them on census, whose rounds take seconds); `finish`
    runs any left over, so every run makes `PROBES`.
    """

    def __init__(self, workload: str, env, warm_up: str, seconds: float) -> None:
        self.code = "import pencilforge.cli" if workload == "cli" else warm_up
        self.env = env
        probe(self.code, env)  # unmeasured: a fresh checkout writes its bytecode here
        start = time.perf_counter()
        self.due = [start + k * seconds / PROBES for k in range(PROBES)]
        self.runs: list[float] = []

    def __call__(self) -> None:
        if len(self.runs) < PROBES and time.perf_counter() >= self.due[len(self.runs)]:
            self.runs.append(probe(self.code, self.env))

    def finish(self) -> list[float]:
        while len(self.runs) < PROBES:
            self.runs.append(probe(self.code, self.env))
        return self.runs


def cli_import_ms(env) -> float:
    """Fastest import of `pencilforge.cli` minus fastest bare interpreter
    start, the two alternated (see `SetupProbes` for why the fastest)."""
    bare, full = [], []
    for _ in range(PROBES):
        bare.append(probe("pass", env))
        full.append(probe("import pencilforge.cli", env))
    return (min(full) - min(bare)) * 1e3


# ---------------------------------------------------------------- rounds

class Tally:
    """Everything the timed loop measures."""

    def __init__(self) -> None:
        self.latency_ns = array("d")
        self.op_ns = 0
        self.wall_ns = 0
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.kind_ops: Counter = Counter()
        self.kind_ns: Counter = Counter()

    def fail(self, op, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(f"{op[:2]!r}: {message}")


def run_round(workload, ops, tally: Tally, recorder=None, between=None) -> str:
    """Run and check one round; return the digest of its outputs.

    `between()` runs before each operation, untimed.  When traced, the
    benchmark's work after a call (`plain`, which for cli replays the
    request in-process) runs under a root span of its own, `spans.AFTER`.
    """
    view = getattr(workload, "digest_view", None)
    digest = hashlib.sha256()
    clock = workload.clock
    for op in ops:
        if between is not None:
            between()
        kind = workload.kind(op)
        tally.attempted += 1
        tally.kind_ops[kind] += 1
        wall = time.perf_counter_ns()
        start = clock()
        try:
            if recorder is None:
                raw = workload.call(op)
            else:
                with recorder.operation():
                    raw = workload.call(op)
        except Exception as exc:  # an input generated as valid was refused
            tally.op_ns += clock() - start
            tally.kind_ns[kind] += clock() - start
            tally.wall_ns += time.perf_counter_ns() - wall
            tally.latency_ns.append(math.inf)
            tally.fail(op, f"raised {exc!r}")
            digest.update(b"raised")
            continue
        elapsed = clock() - start
        tally.wall_ns += time.perf_counter_ns() - wall
        tally.op_ns += elapsed
        tally.kind_ns[kind] += elapsed
        try:
            if recorder is None:
                data = workload.plain(op, raw)
            else:
                with recorder.operation(spans.AFTER):
                    data = workload.plain(op, raw)
            workload.check(op, data)
        except (checks.Mismatch, ArithmeticError, LookupError, TypeError, ValueError) as exc:
            tally.latency_ns.append(math.inf)
            tally.fail(op, f"{type(exc).__name__}: {exc}")
            digest.update(b"wrong")
            continue
        tally.latency_ns.append(elapsed)
        digest.update(repr(view(data) if view else data).encode())
    return digest.hexdigest()


def expected_digest(workload: str, seed: int) -> str | None:
    path = HERE / "digests.json"
    if not path.is_file():
        return None
    recorded = json.loads(path.read_text(encoding="utf-8")).get(workload, {})
    # one digest for a workload that ignores its seed, else one per seed
    return recorded if isinstance(recorded, str) else recorded.get(str(seed))


def make_workload(name: str, seed: int):
    import workloads

    if name == "census":
        return workloads.Census(seed)
    if name == "stream":
        return workloads.Stream(seed)
    return workloads.Cli(seed, ROOT)


# ---------------------------------------------------------------- metrics

def latency_samples(workload, tally: Tally) -> list[float]:
    """One sample per operation run.  For a workload that repeats its
    operations every round (census), one per operation instead: its mean
    time over the rounds.  On a shared machine whose CPU speed changes for
    seconds at a time, a short operation's single times, and so their median
    or minimum, jump between speeds, while its mean moves only as much as the
    throughput does, the more so as its rounds run in different orders."""
    if not workload.repeats_round:
        return list(tally.latency_ns)
    n = len(workload.ops)
    rounds = len(tally.latency_ns) // n
    sums = [0.0] * n
    for r in range(rounds):
        for position, i in enumerate(workload.order(r)):
            sums[i] += tally.latency_ns[r * n + position]
    return [total / rounds for total in sums]


def peak_rss_mb(workload: str, seed: int, env) -> tuple[float, float]:
    """Peak resident memory of round 0's library calls, and the benchmark's
    own part of it, in MB.

    `peak.py` makes the calls again in a process of its own, without the
    checks, the hashing or the copies of the results that the timed loop
    makes; for cli it runs round 0's requests as children of a small
    launcher and reports the largest child.
    """
    import workloads

    requests = json.dumps([op[2] for op in gen.cli_round(seed, 0)]) if workload == "cli" else ""
    proc = subprocess.run([*workloads.PYTHON, str(HERE / "peak.py"), workload, str(seed)], cwd=ROOT, env=env,
                          input=requests, check=True, capture_output=True, text=True, timeout=170)
    own_kib, peak_kib = map(int, proc.stdout.split())
    return peak_kib / 1024, own_kib / 1024


def kind_shares(tally: Tally) -> dict:
    """Per operation kind: its share of the operations and of operation time."""
    ops, ns = sum(tally.kind_ops.values()), sum(tally.kind_ns.values()) or 1
    return {kind: {"op_share": round(tally.kind_ops[kind] / ops, 6), "time_share": round(tally.kind_ns[kind] / ns, 6)}
            for kind in sorted(tally.kind_ops)}


def end_to_end(workload, tally: Tally, setup: list[float], rss: tuple[float, float]) -> tuple[dict, dict]:
    ordered = sorted(latency_samples(workload, tally))
    correct = tally.attempted - tally.failed
    p = workload.tail_percentile
    metrics = {
        "throughput_ops_s": (correct / (tally.op_ns / 1e9), "1/s"),
        "latency_p50_ms": (percentile(ordered, 50) / 1e6, "ms"),
        "latency_tail_ms": (percentile(ordered, p) / 1e6, "ms"),
        "setup_s": (min(setup), "s"),
        "peak_rss_mb": (rss[0], "MB"),
    }
    details = {
        "tail_percentile": p,
        "samples": len(ordered),
        "samples_beyond_tail": len(ordered) - max(1, math.ceil(p / 100 * len(ordered))),
        "ops_failed_ratio": tally.failed / tally.attempted,
        "op_cpu_s": tally.op_ns / 1e9,
        "op_wall_s": tally.wall_ns / 1e9,
        "setup_runs_s": setup,
        "rss_harness_mb": rss[1],
    }
    return metrics, details


def per_layer(recorder, root: str, round0: dict, traced_rounds: int, overhead: float,
              import_ms: float) -> tuple[dict, dict]:
    """Per-layer metrics from the span aggregates of all traced rounds; the
    exact counts come from `round0`, the aggregates after traced round 0.
    Shares are of the wall time of the root spans named `root`."""
    agg = recorder.aggregates()
    empty = {"calls": 0, "total_ns": 0, "self_ns": 0, "max_ns": 0, "units": 0, "oks": 0}

    def get(name):
        return agg.get(name, empty)

    def mean_us(name):
        a = get(name)
        return a["total_ns"] / a["calls"] / 1e3 if a["calls"] else 0.0

    def rate(name):
        a = get(name)
        return a["units"] / (a["total_ns"] / 1e9) if a["total_ns"] else 0.0

    search, sections, reduce = get("pencils.search"), get("heights.sections"), get("cremona.reduce")
    wall = get(root)["total_ns"]
    shares = {m: sum(a["self_ns"] for n, a in agg.items() if n.split(".")[0] == m) / wall for m in MODULES}
    shares["bench"] = get(root)["self_ns"] / wall
    metrics = {
        "pencils.search.busy_s": (search["total_ns"] / 1e9 / traced_rounds, "s"),
        "pencils.search.specs": (round0.get("pencils.search", empty)["units"], "count"),
        "pencils.search.specs_per_s": (rate("pencils.search"), "1/s"),
        "pencils.search.max_config_s": (search["max_ns"] / 1e9, "s"),
        "pencils.verify.us": (mean_us("pencils.verify"), "us"),
        "pencils.construct.us": (mean_us("pencils.construct"), "us"),
        "heights.sections.busy_s": (sections["total_ns"] / 1e9 / traced_rounds, "s"),
        "heights.sections.classes": (round0.get("heights.sections", empty)["units"], "count"),
        "heights.sections.classes_per_s": (rate("heights.sections"), "1/s"),
        "heights.pair.us": (mean_us("heights.pair"), "us"),
        "heights.contrib.us": (mean_us("heights.contrib"), "us"),
        "heights.kummer.us": (mean_us("heights.kummer"), "us"),
        "cremona.reduce.calls": (round0.get("cremona.reduce", empty)["calls"], "count"),
        "cremona.reduce.steps": (round0.get("cremona.reduce", empty)["units"], "count"),
        "cremona.reduce.us_per_step": (reduce["total_ns"] / reduce["units"] / 1e3 if reduce["units"] else 0.0,
                                       "us"),
        "cremona.reduce.success_ratio": (reduce["oks"] / reduce["calls"] if reduce["calls"] else 0.0, "ratio"),
        "cremona.transform.us": (mean_us("cremona.transform"), "us"),
        "picard_lattice.class_new.us": (mean_us("picard_lattice.class_new"), "us"),
        "picard_lattice.invariants.us": (mean_us("picard_lattice.invariants"), "us"),
        "base_change.classify.us": (mean_us("base_change.classify"), "us"),
        "base_change.transform.us": (mean_us("base_change.transform"), "us"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.main_warm_us": (mean_us("cli.main"), "us"),
    }
    for module in MODULES:
        metrics[f"{module}.share"] = (shares[module], "ratio")
    metrics["bench.share"] = (shares["bench"], "ratio")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    details = {
        "spans_total": recorder.spans,
        "self_time_accounted_ratio": sum(shares.values()),
        "aggregates": agg,
    }
    return metrics, details


# ---------------------------------------------------------------- main

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "pencilforge" / "__init__.py").is_file():
        print(f"error: no pencilforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # no step-budget override: the library and its children see only the generated inputs
    os.environ.pop("PENCILFORGE_MAX_STEPS", None)
    import workloads  # imports pencilforge

    env = workloads.child_env(ROOT)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    facts = machine_facts()
    properties = gen.input_properties(args.workload, args.seed)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} {facts}")
    print(f"# inputs: {json.dumps(properties)}")

    import_ms = cli_import_ms(env) if args.trace == 1 else 0.0
    rss = peak_rss_mb(args.workload, args.seed, env) if args.trace == 0 else None

    workload = make_workload(args.workload, args.seed)
    workload.warm()
    replay_ns = getattr(workload, "replay_ns", None)

    def work_ns(tally: Tally, replay_mark: int) -> int:
        # time the tracer can slow down: operations, or for cli the in-process replays
        return tally.op_ns if replay_ns is None else sum(replay_ns[replay_mark:])

    tally = Tally()
    probes = SetupProbes(args.workload, env, workloads.WARM_UP, args.seconds) if args.trace == 0 else None
    deadline = time.perf_counter() + args.seconds
    digest = run_round(workload, workload.round(0), tally, between=probes)
    want = expected_digest(args.workload, args.seed)
    if want is not None and digest != want:
        tally.fail(("digest",), f"round 0 digest {digest[:16]} differs from recorded {want[:16]}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "machine": facts, "inputs": properties, "round0_digest": digest, "digest_known": want is not None}

    if args.trace == 0:
        rounds = 1
        while time.perf_counter() < deadline:
            run_round(workload, workload.round(rounds), tally, between=probes)
            rounds += 1
        metrics, details = end_to_end(workload, tally, probes.finish(), rss)
        details["kinds"] = kind_shares(tally)
    else:
        untraced = work_ns(tally, 0)
        replay_mark = len(replay_ns) if replay_ns is not None else 0
        recorder = spans.Recorder()
        traced_tally = Tally()
        with recorder.install("pencilforge", workloads.trace_targets()):
            run_round(workload, workload.round(0), traced_tally, recorder)
            snapshot = recorder.aggregates()
            traced = work_ns(traced_tally, replay_mark)
            rounds = 1
            while time.perf_counter() < deadline:
                run_round(workload, workload.round(rounds), traced_tally, recorder)
                rounds += 1
        tally.attempted += traced_tally.attempted
        tally.failed += traced_tally.failed
        tally.messages += traced_tally.messages
        metrics, details = per_layer(recorder, workload.share_root, snapshot, rounds, traced / untraced, import_ms)
        recorder.write(OUT / f"spans-{tag}.json")
    details["rounds"] = rounds
    record.update(details=details, attempted=tally.attempted, failed=tally.failed, messages=tally.messages,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")

    for message in tally.messages:
        print(f"FAILED {message}", file=sys.stderr)
    for key in ("tail_percentile", "samples", "samples_beyond_tail", "ops_failed_ratio", "op_cpu_s",
                "op_wall_s", "spans_total", "self_time_accounted_ratio", "rounds"):
        if key in details:
            print(f"# {key} = {details[key]}")
    for kind, share in details.get("kinds", {}).items():
        print(f"# kind {kind:22s} ops {share['op_share']:.4f}  time {share['time_share']:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6f} {unit}")
    # a failed operation makes a percentile infinite; JSON has no infinity
    finite = {name: (value if math.isfinite(value) else sys.float_info.max, unit)
              for name, (value, unit) in metrics.items()}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in finite.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
