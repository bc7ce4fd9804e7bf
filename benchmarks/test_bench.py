"""Tests of the benchmark itself; run with `python -m pytest benchmarks`.

They are not part of the library's test suite (pytest's testpaths is
`tests`), because several of them run whole benchmark rounds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------- inputs

def test_same_seed_same_inputs():
    assert gen.census_round(7) == gen.census_round(7)
    assert gen.stream_round(7, 3) == gen.stream_round(7, 3)
    assert gen.cli_round(7, 2) == gen.cli_round(7, 2)
    for name in run.WORKLOADS:
        assert gen.input_properties(name, 7) == gen.input_properties(name, 7)


def test_other_seed_other_inputs():
    assert gen.stream_round(7, 0) != gen.stream_round(8, 0)
    assert gen.stream_round(7, 0) != gen.stream_round(7, 1)
    assert gen.cli_round(7, 0) != gen.cli_round(8, 0)


def test_census_covers_every_configuration():
    ops = gen.census_round(3)
    searches = {(op[1], tuple(sorted(op[2]))) for op in ops if op[0] == "search"}
    assert len(searches) == 112
    assert [op for op in ops if op[0] == "sections"] == [("sections", gen.CENSUS_D_MAX)]


def test_census_samples_follow_each_operation_through_shuffled_rounds():
    census, other = workloads.Census(0), workloads.Census(5)
    assert census.order(0) == sorted(census.order(1)) != census.order(1)
    assert census.order(2) == other.order(2)
    tally = run.Tally()
    for r in range(3):
        tally.latency_ns.extend(float(i) for i in census.order(r))
    assert run.latency_samples(census, tally) == [float(i) for i in range(len(census.ops))]


def test_stream_round_shares_are_exact():
    ops = gen.stream_round(11, 4)
    counts = {kind: sum(op[0] == kind for op in ops) for kind, _ in gen.STREAM_MIX}
    assert counts == dict(gen.STREAM_MIX)


# ---------------------------------------------------------------- checkers

def _search_data(model="dp5", sizes=(1, 2, 2), rational=0):
    census = workloads.Census(0)
    op = ("search", model, sizes, rational, 3)
    return census, op, census.plain(op, census.call(op))


def test_census_check_rejects_changed_multiplicity():
    census, op, (found, certs) = _search_data()
    census.check(op, (found, certs))
    level, mults = found[0]
    planted = [(level, [mults[0] + 1, *mults[1:]]), *found[1:]]
    with pytest.raises(checks.Mismatch):
        census.check(op, (planted, certs))


def test_spec_report_rejects_changed_multiplicity():
    report = workloads._report(workloads.pf.verify(workloads.pf.PencilSpec("plane", 4, (3, 1, 1, 1, 1, 1, 1, 1))))
    checks.check_spec_report("plane", 4, (3, 1, 1, 1, 1, 1, 1, 1), 0, report)
    with pytest.raises(checks.Mismatch):
        checks.check_spec_report("plane", 4, (3, 1, 1, 1, 1, 1, 1, 2), 0, report)


def test_certificate_check_rejects_tampered_step():
    census, op, (found, certs) = _search_data("plane", (1, 1, 1, 1, 1), 0)
    (level, mults), (chain, terminal, success) = next((f, c) for f, c in zip(found, certs) if c[0])
    start = checks.spec_class("plane", level, mults)
    checks.check_certificate(start, chain, terminal, success)
    indices, before, after = chain[-1]
    bad = chain[:-1] + [(indices, before, [after[0], after[1] + 1, *after[2:]])]
    with pytest.raises(checks.Mismatch):
        checks.check_certificate(start, bad, terminal, success)


def test_kummer_check_rejects_off_by_one():
    h, f1, c_e, alpha = 1000, Fraction(3, 2), Fraction(5, 4), Fraction(2, 3)
    n0 = workloads.pf.kummer_bound(workloads.pf.KummerInputs(h, f1, c_e, alpha))
    checks.check_kummer(h, f1, c_e, alpha, n0)
    m = h * f1.denominator // f1.numerator
    for wrong in (n0 + 1, n0 - 1, n0 + m, n0 - m):
        with pytest.raises(checks.Mismatch):
            checks.check_kummer(h, f1, c_e, alpha, wrong)


def test_height_and_classify_checks_reject_wrong_values():
    value = workloads.pf.height_pairing(workloads.pf.SectionIntersections(0, 0, -1, ((1, 1), (2, 5))),
                                        1, ["I2", "IV*"])
    checks.check_pair(0, 0, -1, ((1, 1), (2, 5)), 1, ["I2", "IV*"], value)
    with pytest.raises(checks.Mismatch):
        checks.check_pair(0, 0, -1, ((1, 1), (2, 5)), 1, ["I2", "IV*"], value + Fraction(1, 3))
    places = (("v0", "I0*"), ("v1", "I1"), ("v2", "I1"), ("v3", "I1"), ("v4", "I1"), ("v5", "I1"), ("v6", "I1"))
    checks.check_classify(places, ("v0", "v1"), "Rational")
    with pytest.raises(checks.Mismatch):
        checks.check_classify(places, ("v0", "v1"), "K3")


def test_cartan_inverses_match_library_convention():
    for symbol in gen.REDUCIBLE:
        n = checks.components(symbol)
        for i in range(n):
            for j in range(n):
                assert checks.contribution(symbol, i, j) == workloads.pf.contribution(symbol, i, j)


def test_cli_check_rejects_wrong_exit_code():
    cli = workloads.Cli(0, ROOT)
    argv = ["height", "pair", "--data", '{"PO": 0, "QO": 0, "PQ": -1}', "--chi", "0"]
    op = ("cli", "invalid height pair", argv, 3, 0)
    code, out = workloads.replay(argv)
    cli.check(op, ((code, out), (code, out)))
    with pytest.raises(checks.Mismatch):
        cli.check(op, ((2, out), (code, out)))
    with pytest.raises(checks.Mismatch):
        cli.check(op, ((code, out), (2, out)))


def test_cli_check_accepts_every_valid_command():
    cli = workloads.Cli(0, ROOT)
    for op in gen.cli_round(5, 0):
        warm = workloads.replay(op[2])
        cli.check(op, (warm, warm))


# ---------------------------------------------------------------- tracing

def _traced_round(workload, ops):
    recorder = spans.Recorder()
    tally = run.Tally()
    with recorder.install("pencilforge", workloads.trace_targets()):
        run.run_round(workload, ops, tally, recorder)
    assert tally.failed == 0, tally.messages
    return recorder


def test_per_layer_counts_repeat_for_one_seed():
    counts = []
    for _ in range(2):
        agg = _traced_round(workloads.Census(4), gen.census_round(4)).aggregates()
        counts.append({name: (agg[name]["calls"], agg[name]["units"])
                       for name in ("cremona.reduce", "pencils.search", "heights.sections")})
    assert counts[0] == counts[1]
    assert counts[0]["pencils.search"] == (112, 11414)
    assert counts[0]["heights.sections"] == (1, 15786)


def test_self_times_account_for_operation_wall_time():
    stream = workloads.Stream(2)
    recorder = _traced_round(stream, stream.round(0)[:3000])
    agg = recorder.aggregates()
    wall = agg[spans.BENCH]["total_ns"]
    assert sum(a["self_ns"] for name, a in agg.items() if name != spans.AFTER) == wall
    assert {"picard_lattice.class_new", "cremona.reduce", "heights.pair", "base_change.classify"} <= set(agg)
    # stored spans nest: each lies inside its parent, in the same operation
    for i in range(len(recorder.name)):
        parent = recorder.parent[i]
        if parent >= 0:
            assert parent < i and recorder.op[parent] == recorder.op[i]
            assert recorder.start[parent] <= recorder.start[i] <= recorder.end[i] <= recorder.end[parent]


def test_cli_layers_account_for_the_replay_time():
    cli = workloads.Cli(6, ROOT)
    agg = _traced_round(cli, cli.round(0)[:4]).aggregates()
    replay = agg[spans.AFTER]
    assert agg[spans.BENCH]["self_ns"] == agg[spans.BENCH]["total_ns"]  # cold children: no library spans
    assert sum(a["self_ns"] for name, a in agg.items() if name != spans.BENCH) == replay["total_ns"]
    assert agg["cli.main"]["calls"] == 4


def test_install_restores_the_library():
    before = (workloads.pf.reduce_to_line, workloads.cremona.reduce_to_line, workloads.cli.main,
              workloads.picard_lattice.NumericalClass.__init__)
    _traced_round(workloads.Stream(1), gen.stream_round(1, 0)[:50])
    after = (workloads.pf.reduce_to_line, workloads.cremona.reduce_to_line, workloads.cli.main,
             workloads.picard_lattice.NumericalClass.__init__)
    assert before == after


# ---------------------------------------------------------------- runner

def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(trace):
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "stream", "--seed", "3",
                           "--seconds", "0", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = benchmark_json()["end_to_end" if trace == 0 else "per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in benchmark_json()["workloads"]] == list(run.WORKLOADS)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "census", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
