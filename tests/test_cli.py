import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencilforge import cli
from pencilforge.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out)
    return code, payload


def test_class_command(capsys):
    code, payload = run(capsys, "class", "--class", "[1,1,0,0,0,0,0,0,0,0]")
    assert code == 0
    assert payload == {"ok": True, "result": {"genus": 0, "degree_to_base": 2, "self_int": 0}}


def test_cremona_golden_chain(capsys):
    code, payload = run(capsys, "cremona", "--class", "[6,2,2,2,2,4,1,1,1,1]")
    assert code == 0
    result = payload["result"]
    assert result["success"] is True
    assert result["terminal"] == [1, 0, 0, 0, 0, 0, 0, 0, 0, 1]
    assert [step["indices"] for step in result["chain"]] == [[1, 2, 5], [3, 4, 5], [6, 7, 8]]
    # replayable: each after equals the next before
    for first, second in zip(result["chain"], result["chain"][1:]):
        assert first["after"] == second["before"]


def test_cremona_env_budget(capsys):
    code, payload = run(capsys, "cremona", "--class", "[6,2,2,2,2,4,1,1,1,1]", "--max-steps", "1")
    assert code == 0 and payload["result"]["success"] is False
    code, payload = run(capsys, "cremona", "--class", "[6,2,2,2,2,4,1,1,1,1]", "--max-steps", "5")
    assert code == 0 and payload["result"]["success"] is True


def test_pencil_construct(capsys):
    code, payload = run(
        capsys, "pencil", "construct", "--model", "dp5",
        "--orbits", '{"orbit_sizes": [1, 4], "rational_orbit_index": 0}')
    assert code == 0
    result = payload["result"]
    assert result["supported"] is True
    assert result["l1"]["level"] == 2 and result["l1"]["mults"] == [4, 1, 1, 1, 1]
    assert result["l2"]["level"] == 10 and result["l2"]["mults"] == [4, 11, 11, 11, 11]
    assert result["l1"]["report"]["is_valid_pair_member"] is True


def test_pencil_construct_unsupported(capsys):
    code, payload = run(
        capsys, "pencil", "construct", "--model", "dp6",
        "--orbits", '{"orbit_sizes": [1, 5]}')
    assert code == 0
    assert payload["result"]["supported"] is False


def test_pencil_construct_with_pattern(capsys):
    code, payload = run(
        capsys, "pencil", "construct", "--model", "plane",
        "--orbits", '{"orbit_sizes": [1, 2]}', "--cubic-pattern", "1,4,4")
    assert code == 0
    assert payload["result"]["l2"]["extra_conditions"] == 2


def test_pencil_search(capsys):
    code, payload = run(
        capsys, "pencil", "search", "--model", "dp4",
        "--orbits", '{"orbit_sizes": [1, 3]}', "--n-max", "7")
    assert code == 0
    specs = payload["result"]["specs"]
    assert {"model": "dp4", "level": 1, "mults": [2, 0, 0, 0], "extra_conditions": 0} in specs
    assert {"model": "dp4", "level": 7, "mults": [2, 8, 8, 8], "extra_conditions": 0} in specs


def test_pencil_verify_roundtrip(capsys):
    spec = {"model": "plane", "level": 17, "mults": [1, 6, 6, 6, 6, 6, 6, 6, 6], "extra_conditions": 0}
    code, payload = run(capsys, "pencil", "verify", "--spec", json.dumps(spec))
    assert code == 0
    result = payload["result"]
    assert {k: result[k] for k in spec} == spec
    assert result["report"] == {
        "dim_lower_bound": 2, "genus_upper_bound": 0,
        "degree_to_base": 2, "is_valid_pair_member": True,
    }


def test_basechange_classify_count_form(capsys):
    code, payload = run(
        capsys, "basechange", "classify",
        "--config", '{"I0*": 1, "I1": 6}', "--branch", "v0,v1")
    assert code == 0 and payload["result"] == "Rational"


def test_basechange_classify_list_form(capsys):
    config = [{"place": "a", "type": "I0*"}, {"place": "b", "type": "I0*"}]
    code, payload = run(
        capsys, "basechange", "classify", "--config", json.dumps(config), "--branch", "a,b")
    assert code == 0 and payload["result"] == "TrivialProduct"


def test_basechange_transform(capsys):
    code, payload = run(capsys, "basechange", "transform", "--type", "I2", "--ramified")
    assert code == 0 and payload["result"] == {"fibres": ["I4"], "euler": 4}
    code, payload = run(capsys, "basechange", "transform", "--type", "III")
    assert code == 0 and payload["result"] == {"fibres": ["III", "III"], "euler": 6}


def test_height_pair_and_contrib(capsys):
    code, payload = run(
        capsys, "height", "pair",
        "--data", '{"PO": 0, "QO": 0, "PQ": -1, "components": [[1, 1]]}',
        "--chi", "1", "--fibres", '["I2"]')
    assert code == 0 and payload["result"] == "3/2"
    code, payload = run(capsys, "height", "contrib", "--type", "I2", "--i", "1", "--j", "1")
    assert code == 0 and payload["result"] == "1/2"


def test_sections_enumerate(capsys):
    code, payload = run(capsys, "sections", "enumerate", "--d-max", "0")
    assert code == 0
    assert payload["result"]["count"] == 9
    assert payload["result"]["classes"][0] == [0, -1, 0, 0, 0, 0, 0, 0, 0, 0]


def test_sections_with_constraints(capsys):
    constraints = [[[0, -1, 0, 0, 0, 0, 0, 0, 0, 0], -1]] + [
        [[0] + [0] * (j - 1) + [-1] + [0] * (9 - j), 0] for j in range(2, 10)]
    code, payload = run(capsys, "sections", "enumerate", "--d-max", "2",
                        "--constraints", json.dumps(constraints))
    assert code == 0
    assert payload["result"]["classes"] == [[0, -1, 0, 0, 0, 0, 0, 0, 0, 0]]


def test_kummer_bound(capsys):
    code, payload = run(capsys, "kummer", "bound", "--h", "2", "--f1", "1",
                        "--c-e", "1", "--alpha", "2")
    assert code == 0 and payload["result"] == {"n0": 2}
    code, payload = run(capsys, "kummer", "bound", "--h", "3", "--f1", "2/3",
                        "--c-e", "1/2", "--alpha", "2")
    assert code == 0 and payload["result"] == {"n0": 8}


def test_kummer_bound_large_torsion_factor(capsys):
    code, payload = run(capsys, "kummer", "bound", "--h", "100", "--f1", "1",
                        "--c-e", "1", "--alpha", "1/4")
    assert code == 0 and payload["result"] == {"n0": 10 ** 10}


def test_malformed_json_exits_two(capsys):
    code, payload = run(capsys, "class", "--class", "not json")
    assert code == 2
    assert payload["ok"] is False and "malformed JSON" in payload["error"]["message"]
    code, payload = run(capsys, "class", "--class", "[1,2]")
    assert code == 2


def test_domain_violation_exits_three(capsys):
    code, payload = run(capsys, "cremona", "--class", "[1,1,0,0,0,0,0,0,0,0]",
                        "--max-steps", "-1")
    assert code == 3 and payload["ok"] is False
    code, payload = run(capsys, "basechange", "classify",
                        "--config", '{"I1": 5}', "--branch", "v0,v1")
    assert code == 3
    assert "Euler total 12" in payload["error"]["message"]


@pytest.mark.parametrize("argv", [
    ["pencil", "verify", "--spec", '{"model": "plane", "level": 2.7, "mults": [true, 1.9]}'],
    ["pencil", "verify", "--spec", '{"model": "plane", "level": 2, "mults": [1], "extra_conditions": 0.5}'],
    ["class", "--class", "[1, true, 0, 0, 0, 0, 0, 0, 0, 0]"],
    ["class", "--class", "[1.0, 0, 0, 0, 0, 0, 0, 0, 0, 0]"],
    ["class", "--class", "[true, 0, 0, 0, 0, 0, 0, 0, 0, 0]"],
    ["cremona", "--class", "[false, 0, 0, 0, 0, 0, 0, 0, 0, 0]"],
    ["height", "pair", "--data", '{"PO": true, "QO": 1.5, "PQ": 0}'],
    ["height", "pair", "--data", '{"PO": 0, "QO": 0, "PQ": -1, "components": [[1, 1.0]]}', "--fibres", '["I2"]'],
    ["pencil", "search", "--model", "plane", "--orbits", '{"orbit_sizes": [1, 2.0]}', "--n-max", "2"],
    ["pencil", "construct", "--model", "plane", "--orbits", '{"orbit_sizes": [1, 4], "rational_orbit_index": false}'],
    ["sections", "enumerate", "--constraints", '[[[0, 0, 0, 0, 0, 0, 0, 0, 0, true], 0]]'],
    ["sections", "enumerate", "--constraints", '[[[0, 0, 0, 0, 0, 0, 0, 0, 0, -1], 0.5]]'],
    ["basechange", "classify", "--config", '{"I0*": 1, "I1": 6.0}', "--branch", "v0,v1"],
])
def test_non_integers_and_booleans_exit_two(capsys, argv):
    code, payload = run(capsys, *argv)
    assert code == 2
    assert payload["ok"] is False and "must be an integer" in payload["error"]["message"]


def test_file_input(capsys, tmp_path):
    path = tmp_path / "class.json"
    path.write_text("[6,2,2,2,2,4,1,1,1,1]")
    code, payload = run(capsys, "class", "--class", f"@{path}")
    assert code == 0
    assert payload["result"] == {"genus": 0, "degree_to_base": 2, "self_int": 0}
    code, payload = run(capsys, "class", "--class", "@/nonexistent/file.json")
    assert code == 2
    # a file that is not UTF-8 is an input error for every JSON-valued flag
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    for argv in (["class", "--class"],
                 ["pencil", "search", "--model", "plane", "--n-max", "2", "--orbits"],
                 ["pencil", "verify", "--spec"],
                 ["basechange", "classify", "--branch", "v0,v1", "--config"],
                 ["height", "pair", "--data"],
                 ["height", "pair", "--data", PAIR_DATA, "--fibres"],
                 ["sections", "enumerate", "--constraints"]):
        code, payload = run(capsys, *argv, f"@{bad}")
        assert code == 2 and payload["error"]["kind"] == "input", argv
        assert payload["error"]["message"].startswith(f"cannot read {bad}: "), argv


def test_pretty_toggles_indentation_only(capsys):
    code = main(["class", "--class", "[1,1,0,0,0,0,0,0,0,0]"])
    flat = capsys.readouterr().out
    code = main(["--pretty", "class", "--class", "[1,1,0,0,0,0,0,0,0,0]"])
    pretty = capsys.readouterr().out
    assert flat != pretty
    assert json.loads(flat) == json.loads(pretty)
    assert pretty.startswith("{\n")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2


def test_outputs_reparse_into_their_types(capsys):
    from pencilforge import NumericalClass

    _, payload = run(capsys, "cremona", "--class", "[6,2,2,2,2,4,1,1,1,1]")
    for step in payload["result"]["chain"]:
        NumericalClass.from_list(step["before"])
        NumericalClass.from_list(step["after"])
    NumericalClass.from_list(payload["result"]["terminal"])

    # every spec a search writes is read back by `pencil verify`, which echoes it
    _, payload = run(capsys, "pencil", "search", "--model", "dp4",
                     "--orbits", '{"orbit_sizes": [1, 3]}', "--n-max", "3")
    assert payload["result"]["specs"]
    for raw in payload["result"]["specs"]:
        code, echoed = run(capsys, "pencil", "verify", "--spec", json.dumps(raw))
        assert code == 0
        assert {key: value for key, value in echoed["result"].items() if key != "report"} == raw

    # the place/type list form of a configuration classifies as its count form
    counts = {"I0*": 1, "I1": 6}
    places = [{"place": "v0", "type": "I0*"}] + [{"place": f"v{i}", "type": "I1"} for i in range(1, 7)]
    for branch in ("v0,v1", "v1,v2", "p,q"):
        _, by_counts = run(capsys, "basechange", "classify", "--config", json.dumps(counts), "--branch", branch)
        _, by_places = run(capsys, "basechange", "classify", "--config", json.dumps(places), "--branch", branch)
        assert by_places == by_counts and by_counts["ok"] is True

    _, payload = run(capsys, "sections", "enumerate", "--d-max", "1")
    for coords in payload["result"]["classes"]:
        NumericalClass.from_list(coords)


# What each command writes, rendered from field reads by name alone: a record
# is the object of its fields in declaration order, each written out here, and
# a class is [d, m1..m9].  Text and key order are compared, so --pretty is
# checked too.
def _written_class(cls):
    return [cls.d, *cls.m]


def _written_spec_fields(spec):
    return {"model": spec.model, "level": spec.level, "mults": list(spec.mults),
            "extra_conditions": spec.extra_conditions}


def _written_spec(spec):
    from pencilforge import verify

    report = verify(spec)
    return {**_written_spec_fields(spec),
            "report": {"dim_lower_bound": report.dim_lower_bound, "genus_upper_bound": report.genus_upper_bound,
                       "degree_to_base": report.degree_to_base,
                       "is_valid_pair_member": report.is_valid_pair_member}}


def _written_certificate(certificate):
    return {
        "chain": [{"indices": list(step.indices), "before": _written_class(step.before),
                   "after": _written_class(step.after)} for step in certificate.chain],
        "terminal": _written_class(certificate.terminal),
        "success": certificate.success,
    }


def _expected_search(model, orbits, n_max):
    from pencilforge import OrbitStructure, search_pencils

    found = search_pencils(model, OrbitStructure(tuple(orbits)), n_max)
    return {"count": len(found), "specs": [_written_spec_fields(spec) for spec in found]}


def _expected_construct(model, orbits):
    from pencilforge import OrbitStructure, Unsupported, construct_pencils

    result = construct_pencils(model, OrbitStructure(tuple(orbits)))
    if isinstance(result, Unsupported):
        return {"supported": False, "reason": result.reason}
    return {"supported": True, "l1": _written_spec(result[0]), "l2": _written_spec(result[1])}


def _expected_verify(payload):
    from pencilforge import PencilSpec

    return _written_spec(PencilSpec(payload["model"], payload["level"], tuple(payload["mults"]),
                                    payload.get("extra_conditions", 0)))


def _expected_cremona(coords, max_steps=64):
    from pencilforge import NumericalClass, reduce_to_line

    return _written_certificate(reduce_to_line(NumericalClass(coords[0], tuple(coords[1:])), max_steps))


WRITER_CASES = [
    (["pencil", "search", "--model", "dp4", "--orbits", '{"orbit_sizes": [1, 3]}', "--n-max", "3"],
     lambda: _expected_search("dp4", [1, 3], 3)),
    (["pencil", "search", "--model", "plane", "--orbits", '{"orbit_sizes": [1, 2, 6]}', "--n-max", "2"],
     lambda: _expected_search("plane", [1, 2, 6], 2)),
    (["pencil", "construct", "--model", "dp5", "--orbits", '{"orbit_sizes": [1, 4]}'],
     lambda: _expected_construct("dp5", [1, 4])),
    (["pencil", "construct", "--model", "plane", "--orbits", '{"orbit_sizes": [1, 2, 3, 3]}'],
     lambda: _expected_construct("plane", [1, 2, 3, 3])),
    (["pencil", "construct", "--model", "dp7", "--orbits", '{"orbit_sizes": [1, 6]}'],
     lambda: _expected_construct("dp7", [1, 6])),
    (["pencil", "verify", "--spec", '{"model": "plane", "level": 2, "mults": [1, 1, 0]}'],
     lambda: _expected_verify({"model": "plane", "level": 2, "mults": [1, 1, 0]})),
    (["pencil", "verify", "--spec", '{"model": "dp4", "level": 3, "mults": [2, 1, 1, 1], "extra_conditions": 1}'],
     lambda: _expected_verify({"model": "dp4", "level": 3, "mults": [2, 1, 1, 1], "extra_conditions": 1})),
    (["cremona", "--class", "[6,2,2,2,2,4,1,1,1,1]"],
     lambda: _expected_cremona([6, 2, 2, 2, 2, 4, 1, 1, 1, 1])),
    (["cremona", "--class", "[6,2,2,2,2,4,1,1,1,1]", "--max-steps", "1"],
     lambda: _expected_cremona([6, 2, 2, 2, 2, 4, 1, 1, 1, 1], 1)),
    (["cremona", "--class", "[3,1,1,1,1,1,1,1,1,1]"],
     lambda: _expected_cremona([3, 1, 1, 1, 1, 1, 1, 1, 1, 1])),
]


@pytest.mark.parametrize("pretty", [False, True])
@pytest.mark.parametrize("argv,expected", WRITER_CASES, ids=[" ".join(argv[:2]) for argv, _ in WRITER_CASES])
def test_the_writer_matches_a_rendering_from_the_fields(argv, expected, pretty):
    code, out, err = call((["--pretty"] if pretty else []) + argv)
    envelope = {"ok": True, "result": expected()}
    assert code == 0 and err == ""
    assert json.loads(out) == envelope
    assert out == json.dumps(envelope, indent=2 if pretty else None) + "\n"


def test_the_max_steps_default_is_the_library_default():
    from pencilforge import cremona

    flags = dict(cli._GRAMMAR["cremona"][1][None][1])
    assert flags["--max-steps"]["default"] == "64" == str(cremona.DEFAULT_MAX_STEPS)


HUGE = "I" + "9" * 5000  # beyond the interpreter's default int-parsing limit
PAIR_DATA = '{"PO": 0, "QO": 0, "PQ": -1, "components": [[1, 1]]}'


@pytest.mark.parametrize("argv,expected", [
    # --config: non-string, unknown and huge fibre types
    (["basechange", "classify", "--config", '[{"place": "a", "type": 5}]', "--branch", "a,b"], 2),
    (["basechange", "classify", "--config", '[{"place": "a", "type": ["I2"]}]', "--branch", "a,b"], 2),
    (["basechange", "classify", "--config", '[{"place": "a", "type": null}]', "--branch", "a,b"], 2),
    (["basechange", "classify", "--config", '[{"place": "a", "type": "V"}]', "--branch", "a,b"], 3),
    (["basechange", "classify", "--config", '{"I1": 6, "V": 1}', "--branch", "v0,v1"], 3),
    (["basechange", "classify", "--config", '[{"place": "a", "type": "I1000000000000"}]', "--branch", "a,b"], 3),
    (["basechange", "classify", "--config", f'[{{"place": "a", "type": "{HUGE}"}}]', "--branch", "a,b"], 3),
    # --type: unknown and huge
    (["basechange", "transform", "--type", "V"], 3),
    (["basechange", "transform", "--type", "I*", "--ramified"], 3),
    (["height", "contrib", "--type", "V", "--i", "0", "--j", "0"], 3),
    (["height", "contrib", "--type", "I100000", "--i", "100000", "--j", "1"], 3),
    (["height", "contrib", "--type", "I100000*", "--i", "0", "--j", "100005"], 3),
    (["height", "contrib", "--type", HUGE, "--i", "-1", "--j", "0"], 3),
    # --fibres: non-string, unknown and huge
    (["height", "pair", "--data", PAIR_DATA, "--fibres", '[["I2"]]'], 2),
    (["height", "pair", "--data", PAIR_DATA, "--fibres", "[2]"], 2),
    (["height", "pair", "--data", PAIR_DATA, "--fibres", '["V"]'], 3),
    (["height", "pair", "--data", PAIR_DATA.replace("[[1, 1]]", "[[100000, 1]]"), "--fibres", '["I100000"]'], 3),
    (["height", "pair", "--data", PAIR_DATA.replace("[[1, 1]]", "[[-1, 0]]"), "--fibres", f'["{HUGE}"]'], 3),
    # an empty value is read as given, not as an absent optional flag
    (["height", "pair", "--data", PAIR_DATA, "--fibres="], 2),
    (["pencil", "construct", "--model", "plane", "--orbits", '{"orbit_sizes":[1,3]}', "--cubic-pattern="], 2),
    (["sections", "enumerate", "--constraints="], 2),
])
def test_bad_fibre_symbols_give_one_envelope(capsys, argv, expected):
    # run() fails on a traceback, on anything written to stderr and on
    # output that is not one JSON document
    code, payload = run(capsys, *argv)
    assert code == expected
    assert payload["ok"] is False and set(payload) == {"ok", "error"}
    assert payload["error"]["kind"] == {2: "input", 3: "domain"}[expected]


def test_place_ids_must_be_strings(capsys):
    # JSON ids 5 and null used to be read as "5" and "None" and matched
    # the branch points, answering TrivialProduct with exit 0
    code, payload = run(capsys, "basechange", "classify", "--config",
                        '[{"place": 5, "type": "I0*"}, {"place": null, "type": "I0*"}]', "--branch", "5,None")
    assert code == 2 and "place id must be a string" in payload["error"]["message"]


def test_huge_index_names_pencilforge_limit(capsys):
    code, payload = run(capsys, "height", "contrib", "--type", HUGE, "--i", "0", "--j", "0")
    message = payload["error"]["message"]
    assert code == 3 and set(payload) == {"ok", "error"}
    assert "5000-digit index" in message and "at most 2150 digits" in message
    assert "set_int_max_str_digits" not in message


CAP = "I" + "9" * 2150  # the longest index read


def test_derived_values_at_the_index_cap_print(capsys):
    # with a 4300-digit cap, I_2n and the corrections i(n - j)/n could pass
    # the interpreter's int printing limit and exit 3
    n = 10 ** 2150 - 1
    code, payload = run(capsys, "basechange", "transform", "--type", CAP + "*")
    assert code == 0 and payload["result"] == {"fibres": [CAP + "*"] * 2, "euler": 2 * (n + 6)}
    code, payload = run(capsys, "height", "contrib", "--type", CAP, "--i", "5", "--j", "7")
    assert code == 0 and Fraction(payload["result"]) == Fraction(5 * (n - 7), n)
    # the largest correction: its numerator has 4300 digits
    k = n // 2
    code, payload = run(capsys, "height", "contrib", "--type", CAP, "--i", str(k), "--j", str(k))
    assert code == 0 and Fraction(payload["result"]) == Fraction(k * (n - k), n)
    assert len(payload["result"].split("/")[0]) == 4300
    # a ramified I_n doubles: the image is read under the same cap
    fits = "I" + "4" * 2150  # its double still has 2150 digits
    code, payload = run(capsys, "basechange", "transform", "--type", fits, "--ramified")
    assert code == 0 and payload["result"] == {"fibres": ["I" + "8" * 2150], "euler": int("8" * 2150)}
    code, payload = run(capsys, "basechange", "transform", "--type", CAP, "--ramified")
    assert code == 3 and "2151-digit index; at most 2150 digits" in payload["error"]["message"]


def test_negative_counts_exit_three(capsys):
    # {"I1": -3, "I0*": 2} used to answer TrivialProduct with exit 0
    code, payload = run(capsys, "basechange", "classify", "--config", '{"I1": -3, "I0*": 2}',
                        "--branch", "v0,v1")
    assert code == 3 and "count of I1 must be non-negative, got -3" in payload["error"]["message"]


def test_large_fibres_answer_at_once(capsys):
    # contrib on I240 used to invert a 239 x 239 matrix for about a minute
    start = time.perf_counter()
    code, payload = run(capsys, "height", "contrib", "--type", "I240", "--i", "1", "--j", "1")
    assert code == 0 and payload["result"] == "239/240"
    code, payload = run(capsys, "height", "pair", "--data", PAIR_DATA.replace("[[1, 1]]", "[[2, 99999]]"),
                        "--fibres", '["I100000"]')
    assert code == 0 and payload["result"] == "99999/50000"  # 2 - 2/100000
    code, payload = run(capsys, "basechange", "transform", "--type", "I100000*", "--ramified")
    assert code == 0 and payload["result"] == {"fibres": ["I200000"], "euler": 200000}
    assert time.perf_counter() - start < 2.0


def test_a_result_past_the_digit_limit_exits_three(capsys):
    # the 4,400-digit self-intersection used to end in a traceback, exit 1
    nines = "9" * 2200
    code, payload = run(capsys, "class", "--class", f"[{nines},0,0,0,0,0,0,0,0,0]")
    message = payload["error"]["message"]
    assert code == 3 and set(payload) == {"ok", "error"}
    assert message.startswith("class: the result") and "4300 digits" in message
    assert "set_int_max_str_digits" not in message


def cap_fibres(count):
    # distinct I_n fibres at the 2,150-digit cap, each met at component 1
    # by P = Q
    fibres = ["I" + str(10 ** 2150 - k) for k in range(1, count + 1)]
    data = json.dumps({"PO": 0, "QO": 0, "PQ": -1, "components": [[1, 1]] * count})
    return ["height", "pair", "--data", data, "--fibres", json.dumps(fibres)]


def test_a_height_past_the_digit_limit_exits_three(capsys):
    # three coprime 2,150-digit indices give a 6,450-digit denominator
    code, payload = run(capsys, *cap_fibres(3))
    message = payload["error"]["message"]
    assert code == 3 and message.startswith("height pair: the result") and "4300 digits" in message
    assert "set_int_max_str_digits" not in message


def test_two_fibres_at_the_index_cap_still_print(capsys):
    code, payload = run(capsys, *cap_fibres(2))
    n1, n2 = 10 ** 2150 - 1, 10 ** 2150 - 2
    # <P, P> = chi + 2(P.O) - (P.P) - sum (n - 1)/n, with chi = 1, P.O = 0, P.P = -1
    assert code == 0 and Fraction(payload["result"]) == 2 - Fraction(n1 - 1, n1) - Fraction(n2 - 1, n2)


@pytest.mark.parametrize("argv", [
    ["class", "--class", "[{},0,0,0,0,0,0,0,0,0]"],
    ["pencil", "verify", "--spec", '{{"model": "plane", "level": {}, "mults": [1]}}'],
    ["height", "pair", "--data", '{{"PO": {}, "QO": 0, "PQ": 0}}'],
])
def test_an_input_past_the_digit_limit_exits_two(capsys, argv):
    # a 4,400-digit JSON integer used to exit with the interpreter's text
    *head, last = argv
    code, payload = run(capsys, *head, last.format("9" * 4400))
    message = payload["error"]["message"]
    assert code == 2 and message.startswith(" ".join(argv[:-2]) + ": an input") and "4300 digits" in message
    assert "set_int_max_str_digits" not in message


def test_a_ramified_image_past_the_cap_names_the_given_symbol(capsys):
    # the message used to name the image, I19999999999...
    for symbol in (CAP, CAP + "*"):
        code, payload = run(capsys, "basechange", "transform", "--type", symbol, "--ramified")
        message = payload["error"]["message"]
        assert code == 3 and message.startswith("Kodaira symbol I99999999999... ramifies to I_2n")
        assert "2151-digit index; at most 2150 digits" in message


ORBITS_1_2 = '{"orbit_sizes": [1, 2]}'

# each numeric flag with the rest of a valid request; the bad value goes last
NUMERIC_FLAGS = [
    ["cremona", "--class", "[6,2,2,2,2,4,1,1,1,1]", "--max-steps"],
    ["pencil", "search", "--model", "plane", "--orbits", ORBITS_1_2, "--n-max"],
    ["height", "pair", "--data", PAIR_DATA, "--fibres", '["I2"]', "--chi"],
    ["height", "contrib", "--type", "I3", "--j", "1", "--i"],
    ["height", "contrib", "--type", "I3", "--i", "1", "--j"],
    ["sections", "enumerate", "--d-max"],
    ["kummer", "bound", "--f1", "1", "--c-e", "1", "--alpha", "1", "--h"],
    ["kummer", "bound", "--h", "2", "--c-e", "1", "--alpha", "1", "--f1"],
    ["kummer", "bound", "--h", "2", "--f1", "1", "--alpha", "1", "--c-e"],
    ["kummer", "bound", "--h", "2", "--f1", "1", "--c-e", "1", "--alpha"],
    ["pencil", "construct", "--model", "plane", "--orbits", ORBITS_1_2, "--cubic-pattern"],
]

# "١" is ARABIC-INDIC DIGIT ONE; the last value is past the digit limit
BAD_VALUES = ["abc", "1/0", "١", "1_0", "1e0", "2.5", "9" * 4400]


@pytest.mark.parametrize("value", BAD_VALUES, ids=["abc", "1/0", "arabic-1", "1_0", "1e0", "2.5", "4400-digits"])
@pytest.mark.parametrize("argv", NUMERIC_FLAGS, ids=[argv[-1] for argv in NUMERIC_FLAGS])
def test_malformed_flag_values_give_one_envelope(capsys, argv, value):
    # argparse's type= hooks answered these with usage text, with a
    # traceback (--f1 1/0), or took them as numbers (--i "١", --alpha 2.5)
    if argv[-1] == "--cubic-pattern":
        value = "1,4," + value
    code, payload = run(capsys, *argv, value)
    assert code == 2 and payload["ok"] is False and set(payload) == {"ok", "error"}


@pytest.mark.parametrize("argv", [
    ["pencil", "search", "--model", "plane", "--orbits", ORBITS_1_2, "--n-max", "0"],
    ["sections", "enumerate", "--d-max", "-1"],
    ["kummer", "bound", "--h", "2", "--f1", "1", "--c-e", "1", "--alpha", "0"],
    ["kummer", "bound", "--h", "2", "--f1", "-1", "--c-e", "1", "--alpha", "1"],
])
def test_well_formed_values_out_of_domain_exit_three(capsys, argv):
    code, payload = run(capsys, *argv)
    assert code == 3 and payload["ok"] is False


def test_flag_values_take_a_sign_and_rationals_take_p_over_q(capsys):
    code, payload = run(capsys, "height", "contrib", "--type", "I3", "--i", "+1", "--j", "02")
    assert code == 0 and payload["result"] == "1/3"
    code, payload = run(capsys, "kummer", "bound", "--h", "+3", "--f1", "+2/3", "--c-e", "1/2", "--alpha", "4/2")
    assert code == 0 and payload["result"] == {"n0": 8}


@pytest.mark.parametrize("model", ["dp04", "dp+4", "dp 4", "dp٤", 4])
def test_models_are_spelt_in_ascii(capsys, model):
    # "dp04" and the rest were read as degree four; 4 ended in a traceback
    spec = json.dumps({"model": model, "level": 1, "mults": [2, 0, 0, 0]})
    code, payload = run(capsys, "pencil", "verify", "--spec", spec)
    assert code == (2 if model == 4 else 3) and payload["ok"] is False


def test_a_class_with_a_fixed_section_is_refused(capsys):
    spec = '{"model": "plane", "level": 5, "mults": [1, 1, 1, 1, 1, 1, 1, 3, 3]}'
    code, payload = run(capsys, "pencil", "verify", "--spec", spec)
    assert code == 0 and payload["result"]["report"] == {
        "dim_lower_bound": 2, "genus_upper_bound": 0, "degree_to_base": 2, "is_valid_pair_member": False}


def call(argv):
    """(exit code, stdout, stderr) of one in-process call; usage errors raise SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


CLASS = "[1,1,0,0,0,0,0,0,0,0]"


@pytest.mark.parametrize("argv,where", [
    ([], "pencilforge"),
    (["--pretty"], "pencilforge"),
    (["no-such-command"], "pencilforge"),
    (["Class", "--class", CLASS], "pencilforge"),
    (["pencil"], "pencil"),
    (["pencil", "bogus"], "pencil"),
    (["pencil", "--pretty", "verify", "--spec", "{}"], "pencil"),
    (["class"], "class"),
    (["class", "--clas", CLASS], "class"),
    (["class", "--class"], "class"),
    (["class", "--class", CLASS, "--class", CLASS], "class"),
    (["class", "--class=" + CLASS, "--class=" + CLASS], "class"),
    (["class", "--class", CLASS, "extra"], "class"),
    (["class", "--class", CLASS, "--pretty"], "class"),
    (["cremona", "--class", CLASS, "--max", "3"], "cremona"),
    (["pencil", "search", "--model", "plane", "--orbits", ORBITS_1_2, "--n", "3"], "pencil search"),
    (["pencil", "search", "--model", "plane", "--orbits", ORBITS_1_2], "pencil search"),
    (["basechange", "transform", "--type", "I2", "--ramified=yes"], "basechange transform"),
    (["basechange", "transform", "--type", "I2", "--ramified", "--ramified"], "basechange transform"),
    (["kummer", "bound", "--h", "2"], "kummer bound"),
    (["sections", "enumerate", "-d", "2"], "sections enumerate"),
])
def test_usage_errors_give_one_envelope_naming_the_path(argv, where):
    # argparse printed usage text on stderr and nothing on stdout
    code, out, err = call(argv)
    payload = json.loads(out)
    assert code == 2 and err == ""
    assert payload["ok"] is False and set(payload) == {"ok", "error"}
    assert payload["error"]["message"].startswith(where + ": ")


def test_a_usage_error_after_pretty_is_indented():
    code, out, _ = call(["--pretty", "class"])
    assert code == 2 and out.startswith("{\n") and json.loads(out)["ok"] is False


def test_a_negative_rational_is_a_flag_value():
    # argparse took -1/2 for an option, a usage error; --alpha=-1/2 answered
    for argv in (["--alpha", "-1/2"], ["--alpha=-1/2"]):
        code, out, err = call(["kummer", "bound", "--h", "2", "--f1", "1", "--c-e", "1", *argv])
        assert code == 3 and err == "" and "alpha must be strictly positive" in json.loads(out)["error"]["message"]
    code, out, _ = call(["pencil", "verify", "--spec", "--pretty"])
    assert code == 2 and out.startswith("{\"ok\": false") and "malformed JSON" in out


LEAVES = [(command, action) for command, (_, actions) in cli._GRAMMAR.items() for action in actions]
HELP_PAGES = [[]] + [[command] for command in cli._GRAMMAR] + [
    [command, action] for command, action in LEAVES if action is not None]


@pytest.mark.parametrize("path", HELP_PAGES, ids=lambda path: " ".join(path) or "top")
def test_every_help_page_exits_zero_and_names_its_flags(path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([*path, "--help"])
    captured = capsys.readouterr()
    assert excinfo.value.code == 0 and captured.err == ""
    assert captured.out.startswith("usage: pencilforge " + " ".join(path))
    actions = cli._GRAMMAR[path[0]][1] if path else {}
    if path and (len(path) == 2 or None in actions):
        for name, _ in actions[path[1] if len(path) == 2 else None][1]:
            assert name in captured.out
    else:
        for word in (actions if path else cli._GRAMMAR):
            assert word in captured.out


def test_help_stands_where_a_command_an_action_or_a_flag_is_read(capsys):
    for argv in (["--pretty", "-h"], ["pencil", "-h"], ["pencil", "search", "--model", "x", "-h"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("usage: pencilforge")
    # in the place of a value it is the value
    code, out, _ = call(["basechange", "transform", "--type", "-h"])
    assert code == 3 and json.loads(out)["ok"] is False


HELP_PARSER = cli._help_parser()
# a space-form value must not look like an option to argparse
ANY_VALUE = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
SPACED_VALUE = ANY_VALUE.filter(lambda value: not value.startswith("-"))


@st.composite
def well_formed_argv(draw):
    command, action = draw(st.sampled_from(LEAVES))
    flags = cli._GRAMMAR[command][1][action][1]
    chosen = draw(st.permutations([flag for flag in flags if flag[1].get("required") or draw(st.booleans())]))
    argv = ["--pretty"] * draw(st.integers(0, 2)) + [command] + ([action] if action else [])
    for name, keywords in chosen:
        if keywords.get("action") == "store_true":
            argv.append(name)
        elif draw(st.booleans()):
            argv.append(f"{name}={draw(ANY_VALUE)}")
        else:
            argv += [name, draw(SPACED_VALUE)]
    return argv


@settings(max_examples=400, deadline=None)
@given(well_formed_argv())
def test_the_reader_agrees_with_argparse(argv):
    args = vars(cli._read(argv))
    assert args == vars(HELP_PARSER.parse_args(argv))
    assert all(isinstance(value, (str, bool, type(None))) for key, value in args.items() if key != "handler")


FLAG_NAMES = sorted({name for _, actions in cli._GRAMMAR.values()
                     for _, flags in actions.values() for name, _ in flags} | {"--pretty"})
FRAGMENTS = sorted(
    {word for command, (_, actions) in cli._GRAMMAR.items() for word in (command, *actions) if word}
    | set(FLAG_NAMES) | {name[:k] for name in FLAG_NAMES for k in range(1, len(name))}
    | {"=", "-1/2", "\u0661", "\u0663", "", "0", "1", CLASS, "I2", "-"})


@settings(max_examples=500, deadline=None)
@given(st.lists(st.lists(st.sampled_from(FRAGMENTS), min_size=1, max_size=2).map("".join), max_size=8))
def test_every_argv_gives_one_envelope(argv):
    code, out, err = call(argv)
    assert code in (0, 2, 3) and err == ""
    payload = json.loads(out)
    assert payload["ok"] is (code == 0)
    if code:
        assert payload["error"]["kind"] == {2: "input", 3: "domain"}[code]


def test_every_error_names_its_kind(capsys):
    code, payload = run(capsys, "class", "--class", "[1,2")
    assert code == 2 and payload["error"]["kind"] == "input"
    code, payload = run(capsys, "kummer", "bound", "--h", "2", "--f1", "1", "--c-e", "1", "--alpha", "0")
    assert code == 3 and payload["error"] == {"kind": "domain", "message": "alpha must be strictly positive, got 0"}
    code, out, _ = call(["no-such-command"])
    assert code == 2 and json.loads(out)["error"]["kind"] == "input"


def test_a_tiny_alpha_is_refused_at_once(capsys):
    # the torsion factor (10^20)^1000 has 20,001 digits; its root took
    # seconds of bisection before the result was refused.  (10^40)^1000000
    # took 90 s to form before the pre-check refused it unformed.  With
    # 1 < h/c_e < 4 the pre-check never refused: (3/2)^10000000 took 92 s
    # and 3^30000000 12.7 s.  Near h/c_e = 1 it was 1.44 times too weak:
    # (1001/1000)^12000000 ran for more than 100 s.  Counting only the
    # torsion factor, it let n0 = 1001000000 * floor((1001/1000)^9900000),
    # of 4,307 digits, run past 20 s
    for h, c_e, alpha in [("1" + "0" * 20, "1", "1/1000"), ("1" + "0" * 40, "1", "1/1000000"),
                          ("3", "2", "1/10000000"), ("3", "1", "1/30000000"), ("1001", "1000", "1/12000000"),
                          ("1001000000", "1000000000", "1/9900000")]:
        start = time.process_time()
        code, payload = run(capsys, "kummer", "bound", "--h", h, "--f1", "1", "--c-e", c_e, "--alpha", alpha)
        assert code == 3 and payload == {"ok": False, "error": {"kind": "domain", "message": (
            "kummer bound: the result holds an integer of more than 4300 digits, the most pencilforge reads or prints")}}
        assert time.process_time() - start < 0.5


@pytest.mark.parametrize("argv,message", [
    (["class", "--class", "{}"], "expected a JSON array of 10 integers, got {}"),
    (["pencil", "construct", "--model", "plane", "--orbits", "[1,2]"],
     'orbits must be JSON like {"orbit_sizes": [...], "rational_orbit_index": 0}'),
    (["basechange", "classify", "--config", "3", "--branch", "v0,v1"],
     "config must be a {type: count} object or a [{place, type}] list"),
    (["basechange", "classify", "--config", '{"I0*": 1, "I1": 6}', "--branch", "v0"],
     "--branch takes two comma-separated place ids, got 'v0'"),
    (["height", "pair", "--data", "[1]"], "height data must be a JSON object"),
    (["height", "pair", "--data", PAIR_DATA, "--fibres", "{}"], "--fibres must be a JSON list of fibre symbols"),
    (["sections", "enumerate", "--constraints", "{}"], "--constraints must be a JSON list of [class, value] pairs"),
], ids=["class", "orbits", "config", "branch", "data", "fibres", "constraints"])
def test_json_of_the_wrong_shape_names_the_shape_it_needs(capsys, argv, message):
    code, payload = run(capsys, *argv)
    assert code == 2 and payload == {"ok": False, "error": {"kind": "input", "message": message}}


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["class", "--class", CLASS],
    ["kummer", "bound", "--h", "2", "--f1", "1", "--c-e", "1", "--alpha", "0"],
    ["no-such-command"],
    ["pencil", "search", "--help"],
], ids=["result", "error", "usage-error", "help"])
def test_a_closed_stdout_exits_one_with_nothing_on_stderr(argv, unbuffered):
    # the read end of the pipe is closed before the call, so every write
    # fails: that was a BrokenPipeError traceback with exit 1 (unbuffered),
    # or "Exception ignored ... BrokenPipeError" at shutdown with exit 120
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-S", "-m", "pencilforge.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, b"")


def test_the_kummer_pre_check_is_tight_near_one():
    # n0 = 1001 * floor((1001/1000)^q) has 4,300 digits at q = 9899000 and
    # prints.  At q = 9900000 the power alone has 4,298 digits, under the
    # 2^14276 (2^14285 over 1001's 2^9) the pre-check asks of it, so it is
    # let through; at q = 9950000 the power has 4,320 and is refused.  The
    # pre-check alone decides, without forming any of them
    from pencilforge import heights

    def unprintable(q):
        return cli._kummer_unprintable(heights.KummerInputs(1001, 1, 1000, Fraction(1, q)))

    assert not unprintable(9899000) and not unprintable(9900000)
    assert unprintable(9950000)


def test_a_torsion_factor_below_one_gives_zero_however_large_the_division_factor(capsys):
    # floor(h/f1) = 10^8299 has more than 14,285 bits, but h/c_e = 1/10 is
    # below 1, so n0 is 0 and is answered
    code, payload = run(capsys, "kummer", "bound", "--h", "1" + "0" * 4000, "--f1", "1/1" + "0" * 4299,
                        "--c-e", "1" + "0" * 4001, "--alpha", "1/2")
    assert code == 0 and payload == {"ok": True, "result": {"n0": 0}}


FRACTIONS = st.builds(Fraction, st.integers(1, 10 ** 6), st.integers(1, 10 ** 6))


@settings(max_examples=300, deadline=None)
@given(h=st.integers(1, 2 ** 80), f1=FRACTIONS, c_e=FRACTIONS, p=st.integers(1, 6), q=st.integers(1, 3000))
def test_the_kummer_pre_check_refuses_only_unprintable_bounds(h, f1, c_e, p, q):
    from pencilforge import heights

    inputs = heights.KummerInputs(h, f1, c_e, Fraction(p, q))
    if cli._kummer_unprintable(inputs):
        assert heights.kummer_bound(inputs) >= 10 ** cli._MAX_INT_DIGITS


@st.composite
def kummer_inputs(draw):
    # f1 down to 10^-4299, so that floor(h/f1) alone passes 2^14285 in about
    # half the draws, and h/c_e far from 1 or near it, on either side
    from pencilforge import heights

    h = draw(st.one_of(st.integers(1, 10 ** 6), st.integers(10 ** 60, 10 ** 100)))
    f1 = Fraction(draw(st.integers(1, 1000)), 10 ** draw(st.one_of(st.integers(0, 40), st.integers(4250, 4299))))
    c_e = draw(st.one_of(FRACTIONS, st.builds(lambda a, b: h * Fraction(a, b), st.integers(1, 1000),
                                              st.integers(1, 1000))))
    return heights.KummerInputs(h, f1, c_e, Fraction(draw(st.integers(1, 30)), draw(st.integers(1, 400))))


@settings(max_examples=300, deadline=None)
@given(kummer_inputs())
def test_the_kummer_pre_check_counts_the_division_factor(inputs):
    from pencilforge import heights

    if cli._kummer_unprintable(inputs):
        assert heights.kummer_bound(inputs) >= 10 ** cli._MAX_INT_DIGITS
