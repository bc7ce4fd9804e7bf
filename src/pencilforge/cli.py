"""Batch command-line interface with JSON input and output.

Every invocation prints a single JSON envelope {"ok": ..., "result": ...} or
{"ok": false, "error": {...}} on standard output; diagnostics go to standard
error.  Exit status is 0 on success, 2 for malformed input and 3 for domain
precondition violations.  Flag values holding JSON may be given inline or as
"@path" to read the same JSON from a file.  A numeric flag takes an ASCII
integer, [+-]digits; the rational flags also take p/q.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict

# A cold call pays for every import, so pencils, heights, base_change and
# fractions are imported inside the functions that use them; annotations
# naming them are never evaluated (postponed annotations).
from . import cremona
from .picard_lattice import NumericalClass, arithmetic_genus, degree_to_base, intersect


# the interpreter's default limit on the digits of an int read from or
# written as text: pencilforge reads and prints no longer integer
_MAX_INT_DIGITS = 4300


class CliError(Exception):
    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


class _DigitLimit(CliError):
    # an integer past _MAX_INT_DIGITS: in an input (exit 2) or in the result
    # (exit 3); `main` names the subcommand in the message
    pass


def _text_arg(value: str) -> str:
    if value.startswith("@"):
        try:
            with open(value[1:], "r", encoding="utf-8") as handle:
                return handle.read()
        except OSError as exc:
            raise CliError(2, f"cannot read {value[1:]}: {exc}") from exc
    return value


def _json_arg(value: str):
    text = _text_arg(value)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(2, f"malformed JSON: {exc}") from exc
    except ValueError as exc:
        # json.loads raises no other ValueError: an integer literal is past
        # the interpreter's digit limit
        raise _DigitLimit(2, "an input") from exc


def _class_from_json(payload) -> NumericalClass:
    if not isinstance(payload, list):
        raise TypeError(f"expected a JSON array of 10 integers, got {payload!r}")
    return NumericalClass.from_list(payload)


def _class_arg(value: str) -> NumericalClass:
    try:
        return _class_from_json(_json_arg(value))
    except (TypeError, ValueError) as exc:
        raise CliError(2, str(exc)) from exc


# the grammar of every numeric flag value; a denominator is not zero
_INT_RE = re.compile(r"[+-]?[0-9]+")
_FRACTION_RE = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")


def _int_arg(value: str, name: str) -> int:
    if not _INT_RE.fullmatch(value):
        raise CliError(2, f"{name} must be an integer, got {value!r}")
    try:
        return int(value)
    except ValueError as exc:
        # the grammar leaves one ValueError: past the interpreter's digit limit
        raise _DigitLimit(2, "an input") from exc


def _fraction_arg(value: str, name: str) -> Fraction:
    from fractions import Fraction

    if not _FRACTION_RE.fullmatch(value):
        raise CliError(2, f"{name} must be an integer or a rational p/q, got {value!r}")
    try:
        return Fraction(value)
    except ValueError as exc:
        # the grammar leaves one ValueError: past the interpreter's digit limit
        raise _DigitLimit(2, "an input") from exc


def _orbits_arg(value: str) -> pencils.OrbitStructure:
    from . import pencils

    payload = _json_arg(value)
    if not isinstance(payload, dict) or "orbit_sizes" not in payload:
        raise CliError(2, "orbits must be JSON like {\"orbit_sizes\": [...], \"rational_orbit_index\": 0}")
    # OrbitStructure checks sizes and index strictly (TypeError, exit 2)
    return pencils.OrbitStructure(
        tuple(payload["orbit_sizes"]),
        payload.get("rational_orbit_index", 0),
    )


def _config_arg(value: str) -> base_change.FibreConfiguration:
    from . import base_change

    payload = _json_arg(value)
    if isinstance(payload, dict):
        return base_change.FibreConfiguration.from_counts(payload)
    if isinstance(payload, list):
        return base_change.FibreConfiguration(
            tuple((entry["place"], entry["type"]) for entry in payload))
    raise CliError(2, "config must be a {type: count} object or a [{place, type}] list")


def _branch_arg(value: str) -> base_change.BranchLocus:
    from . import base_change

    parts = [p.strip() for p in value.split(",") if p.strip()]
    if len(parts) != 2:
        raise CliError(2, f"--branch takes two comma-separated place ids, got {value!r}")
    return base_change.BranchLocus(parts[0], parts[1])


def _spec_result(spec: pencils.PencilSpec) -> dict:
    from . import pencils

    return {**spec.to_json(), "report": asdict(pencils.verify(spec))}


def _cmd_class(args) -> dict:
    cls = _class_arg(args.cls)
    return {
        "genus": arithmetic_genus(cls),
        "degree_to_base": degree_to_base(cls),
        "self_int": intersect(cls, cls),
    }


def _cmd_cremona(args) -> dict:
    cls = _class_arg(args.cls)
    certificate = cremona.reduce_to_line(cls, _int_arg(args.max_steps, "--max-steps"))
    return {
        "chain": certificate.to_json_list(),
        "terminal": certificate.terminal.to_list(),
        "success": certificate.success,
    }


def _cmd_pencil_construct(args) -> dict:
    from . import pencils

    orbits = _orbits_arg(args.orbits)
    pattern = (tuple(_int_arg(p, "--cubic-pattern entry") for p in args.cubic_pattern.split(","))
               if args.cubic_pattern else None)
    result = pencils.construct_pencils(args.model, orbits, pattern)
    if isinstance(result, pencils.Unsupported):
        return {"supported": False, "reason": result.reason}
    first, second = result
    return {"supported": True, "l1": _spec_result(first), "l2": _spec_result(second)}


def _cmd_pencil_search(args) -> dict:
    from . import pencils

    orbits = _orbits_arg(args.orbits)
    found = pencils.search_pencils(args.model, orbits, _int_arg(args.n_max, "--n-max"))
    return {"count": len(found), "specs": [spec.to_json() for spec in found]}


def _cmd_pencil_verify(args) -> dict:
    from . import pencils

    payload = _json_arg(args.spec)
    try:
        spec = pencils.PencilSpec.from_json(payload)
    except (KeyError, TypeError) as exc:
        raise CliError(2, f"spec object needs model and integer level/mults: {exc}") from exc
    return _spec_result(spec)


def _cmd_basechange_classify(args) -> str:
    from . import base_change

    config = _config_arg(args.config)
    branch = _branch_arg(args.branch)
    return base_change.classify_quadratic_base_change(config, branch).value


def _cmd_basechange_transform(args) -> dict:
    from . import base_change

    fibre = base_change.KodairaFibre(args.type)
    images = base_change.transform_fibre(fibre, args.ramified)
    return {"fibres": [f.symbol for f in images], "euler": sum(f.euler for f in images)}


def _cmd_height_pair(args) -> Fraction:
    from . import heights

    payload = _json_arg(args.data)
    if not isinstance(payload, dict):
        raise CliError(2, "height data must be a JSON object")
    try:
        # SectionIntersections checks every integer strictly
        data = heights.SectionIntersections(
            payload["PO"],
            payload["QO"],
            payload["PQ"],
            tuple((a, b) for a, b in payload.get("components", [])),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(2, f"height data needs integer PO/QO/PQ and component pairs: {exc}") from exc
    fibres = _json_arg(args.fibres) if args.fibres else []
    if not isinstance(fibres, list):
        raise CliError(2, "--fibres must be a JSON list of fibre symbols")
    return heights.height_pairing(data, _int_arg(args.chi, "--chi"), fibres)


def _cmd_height_contrib(args) -> Fraction:
    from . import heights

    return heights.contribution(args.type, _int_arg(args.i, "--i"), _int_arg(args.j, "--j"))


def _cmd_sections(args) -> dict:
    from . import heights

    constraints = None
    if args.constraints:
        payload = _json_arg(args.constraints)
        if not isinstance(payload, list):
            raise CliError(2, "--constraints must be a JSON list of [class, value] pairs")
        try:
            constraints = [(_class_from_json(cls), value) for cls, value in payload]
        except (TypeError, ValueError) as exc:
            raise CliError(2, f"constraint entries must be [10-int class, value]: {exc}") from exc
    classes = heights.enumerate_section_classes(constraints, _int_arg(args.d_max, "--d-max"))
    return {"count": len(classes), "classes": [c.to_list() for c in classes]}


def _cmd_kummer(args) -> dict:
    from . import heights

    inputs = heights.KummerInputs(_int_arg(args.h, "--h"), _fraction_arg(args.f1, "--f1"),
                                  _fraction_arg(args.c_e, "--c-e"), _fraction_arg(args.alpha, "--alpha"))
    return {"n0": heights.kummer_bound(inputs)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pencilforge",
        description="Exact lattice computations for rational elliptic surfaces.",
    )
    parser.add_argument("--pretty", action="store_true", help="indent the JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_class = sub.add_parser("class", help="genus, base degree and self-intersection of a class")
    p_class.add_argument("--class", dest="cls", required=True, metavar="JSON",
                         help="divisor class [d, m1..m9]")
    p_class.set_defaults(handler=_cmd_class)

    p_cremona = sub.add_parser("cremona", help="greedy Cremona reduction certificate")
    p_cremona.add_argument("--class", dest="cls", required=True, metavar="JSON")
    p_cremona.add_argument("--max-steps", default=str(cremona.DEFAULT_MAX_STEPS),
                           help=f"step budget (default {cremona.DEFAULT_MAX_STEPS})")
    p_cremona.set_defaults(handler=_cmd_cremona)

    p_pencil = sub.add_parser("pencil", help="construct, search or verify pencil specs")
    pencil_sub = p_pencil.add_subparsers(dest="action", required=True)

    p_construct = pencil_sub.add_parser("construct")
    p_construct.add_argument("--model", required=True, help="plane or dp1..dp8")
    p_construct.add_argument("--orbits", required=True, metavar="JSON")
    p_construct.add_argument("--cubic-pattern", default=None, metavar="A,B,C")
    p_construct.set_defaults(handler=_cmd_pencil_construct)

    p_search = pencil_sub.add_parser("search")
    p_search.add_argument("--model", required=True)
    p_search.add_argument("--orbits", required=True, metavar="JSON")
    p_search.add_argument("--n-max", required=True)
    p_search.set_defaults(handler=_cmd_pencil_search)

    p_verify = pencil_sub.add_parser("verify")
    p_verify.add_argument("--spec", required=True, metavar="JSON")
    p_verify.set_defaults(handler=_cmd_pencil_verify)

    p_bc = sub.add_parser("basechange", help="quadratic base change bookkeeping")
    bc_sub = p_bc.add_subparsers(dest="action", required=True)

    p_classify = bc_sub.add_parser("classify")
    p_classify.add_argument("--config", required=True, metavar="JSON",
                            help='fibre configuration, {"I0*": 1, "I1": 6} or [{"place", "type"}]')
    p_classify.add_argument("--branch", required=True, metavar="V,W", help="two branch place ids")
    p_classify.set_defaults(handler=_cmd_basechange_classify)

    p_transform = bc_sub.add_parser("transform")
    p_transform.add_argument("--type", required=True, help="Kodaira symbol, e.g. I2 or I0*")
    p_transform.add_argument("--ramified", action="store_true")
    p_transform.set_defaults(handler=_cmd_basechange_transform)

    p_height = sub.add_parser("height", help="height pairing and local corrections")
    height_sub = p_height.add_subparsers(dest="action", required=True)

    p_pair = height_sub.add_parser("pair")
    p_pair.add_argument("--data", required=True, metavar="JSON",
                        help='{"PO": .., "QO": .., "PQ": .., "components": [[i, j], ..]}')
    p_pair.add_argument("--chi", default="1")
    p_pair.add_argument("--fibres", default=None, metavar="JSON",
                        help='reducible fibre symbols, e.g. ["I2", "IV*"]')
    p_pair.set_defaults(handler=_cmd_height_pair)

    p_contrib = height_sub.add_parser("contrib")
    p_contrib.add_argument("--type", required=True)
    p_contrib.add_argument("--i", required=True)
    p_contrib.add_argument("--j", required=True)
    p_contrib.set_defaults(handler=_cmd_height_contrib)

    p_sections = sub.add_parser("sections", help="bounded section class enumeration")
    sections_sub = p_sections.add_subparsers(dest="action", required=True)
    p_enum = sections_sub.add_parser("enumerate")
    p_enum.add_argument("--d-max", default="2")
    p_enum.add_argument("--constraints", default=None, metavar="JSON",
                        help="list of [class, value] intersection constraints")
    p_enum.set_defaults(handler=_cmd_sections)

    p_kummer = sub.add_parser("kummer", help="bound on the multiplication index")
    kummer_sub = p_kummer.add_subparsers(dest="action", required=True)
    p_bound = kummer_sub.add_parser("bound")
    p_bound.add_argument("--h", required=True)
    p_bound.add_argument("--f1", required=True)
    p_bound.add_argument("--c-e", required=True)
    p_bound.add_argument("--alpha", required=True)
    p_bound.set_defaults(handler=_cmd_kummer)

    return parser


def _dumps(payload: dict, pretty: bool) -> str:
    # a rational result prints as the string "p/q"
    try:
        return json.dumps(payload, indent=2 if pretty else None, default=str)
    except ValueError as exc:
        # json.dumps raises no other ValueError here: an integer in the
        # result is past the interpreter's digit limit
        raise _DigitLimit(3, "the result") from exc


def _emit(payload: dict, pretty: bool) -> None:
    print(_dumps(payload, pretty))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    pretty = args.pretty
    try:
        result = args.handler(args)
        text = _dumps({"ok": True, "result": result}, pretty)
    except _DigitLimit as exc:
        command = " ".join(filter(None, (args.command, getattr(args, "action", None))))
        _emit({"ok": False, "error": {"message": (
            f"{command}: {exc} holds an integer of more than {_MAX_INT_DIGITS} digits, "
            f"the most pencilforge reads or prints")}}, pretty)
        return exc.code
    except CliError as exc:
        _emit({"ok": False, "error": {"message": str(exc)}}, pretty)
        return exc.code
    except ValueError as exc:
        _emit({"ok": False, "error": {"message": str(exc)}}, pretty)
        return 3
    except (KeyError, TypeError) as exc:
        # well-formed JSON of the wrong shape
        _emit({"ok": False, "error": {"message": f"malformed input: {exc!r}"}}, pretty)
        return 2
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
