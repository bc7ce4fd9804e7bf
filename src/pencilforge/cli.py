"""Batch command-line interface with JSON input and output.

Every invocation but a help request prints a single JSON envelope
{"ok": ..., "result": ...} or {"ok": false, "error": {...}} on standard
output and nothing on standard error.  Exit status is 0 on success, 2 for
malformed input or usage and 3 for domain precondition violations; the
error object's "kind" is "input" or "domain" to match.  Exit status 1 means
standard output was closed before all was written, as by `| head`; standard
error stays empty then too.  Flag values holding JSON may be given inline or
as "@path" to read the same JSON from a file.  A numeric flag takes an ASCII
integer, [+-]digits; the rational flags also take p/q.

`_dumps` is the one JSON writer and `_write` the one place that prints.  A
result holds JSON values and records: a record is written as the object of
its fields in declaration order, a `NumericalClass` as [d, m1..m9], and a
rational as the string "p/q".
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace

# A cold call pays for every import.  The library is reached as `pf.<export>`:
# the package loads the submodule that its `_EXPORTS` names on first use, so a
# call loads only what its subcommand needs.  argparse (help pages only), os
# (a closed stdout only) and fractions are imported inside the functions that
# use them; annotations are never evaluated (postponed annotations).
import pencilforge as pf

from .picard_lattice import NumericalClass, arithmetic_genus, degree_to_base, intersect


# the "kind" of an error envelope, by exit status
_KINDS = {2: "input", 3: "domain"}

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
        except (OSError, UnicodeDecodeError) as exc:
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


def _orbits_arg(value: str) -> pf.OrbitStructure:
    payload = _json_arg(value)
    if not isinstance(payload, dict) or "orbit_sizes" not in payload:
        raise CliError(2, "orbits must be JSON like {\"orbit_sizes\": [...], \"rational_orbit_index\": 0}")
    # OrbitStructure checks sizes and index strictly (TypeError, exit 2)
    return pf.OrbitStructure(tuple(payload["orbit_sizes"]), payload.get("rational_orbit_index", 0))


def _config_arg(value: str) -> pf.FibreConfiguration:
    payload = _json_arg(value)
    if isinstance(payload, dict):
        return pf.FibreConfiguration.from_counts(payload)
    if isinstance(payload, list):
        return pf.FibreConfiguration(tuple((entry["place"], entry["type"]) for entry in payload))
    raise CliError(2, "config must be a {type: count} object or a [{place, type}] list")


def _branch_arg(value: str) -> pf.BranchLocus:
    parts = [p.strip() for p in value.split(",") if p.strip()]
    if len(parts) != 2:
        raise CliError(2, f"--branch takes two comma-separated place ids, got {value!r}")
    return pf.BranchLocus(parts[0], parts[1])


def _spec_result(spec: pf.PencilSpec) -> dict:
    return {**_plain(spec), "report": pf.verify(spec)}


def _cmd_class(args) -> dict:
    cls = _class_arg(args.cls)
    return {"genus": arithmetic_genus(cls), "degree_to_base": degree_to_base(cls),
            "self_int": intersect(cls, cls)}


def _cmd_cremona(args) -> pf.ReductionCertificate:
    cls = _class_arg(args.cls)
    return pf.reduce_to_line(cls, _int_arg(args.max_steps, "--max-steps"))


def _cmd_pencil_construct(args) -> dict:
    orbits = _orbits_arg(args.orbits)
    pattern = (tuple(_int_arg(p, "--cubic-pattern entry") for p in args.cubic_pattern.split(","))
               if args.cubic_pattern is not None else None)
    result = pf.construct_pencils(args.model, orbits, pattern)
    if isinstance(result, pf.Unsupported):
        return {"supported": False, "reason": result.reason}
    first, second = result
    return {"supported": True, "l1": _spec_result(first), "l2": _spec_result(second)}


def _cmd_pencil_search(args) -> dict:
    orbits = _orbits_arg(args.orbits)
    found = pf.search_pencils(args.model, orbits, _int_arg(args.n_max, "--n-max"))
    return {"count": len(found), "specs": found}


def _cmd_pencil_verify(args) -> dict:
    payload = _json_arg(args.spec)
    try:
        # the constructor checks every integer strictly
        spec = pf.PencilSpec(payload["model"], payload["level"], tuple(payload["mults"]),
                             payload.get("extra_conditions", 0))
    except (KeyError, TypeError) as exc:
        raise CliError(2, f"spec object needs model and integer level/mults: {exc}") from exc
    return _spec_result(spec)


def _cmd_basechange_classify(args) -> str:
    config = _config_arg(args.config)
    branch = _branch_arg(args.branch)
    return pf.classify_quadratic_base_change(config, branch).value


def _cmd_basechange_transform(args) -> dict:
    fibre = pf.KodairaFibre(args.type)
    images = pf.transform_fibre(fibre, args.ramified)
    return {"fibres": [f.symbol for f in images], "euler": sum(f.euler for f in images)}


def _cmd_height_pair(args) -> Fraction:
    payload = _json_arg(args.data)
    if not isinstance(payload, dict):
        raise CliError(2, "height data must be a JSON object")
    try:
        # SectionIntersections checks every integer strictly
        data = pf.SectionIntersections(payload["PO"], payload["QO"], payload["PQ"],
                                       tuple((a, b) for a, b in payload.get("components", [])))
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(2, f"height data needs integer PO/QO/PQ and component pairs: {exc}") from exc
    fibres = _json_arg(args.fibres) if args.fibres is not None else []
    if not isinstance(fibres, list):
        raise CliError(2, "--fibres must be a JSON list of fibre symbols")
    return pf.height_pairing(data, _int_arg(args.chi, "--chi"), fibres)


def _cmd_height_contrib(args) -> Fraction:
    return pf.contribution(args.type, _int_arg(args.i, "--i"), _int_arg(args.j, "--j"))


def _cmd_sections(args) -> dict:
    constraints = None
    if args.constraints is not None:
        payload = _json_arg(args.constraints)
        if not isinstance(payload, list):
            raise CliError(2, "--constraints must be a JSON list of [class, value] pairs")
        try:
            constraints = [(_class_from_json(cls), value) for cls, value in payload]
        except (TypeError, ValueError) as exc:
            raise CliError(2, f"constraint entries must be [10-int class, value]: {exc}") from exc
    classes = pf.enumerate_section_classes(constraints, _int_arg(args.d_max, "--d-max"))
    return {"count": len(classes), "classes": classes}


def _cmd_kummer(args) -> dict:
    inputs = pf.KummerInputs(_int_arg(args.h, "--h"), _fraction_arg(args.f1, "--f1"),
                             _fraction_arg(args.c_e, "--c-e"), _fraction_arg(args.alpha, "--alpha"))
    if _kummer_unprintable(inputs):
        # refused before the torsion factor is formed, as `_dumps` refuses it after
        raise _DigitLimit(3, "the result")
    return {"n0": pf.kummer_bound(inputs)}


def _kummer_unprintable(inputs: pf.KummerInputs) -> bool:
    # n0 = m * floor(v ** (q/p)) with m = floor(h/f1), v = h/c_e = 2**k * a/b, 1 <= a/b < 2,
    # and alpha = p/q; n0 is 0 when m or v is below 1.  log2(v) >= k + a/b - 1, as
    # log2(1 + x) >= x on [0, 1], and log2(v) >= k + 7213(a - b) / (2500(a + b)), as
    # ln(1 + x) >= 2x/(2 + x) and 2/ln 2 > 7213/2500; the second is tighter below
    # a/b = 1.885.  When either bound times q/p reaches t = 14285 - (m.bit_length() - 1),
    # n0 >= 2**(m.bit_length() - 1) * 2**t = 2**14285 > 10**_MAX_INT_DIGITS
    m = inputs.h // inputs.f1
    if m < 1 or inputs.h < inputs.c_e:
        return False
    v, alpha, t = inputs.h / inputs.c_e, inputs.alpha, 14285 - (m.bit_length() - 1)
    a, b = v.numerator, v.denominator
    k = a.bit_length() - b.bit_length()
    a, b = (a, b << k) if k >= 0 else (a << -k, b)
    if a < b:
        k, a = k - 1, a << 1
    p, q = alpha.numerator, alpha.denominator
    return (((k - 1) * b + a) * q >= t * p * b
            or (2500 * k * (a + b) + 7213 * (a - b)) * q >= 2500 * t * p * (a + b))


# The grammar of every call: command -> (its help, {action: (handler, flags)}),
# where a command without actions holds one leaf under None.  A flag is
# (name, the keywords of its argparse add_argument); the reader and the help
# parser both read them.  A default is the flag's text, read like a given value.
_GRAMMAR = {
    "class": ("genus, base degree and self-intersection of a class", {None: (_cmd_class, (
        ("--class", {"dest": "cls", "required": True, "metavar": "JSON",
                     "help": "divisor class [d, m1..m9]"}),
    ))}),
    "cremona": ("greedy Cremona reduction certificate", {None: (_cmd_cremona, (
        ("--class", {"dest": "cls", "required": True, "metavar": "JSON"}),
        ("--max-steps", {"default": "64", "help": "step budget (default %(default)s)"}),
    ))}),
    "pencil": ("construct, search or verify pencil specs", {
        "construct": (_cmd_pencil_construct, (
            ("--model", {"required": True, "help": "plane or dp1..dp8"}),
            ("--orbits", {"required": True, "metavar": "JSON"}),
            ("--cubic-pattern", {"default": None, "metavar": "A,B,C"}),
        )),
        "search": (_cmd_pencil_search, (
            ("--model", {"required": True}),
            ("--orbits", {"required": True, "metavar": "JSON"}),
            ("--n-max", {"required": True}),
        )),
        "verify": (_cmd_pencil_verify, (
            ("--spec", {"required": True, "metavar": "JSON"}),
        )),
    }),
    "basechange": ("quadratic base change bookkeeping", {
        "classify": (_cmd_basechange_classify, (
            ("--config", {"required": True, "metavar": "JSON",
                          "help": 'fibre configuration, {"I0*": 1, "I1": 6} or [{"place", "type"}]'}),
            ("--branch", {"required": True, "metavar": "V,W", "help": "two branch place ids"}),
        )),
        "transform": (_cmd_basechange_transform, (
            ("--type", {"required": True, "help": "Kodaira symbol, e.g. I2 or I0*"}),
            ("--ramified", {"action": "store_true"}),
        )),
    }),
    "height": ("height pairing and local corrections", {
        "pair": (_cmd_height_pair, (
            ("--data", {"required": True, "metavar": "JSON",
                        "help": '{"PO": .., "QO": .., "PQ": .., "components": [[i, j], ..]}'}),
            ("--chi", {"default": "1"}),
            ("--fibres", {"default": None, "metavar": "JSON",
                          "help": 'reducible fibre symbols, e.g. ["I2", "IV*"]'}),
        )),
        "contrib": (_cmd_height_contrib, (
            ("--type", {"required": True}),
            ("--i", {"required": True}),
            ("--j", {"required": True}),
        )),
    }),
    "sections": ("bounded section class enumeration", {
        "enumerate": (_cmd_sections, (
            ("--d-max", {"default": "2"}),
            ("--constraints", {"default": None, "metavar": "JSON",
                               "help": "list of [class, value] intersection constraints"}),
        )),
    }),
    "kummer": ("bound on the multiplication index", {
        "bound": (_cmd_kummer, (
            ("--h", {"required": True}),
            ("--f1", {"required": True}),
            ("--c-e", {"required": True}),
            ("--alpha", {"required": True}),
        )),
    }),
}

_HELP = ("-h", "--help")


def _dest(name: str, keywords: dict) -> str:
    return keywords.get("dest") or name[2:].replace("-", "_")


def _default(keywords: dict):
    if keywords.get("action") == "store_true":
        return False
    return keywords.get("default")


def _help_parser(path=()):
    """The argparse parser of `_GRAMMAR`, or of its command or leaf at `path`.

    It only prints help pages.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="pencilforge",
        description="Exact lattice computations for rational elliptic surfaces.",
    )
    parser.add_argument("--pretty", action="store_true", help="indent the JSON output")
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {(): parser}
    for command, (help_text, actions) in _GRAMMAR.items():
        p_command = parsers[command,] = sub.add_parser(command, help=help_text)
        if None not in actions:
            action_sub = p_command.add_subparsers(dest="action", required=True)
        for action, (handler, flags) in actions.items():
            p_leaf = parsers[command, action] = p_command if action is None else action_sub.add_parser(action)
            for name, keywords in flags:
                p_leaf.add_argument(name, **keywords)
            p_leaf.set_defaults(handler=handler)
    return parsers[tuple(path)]


def _read(argv: list[str]) -> SimpleNamespace:
    """The arguments of one call, read from `argv` by `_GRAMMAR`.

    `--pretty` may come first, then the command, its action if it has
    actions, and the flags, each `--flag VALUE`, `--flag=VALUE` or a bare
    switch, spelt in full and given at most once.  `-h` or `--help` in place
    of a command, an action or a flag prints the argparse help page of what
    is read so far and exits 0.  Anything else prints an error envelope and
    exits 2.
    """
    words = iter(argv)
    args = SimpleNamespace(pretty=False)
    path: list[str] = []

    def refuse(message: str) -> NoReturn:
        where = " ".join(path) or "pencilforge"
        _emit_error(2, f"{where}: {message}", args.pretty)
        raise SystemExit(2)

    def help_page() -> NoReturn:
        _write(_help_parser(path).format_help(), end="")
        raise SystemExit(0)

    def choose(choices, kind: str) -> str:
        for word in words:
            if word in _HELP:
                help_page()
            if word == "--pretty" and not path:
                args.pretty = True
            elif word in choices:
                path.append(word)
                return word
            else:
                refuse(f"unknown {kind} {word!r}; expected one of {', '.join(choices)}")
        refuse(f"the {kind} is missing; expected one of {', '.join(choices)}")

    args.command = choose(_GRAMMAR, "command")
    actions = _GRAMMAR[args.command][1]
    if None in actions:
        args.handler, flags = actions[None]
    else:
        args.action = choose(actions, "action")
        args.handler, flags = actions[args.action]
    table = dict(flags)
    for name, keywords in flags:
        setattr(args, _dest(name, keywords), _default(keywords))
    given = set()
    for word in words:
        if word in _HELP:
            help_page()
        name, equals, value = word.partition("=")
        if name not in table:
            refuse(f"unknown argument {word!r}; the flags are {', '.join(table)}, spelt in full")
        if name in given:
            refuse(f"{name} is given twice")
        given.add(name)
        keywords = table[name]
        if keywords.get("action") == "store_true":
            if equals:
                refuse(f"{name} is a switch and takes no value")
            value = True
        elif not equals:
            value = next(words, None)
            if value is None:
                refuse(f"{name} needs a value")
        setattr(args, _dest(name, keywords), value)
    missing = [name for name, keywords in flags if keywords.get("required") and name not in given]
    if missing:
        refuse(f"{', '.join(missing)} {'is' if len(missing) == 1 else 'are'} required")
    return args


def _plain(obj):
    """The JSON value of a result object that `json` cannot write itself."""
    if type(obj) is NumericalClass:
        return obj.to_list()
    names = getattr(obj, "__match_args__", None)
    if names is None:
        # a rational, as "p/q"
        return str(obj)
    return {name: getattr(obj, name) for name in names}


def _dumps(payload: dict, pretty: bool) -> str:
    try:
        return json.dumps(payload, indent=2 if pretty else None, default=_plain)
    except ValueError as exc:
        # json.dumps raises no other ValueError here: an integer in the
        # result is past the interpreter's digit limit
        raise _DigitLimit(3, "the result") from exc


def _write(text: str, end: str = "\n") -> None:
    """Print `text` on stdout and flush it.

    A stdout closed at its far end, as by `| head`, exits 1 and writes
    nothing on standard error, as the "Note on SIGPIPE" in the `signal` docs
    shows.
    """
    try:
        print(text, end=end, flush=True)
    except BrokenPipeError:
        import os

        # the interpreter flushes stdout again at exit: let that write
        # nowhere.  An in-process stdout without an fd never gets here
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(1)


def _emit_error(code: int, message: str, pretty: bool) -> int:
    _write(_dumps({"ok": False, "error": {"kind": _KINDS[code], "message": message}}, pretty))
    return code


def main(argv: list[str] | None = None) -> int:
    args = _read(sys.argv[1:] if argv is None else argv)
    pretty = args.pretty
    try:
        result = args.handler(args)
        text = _dumps({"ok": True, "result": result}, pretty)
    except _DigitLimit as exc:
        command = " ".join(filter(None, (args.command, getattr(args, "action", None))))
        return _emit_error(exc.code, (
            f"{command}: {exc} holds an integer of more than {_MAX_INT_DIGITS} digits, "
            f"the most pencilforge reads or prints"), pretty)
    except CliError as exc:
        return _emit_error(exc.code, str(exc), pretty)
    except ValueError as exc:
        return _emit_error(3, str(exc), pretty)
    except (KeyError, TypeError) as exc:
        # well-formed JSON of the wrong shape
        return _emit_error(2, f"malformed input: {exc!r}", pretty)
    _write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
