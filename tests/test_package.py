import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pencilforge

SRC = Path(pencilforge.__file__).resolve().parents[1]

PUBLIC_API = [
    "BranchLocus", "CANONICAL", "CremonaStep", "FIBRE", "FibreConfiguration", "FibreProductKind",
    "KodairaFibre", "KummerInputs", "LINE", "NumericalClass", "OrbitStructure", "PencilReport",
    "PencilSpec", "ReductionCertificate", "SectionIntersections",
    "SurfaceClass", "Unsupported", "arithmetic_genus", "base_changed_configuration",
    "classify_quadratic_base_change", "construct_pencils", "contribution",
    "degree_to_base", "enumerate_section_classes", "euler_total", "exceptional",
    "fibre_product_genus", "height_pairing", "intersect", "is_connected_class", "kummer_bound",
    "multiplication_pullback_degree", "mw_rank_bound", "quadratic_transform",
    "reduce_to_line", "search_pencils", "to_numerical_class",
    "transform_fibre", "unirationality_check", "verify",
]


def run_fresh(code):
    """Run `code` in a new `python -S` interpreter that sees only this source tree."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)


def test_public_api_is_unchanged():
    assert len(PUBLIC_API) == 40
    assert pencilforge.__all__ == PUBLIC_API


def test_each_export_is_its_submodules_object():
    for name in pencilforge.__all__:
        owner = importlib.import_module(f"pencilforge.{pencilforge._EXPORTS[name]}")
        assert getattr(pencilforge, name) is getattr(owner, name), name
    # with every export bound the hook is gone, so that CPython specializes
    # `pencilforge.X` loads again
    assert "__getattr__" not in vars(pencilforge)


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from pencilforge import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_API
    assert set(PUBLIC_API) <= set(dir(pencilforge))


def test_unknown_names_raise_attribute_error():
    for name in ("no_such_name", "cli_main", "_EXPORTS_", "__wrapped__"):
        with pytest.raises(AttributeError):
            getattr(pencilforge, name)
    with pytest.raises(ImportError):
        exec("from pencilforge import no_such_name", {})


def test_submodules_load_on_first_touch():
    code = (
        "import sys, pencilforge\n"
        "assert 'pencilforge.heights' not in sys.modules\n"
        "print(pencilforge.heights.kummer_bound is pencilforge.kummer_bound)\n"
        "print(pencilforge.__version__)\n"
    )
    done = run_fresh(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "0.1.0"]


def test_cli_import_loads_only_its_own_modules():
    code = (
        "import sys\n"
        "import pencilforge.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('pencilforge')))\n"
        "print('typing' in sys.modules, 'fractions' in sys.modules, 'argparse' in sys.modules)\n"
        "pencilforge.cli.main(['class', '--class', '[1,1,0,0,0,0,0,0,0,0]'])\n"
        "print(sorted(m for m in sys.modules if m.startswith('pencilforge')), 'argparse' in sys.modules)\n"
        "pencilforge.cli.main(['cremona', '--class', '[1,1,0,0,0,0,0,0,0,0]'])\n"
        "print(sorted(m for m in sys.modules if m.startswith('pencilforge')), 'argparse' in sys.modules)\n"
    )
    done = run_fresh(code)
    assert done.returncode == 0, done.stderr
    loaded, stdlib, envelope, after_class, _, after_cremona = done.stdout.splitlines()
    own = "['pencilforge', 'pencilforge.cli', 'pencilforge.picard_lattice']"
    assert loaded == own
    assert stdlib == "False False False"
    assert envelope == '{"ok": true, "result": {"genus": 0, "degree_to_base": 2, "self_int": 0}}'
    assert after_class == own + " False"
    assert after_cremona == (
        "['pencilforge', 'pencilforge.cli', 'pencilforge.cremona', 'pencilforge.picard_lattice'] False")


def test_only_help_loads_argparse():
    code = (
        "import sys\n"
        "import pencilforge.cli\n"
        "try:\n"
        "    pencilforge.cli.main(['no-such-command'])\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, 'argparse' in sys.modules)\n"
        "try:\n"
        "    pencilforge.cli.main(['cremona', '--help'])\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, 'argparse' in sys.modules)\n"
    )
    done = run_fresh(code)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[1] == "2 False" and lines[-1] == "0 True"
    assert "step budget (default 64)" in done.stdout


def test_submodule_import_binds_its_exports_first():
    # the name bound in the package must be the submodule's object at the
    # moment of the first touch, even if the submodule rebinds it later
    code = (
        "import pencilforge\n"
        "from pencilforge import pencils\n"
        "original = pencils.search_pencils\n"
        "pencils.search_pencils = None\n"
        "print(pencilforge.search_pencils is original)\n"
        "pencils.search_pencils = original\n"
        "print(pencilforge.search_pencils is pencils.search_pencils)\n"
    )
    done = run_fresh(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "True"]


# one well-formed request for each of the CLI's 11 leaves
LEAF_REQUESTS = [
    ["class", "--class", "[1,1,0,0,0,0,0,0,0,0]"],
    ["cremona", "--class", "[6,2,2,2,2,4,1,1,1,1]"],
    ["pencil", "construct", "--model", "plane", "--orbits", '{"orbit_sizes": [1, 2, 2, 4]}'],
    ["pencil", "search", "--model", "plane", "--orbits", '{"orbit_sizes": [1, 1, 1]}', "--n-max", "2"],
    ["pencil", "verify", "--spec", '{"model": "plane", "level": 1, "mults": [1]}'],
    ["basechange", "classify", "--config", '{"I0*": 1, "I1": 6}', "--branch", "v0,v1"],
    ["basechange", "transform", "--type", "I3", "--ramified"],
    ["height", "pair", "--data", '{"PO": 0, "QO": 0, "PQ": 0, "components": [[1, 1]]}', "--fibres", '["I2"]'],
    ["height", "contrib", "--type", "IV*", "--i", "1", "--j", "2"],
    ["sections", "enumerate", "--d-max", "1"],
    ["kummer", "bound", "--h", "3", "--f1", "2/3", "--c-e", "1/2", "--alpha", "2"],
]


def test_no_request_loads_dataclasses_or_inspect():
    # the records build their own methods, so no request loads `dataclasses`
    # or `inspect`; only an assignment to a record loads `dataclasses`, for
    # its FrozenInstanceError
    code = (
        "import sys\n"
        "from pencilforge import cli\n"
        f"for argv in {LEAF_REQUESTS!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.startswith('pencilforge')))\n"
        "print('dataclasses' in sys.modules, 'inspect' in sys.modules)\n"
    )
    done = run_fresh(code)
    assert done.returncode == 0, done.stderr
    *envelopes, loaded, stdlib = done.stdout.splitlines()
    assert len(envelopes) == 11 and all(line.startswith('{"ok": true') for line in envelopes)
    assert loaded == str(["pencilforge", *(f"pencilforge.{m}" for m in sorted(set(pencilforge._EXPORTS.values())
                                                                               | {"cli"}))])
    assert stdlib == "False False"


# the pencilforge submodules each of LEAF_REQUESTS loads, in its order
LEAF_MODULES = [
    ["cli", "picard_lattice"],
    ["cli", "cremona", "picard_lattice"],
    *[["cli", "pencils", "picard_lattice"]] * 3,
    *[["base_change", "cli", "picard_lattice"]] * 2,
    *[["base_change", "cli", "heights", "picard_lattice"]] * 4,
]


@pytest.mark.parametrize("argv,modules", zip(LEAF_REQUESTS, LEAF_MODULES),
                         ids=[" ".join(word for word in argv[:2] if word[0] != "-") for argv in LEAF_REQUESTS])
def test_each_leaf_loads_only_the_submodules_it_needs(argv, modules):
    # the CLI names the library as `pf.<export>`: the package hook loads the
    # submodule that `_EXPORTS` names, and nothing more
    code = (
        "import sys\n"
        "from pencilforge import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('pencilforge.')))\n"
    )
    done = run_fresh(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == str([f"pencilforge.{m}" for m in modules])


def test_the_benchmark_warm_up_loads_neither():
    symbols = ["I2", "I3", "I9", "III", "IV", "I0*", "I1*", "I4*", "IV*", "III*", "II*"]
    code = (
        "import sys\n"
        "import pencilforge as pf\n"
        f"for s in {symbols!r}:\n"
        "    pf.contribution(s, 1, 1)\n"
        "print('dataclasses' in sys.modules, 'inspect' in sys.modules)\n"
    )
    done = run_fresh(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False"]
