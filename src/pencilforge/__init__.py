"""Exact lattice arithmetic for rational elliptic surfaces.

The package mechanizes the integer bookkeeping behind rank-jump
constructions: intersection theory on the blow-up lattice of the plane at
nine points, quadratic Cremona reduction with replayable certificates,
construction and search of genus-zero pencils mapping two-to-one onto the
base, singular-fibre accounting under quadratic base change, and the
Mordell-Weil height pairing with exact local corrections.

Submodules load on first use: touching an exported name or a submodule
imports that submodule and binds all of its exports here at once, so a
command-line call pays only for the modules its subcommand needs.
"""

from importlib import import_module

__version__ = "0.1.0"

# export name -> submodule that defines it
_EXPORTS = {
    "BranchLocus": "base_change",
    "FibreConfiguration": "base_change",
    "FibreProductKind": "base_change",
    "KodairaFibre": "base_change",
    "SurfaceClass": "base_change",
    "base_changed_configuration": "base_change",
    "classify_quadratic_base_change": "base_change",
    "euler_total": "base_change",
    "fibre_product_genus": "base_change",
    "transform_fibre": "base_change",
    "CremonaStep": "cremona",
    "ReductionCertificate": "cremona",
    "is_connected_class": "cremona",
    "quadratic_transform": "cremona",
    "reduce_to_line": "cremona",
    "KummerInputs": "heights",
    "SectionIntersections": "heights",
    "contribution": "heights",
    "enumerate_section_classes": "heights",
    "height_pairing": "heights",
    "kummer_bound": "heights",
    "multiplication_pullback_degree": "heights",
    "OrbitStructure": "pencils",
    "PencilReport": "pencils",
    "PencilSpec": "pencils",
    "Unsupported": "pencils",
    "construct_pencils": "pencils",
    "search_pencils": "pencils",
    "to_numerical_class": "pencils",
    "verify": "pencils",
    "CANONICAL": "picard_lattice",
    "FIBRE": "picard_lattice",
    "LINE": "picard_lattice",
    "NumericalClass": "picard_lattice",
    "arithmetic_genus": "picard_lattice",
    "degree_to_base": "picard_lattice",
    "exceptional": "picard_lattice",
    "intersect": "picard_lattice",
    "mw_rank_bound": "picard_lattice",
    "unirationality_check": "picard_lattice",
}
# submodules whose exports are not bound yet
_UNBOUND = set(_EXPORTS.values())

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    # PEP 562: runs only for names not yet in the module's globals.  It
    # imports the submodule asked for, then binds at once the exports of
    # every submodule loaded so far, its imports included.  Later lookups
    # are plain dict hits, and each export stays the object its submodule
    # held at that moment, whichever name was asked for.
    submodule = _EXPORTS.get(name, name)
    if submodule not in _UNBOUND:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import_module(f"{__name__}.{submodule}")
    namespace = globals()
    # the import system binds each loaded submodule as an attribute here
    for loaded in [m for m in _UNBOUND if m in namespace]:
        for export, owner in _EXPORTS.items():
            if owner == loaded:
                namespace[export] = getattr(namespace[loaded], export)
        _UNBOUND.discard(loaded)
    if not _UNBOUND:
        # CPython does not specialize `pencilforge.X` loads while the module
        # defines __getattr__ (about 25 ns more per lookup); with every
        # export bound it has nothing left to do
        namespace.pop("__getattr__", None)
    return namespace[name]


def __dir__() -> list[str]:
    return sorted(globals().keys() | _EXPORTS.keys())
