"""Combinatorial skeleton of the partition of partial flag varieties into
Frobenius-stable pieces: Weyl groups, twisted conjugation, stabilizing
sequences, closure posets, and exhaustive brute-force verification.

`import flagpieces` loads no submodule: each public name is imported from
the module that defines it on first use (a module `__getattr__`, PEP 562),
so a command loads only the modules it runs. `flagpieces.oracle`, the
verification suite, resolves the same way.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_HOMES = {
    "CartanDatum": "rootsys",
    "CartanError": "rootsys",
    "Root": "rootsys",
    "RootSystem": "rootsys",
    "build_root_system": "rootsys",
    "root_system": "rootsys",
    "standard_cartan_matrix": "rootsys",
    "DEFAULT_MAX_ELEMENTS": "rootsys",
    "GroupTooLargeError": "rootsys",
    "format_subset": "rootsys",
    "parse_subset": "rootsys",
    "AutomorphismError": "rootsys",
    "DiagramAutomorphism": "rootsys",
    "WeylElement": "weyl",
    "WeylGroup": "weyl",
    "weyl_group": "weyl",
    "word_str": "weyl",
    "Reduction": "twist",
    "TwistClass": "twist",
    "TwistedConjugation": "twist",
    "TwistedOrbit": "twist",
    "delta_on_element": "twist",
    "stable_support": "twist",
    "support": "twist",
    "ClosurePoset": "pieces",
    "PieceRecord": "pieces",
    "RootInclusionReport": "pieces",
    "SequenceError": "pieces",
    "TwistedSequence": "pieces",
    "closure_poset": "pieces",
    "parabolic_restriction_type": "pieces",
    "piece_closure": "pieces",
    "piece_records": "pieces",
    "sequence_for": "pieces",
    "sequence_root_inclusions": "pieces",
    "sequence_to_label": "pieces",
    "simple_image_subset": "pieces",
    "twisted_leq": "pieces",
    "validate_sequence": "pieces",
    "oracle": "oracle",  # the module itself
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib  # `from . import` would recurse through hasattr

    module = importlib.import_module(f".{home}", __name__)
    value = globals()[name] = module if name == home else getattr(module, name)
    return value
