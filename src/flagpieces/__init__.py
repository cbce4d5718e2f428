"""Combinatorial skeleton of the partition of partial flag varieties into
Frobenius-stable pieces: Weyl groups, twisted conjugation, stabilizing
sequences, closure posets, and exhaustive brute-force verification.

The verification suite, `flagpieces.oracle`, is imported on first use (a
module `__getattr__`, PEP 562), so commands that do not verify never load it.
"""

from .rootsys import (
    CartanDatum,
    CartanError,
    Root,
    RootSystem,
    build_root_system,
    root_system,
    standard_cartan_matrix,
)
from .weyl import (
    DEFAULT_MAX_ELEMENTS,
    GroupTooLargeError,
    WeylElement,
    WeylGroup,
    format_subset,
    parse_subset,
    parse_word,
    weyl_group,
    word_str,
)
from .twist import (
    AutomorphismError,
    DiagramAutomorphism,
    Reduction,
    TwistClass,
    TwistedConjugation,
    TwistedOrbit,
    delta_on_element,
    stable_support,
    support,
)
from .pieces import (
    ClosurePoset,
    CriterionNotApplicable,
    PieceRecord,
    RootInclusionReport,
    SequenceError,
    TwistedSequence,
    closure_poset,
    is_irreducible,
    parabolic_restriction_type,
    piece_closure,
    piece_records,
    sequence_for,
    sequence_root_inclusions,
    sequence_to_label,
    simple_image_subset,
    twisted_leq,
    validate_sequence,
)

__version__ = "0.1.0"

__all__ = [
    "CartanDatum",
    "CartanError",
    "Root",
    "RootSystem",
    "build_root_system",
    "root_system",
    "standard_cartan_matrix",
    "DEFAULT_MAX_ELEMENTS",
    "GroupTooLargeError",
    "WeylElement",
    "WeylGroup",
    "format_subset",
    "parse_subset",
    "parse_word",
    "weyl_group",
    "word_str",
    "AutomorphismError",
    "DiagramAutomorphism",
    "Reduction",
    "TwistClass",
    "TwistedConjugation",
    "TwistedOrbit",
    "delta_on_element",
    "stable_support",
    "support",
    "ClosurePoset",
    "CriterionNotApplicable",
    "PieceRecord",
    "RootInclusionReport",
    "SequenceError",
    "TwistedSequence",
    "closure_poset",
    "is_irreducible",
    "parabolic_restriction_type",
    "piece_closure",
    "piece_records",
    "sequence_for",
    "sequence_root_inclusions",
    "sequence_to_label",
    "simple_image_subset",
    "twisted_leq",
    "validate_sequence",
    "oracle",
    "__version__",
]


def __getattr__(name: str):
    if name == "oracle":  # `from . import oracle` would recurse through hasattr
        import importlib

        return importlib.import_module(".oracle", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
