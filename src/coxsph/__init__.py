"""Spherical elements of finite Coxeter groups and split-symmetric key expansions."""

from .coxeter import (
    CartanType,
    ComponentDecomposition,
    CoxeterError,
    CoxeterSystem,
    Element,
    coxeter_system,
)
from .words import (
    bruhat_leq,
    evaluate,
    format_word,
    parse_word,
    reduced_word_count,
    reduced_words,
)
from .spherical import (
    WitnessCertificate,
    WitnessSearcher,
    dihedral_classification,
    find_witness,
    is_I_spherical,
    is_maximally_spherical,
    nonspherical_census,
    verify_witness,
    w0_sphericality_closed_form,
)

__version__ = "0.1.0"

__all__ = [
    "CartanType",
    "ComponentDecomposition",
    "CoxeterError",
    "CoxeterSystem",
    "Element",
    "WitnessCertificate",
    "WitnessSearcher",
    "bruhat_leq",
    "coxeter_system",
    "dihedral_classification",
    "evaluate",
    "find_witness",
    "format_word",
    "is_I_spherical",
    "is_maximally_spherical",
    "nonspherical_census",
    "parse_word",
    "reduced_word_count",
    "reduced_words",
    "verify_witness",
    "w0_sphericality_closed_form",
]
