"""Containment substrate: homomorphisms, Chandra-Merlin tests, minimization."""

from .canonical import (
    CanonicalDatabase,
    FrozenMarker,
    canonical_database,
    freeze_variable,
    is_frozen,
    thaw_atom,
    thaw_term,
)
from .containment import (
    IncompatibleQueriesError,
    containment_mapping,
    containment_mappings,
    head_unifier,
    is_contained_in,
    is_equivalent_to,
    is_properly_contained_in,
)
from .homomorphism import (
    find_homomorphism,
    find_homomorphisms,
    has_homomorphism,
    observe_searches,
    unify_atom,
)
from .minimize import core_size, is_minimal, minimize

__all__ = [
    "CanonicalDatabase",
    "FrozenMarker",
    "IncompatibleQueriesError",
    "canonical_database",
    "containment_mapping",
    "containment_mappings",
    "core_size",
    "find_homomorphism",
    "find_homomorphisms",
    "freeze_variable",
    "has_homomorphism",
    "head_unifier",
    "is_contained_in",
    "is_equivalent_to",
    "is_frozen",
    "is_minimal",
    "is_properly_contained_in",
    "minimize",
    "observe_searches",
    "thaw_atom",
    "thaw_term",
    "unify_atom",
]
