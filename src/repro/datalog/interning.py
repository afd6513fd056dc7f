"""Structural interning of atoms and queries.

The planner pipeline (:mod:`repro.planner`) memoizes expensive results —
homomorphism existence, containment, minimization, canonical databases,
tuple-cores — across stages.  Those caches need *cheap, stable* keys for
atoms and queries.  This module provides an :class:`InternTable` that maps
structurally-equal atoms and queries to small integers:

* the first time an atom or query is seen its structure is hashed once and
  a fresh integer key is allocated;
* later lookups of the *same object* hit an identity fast path and never
  re-hash the structure;
* lookups of a *structurally equal but distinct* object resolve to the
  same key, which is what makes cross-stage and cross-candidate caching
  effective (e.g. 500 random views frequently contain only ~250 distinct
  definitions — see the Figure 6/7 workloads).

Keys are only meaningful within one table (one
:class:`~repro.planner.context.PlannerContext`); they are never
serialized.  Interning is purely syntactic: two queries equal up to
variable *renaming* get different keys, which is always sound (a cache
miss, never a wrong hit).
"""

from __future__ import annotations

from itertools import count
from typing import Hashable, Iterable, Sequence

from .atoms import Atom
from .query import ConjunctiveQuery

__all__ = ["InternTable"]


class InternTable:
    """Maps structurally-equal atoms/queries to small integer keys.

    The table keeps a strong reference to every object it has interned so
    the ``id()``-based fast path can never be fooled by address reuse.
    Tables are intended to live as long as one planning session.
    """

    __slots__ = (
        "_counter",
        "_atom_keys",
        "_atom_by_identity",
        "_query_structs",
        "_query_by_identity",
        "_keepalive",
    )

    def __init__(self) -> None:
        self._counter = count()
        self._atom_keys: dict[Atom, int] = {}
        self._atom_by_identity: dict[int, int] = {}
        self._query_structs: dict[tuple, int] = {}
        self._query_by_identity: dict[int, int] = {}
        self._keepalive: list[object] = []

    # -- atoms ---------------------------------------------------------------
    def atom_key(self, atom: Atom) -> int:
        """The interned key of *atom* (equal atoms share a key)."""
        key = self._atom_by_identity.get(id(atom))
        if key is not None:
            return key
        key = self._atom_keys.get(atom)
        if key is None:
            key = next(self._counter)
            self._atom_keys[atom] = key
        self._atom_by_identity[id(atom)] = key
        self._keepalive.append(atom)
        return key

    def atoms_key(self, atoms: Sequence[Atom] | Iterable[Atom]) -> tuple[int, ...]:
        """A composite key for an ordered collection of atoms."""
        return tuple(self.atom_key(atom) for atom in atoms)

    # -- queries -------------------------------------------------------------
    def query_key(self, query: ConjunctiveQuery) -> int:
        """The interned key of *query* (structurally equal queries share it)."""
        key = self._query_by_identity.get(id(query))
        if key is not None:
            return key
        struct = (self.atom_key(query.head), self.atoms_key(query.body))
        key = self._query_structs.get(struct)
        if key is None:
            key = next(self._counter)
            self._query_structs[struct] = key
        self._query_by_identity[id(query)] = key
        self._keepalive.append(query)
        return key

    # -- ad-hoc composite keys ----------------------------------------------
    def composite_key(self, *parts: Hashable) -> tuple[Hashable, ...]:
        """Combine already-interned keys (or other hashables) into one key."""
        return parts

    # -- introspection -------------------------------------------------------
    @property
    def distinct_atoms(self) -> int:
        """Number of distinct atom structures interned so far."""
        return len(self._atom_keys)

    @property
    def distinct_queries(self) -> int:
        """Number of distinct query structures interned so far."""
        return len(self._query_structs)

    def __len__(self) -> int:
        return self.distinct_atoms + self.distinct_queries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InternTable(atoms={self.distinct_atoms}, "
            f"queries={self.distinct_queries})"
        )
