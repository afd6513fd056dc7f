"""Canonical (frozen) databases of conjunctive queries (Section 3.3).

The canonical database ``D_Q`` of a query ``Q`` is obtained by *freezing*
the query: each variable is replaced by a distinct fresh constant and each
body subgoal becomes a fact.  View tuples are computed by evaluating the
view definitions on ``D_Q`` and *thawing* the frozen constants back to the
original variables.

Frozen constants are :class:`Constant` objects wrapping a private
:class:`FrozenMarker`, so they can never collide with genuine constants of
the query or views.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..datalog.atoms import Atom
from ..datalog.query import ConjunctiveQuery
from ..datalog.substitution import Substitution
from ..datalog.terms import Constant, Term, Variable


@dataclass(frozen=True, slots=True)
class FrozenMarker:
    """The payload of a frozen constant: remembers the original variable."""

    variable_name: str

    def __str__(self) -> str:
        return f"~{self.variable_name}"

    def __repr__(self) -> str:
        return f"FrozenMarker({self.variable_name!r})"


def freeze_variable(variable: Variable) -> Constant:
    """The frozen constant standing for *variable* in a canonical database."""
    return Constant(FrozenMarker(variable.name))


def is_frozen(term: Term) -> bool:
    """Whether *term* is a frozen constant produced by :func:`freeze_variable`."""
    return isinstance(term, Constant) and isinstance(term.value, FrozenMarker)


def thaw_term(term: Term) -> Term:
    """Map a frozen constant back to its variable; other terms unchanged."""
    if is_frozen(term):
        return Variable(term.value.variable_name)
    return term


def thaw_atom(atom: Atom) -> Atom:
    """Thaw every argument of *atom*."""
    return Atom(atom.predicate, tuple(thaw_term(arg) for arg in atom.args))


@dataclass(frozen=True)
class CanonicalDatabase:
    """The canonical database of a query, with its freezing map.

    ``facts`` are the frozen body atoms (fully ground).  ``frozen_head``
    is the frozen head atom, used by the canonical-database containment
    test: ``Q1 ⊑ Q2`` iff evaluating ``Q2`` over ``D_{Q1}`` produces
    ``Q1``'s frozen head tuple.
    """

    query: ConjunctiveQuery
    facts: tuple[Atom, ...]
    frozen_head: Atom
    freezing: Substitution

    @cached_property
    def subgoals(self) -> dict[tuple[str, tuple[object, ...]], tuple[int, ...]]:
        """Each fact as ``(predicate, argument values)`` -> the indices of
        the query subgoals it freezes, in body order.

        A fact maps to several indices when the query repeats a subgoal.
        Built on first use, so once per canonical database.
        """
        subgoals: dict[tuple[str, tuple[object, ...]], tuple[int, ...]] = {}
        for index, fact in enumerate(self.facts):
            key = (fact.predicate, tuple([arg.value for arg in fact.args]))
            subgoals[key] = subgoals.get(key, ()) + (index,)
        return subgoals

    def thaw_fact(self, atom: Atom) -> Atom:
        """Thaw a fact (or any atom over frozen constants) back to Q-terms."""
        return thaw_atom(atom)


def canonical_database(query: ConjunctiveQuery) -> CanonicalDatabase:
    """Freeze *query* into its canonical database (Section 3.3).

    Every variable (distinguished or not) is replaced by a distinct frozen
    constant; genuine constants are kept as-is.
    """
    freezing = Substitution(
        {
            variable: freeze_variable(variable)
            for variable in sorted(query.variables(), key=lambda v: v.name)
        }
    )
    frozen = query.apply(freezing)
    return CanonicalDatabase(
        query=query,
        facts=frozen.body,
        frozen_head=frozen.head,
        freezing=freezing,
    )
