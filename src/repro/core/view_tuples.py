"""View tuples ``T(Q, V)`` (Section 3.3).

A view tuple is obtained by (i) freezing the (minimized) query into its
canonical database ``D_Q``, (ii) evaluating each view definition over
``D_Q``, and (iii) thawing each answer tuple's frozen constants back to
the query's variables.  By construction, any rewriting built from view
tuples admits a containment mapping from its expansion to the query
(Lemma 3.2), which is what lets CoreCover skip half of the equivalence
test.

For a view with no existential variable the join also yields the
tuple's tuple-core (Definition 4.1): the identity is then the only
possible mapping (Lemma 4.1), so the core is exactly the set of ``D_Q``
facts the view's body matched.  :func:`view_tuples` reads it off each
answer row and :func:`~repro.core.tuple_core.tuple_cores` takes it as
it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from ..containment.canonical import (
    CanonicalDatabase,
    FrozenMarker,
    canonical_database,
)
from ..datalog.atoms import Atom
from ..datalog.query import ConjunctiveQuery
from ..datalog.terms import Constant, FreshVariableFactory, Term, Variable
from ..engine.database import Database
from ..engine.evaluate import IndexCache, SlotForm
from ..testing.faults import fire
from ..views.view import View, ViewCatalog, ViewForms

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..planner.context import PlannerContext


@dataclass(frozen=True)
class ViewTuple:
    """One element of ``T(Q, V)``: a view atom over the query's terms.

    ``atom`` is the view predicate applied to query variables/constants,
    e.g. ``v1(M, anderson, C)`` in the car-loc-part example.

    ``join_core`` is ``(query, covered)`` when :func:`view_tuples` read
    the tuple's tuple-core off the join over *query*'s canonical
    database: the indices of the subgoals the view's body matched, for
    a view with no existential variable.  It answers for that query
    only, and takes no part in equality.
    """

    view: View
    atom: Atom
    join_core: tuple[ConjunctiveQuery, frozenset[int]] | None = field(
        default=None, compare=False, repr=False
    )

    def __str__(self) -> str:
        return str(self.atom)

    @property
    def name(self) -> str:
        """The underlying view's name."""
        return self.view.name

    def expansion(
        self, factory: FreshVariableFactory
    ) -> tuple[tuple[Atom, ...], frozenset[Variable]]:
        """The expansion ``t_v^exp`` and its set of fresh existential variables.

        Head variables of the view are substituted by the view tuple's
        arguments; existential variables become fresh variables drawn from
        *factory* in name order (Definition 2.2 applied to a single
        subgoal).  The rule is the view's
        :meth:`~repro.engine.evaluate.SlotForm.expansion`, the one the
        tuple-core search uses.
        """
        return SlotForm(self.view.definition).expansion(self.atom.args, factory)


def to_view_tuple_rewriting(
    rewriting: ConjunctiveQuery,
    query: ConjunctiveQuery,
    views: "ViewCatalog",
) -> ConjunctiveQuery | None:
    """The Lemma 3.2 transformation: rewrite *rewriting* over view tuples.

    Given any equivalent rewriting ``P``, there is a rewriting ``P'``
    whose subgoals are all view tuples, with ``P' ⊑ P``.  The
    construction follows the lemma's proof: take a containment mapping
    ``φ`` from ``P``'s expansion to the query (such a mapping witnesses
    ``Q ⊑ P^exp`` and always exists for equivalent rewritings) and
    replace every variable of ``P`` by its image, then drop duplicate
    subgoals.  The paper's example transforms P1 of car-loc-part into P2.

    When ``P`` is an equivalent rewriting the result is too; for a
    merely "containing" ``P`` (``Q ⊑ P^exp`` but not conversely) the
    transformation still applies but yields no equivalence guarantee.
    Returns ``None`` when ``Q ⋢ P^exp`` (no mapping exists at all).
    """
    from ..containment.containment import containment_mapping
    from ..views.expansion import expand

    expansion = expand(rewriting, views)
    mapping = containment_mapping(expansion, query)
    if mapping is None:
        return None
    transformed = rewriting.apply(mapping)
    return transformed.dedup_body()


#: One view's rows over a canonical database, in view-tuple order: each
#: thawed argument tuple with its covered subgoals, or ``None`` where the
#: join cannot tell them (see :func:`view_tuples`).
ViewRows = tuple[tuple[tuple[Term, ...], frozenset[int] | None], ...]


def _matched(
    form: SlotForm,
    row: tuple[object, ...],
    subgoals: dict[tuple[str, tuple[object, ...]], tuple[int, ...]],
) -> frozenset[int]:
    """The subgoals whose frozen facts *form*'s body matched on *row*.

    *row* holds the value of every slot (a form with no existential
    slot), so the body instantiated on it is the facts the join
    matched.  *subgoals* is the canonical database's
    :attr:`~repro.containment.canonical.CanonicalDatabase.subgoals`,
    read with ``.get``: a comparison atom of the view matched no fact,
    and finds a subgoal only where the query has the same comparison,
    as the tuple-core search's identity match would.
    """
    covered: list[int] = []
    for predicate, args in form.body:
        fact = tuple([row[arg] if type(arg) is int else arg.value for arg in args])
        covered.extend(subgoals.get((predicate, fact), ()))
    return frozenset(covered)


def _thaw_value(value: object) -> Term:
    if isinstance(value, FrozenMarker):
        return Variable(value.variable_name)
    return Constant(value)


def view_tuples(
    query: ConjunctiveQuery,
    views: ViewCatalog | Iterable[View],
    canonical: CanonicalDatabase | None = None,
    *,
    context: "PlannerContext | None" = None,
    forms: ViewForms | None = None,
) -> list[ViewTuple]:
    """Compute ``T(Q, V)`` for a (preferably minimized) query.

    The result is deterministic: tuples appear grouped by view in catalog
    order, then sorted by their rendered atom.

    Each view is evaluated by running its compiled
    :class:`~repro.engine.evaluate.SlotForm` over the canonical database.
    *forms* supplies the forms (a catalog's
    :attr:`~repro.views.view.ViewCatalog.view_forms`, which keeps each
    view's form across calls); without it the call compiles throwaway
    forms.

    When *canonical* really is the canonical database of *query*, each
    tuple of a view with no existential variable carries its tuple-core
    (:attr:`ViewTuple.join_core`): the subgoals whose frozen facts its
    body, instantiated on the answer row, matched.

    With a :class:`~repro.planner.context.PlannerContext`, the evaluation
    of each view definition over the canonical database (its rows and
    their cores) is memoized by (query, definition) — structurally
    duplicate views are evaluated once.  The cache is only consulted
    when *canonical* really is the canonical database of *query*.

    A view is evaluated only when every ``(predicate, arity)`` pair of
    its relational body has a fact in the canonical database.  A body
    atom whose pair has none matches nothing, so the view's answer is
    empty and skipping it changes nothing but the work done.  When
    *views* is a :class:`ViewCatalog`, its predicate-signature index
    first narrows the enumeration to the views sharing at least one
    body predicate with *query*.
    """
    if isinstance(views, ViewCatalog):
        views = views.relevant_views(query)
    if canonical is None:
        canonical = (
            context.canonical_database(query)
            if context is not None
            else canonical_database(query)
        )
    if forms is None:
        forms = ViewForms()
    database = Database.from_facts(canonical.facts)
    present = frozenset((fact.predicate, fact.arity) for fact in canonical.facts)
    own = canonical.query == query
    use_cache = context is not None and own
    # Shared by every view's join over this one database.
    indexes: IndexCache = {}
    # Frozen value -> (thawed term, rendered term).  A frozen constant
    # thaws to the query's own variable object.
    thawed: dict[object, tuple[Term, str]] = {
        frozen.value: (variable, variable.name)
        for variable, frozen in canonical.freezing.as_dict().items()
    }

    def thaw(value: object) -> tuple[Term, str]:
        term = _thaw_value(value)
        entry = thawed[value] = (term, str(term))
        return entry

    def rows_for(form: SlotForm) -> ViewRows:
        # Cores are read off only the query's own D_Q, and only for a
        # form whose answer rows hold every slot's value.
        subgoals = (
            canonical.subgoals
            if own and len(form.variables) == form.head_size
            else None
        )
        # Thawed argument tuple -> (its rendering, the sort key; its
        # core).  Sorting by the rendered argument tuple matches the
        # historical sort by str(atom): the view-name prefix is constant
        # per view.
        unique: dict[tuple[Term, ...], tuple[str, frozenset[int] | None]] = {}
        for row in form.answers(database, indexes):
            entries = [thawed.get(value) or thaw(value) for value in row]
            unique[tuple([term for term, _ in entries])] = (
                ", ".join([text for _, text in entries]),
                None if subgoals is None else _matched(form, row, subgoals),
            )
        ordered = sorted(unique.items(), key=lambda item: item[1][0])
        return tuple([(args, covered) for args, (_, covered) in ordered])

    tuples: list[ViewTuple] = []
    for view in views:
        if context is not None:
            context.checkpoint()  # cooperative cancellation per view
        if not view.predicate_signature() <= present:
            continue
        form = forms.form(view)
        if use_cache:
            rows = context.view_rows(query, form, lambda f=form: rows_for(f))
        else:
            rows = rows_for(form)
        for args, covered in rows:
            fire("enumeration")
            if context is not None:
                context.charge_view_tuple()
            tuples.append(
                ViewTuple(
                    view,
                    Atom(view.name, args),
                    None if covered is None else (query, covered),
                )
            )
    return tuples

