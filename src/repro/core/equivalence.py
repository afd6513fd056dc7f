"""Equivalence classes of views and view tuples (Section 5.2).

The paper's concise representation partitions

* the **views** into classes of queries equivalent *as queries* (view V1
  and V5 of the car-loc-part example), so CoreCover only processes one
  representative per class; and
* the **view tuples** into classes with identical tuple-cores (same set
  of covered query subgoals), so the cover search is bounded by the number
  of query subgoals, independent of the number of views.

Both partitions use cheap structural invariants as a pre-filter before the
quadratic pairwise equivalence tests (the paper notes this up-front cost
"paid off later when the number of views was more than 100").

The view classes depend only on the catalog, so a
:class:`~repro.views.view.ViewCatalog` keeps them in its
:class:`~repro.views.view.ViewClassMemo`: CoreCover's grouping stage
classifies each view once per catalog rather than once per query, and
reads a query's classes off one class table per catalog version.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..containment.containment import is_equivalent_to
from ..containment.minimize import minimize
from ..datalog.atoms import interned_atom
from ..datalog.query import ConjunctiveQuery
from ..planner.context import CacheCounter, PlannerContext
from ..views.view import View, ViewCatalog, ViewClassMemo
from .tuple_core import TupleCore

#: Head predicate used to compare view definitions regardless of view name.
_NEUTRAL_HEAD = "__view_cmp__"


def neutral_definition(view: View) -> ConjunctiveQuery:
    """*view*'s definition under a head predicate shared by every view.

    Grouping and the lint and audit rules compare definitions through
    it, so they ask a shared context the same questions.
    """
    # The interned head is one object per head-argument tuple, so a
    # context's interner keys it by identity on every later call.
    definition = view.definition
    return ConjunctiveQuery(
        interned_atom(_NEUTRAL_HEAD, definition.head.args), definition.body
    )


def group_equivalent_views(
    views: Iterable[View] | ViewCatalog,
    context: PlannerContext | None = None,
    memo: ViewClassMemo | None = None,
    *,
    relevant_to: ConjunctiveQuery | None = None,
) -> list[Sequence[View]]:
    """Partition views into classes equivalent as queries.

    Two views are compared by their definitions with the head predicate
    neutralized (V1 and V5 have different names but the same definition).
    A view is classified once: its definition is minimized, bucketed by
    structural signature, and compared only against one anchor definition
    per class in its bucket.  The labels live in *memo*; pass a catalog's
    :attr:`~repro.views.view.ViewCatalog.class_memo` and later calls
    answer its already-classified views by lookup.  Without one, and
    always under a ``caching=False`` context, a throwaway memo makes
    this the plain per-call computation.

    The class list is rebuilt from the labels in the per-call order
    either way: buckets by first-seen signature, classes by first-seen
    member, members (so the representative, ``members[0]``) in input
    order.  The classes of a subset of views are the catalog's classes
    restricted to it, so a partially filled memo changes only how much
    work this call does, never its answer.

    With *relevant_to*, *views* is a :class:`~repro.views.view.ViewCatalog`
    and the call groups ``views.relevant_views(relevant_to)``.  When
    *memo* is that catalog's own, the classes are read off its class
    table (:meth:`~repro.views.view.ViewClassMemo.relevant_classes`)
    instead of being rebuilt view by view; the answer is the same, with
    each class as the table's own tuple rather than a fresh list.

    With a :class:`PlannerContext`, minimization and the equivalence
    tests are memoized on structural keys, and its ``view_class`` counter
    records each view as a hit (labelled before this call) or a miss.
    """
    if memo is None or (context is not None and not context.caching):
        memo = ViewClassMemo()
    minimize_fn = context.minimize if context is not None else minimize
    equivalent = (
        context.is_equivalent_to if context is not None else is_equivalent_to
    )
    counter = (
        context.counters["view_class"] if context is not None else CacheCounter()
    )

    def minimized(view: View) -> ConjunctiveQuery:
        return minimize_fn(neutral_definition(view))

    if relevant_to is not None:
        if memo is views.class_memo:
            return memo.relevant_classes(
                views, relevant_to, minimized, equivalent, counter
            )
        views = views.relevant_views(relevant_to)
    return memo.group(views, minimized, equivalent, counter)


def view_representatives(
    views: Iterable[View], context: PlannerContext | None = None
) -> list[View]:
    """One representative view per equivalence class, in stable order."""
    return [members[0] for members in group_equivalent_views(views, context)]


def group_cores_by_coverage(
    cores: Sequence[TupleCore],
) -> dict[frozenset[int], list[TupleCore]]:
    """Partition tuple-cores by the set of query subgoals they cover.

    All view tuples in one class are interchangeable in a cover, which is
    the paper's advantage (4): the optimizer may later swap a view tuple
    for a classmate (e.g. a smaller materialized relation) and still have
    a rewriting.
    """
    groups: dict[frozenset[int], list[TupleCore]] = {}
    for core in cores:
        groups.setdefault(core.covered, []).append(core)
    return groups


def core_representatives(cores: Sequence[TupleCore]) -> list[TupleCore]:
    """One representative tuple-core per coverage class (nonempty first)."""
    return class_representatives(group_cores_by_coverage(cores))


def class_representatives(
    groups: Mapping[frozenset[int], Sequence[TupleCore]],
) -> list[TupleCore]:
    """The first core of each coverage class of *groups*: classes that
    cover more subgoals first, ties by their sorted subgoals."""
    ordered = sorted(
        groups.items(), key=lambda item: (-len(item[0]), sorted(item[0]))
    )
    return [members[0] for _, members in ordered]


def maximal_coverage_count(coverage: Iterable[frozenset[int]]) -> int:
    """How many distinct nonempty sets of *coverage* no other set
    strictly contains: the maximal tuple classes of Figures 7(b)/9(b).

    The sets are scanned largest first against the maximal sets found
    so far.  A strict superset is larger, so it is scanned earlier, and
    a set below a non-maximal set is below the maximal set above that
    one, so the maximal sets found so far are the only ones to test.
    """
    maximal: list[frozenset[int]] = []
    for covered in sorted(coverage, key=len, reverse=True):
        if covered and not any(covered <= other for other in maximal):
            maximal.append(covered)
    return len(maximal)
