"""The CoreCover and CoreCover* algorithms (Sections 4 and 5).

``CoreCover`` (Figure 4) finds all globally-minimal rewritings (GMRs) of a
query — optimal under cost model M1:

1. minimize the query;
2. compute the view tuples ``T(Q, V)`` over the canonical database;
3. compute each view tuple's tuple-core;
4. cover the query subgoals with the minimum number of tuple-cores; each
   cover yields a GMR (Theorem 4.1 / Corollary 4.1).

``CoreCover*`` (Section 5.1) differs only in the last step: it enumerates
*all* irredundant covers, yielding all minimal rewritings using view
tuples — the search space guaranteed to contain an M2-optimal rewriting
(Theorem 5.1).  Empty-core view tuples are reported as candidate
*filtering subgoals* for the optimizer (rewriting P3 of the car-loc-part
example).

Both entry points accept ``group_views``/``group_tuples`` switches so the
Section 5.2 concise representation can be ablated, reproducing the
scalability argument of Section 7.

All stages run on a :class:`~repro.planner.context.PlannerContext`:
minimization, canonical databases, view evaluation, and tuple-cores are
memoized on interned structural keys, and the context's counters
(homomorphism searches, cache hits/misses) are reported through
:class:`CoreCoverStats`.  ``core_cover`` and ``core_cover_star`` are thin
shims over the :mod:`repro.planner.registry`; the implementation lives in
:func:`core_cover_impl`, which the ``corecover`` / ``corecover-star``
backends call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from ..datalog.query import ConjunctiveQuery
from ..errors import UnsupportedQueryError
from ..planner.context import PlannerContext
from ..profiling.phases import profile_from_stages
from ..views.view import (
    View,
    ViewCatalog,
    ViewForms,
    comparison_atoms,
    relational_pairs,
)
from .equivalence import (
    class_representatives,
    group_cores_by_coverage,
    group_equivalent_views,
    maximal_coverage_count,
)
from .set_cover import irredundant_covers, minimum_covers
from .tuple_core import TupleCore, tuple_cores
from .view_tuples import ViewTuple, view_tuples


@dataclass(frozen=True)
class CoreCoverStats:
    """Instrumentation matching the quantities plotted in Figures 6-9.

    The planner-level fields (``hom_searches`` onward) report this run's
    deltas on the :class:`PlannerContext`: how many homomorphism and
    tuple-core searches actually ran, and how often the memoization layer
    answered instead.
    """

    total_views: int
    view_classes: int
    total_view_tuples: int
    view_tuple_classes: int
    #: Coverage classes not strictly contained in another class — the
    #: small family the paper's "bounded by the number of query subgoals"
    #: argument refers to (Section 5.2, advantage (2)).
    maximal_tuple_classes: int
    nonempty_cores: int
    elapsed_seconds: float
    #: Views surviving the predicate-signature prune — the only ones the
    #: grouping and view-tuple stages ever enumerated.  Equals
    #: ``total_views`` when pruning is disabled (``prune_views=False``);
    #: ``-1`` for stats built before pruning existed.
    touched_views: int = -1
    #: Whether the run's PlannerContext had memoization enabled.
    caching_enabled: bool = True
    #: Homomorphism searches actually performed during this run.
    hom_searches: int = 0
    #: Tuple-core backtracking searches actually performed.  Only views
    #: with existential variables are searched: the other cores are read
    #: off the view-tuple join.
    core_searches: int = 0
    #: Cache hits/misses summed over all planner caches, for this run.
    cache_hits: int = 0
    cache_misses: int = 0
    #: ``(canonical phase, seconds)`` in taxonomy order (see
    #: :mod:`repro.profiling.phases`); empty for stats built elsewhere.
    phase_seconds: tuple[tuple[str, float], ...] = ()
    #: Whether the run executed under the acyclic fast path (``plan()``
    #: routing; always ``False`` for direct ``core_cover_impl`` calls).
    acyclic_fast_path: bool = False
    #: Depth of the minimized query's join tree (nodes on the longest
    #: root-to-leaf path); ``-1`` when no tree was built (general path,
    #: or a minimized core that turned out cyclic).
    join_tree_depth: int = -1
    #: Homomorphism-search work units expanded during this run.
    hom_nodes: int = 0
    #: Searches the router actually guided (0 on the general path).
    fast_path_searches: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of cache lookups served from cache (0.0 when unused)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def touched_views_ratio(self) -> float:
        """Fraction of the catalog the planner actually enumerated.

        1.0 for an empty catalog or for stats predating the prune — the
        conservative reading ("everything was touched").
        """
        if self.touched_views < 0 or not self.total_views:
            return 1.0
        return self.touched_views / self.total_views


@dataclass(frozen=True)
class CoreCoverResult:
    """Everything CoreCover computed on the way to its rewritings."""

    query: ConjunctiveQuery
    minimized_query: ConjunctiveQuery
    view_tuples: tuple[ViewTuple, ...]
    cores: tuple[TupleCore, ...]
    rewritings: tuple[ConjunctiveQuery, ...]
    filter_candidates: tuple[ViewTuple, ...]
    stats: CoreCoverStats

    @property
    def has_rewriting(self) -> bool:
        """Whether the query has any equivalent rewriting using the views."""
        return bool(self.rewritings)

    def minimum_subgoals(self) -> int | None:
        """Number of subgoals of a GMR, or ``None`` without rewritings."""
        if not self.rewritings:
            return None
        return min(len(rewriting.body) for rewriting in self.rewritings)


def core_cover(
    query: ConjunctiveQuery,
    views: ViewCatalog | Sequence[View],
    group_views: bool = True,
    group_tuples: bool = True,
    *,
    prune_views: bool = True,
    acyclic_fast_path: bool = True,
    context: PlannerContext | None = None,
) -> CoreCoverResult:
    """All globally-minimal rewritings of *query* using *views* (M1-optimal).

    Thin shim over ``plan(query, views, backend="corecover")``.
    """
    from ..planner.registry import plan

    return plan(
        query,
        views,
        backend="corecover",
        context=context,
        acyclic_fast_path=acyclic_fast_path,
        group_views=group_views,
        group_tuples=group_tuples,
        prune_views=prune_views,
    ).details


def core_cover_star(
    query: ConjunctiveQuery,
    views: ViewCatalog | Sequence[View],
    group_views: bool = True,
    group_tuples: bool = True,
    max_rewritings: int | None = None,
    *,
    prune_views: bool = True,
    acyclic_fast_path: bool = True,
    context: PlannerContext | None = None,
) -> CoreCoverResult:
    """All minimal rewritings using view tuples (the M2 search space).

    Thin shim over ``plan(query, views, backend="corecover-star")``.
    """
    from ..planner.registry import plan

    return plan(
        query,
        views,
        backend="corecover-star",
        context=context,
        acyclic_fast_path=acyclic_fast_path,
        group_views=group_views,
        group_tuples=group_tuples,
        max_rewritings=max_rewritings,
        prune_views=prune_views,
    ).details


def core_cover_impl(
    query: ConjunctiveQuery,
    views: ViewCatalog | Sequence[View],
    *,
    all_minimal: bool = False,
    group_views: bool = True,
    group_tuples: bool = True,
    prune_views: bool = True,
    max_rewritings: int | None = None,
    context: PlannerContext | None = None,
) -> CoreCoverResult:
    """The CoreCover pipeline (registry backend entry point)."""
    ctx = context if context is not None else PlannerContext()
    before = ctx.snapshot()
    started = time.perf_counter()
    view_list = list(views)
    _reject_comparisons(query, views)

    # Step (1): minimize the query.
    with ctx.stage("minimize"):
        minimized = ctx.minimize(query)

    # Predicate-signature pruning: a view sharing no (predicate, arity)
    # pair with the minimized query has no answer over its canonical
    # database — no view tuple, no core, no place in any rewriting
    # (Section 3.3) — so neither the grouping hom searches nor the
    # view-tuple evaluation need ever touch it.
    with ctx.stage("grouping"):
        if group_views and prune_views and isinstance(views, ViewCatalog):
            # Section 5.2: group the relevant views into equivalence
            # classes, keep representatives.  A catalog keeps a table of
            # the classes it has computed, so only relevant views no
            # earlier call classified cost hom searches here, and the
            # rest is a filter over the table's rows.
            classes = group_equivalent_views(
                views, ctx, views.class_memo, relevant_to=minimized
            )
        else:
            # A catalog answers the prune from its index; a bare
            # sequence falls back to a signature scan.
            if not prune_views:
                touched = view_list
            elif isinstance(views, ViewCatalog):
                touched = list(views.relevant_views(minimized))
            else:
                pairs = relational_pairs(minimized)
                touched = [
                    view
                    for view in view_list
                    if not view.predicate_signature()
                    or view.predicate_signature() & pairs
                ]
            if group_views:
                classes = group_equivalent_views(
                    touched,
                    ctx,
                    views.class_memo if isinstance(views, ViewCatalog) else None,
                )
            else:
                # Ungrouped (the Section 7 ablation): one class per view.
                classes = [[view] for view in touched]
        representatives = [members[0] for members in classes]
        view_classes = len(classes)
        touched_views = sum(map(len, classes))

    # Each view's compiled form depends on its definition alone, so a
    # catalog keeps the forms across calls, as it keeps the classes; a
    # bare view sequence or an uncached context compiles throwaway ones.
    forms = (
        views.view_forms
        if isinstance(views, ViewCatalog) and ctx.caching
        else ViewForms()
    )

    # Step (2): view tuples over the canonical database.  The canonical-DB
    # construction is timed as its own stage so phase profiles can show
    # freezing separately from the (usually dominant) tuple enumeration.
    with ctx.stage("canonical_db"):
        canonical = ctx.canonical_database(minimized)
    with ctx.stage("view_tuples"):
        tuples = view_tuples(
            minimized, representatives, canonical, context=ctx, forms=forms
        )

    # Step (3): tuple-cores.
    with ctx.stage("tuple_cores"):
        cores = tuple_cores(minimized, tuples, context=ctx, forms=forms)

    # Section 5.2 again: group view tuples by coverage.
    coverage = group_cores_by_coverage(cores)
    working_cores = (
        class_representatives(coverage) if group_tuples else list(cores)
    )
    tuple_class_count = len(coverage)
    maximal_tuple_classes = maximal_coverage_count(coverage)

    nonempty = [core for core in working_cores if not core.is_empty]
    empty = [core.view_tuple for core in cores if core.is_empty]

    # Acyclicity is not hereditary, so the *minimized* query gets its
    # own join tree: its root-first traversal orders the set-cover
    # pivots so chosen tuple-cores grow along connected subtrees.
    # ``None`` (fast path off, or a cyclic core) keeps the numeric
    # pivot order; either way the covers found are identical.
    tree = ctx.join_tree(minimized) if ctx.acyclic_route else None
    pivot_order = tree.traversal() if tree is not None else None

    # Step (4): cover the query subgoals.
    with ctx.stage("cover"):
        ctx.checkpoint()
        universe = frozenset(range(len(minimized.body)))
        cover_inputs = [core.covered for core in nonempty]
        checkpoint = ctx.meter.checkpoint if ctx.meter is not None else None
        if all_minimal:
            # Irredundant covers are additive, so each one can be recorded
            # as a certified best-so-far rewriting the moment it is found
            # (view-tuple rewritings are equivalent by Theorem 5.1).
            # The enumeration reports each cover once, so the rewriting
            # built for it here is the one returned.
            built: dict[tuple[int, ...], ConjunctiveQuery] = {}

            def found(cover: tuple[int, ...]) -> None:
                rewriting = built[cover] = _build_rewriting(
                    minimized, [nonempty[i] for i in cover]
                )
                ctx.record_rewriting(rewriting, certified=True)

            # A capped enumeration keeps the default pivot order: which
            # covers exist before the cap depends on discovery order.
            covers = irredundant_covers(
                universe,
                cover_inputs,
                max_rewritings,
                checkpoint=checkpoint,
                on_cover=found,
                pivot_order=(
                    pivot_order if max_rewritings is None else None
                ),
            )
            rewritings = tuple(built[cover] for cover in covers)
        else:
            # Minimum covers are returned together, once the search has
            # proved their size minimum, so they are recorded then.
            covers = minimum_covers(
                universe,
                cover_inputs,
                checkpoint=checkpoint,
                pivot_order=pivot_order,
            )
            rewritings = tuple(
                _build_rewriting(minimized, [nonempty[i] for i in cover])
                for cover in covers
            )
            for rewriting in rewritings:
                ctx.record_rewriting(rewriting, certified=True)

    delta = ctx.snapshot().since(before)
    stats = CoreCoverStats(
        total_views=len(view_list),
        view_classes=view_classes,
        touched_views=touched_views,
        total_view_tuples=len(tuples),
        view_tuple_classes=tuple_class_count,
        maximal_tuple_classes=maximal_tuple_classes,
        nonempty_cores=len(nonempty),
        elapsed_seconds=time.perf_counter() - started,
        caching_enabled=delta.caching_enabled,
        hom_searches=delta.hom_searches,
        core_searches=delta.core_searches,
        cache_hits=delta.cache_hits,
        cache_misses=delta.cache_misses,
        phase_seconds=profile_from_stages(delta.stages).phases,
        acyclic_fast_path=ctx.acyclic_route,
        join_tree_depth=tree.depth if tree is not None else -1,
        hom_nodes=delta.hom_nodes,
        fast_path_searches=delta.fast_path_searches,
    )
    return CoreCoverResult(
        query=query,
        minimized_query=minimized,
        view_tuples=tuple(tuples),
        cores=tuple(cores),
        rewritings=rewritings,
        filter_candidates=tuple(empty),
        stats=stats,
    )


def _reject_comparisons(
    query: ConjunctiveQuery, views: ViewCatalog | Sequence[View]
) -> None:
    """CoreCover handles pure conjunctive queries (Section 2.1).

    Built-in comparison predicates make rewritings unions of CQs
    (Section 8); raising here beats silently reporting "no rewriting".
    A catalog answers from its cached comparison atoms; a bare view
    sequence is scanned.
    """
    offenders = [str(atom) for atom in query.body if atom.is_comparison]
    offenders.extend(
        views.comparison_atoms()
        if isinstance(views, ViewCatalog)
        else comparison_atoms(views)
    )
    if offenders:
        raise UnsupportedQueryError(
            "CoreCover supports pure conjunctive queries/views; found "
            f"comparison atoms: {', '.join(offenders)}. See "
            "repro.extensions for the Section 8 built-in-predicate support."
        )


def _build_rewriting(
    minimized: ConjunctiveQuery, chosen: Sequence[TupleCore]
) -> ConjunctiveQuery:
    """Combine the chosen view tuples into a rewriting (Theorem 4.1)."""
    body = tuple(core.view_tuple.atom for core in chosen)
    return ConjunctiveQuery(minimized.head, body)


def add_filter_subgoal(
    rewriting: ConjunctiveQuery, filter_tuple: ViewTuple
) -> ConjunctiveQuery:
    """Append an (empty-core) view tuple as a filtering subgoal.

    Under M2 this can lower the plan cost when the filter relation is
    selective (rewriting P3 vs. P2 in the car-loc-part example); the
    result is still an equivalent rewriting because the filter's expansion
    maps into the query.
    """
    return rewriting.with_body(rewriting.body + (filter_tuple.atom,))
