"""Semantic analysis rules: R101-R104.

These rules reuse the paper's machinery through the shared
:class:`~repro.planner.context.PlannerContext` — memoized containment for
redundant-view detection (Section 5.2's motivation), the canonical
database and view tuples for provably-unusable views (Section 3.3), and
core computation for non-minimal queries (Lemma 4.2) — so an
``analyze()`` followed by a ``plan()`` on the same context pays for the
shared homomorphism searches once.

Queries or views containing built-in comparison atoms fall outside the
Chandra-Merlin fragment those helpers accept; the rules simply skip the
affected inputs (the engine also downgrades a rule-level
:class:`~repro.errors.UnsupportedQueryError` to "rule skipped").
"""

from __future__ import annotations

from typing import Iterator

from ..core.equivalence import neutral_definition as _marker_definition
from ..datalog.query import ConjunctiveQuery
from .diagnostics import Diagnostic, Severity
from .inputs import AnalysisInput
from .registry import AnalysisRule, register_rule

__all__ = [
    "RULE_ACYCLIC_ROUTING",
    "RULE_CONFIG_CONFLICT",
    "RULE_EMPTY_VIEW_TUPLES",
    "RULE_NON_MINIMAL_QUERY",
    "RULE_REDUNDANT_VIEW",
]

def _has_comparisons(rule: ConjunctiveQuery) -> bool:
    return any(atom.is_comparison for atom in rule.body)


# -- R101: containment-equivalent (redundant) views --------------------------


def _check_redundant_views(inputs: AnalysisInput) -> Iterator[Diagnostic]:
    context = inputs.context
    # Signature pre-partition (Section 5.2): equivalent *minimized*
    # definitions share a signature, so only views in one bucket are
    # compared.  The minimizations and tests are the planner's grouping
    # ones, so a plan() on the same context reuses them.
    groups: dict[tuple, list] = {}
    for view in inputs.views:
        if _has_comparisons(view.definition):
            continue
        minimized = context.minimize(_marker_definition(view))
        groups.setdefault(minimized.signature(), []).append((view, minimized))
    for candidates in groups.values():
        representatives: list[tuple] = []
        for view, minimized in candidates:
            twin = next(
                (
                    kept_view
                    for kept_view, kept in representatives
                    if context.is_equivalent_to(minimized, kept)
                ),
                None,
            )
            if twin is None:
                representatives.append((view, minimized))
                continue
            yield RULE_REDUNDANT_VIEW.diagnostic(
                f"view {view.name!r} is containment-equivalent to view "
                f"{twin.name!r}; it adds no rewriting power but bloats "
                "T(Q, V) and the set-cover search (Section 5.2)",
                span=inputs.span_of(view.definition),
                subject=f"view:{view.name}",
            )


RULE_REDUNDANT_VIEW = register_rule(
    AnalysisRule(
        code="R101",
        name="redundant-view",
        description=(
            "Two catalog views have containment-equivalent definitions; "
            "the later one is redundant."
        ),
        severity=Severity.WARNING,
        family="semantic",
        check=_check_redundant_views,
    )
)


# -- R102: views with empty view-tuple sets ----------------------------------


def _check_empty_view_tuples(inputs: AnalysisInput) -> Iterator[Diagnostic]:
    from ..core.view_tuples import view_tuples

    query = inputs.query
    if _has_comparisons(query) or not query.is_safe() or not inputs.views:
        return
    context = inputs.context
    minimized = context.minimize(query)
    candidates = [
        view for view in inputs.views if not _has_comparisons(view.definition)
    ]
    # One call over every candidate: view_tuples skips, without
    # evaluating it, each view with a body predicate absent from D_Q.
    answering = {
        view_tuple.name
        for view_tuple in view_tuples(minimized, candidates, context=context)
    }
    for view in candidates:
        if view.name not in answering:
            yield RULE_EMPTY_VIEW_TUPLES.diagnostic(
                f"view {view.name!r} yields no view tuple over the query's "
                "canonical database: by Section 3.3 it cannot occur in any "
                "contained rewriting of this query",
                span=inputs.span_of(view.definition),
                subject=f"view:{view.name}",
            )


RULE_EMPTY_VIEW_TUPLES = register_rule(
    AnalysisRule(
        code="R102",
        name="empty-view-tuples",
        description=(
            "A view's view-tuple set T(Q, {V}) is empty, so the view is "
            "provably unusable for this query."
        ),
        severity=Severity.WARNING,
        family="semantic",
        check=_check_empty_view_tuples,
    )
)


# -- R103: non-minimal query --------------------------------------------------


def _check_non_minimal_query(inputs: AnalysisInput) -> Iterator[Diagnostic]:
    query = inputs.query
    if _has_comparisons(query) or not query.is_safe():
        return
    minimized = inputs.context.minimize(query)
    if len(minimized.body) < len(query.body):
        yield RULE_NON_MINIMAL_QUERY.diagnostic(
            f"query is not minimal: its core has {len(minimized.body)} "
            f"subgoal(s), the query {len(query.body)} (Lemma 4.2); "
            "planning minimizes first, but callers comparing subgoal "
            "counts should use the core",
            span=inputs.span_of(query),
            fix=str(minimized),
        )


RULE_NON_MINIMAL_QUERY = register_rule(
    AnalysisRule(
        code="R103",
        name="non-minimal-query",
        description="The query differs from its core (redundant subgoals).",
        severity=Severity.INFO,
        family="semantic",
        check=_check_non_minimal_query,
    )
)


# -- R105: acyclic fast-path routing ------------------------------------------


def _check_acyclic_routing(inputs: AnalysisInput) -> Iterator[Diagnostic]:
    from ..datalog.hypergraph import gyo_reduce, join_tree

    query = inputs.query
    relational = [atom for atom in query.body if not atom.is_comparison]
    if len(relational) < 2:
        return  # trivially acyclic; routing makes no difference
    if _has_comparisons(query):
        yield RULE_ACYCLIC_ROUTING.diagnostic(
            "query contains comparison atoms, which fall outside the body "
            "hypergraph: plan() keeps every homomorphism search on the "
            "general backtracking path",
            span=inputs.span_of(query),
        )
        return
    residue = gyo_reduce(query)
    if not residue:
        tree = join_tree(query)
        depth = tree.depth if tree is not None else 0
        yield RULE_ACYCLIC_ROUTING.diagnostic(
            "query body hypergraph is alpha-acyclic: plan() routes "
            "homomorphism searches through the join-tree-guided fast "
            f"path (join-tree depth {depth}); pass "
            "--no-acyclic-fast-path to force the general path",
            span=inputs.span_of(query),
        )
    else:
        core = "; ".join(
            "{" + ", ".join(sorted(str(v) for v in edge)) + "}"
            for edge in residue
        )
        yield RULE_ACYCLIC_ROUTING.diagnostic(
            "query body hypergraph is cyclic, so plan() uses the general "
            "backtracking path; irreducible cyclic core (GYO residue): "
            f"{core}",
            span=inputs.span_of(query),
        )


RULE_ACYCLIC_ROUTING = register_rule(
    AnalysisRule(
        code="R105",
        name="acyclic-routing",
        description=(
            "Report whether the planner's acyclic fast path will engage "
            "for this query (and the irreducible cyclic core when not)."
        ),
        severity=Severity.INFO,
        family="semantic",
        check=_check_acyclic_routing,
    )
)


# -- R104: planner-configuration conflicts -----------------------------------

#: Backends whose result pipeline tracks the intermediate/GSR information
#: the M3 attribute-drop annotators consume.
_GSR_TRACKING_BACKENDS = frozenset({"corecover", "corecover-star"})


def _check_config_conflicts(inputs: AnalysisInput) -> Iterator[Diagnostic]:
    config = inputs.config
    if config is None:
        return
    from ..cost.registry import UnknownCostModelError, get_cost_model
    from ..planner.registry import UnknownBackendError, get_backend

    backend = None
    if config.backend is not None:
        try:
            backend = get_backend(config.backend)
        except UnknownBackendError as error:
            yield RULE_CONFIG_CONFLICT.diagnostic(
                str(error), subject="config"
            )
    model = None
    if config.cost_model is not None:
        try:
            model = get_cost_model(config.cost_model)
        except UnknownCostModelError as error:
            yield RULE_CONFIG_CONFLICT.diagnostic(
                str(error), subject="config"
            )
    if model is None:
        return
    if backend is not None and not backend.produces_rewritings:
        yield RULE_CONFIG_CONFLICT.diagnostic(
            f"backend {backend.name!r} emits a maximally-contained program, "
            f"not equivalent rewritings; cost model {model.name!r} has "
            "nothing to rank",
            subject="config",
        )
    elif (
        model.name == "m3"
        and backend is not None
        and backend.name not in _GSR_TRACKING_BACKENDS
    ):
        yield RULE_CONFIG_CONFLICT.diagnostic(
            f"cost model 'm3' prices attribute drops against generalized "
            f"supplementary relations, which backend {backend.name!r} does "
            "not track; use corecover/corecover-star or fall back to 'm2'",
            subject="config",
            severity=Severity.WARNING,
        )
    if model.needs_data and not (config.has_database or config.has_statistics):
        yield RULE_CONFIG_CONFLICT.diagnostic(
            f"cost model {model.name!r} needs a materialized view database "
            "or a statistics catalog, but the configuration supplies "
            "neither",
            subject="config",
            severity=Severity.ERROR,
        )


RULE_CONFIG_CONFLICT = register_rule(
    AnalysisRule(
        code="R104",
        name="config-conflict",
        description=(
            "The planner configuration is inconsistent (unknown names, "
            "backend/cost-model mismatch, or missing cost-model data)."
        ),
        severity=Severity.ERROR,
        family="config",
        check=_check_config_conflicts,
    )
)
