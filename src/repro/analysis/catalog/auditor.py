"""The incremental, content-addressed catalog auditor.

A full audit of an N-view catalog runs every view-scope rule once per
view and every catalog-scope rule once.  The expensive part — pairwise
containment through the planner memos — is confined to each view's
predicate-index neighborhood, but at catalog scale even that is work
worth never repeating.  So the auditor is **incremental by content**:

* each per-view unit of work is cached under a key derived from the
  view's sha256 content hash plus the ``(name, hash, relative-order)``
  signature of its index neighbors — the *entire* input closure of the
  unit.  Any :class:`~repro.views.view.CatalogDelta` therefore
  invalidates exactly the changed views and the views whose neighbor
  signature they appear in, and nothing else;
* catalog-scope (aggregate) units are keyed by the catalog's Merkle
  content root, the strongest whole-catalog content key available;
* the same content keys make results independent of *how* the catalog
  reached its state: auditing after a mutation script equals auditing a
  from-scratch rebuild (the property test in
  ``tests/property/test_audit_equivalence.py`` is the law).

Relative registration order (not absolute sequence numbers) rides in
the unit key because the pair rules attribute findings by age
("reported on the later view", "shadowed by the newest") — and relative
order is exactly what a from-scratch rebuild preserves.

Each auditor plans on one :class:`~repro.planner.context.PlannerContext`
for its whole life: the one it was given, or its own.  The context's
memos are keyed on view-definition structure, never on catalog
identity, so its containment work stays sound and warm across every
catalog version the auditor sees.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from ...datalog.parser import SourceMap
from ...errors import BudgetExceededError, UnsupportedQueryError
from ...views.view import ViewCatalog
from ..diagnostics import AnalysisReport, Diagnostic, Severity
from ..engine import INTERNAL_RULE_FAILURE, _selected
from ..registry import AnalysisRule, available_rules
from ..sarif import result_fingerprint
from .inputs import CatalogAuditInput

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...planner.context import PlannerContext

__all__ = ["AuditReport", "CatalogAuditor", "audit_catalog"]

#: Unit cache key: fully describes one unit's input closure.
_UnitKey = tuple


@dataclass(frozen=True)
class AuditReport(AnalysisReport):
    """An :class:`AnalysisReport` plus the audit's catalog provenance.

    ``views_analyzed``/``views_reused`` split the per-view units into
    freshly computed versus served from the content-keyed cache — after
    a one-view delta, ``views_analyzed`` is exactly the changed view
    plus its index neighbors.  ``suppressed`` counts baseline-matched
    findings dropped from ``diagnostics``.
    """

    catalog_root: str = ""
    catalog_version: int = 0
    views_total: int = 0
    views_analyzed: int = 0
    views_reused: int = 0
    suppressed: int = 0

    def render_text(self) -> str:
        base = super().render_text()
        summary = (
            f"audited {self.views_total} view(s): "
            f"{self.views_analyzed} analyzed, {self.views_reused} reused "
            f"(catalog v{self.catalog_version}, "
            f"root {self.catalog_root[:12]}...)"
        )
        if self.suppressed:
            summary += f"; {self.suppressed} baseline-suppressed finding(s)"
        return f"{base}\n{summary}"


def _schema_key(schema: Mapping[str, int] | None) -> str:
    if not schema:
        return ""
    rendered = ",".join(
        f"{name}/{arity}" for name, arity in sorted(schema.items())
    )
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


def _audit_rules(
    select: Sequence[str] | None, ignore: Sequence[str] | None
) -> tuple[list[AnalysisRule], list[AnalysisRule]]:
    """The selected (view-scope, catalog-scope) audit rules, code order."""
    chosen = [
        rule
        for rule in _selected(available_rules(), select, ignore)
        if rule.scope in ("view", "catalog")
    ]
    view_rules = [rule for rule in chosen if rule.scope == "view"]
    catalog_rules = [rule for rule in chosen if rule.scope == "catalog"]
    return view_rules, catalog_rules


def _run_rules(
    rules: Iterable[AnalysisRule], inputs: CatalogAuditInput, subject: str
) -> tuple[Diagnostic, ...]:
    """Run *rules* over one unit with engine-identical isolation."""
    diagnostics: list[Diagnostic] = []
    for rule in rules:
        try:
            diagnostics.extend(rule.check(inputs))
        except BudgetExceededError:
            raise
        except UnsupportedQueryError:
            continue  # unit outside the rule's fragment: not a finding
        except Exception as error:
            diagnostics.append(
                Diagnostic(
                    code=INTERNAL_RULE_FAILURE,
                    severity=Severity.WARNING,
                    message=(
                        f"rule {rule.code} ({rule.name}) crashed on "
                        f"{subject}: {type(error).__name__}: {error}"
                    ),
                    subject=subject,
                    rule="internal-rule-failure",
                )
            )
    return tuple(diagnostics)


class CatalogAuditor:
    """Audits one (logical) catalog, incrementally across its versions.

    Keep the auditor alive across :class:`~repro.views.view.CatalogDelta`
    mutations — the serve daemon keeps one per registered catalog name —
    and each :meth:`audit` call re-analyzes only the units whose content
    keys changed.  A fresh auditor (the CLI one-shot path) simply
    computes every unit once.  :meth:`audit` replaces its unit caches
    rather than editing them, so auditing a ``copy.copy`` of an auditor
    leaves the original's caches as they were.
    """

    def __init__(
        self,
        *,
        context: "PlannerContext | None" = None,
        select: Sequence[str] | None = None,
        ignore: Sequence[str] | None = None,
    ) -> None:
        from ...planner.context import PlannerContext

        self._context = context if context is not None else PlannerContext()
        self._select = list(select) if select else None
        self._ignore = list(ignore) if ignore else None
        self._units: dict[_UnitKey, tuple[Diagnostic, ...]] = {}
        self._aggregates: dict[_UnitKey, tuple[Diagnostic, ...]] = {}
        #: Lifetime counters (per-call numbers live on the report).
        self.units_computed = 0
        self.units_reused = 0

    def audit(
        self,
        catalog: ViewCatalog,
        *,
        schema: Mapping[str, int] | None = None,
        view_spans: SourceMap | None = None,
        baseline: frozenset[str] | None = None,
    ) -> AuditReport:
        """Audit *catalog* as it stands; cached units are not recomputed.

        ``baseline`` is a set of diagnostic fingerprints
        (:func:`~repro.analysis.sarif.result_fingerprint` values) to
        suppress; matches are dropped from the report and tallied in
        ``suppressed``, so ``--fail-on`` gates new findings only.
        """
        context = self._context
        view_rules, catalog_rules = _audit_rules(self._select, self._ignore)
        rules_key = tuple(rule.code for rule in view_rules)
        schema_key = _schema_key(schema)
        hashes = dict(catalog.view_hashes())
        order = {name: i for i, name in enumerate(catalog.names())}

        diagnostics: list[Diagnostic] = []
        live_units: dict[_UnitKey, tuple[Diagnostic, ...]] = {}
        analyzed = reused = 0
        with context.stage("audit"):
            for view in catalog:
                name = view.name
                position = order[name]
                # The key is built from names alone: only a unit that is
                # recomputed needs its neighbors as views.
                neighbors = catalog.index_neighbors(name)
                neighbor_sig = tuple(
                    (n, hashes[n], order[n] < position) for n in neighbors
                )
                key: _UnitKey = (
                    name,
                    hashes[name],
                    neighbor_sig,
                    rules_key,
                    schema_key,
                )
                cached = self._units.get(key)
                if cached is None:
                    inputs = CatalogAuditInput(
                        view=view,
                        neighbors=tuple(catalog.get(n) for n in neighbors),
                        catalog=catalog,
                        context=context,
                        hashes=hashes,
                        older=frozenset(
                            n for n, _, older in neighbor_sig if older
                        ),
                        schema=schema,
                        view_spans=view_spans,
                    )
                    cached = _run_rules(view_rules, inputs, f"view:{name}")
                    analyzed += 1
                else:
                    reused += 1
                live_units[key] = cached
                diagnostics.extend(cached)

            live_aggregates: dict[_UnitKey, tuple[Diagnostic, ...]] = {}
            aggregate_inputs = CatalogAuditInput(
                view=None,
                neighbors=(),
                catalog=catalog,
                context=context,
                hashes=hashes,
                schema=schema,
                view_spans=view_spans,
            )
            for rule in catalog_rules:
                key = (rule.code, catalog.content_root(), schema_key)
                cached = self._aggregates.get(key)
                if cached is None:
                    cached = _run_rules(
                        (rule,), aggregate_inputs, "catalog"
                    )
                live_aggregates[key] = cached
                diagnostics.extend(cached)

        # Sweep: only units live in this catalog version stay cached, so
        # the auditor's memory is bounded by the catalog size.
        self._units = live_units
        self._aggregates = live_aggregates
        self.units_computed += analyzed
        self.units_reused += reused

        suppressed = 0
        if baseline:
            kept: list[Diagnostic] = []
            for diagnostic in diagnostics:
                if result_fingerprint(diagnostic) in baseline:
                    suppressed += 1
                else:
                    kept.append(diagnostic)
            diagnostics = kept

        return AuditReport(
            diagnostics=tuple(diagnostics),
            checked=tuple(
                rule.code for rule in (*view_rules, *catalog_rules)
            ),
            catalog_root=catalog.content_root(),
            catalog_version=catalog.version,
            views_total=len(catalog),
            views_analyzed=analyzed,
            views_reused=reused,
            suppressed=suppressed,
        )


def audit_catalog(
    views: ViewCatalog | Iterable,
    *,
    context: "PlannerContext | None" = None,
    schema: Mapping[str, int] | None = None,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
    view_spans: SourceMap | None = None,
    baseline: frozenset[str] | None = None,
) -> AuditReport:
    """One-shot audit of *views* (the library-API convenience).

    Accepts a :class:`~repro.views.view.ViewCatalog` or anything its
    constructor accepts.  For incremental re-audits across catalog
    deltas, hold a :class:`CatalogAuditor` instead.
    """
    catalog = (
        views if isinstance(views, ViewCatalog) else ViewCatalog(views)
    )
    auditor = CatalogAuditor(context=context, select=select, ignore=ignore)
    return auditor.audit(
        catalog, schema=schema, view_spans=view_spans, baseline=baseline
    )
