"""The incremental CatalogAuditor: content-keyed reuse across deltas."""

import pytest

from repro.analysis import CatalogAuditor, audit_catalog
from repro.analysis.catalog import load_baseline, write_baseline
from repro.analysis.registry import AnalysisRule, register_rule, unregister_rule
from repro.analysis.diagnostics import Severity
from repro.views import ViewCatalog


def build():
    return ViewCatalog(
        [
            "v1(X,Y) :- a(X,Y)",
            "v2(X,Y) :- a(X,Y), b(Y,Z)",
            "v3(X,Y) :- c(X,Y)",
            "v4(X) :- d(X)",
        ]
    )


class TestIncrementalReuse:
    def test_full_then_noop_reaudit(self):
        catalog = build()
        auditor = CatalogAuditor()
        first = auditor.audit(catalog)
        assert (first.views_analyzed, first.views_reused) == (4, 0)
        again = auditor.audit(catalog)
        assert (again.views_analyzed, again.views_reused) == (0, 4)
        assert again.diagnostics == first.diagnostics

    def test_isolated_view_change_reanalyzes_only_itself(self):
        catalog = build()
        auditor = CatalogAuditor()
        auditor.audit(catalog)
        # v3 shares predicate c/2 with no other view: no neighbors.
        catalog.replace_view("v3(X,Y) :- c(X,Y), c(Y,Z)")
        report = auditor.audit(catalog)
        assert (report.views_analyzed, report.views_reused) == (1, 3)

    def test_neighbor_units_invalidate_with_the_changed_view(self):
        catalog = build()
        auditor = CatalogAuditor()
        auditor.audit(catalog)
        # v1 and v2 share a/2: changing v1 re-analyzes both, not v3/v4.
        catalog.replace_view("v1(X,Y) :- a(Y,X)")
        report = auditor.audit(catalog)
        assert (report.views_analyzed, report.views_reused) == (2, 2)

    def test_added_view_invalidates_new_neighbors_only(self):
        catalog = build()
        auditor = CatalogAuditor()
        auditor.audit(catalog)
        catalog.add_view("v5(Y,Z) :- b(Y,Z)")
        report = auditor.audit(catalog)
        # v5 is new; v2 gains it as a neighbor (shared b/2).
        assert (report.views_analyzed, report.views_reused) == (2, 3)

    def test_removed_view_invalidates_its_old_neighbors(self):
        catalog = build()
        auditor = CatalogAuditor()
        auditor.audit(catalog)
        catalog.remove_view("v1")
        report = auditor.audit(catalog)
        # v2 lost its neighbor; v3 and v4 are untouched.
        assert (report.views_analyzed, report.views_reused) == (1, 2)

    def test_delta_audit_equals_scratch_audit(self):
        catalog = build()
        auditor = CatalogAuditor()
        auditor.audit(catalog)
        catalog.replace_view("v1(X,Y) :- a(X,Y), a(Y,Z)")
        catalog.add_view("v5(X,Y) :- a(X,Y)")
        incremental = auditor.audit(catalog)
        scratch = audit_catalog(ViewCatalog(list(catalog)))
        assert incremental.diagnostics == scratch.diagnostics

    def test_lifetime_counters_accumulate(self):
        catalog = build()
        auditor = CatalogAuditor()
        auditor.audit(catalog)
        auditor.audit(catalog)
        assert auditor.units_computed == 4
        assert auditor.units_reused == 4

    def test_cache_is_swept_to_live_units(self):
        catalog = build()
        auditor = CatalogAuditor()
        auditor.audit(catalog)
        catalog.remove_view("v4")
        auditor.audit(catalog)
        assert len(auditor._units) == 3


class TestBaselines:
    def test_round_trip_suppresses_everything(self, tmp_path):
        catalog = ViewCatalog(
            ["v1(X,Y) :- a(X,Y)", "bad(X) :- a(X,Y), Y = c1, Y = c2"]
        )
        report = audit_catalog(catalog)
        assert report.diagnostics
        path = tmp_path / "baseline.json"
        pinned = write_baseline(report, path)
        assert pinned == len(report.diagnostics)
        fingerprints = load_baseline(path)
        suppressed = audit_catalog(catalog, baseline=fingerprints)
        assert suppressed.diagnostics == ()
        assert suppressed.suppressed == pinned
        assert suppressed.ok

    def test_new_findings_survive_the_baseline(self, tmp_path):
        catalog = ViewCatalog(["bad(X) :- a(X,Y), Y = c1, Y = c2"])
        path = tmp_path / "baseline.json"
        write_baseline(audit_catalog(catalog), path)
        catalog.add_view("worse(X) :- b(X,Y), Y = c1, Y = c2")
        report = audit_catalog(
            ViewCatalog(list(catalog)), baseline=load_baseline(path)
        )
        assert [d.subject for d in report.diagnostics] == ["view:worse"]
        assert report.suppressed == 1

    def test_malformed_baseline_is_a_parse_error(self, tmp_path):
        from repro.errors import ParseError

        path = tmp_path / "baseline.json"
        path.write_text("{\"version\": 99}")
        with pytest.raises(ParseError):
            load_baseline(path)
        with pytest.raises(ParseError):
            load_baseline(tmp_path / "missing.json")


class TestRuleIsolation:
    def test_crashing_audit_rule_degrades_to_r900(self):
        def _boom(inputs):
            raise RuntimeError("kaboom")
            yield  # pragma: no cover

        rule = register_rule(
            AnalysisRule(
                code="C999",
                name="test-crash",
                description="crashes for the isolation test",
                severity=Severity.INFO,
                family="structural",
                check=_boom,
                scope="view",
            )
        )
        try:
            report = audit_catalog(ViewCatalog(["v(X,Y) :- a(X,Y)"]))
            findings = [d for d in report if d.code == "R900"]
            assert len(findings) == 1
            assert "C999" in findings[0].message
            assert findings[0].subject == "view:v"
        finally:
            unregister_rule(rule.code)
