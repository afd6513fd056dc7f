"""Audit preflight on catalog register/update — registry and daemon.

With ``--audit-fail-on`` set, a catalog whose C1xx findings reach the
threshold never becomes visible to plan requests: neither a rejected
registration nor a rejected update is installed, and a refused update
leaves the published catalog exactly as it was.
Rejections travel as structured :class:`AnalysisError` frames (exit 73
through ``serve send``) carrying the offending diagnostics.
"""

import json
import pickle

import pytest

from repro import parse_query, plan
from repro.errors import (
    AnalysisError,
    CatalogCorruptionError,
    UnknownViewError,
)
from repro.serve import ServeClient, ServeConfig
from repro.serve.catalogs import CatalogRegistry
from repro.serve.journal import CatalogJournal
from repro.serve.testing import running_daemon
from repro.parallel import SupervisorPolicy
from repro.parallel.worker import WorkerConfig
from repro.service import ServicePolicy

from .conftest import QUERY

GOOD = [
    "v1(X, Z) :- car(X, Y), loc(Y, Z)",
    "v2(X, Y) :- car(X, Y)",
]
# C103 (ERROR): the comparison is false on every database.
UNSAT = "bad(X) :- car(X, Y), 2 > 3"
# C104 (WARNING): w2 duplicates w1 up to renaming.
TWINS = ["w1(X, Y) :- car(X, Y)", "w2(P, Q) :- car(P, Q)"]


def _config(**overrides):
    overrides.setdefault(
        "worker",
        WorkerConfig(policy=ServicePolicy(chain=("corecover",)), pool_size=2),
    )
    overrides.setdefault("supervisor", SupervisorPolicy(workers=2))
    return ServeConfig(**overrides)


class TestRegistryPreflight:
    def test_rejected_registration_is_not_installed(self):
        registry = CatalogRegistry(audit_fail_on="error")
        with pytest.raises(AnalysisError) as excinfo:
            registry.register("t1", GOOD + [UNSAT])
        assert excinfo.value.exit_code == 73
        assert {d.code for d in excinfo.value.diagnostics} == {"C103"}
        assert "t1" not in registry
        assert registry.registrations == 0
        assert registry.audit_rejections == 1

    def test_warnings_pass_at_error_threshold(self):
        registry = CatalogRegistry(audit_fail_on="error")
        ack = registry.register("t1", TWINS)
        assert ack["audit"]["diagnostics"]["warning"] >= 1
        assert "t1" in registry

    def test_warning_threshold_rejects_duplicates(self):
        registry = CatalogRegistry(audit_fail_on="warning")
        with pytest.raises(AnalysisError) as excinfo:
            registry.register("t1", TWINS)
        assert any(d.code == "C104" for d in excinfo.value.diagnostics)

    def test_disabled_registry_never_audits(self):
        for off in (None, "never"):
            registry = CatalogRegistry(audit_fail_on=off)
            assert registry.auditing is False
            ack = registry.register("t1", GOOD + [UNSAT])
            assert "audit" not in ack
            assert registry.audits == 0

    def test_rejected_update_rolls_back_added_view(self):
        registry = CatalogRegistry(audit_fail_on="error")
        registry.register("t1", GOOD)
        catalog = registry.get("t1")
        before_root = catalog.content_root()
        before_names = catalog.names()
        with pytest.raises(AnalysisError):
            registry.update("t1", add=[UNSAT])
        assert catalog.content_root() == before_root
        assert catalog.names() == before_names
        assert registry.updates == 0

    def test_rejected_update_rolls_back_replacement(self):
        registry = CatalogRegistry(audit_fail_on="error")
        registry.register("t1", GOOD)
        catalog = registry.get("t1")
        before_root = catalog.content_root()
        with pytest.raises(AnalysisError):
            registry.update(
                "t1", replace=["v2(X, Y) :- car(X, Y), 2 > 3"]
            )
        assert catalog.content_root() == before_root

    def test_audit_is_incremental_across_updates(self):
        registry = CatalogRegistry(audit_fail_on="error")
        ack = registry.register(
            "t1", ["a1(X, Y) :- r1(X, Y)", "a2(X, Y) :- r2(X, Y)"]
        )
        assert ack["audit"]["views_analyzed"] == 2
        ack = registry.update("t1", add=["a3(X, Y) :- r3(X, Y)"])
        # The new view shares no predicate with the old ones, so only
        # it is re-analyzed; both existing units are cache hits.
        assert ack["audit"]["views_analyzed"] == 1
        assert ack["audit"]["views_reused"] == 2

    def test_stats_reports_per_catalog_diagnostics(self):
        registry = CatalogRegistry(audit_fail_on="error")
        registry.register("t1", TWINS)
        stats = registry.stats()
        assert stats["t1"]["diagnostics"] == {
            "error": 0,
            "warning": 1,
            "info": 0,
        }


# v5 is equivalent to v1, so Section 5.2 plans on whichever of the two
# comes first in registration order.
EQUIVALENT = [
    "v1(X, Y) :- car(X, Y)",
    "v5(A, B) :- car(A, B), car(A, C)",
    "w(Y, Z) :- loc(Y, Z)",
]


# Each refusal registers EQUIVALENT as "t" and returns the registry, an
# update it refuses, and the error that refusal raises.
def _refuse_ghost_removal(tmp_path, monkeypatch):
    registry = CatalogRegistry()
    registry.register("t", EQUIVALENT)
    return registry, {"remove": ["v1", "ghost"]}, UnknownViewError


def _refuse_by_audit(tmp_path, monkeypatch):
    registry = CatalogRegistry(audit_fail_on="error")
    registry.register("t", EQUIVALENT)
    return registry, {"remove": ["v1"], "add": [UNSAT]}, AnalysisError


def _fail_journal_append(self, op):
    raise OSError("disk full")


def _refuse_by_journal(tmp_path, monkeypatch):
    registry = CatalogRegistry(state_dir=tmp_path, journal_fsync=False)
    registry.register("t", EQUIVALENT)
    monkeypatch.setattr(CatalogJournal, "append", _fail_journal_append)
    return registry, {"remove": ["v1"]}, CatalogCorruptionError


class TestRefusedUpdateLeavesCatalog:
    """A refused or failed update never touches the published catalog:
    not its object, registration order, version, root or pickle bytes,
    so it keeps answering with the class representative it had."""

    @pytest.mark.parametrize(
        "refusal",
        [_refuse_ghost_removal, _refuse_by_audit, _refuse_by_journal],
        ids=["unknown-view", "audit", "journal-append"],
    )
    def test_published_catalog_is_untouched(
        self, refusal, tmp_path, monkeypatch
    ):
        registry, update, error = refusal(tmp_path, monkeypatch)
        catalog = registry.get("t")
        names = catalog.names()
        version = catalog.version
        root = catalog.content_root()
        payload = pickle.dumps(catalog)
        with pytest.raises(error):
            registry.update("t", **update)
        assert registry.get("t") is catalog
        assert catalog.names() == names == ("v1", "v5", "w")
        assert catalog.version == version == 3
        assert catalog.content_root() == root
        assert pickle.dumps(catalog) == payload
        assert registry.updates == 0
        result = plan(parse_query(QUERY), catalog)
        assert [str(r) for r in result.rewritings] == [
            "q(X, Z) :- v1(X, Y), w(Y, Z)"
        ]
        registry.close()


# Six views on six relations: no view is another's index neighbor.
SEPARATE = [f"a{i}(X, Y) :- r{i}(X, Y)" for i in range(6)]
# C103 (ERROR), and an index neighbor of a1.
UNSAT_ON_R1 = "bad(X) :- r1(X, Y), 2 > 3"


class TestRefusedChangeLeavesAuditor:
    """A refused or failed change leaves the published auditor and its
    report as they were.  Each change below re-analyzes a1's unit with a
    new neighbor on r1; had that audit been kept, the next update would
    re-analyze a1 again, and ``stats`` would report the refused content."""

    @pytest.mark.parametrize(
        "change", ["update-audit", "update-journal", "register-audit"]
    )
    def test_next_update_reuses_the_published_units(
        self, change, tmp_path, monkeypatch
    ):
        registry = CatalogRegistry(
            audit_fail_on="error", state_dir=tmp_path, journal_fsync=False
        )
        registry.register("t", SEPARATE)
        clean = {"error": 0, "warning": 0, "info": 0}
        assert registry.stats()["t"]["diagnostics"] == clean
        if change == "update-audit":
            with pytest.raises(AnalysisError):
                registry.update("t", add=[UNSAT_ON_R1])
        elif change == "update-journal":
            # A C104 twin of a1 passes the error threshold, so only the
            # journal append refuses it.
            with monkeypatch.context() as patch:
                patch.setattr(CatalogJournal, "append", _fail_journal_append)
                with pytest.raises(CatalogCorruptionError):
                    registry.update("t", add=["twin(P, Q) :- r1(P, Q)"])
        else:
            with pytest.raises(AnalysisError):
                registry.register("t", SEPARATE + [UNSAT_ON_R1])
        assert registry.stats()["t"]["diagnostics"] == clean
        ack = registry.update("t", add=["a9(X, Y) :- r9(X, Y)"])
        assert ack["audit"]["views_analyzed"] == 1
        assert ack["audit"]["views_reused"] == 6
        assert registry.stats()["t"]["diagnostics"] == clean
        registry.close()


class TestDaemonPreflight:
    def test_register_rejection_over_the_wire(self, catalog):
        config = _config(audit_fail_on="error")
        with running_daemon(config, catalog=catalog) as handle:
            with handle.client() as client:
                response = client.register_catalog(
                    "tenant-a", GOOD + [UNSAT]
                )
                assert response["status"] == "error"
                error = response["error"]
                assert error["error"] == "AnalysisError"
                assert error["exit_code"] == 73
                codes = {d["code"] for d in error["diagnostics"]}
                assert "C103" in codes
                with pytest.raises(AnalysisError) as excinfo:
                    ServeClient.raise_for_response(response)
                assert excinfo.value.diagnostics
                # The rejected catalog never became plannable.
                missing = client.plan(QUERY, id="m", catalog="tenant-a")
                assert missing["error"]["error"] == "UnknownViewError"
                with pytest.raises(UnknownViewError):
                    ServeClient.raise_for_response(missing)
                stats = client.stats()
                assert stats["audit"] == {
                    "enabled": True,
                    "audits": 1,
                    "rejections": 1,
                }
        assert handle.join() == 0

    def test_update_rejection_keeps_serving_old_content(self, catalog):
        config = _config(audit_fail_on="error")
        with running_daemon(config, catalog=catalog) as handle:
            with handle.client() as client:
                ack = client.register_catalog("tenant-a", GOOD)
                assert ack["status"] == "ok"
                assert ack["audit"]["views_analyzed"] == 2
                rejected = client.update_catalog("tenant-a", add=[UNSAT])
                assert rejected["status"] == "error"
                assert rejected["error"]["exit_code"] == 73
                # The catalog still serves with its accepted content.
                served = client.plan(QUERY, id="ok", catalog="tenant-a")
                assert served["status"] == "ok"
                stats = client.stats()
                entry = stats["catalogs"]["tenant-a"]
                assert entry["views"] == 2
                assert entry["diagnostics"]["error"] == 0
        assert handle.join() == 0

    def test_audit_disabled_by_default(self, catalog):
        with running_daemon(_config(), catalog=catalog) as handle:
            with handle.client() as client:
                ack = client.register_catalog("t", GOOD + [UNSAT])
                assert ack["status"] == "ok"
                assert "audit" not in ack
                stats = client.stats()
                assert stats["audit"]["enabled"] is False
        assert handle.join() == 0


def test_serve_send_exits_73_on_audit_rejection(catalog, tmp_path, capsys):
    from repro.cli import main

    config = _config(audit_fail_on="error")
    with running_daemon(config, catalog=catalog) as handle:
        requests = tmp_path / "requests.ndjson"
        requests.write_text(
            json.dumps(
                {
                    "id": "reg",
                    "type": "catalog",
                    "action": "register",
                    "name": "tenant-a",
                    "views": GOOD + [UNSAT],
                }
            )
            + "\n"
        )
        _, host, port = handle.address
        code = main(
            [
                "serve", "send", str(requests),
                "--host", host, "--port", str(port),
                "--format", "json",
            ]
        )
        captured = capsys.readouterr()
        assert code == 73
        (line,) = [
            json.loads(line) for line in captured.out.splitlines()
        ]
        assert line["error"]["error"] == "AnalysisError"
        assert line["error"]["diagnostics"]
    assert handle.join() == 0
