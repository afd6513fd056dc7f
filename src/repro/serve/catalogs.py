"""Named multi-tenant catalog registry for the serve daemon.

``repro batch`` ships the whole view catalog with the process; a
resident daemon instead lets tenants **register** a named catalog once
and then reference it per request (``{"catalog": "tenant-a", ...}``) —
requests stop re-shipping view definitions, and each worker keeps the
catalog resident and plans every request on its one warm planner
context, so repeated requests reuse memoized work.

An update is **staged**: its removes, replaces and adds run through
:meth:`ViewCatalog.remove_view` / ``replace_view`` / ``add_view`` on a
``copy.copy`` of the published catalog, which emit
:class:`~repro.views.view.CatalogDelta` records and advance the copy's
version.  The copy is audited and journaled, then published whole, so
a published catalog is never changed and versions stay monotone per
name.  Journal replay stages update records through the same function.
Planner memos are keyed on query and view-definition structure, so a
worker's warm context stays warm across any update: only the updated
catalog itself crosses to the worker again.

Durability
==========

With a ``state_dir`` the registry is **crash-consistent**: every
mutation is appended to the write-ahead journal
(:mod:`repro.serve.journal`) *before* it is acknowledged, and every
``snapshot_every`` journaled operations the registry checkpoints — a
compacted snapshot (:mod:`repro.serve.snapshot`) replaces the journal.
On construction the registry **recovers**: load the latest valid
snapshot, truncate any torn journal tail with a WARNING, replay the
remaining records, and re-derive each catalog's
``catalog_content_root`` against the root journaled at commit time.  A
catalog that cannot be rebuilt byte-for-byte is **quarantined**:
requests naming it get a structured
:class:`~repro.errors.CatalogCorruptionError` (exit 80) instead of
plans computed from wrong view definitions, until a re-registration
replaces it wholesale.

The commit protocol orders validation → staged apply → audit →
journal append (fsync) → publish → acknowledge.  A step that fails
before publishing leaves the published catalog as it was, so the
served state never runs ahead of the journal: a daemon SIGKILLed
mid-commit restarts serving exactly the acknowledged prefix of
operations, in the same registration order.

With ``audit_fail_on`` set, every registration and update runs the
incremental catalog audit (:mod:`repro.analysis.catalog`) as a
**preflight**: a catalog whose findings reach the configured severity is
rejected with :class:`~repro.errors.AnalysisError` (exit 73 on the
client) *before* it becomes visible to plan requests — neither a
registration nor an update is installed, leaving the previously
accepted content in place.  The same preflight re-runs over
every *recovered* catalog, quarantining (not serving) content that no
longer passes the gate.  One persistent
:class:`~repro.analysis.catalog.CatalogAuditor` per catalog name keeps
the audit incremental: an update re-analyzes only the changed views and
their predicate-index neighbors.  Audits are staged like catalogs: each
runs on a ``copy.copy`` of the name's auditor, and the copy and its
report are published with the catalog, after the journal append, so a
refused or failed change leaves the published auditor and report as
they were.

The registry is mutated only from the daemon's event-loop thread;
the lock exists for cross-thread readers (``stats`` snapshots from
tests and benchmarks).
"""

from __future__ import annotations

import copy
import logging
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from ..analysis.diagnostics import Severity
from ..errors import (
    AnalysisError,
    CatalogCorruptionError,
    ParseError,
    ReproError,
    UnknownViewError,
)
from ..views.view import CatalogDelta, ViewCatalog, as_view
from .journal import JOURNAL_NAME, CatalogJournal, scan_journal
from .snapshot import SnapshotStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.catalog import AuditReport, CatalogAuditor

__all__ = ["CatalogRegistry"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class _Quarantine:
    """Why one named catalog is being refused service."""

    reason: str
    expected_root: str | None = None
    actual_root: str | None = None
    diagnostics: tuple = ()


class CatalogRegistry:
    """Named, versioned view catalogs, one per registering tenant."""

    def __init__(
        self,
        *,
        audit_fail_on: str | None = None,
        state_dir: str | Path | None = None,
        snapshot_every: int = 64,
        journal_fsync: bool = True,
    ) -> None:
        self._catalogs: dict[str, ViewCatalog] = {}
        self._quarantined: dict[str, _Quarantine] = {}
        self._lock = threading.Lock()
        self.registrations = 0
        self.updates = 0
        self.removals = 0
        if audit_fail_on in (None, "never"):
            self._audit_threshold: Severity | None = None
        else:
            self._audit_threshold = Severity.from_name(audit_fail_on)
        #: Per-catalog persistent auditors (incremental across updates).
        self._auditors: dict[str, "CatalogAuditor"] = {}
        #: Last accepted audit report per catalog (for ``stats``).
        self._reports: dict[str, "AuditReport"] = {}
        self.audits = 0
        self.audit_rejections = 0
        # -- durability (all zero / None without a state_dir) ---------------
        self._state_dir = Path(state_dir) if state_dir is not None else None
        self._snapshot_every = max(1, int(snapshot_every))
        self._journal_fsync = journal_fsync
        self._journal: CatalogJournal | None = None
        self._snapshots: SnapshotStore | None = None
        self._ops_since_checkpoint = 0
        self.journaled_ops = 0
        self.compactions = 0
        self.snapshot_failures = 0
        self.snapshots_skipped = 0
        self.recovered_catalogs = 0
        self.replayed_ops = 0
        self.journal_truncations = 0
        self.truncated_bytes = 0
        if self._state_dir is not None:
            self._recover(self._state_dir)

    @property
    def auditing(self) -> bool:
        """Whether registrations/updates run the audit preflight."""
        return self._audit_threshold is not None

    @property
    def durable(self) -> bool:
        """Whether mutations are journaled to a state directory."""
        return self._journal is not None

    # -- recovery -----------------------------------------------------------
    def _recover(self, root: Path) -> None:
        """Rebuild the registry from *root*: snapshot, then journal tail."""
        root.mkdir(parents=True, exist_ok=True)
        self._snapshots = SnapshotStore(root)
        snapshot, skipped = self._snapshots.load_latest()
        for name in skipped:
            logger.warning(
                "state dir %s: snapshot %s is unreadable or failed its "
                "checksum; falling back to the previous generation",
                root,
                name,
            )
        self.snapshots_skipped = len(skipped)
        base_seq = 0
        if snapshot is not None:
            base_seq = int(snapshot["seq"])
            catalogs = snapshot.get("catalogs")
            if isinstance(catalogs, dict):
                for name in sorted(catalogs):
                    entry = catalogs[name]
                    if not isinstance(entry, dict):
                        self._quarantine(
                            name, _Quarantine("malformed snapshot entry")
                        )
                        continue
                    self._rebuild(
                        str(name),
                        lambda: _from_texts(entry.get("views", ())),
                        entry.get("root"),
                        source=f"snapshot seq {base_seq}",
                    )
            quarantined = snapshot.get("quarantined")
            if isinstance(quarantined, dict):
                for name, reason in quarantined.items():
                    self._quarantine(str(name), _Quarantine(str(reason)))
        journal_path = root / JOURNAL_NAME
        scan = scan_journal(journal_path, start_seq=base_seq)
        if scan.torn_reason is not None:
            logger.warning(
                "state dir %s: journal tail is torn or corrupt at byte %d "
                "(%s); truncating %d byte(s) — operations past the last "
                "valid record were never acknowledged",
                root,
                scan.truncate_at,
                scan.torn_reason,
                scan.torn_bytes,
            )
            self.journal_truncations += 1
            self.truncated_bytes += scan.torn_bytes
            CatalogJournal(journal_path).truncate(scan.truncate_at)
        for record in scan.records:
            self._replay(record.op)
            self.replayed_ops += 1
        self.recovered_catalogs = len(self._catalogs)
        if self.auditing:
            # Honor --audit-fail-on over recovered content: a catalog
            # that no longer passes the preflight gate must not serve.
            for name in sorted(self._catalogs):
                try:
                    self._auditors[name], self._reports[name] = self._audit(
                        name, self._catalogs[name]
                    )
                except AnalysisError as exc:
                    self._catalogs.pop(name, None)
                    self._quarantine(
                        name,
                        _Quarantine(
                            f"recovered content rejected by audit "
                            f"preflight: {exc}",
                            diagnostics=getattr(exc, "diagnostics", ()),
                        ),
                    )
        self._journal = CatalogJournal(
            journal_path,
            fsync=self._journal_fsync,
            start_seq=max(base_seq, scan.last_seq),
        )
        # A long replayed tail means the last checkpoint is far behind;
        # count it so the next mutation can compact promptly.
        self._ops_since_checkpoint = len(scan.records)

    def _rebuild(
        self,
        name: str,
        build: Callable[[], ViewCatalog],
        expected_root: object,
        *,
        source: str,
    ) -> None:
        """Reconstruct one catalog with *build* and verify its content root."""
        try:
            catalog = build()
        except Exception as exc:
            self._catalogs.pop(name, None)
            self._quarantine(
                name,
                _Quarantine(f"failed to rebuild from {source}: {exc}"),
            )
            return
        actual = catalog.content_root()
        if expected_root is not None and actual != expected_root:
            self._catalogs.pop(name, None)
            self._quarantine(
                name,
                _Quarantine(
                    f"content root mismatch after {source}",
                    expected_root=str(expected_root),
                    actual_root=actual,
                ),
            )
            return
        self._catalogs[name] = catalog
        self._quarantined.pop(name, None)

    def _replay(self, op: Mapping) -> None:
        """Apply one journaled operation during recovery."""
        kind = op.get("op")
        name = str(op.get("name", ""))
        if kind == "remove":
            self._catalogs.pop(name, None)
            self._quarantined.pop(name, None)
            return
        if kind == "register":
            self._rebuild(
                name,
                lambda: _from_texts(op.get("views", ())),
                op.get("root"),
                source=f"journal replay (seq {op.get('seq')})",
            )
            return
        if kind == "update":
            if name in self._quarantined:
                return  # already refusing service; nothing to update
            self._rebuild(
                name,
                lambda: _stage_update(self._catalogs[name], op)[0],
                op.get("root"),
                source=f"journal replay (seq {op.get('seq')})",
            )
            return
        # An unknown operation kind is a future-format record; the
        # catalog it names can no longer be trusted to be current.
        self._quarantine(
            name, _Quarantine(f"unknown journaled operation {kind!r}")
        )

    def _quarantine(self, name: str, record: _Quarantine) -> None:
        logger.warning("catalog %r quarantined: %s", name, record.reason)
        self._quarantined[name] = record

    def _corruption_error(self, name: str) -> CatalogCorruptionError:
        record = self._quarantined[name]
        return CatalogCorruptionError(
            f"catalog {name!r} is quarantined: {record.reason}; "
            "re-register it to restore service",
            catalog=name,
            expected_root=record.expected_root,
            actual_root=record.actual_root,
            diagnostics=record.diagnostics,
        )

    # -- journal / checkpoint ----------------------------------------------
    def _journal_op(self, op: dict) -> None:
        """Durably record *op*; the caller applies it only on success."""
        if self._journal is None:
            return
        try:
            self._journal.append(op)
        except ReproError:
            raise
        except Exception as exc:
            raise CatalogCorruptionError(
                f"write-ahead journal append failed: {exc}"
            ) from exc
        self.journaled_ops += 1
        self._ops_since_checkpoint += 1

    def _maybe_checkpoint(self) -> None:
        if (
            self._journal is not None
            and self._ops_since_checkpoint >= self._snapshot_every
        ):
            self.checkpoint()

    def checkpoint(self) -> dict | None:
        """Write a compacted snapshot and empty the journal.

        Failure is non-fatal by design: the snapshot write is counted
        and WARNed, and the journal is **kept** — recovery still works
        from the previous generation plus the full journal.  The
        journal is emptied only after the new snapshot is durable.
        """
        if self._journal is None or self._snapshots is None:
            return None
        with self._lock:
            catalogs = dict(self._catalogs)
            quarantined = dict(self._quarantined)
        seq = self._journal.last_seq
        payload = {
            "seq": seq,
            "catalogs": {
                name: {
                    "views": [str(view) for view in catalog],
                    "root": catalog.content_root(),
                }
                for name, catalog in sorted(catalogs.items())
            },
            "quarantined": {
                name: record.reason
                for name, record in sorted(quarantined.items())
            },
        }
        try:
            self._snapshots.write(seq, payload)
        except Exception as exc:
            self.snapshot_failures += 1
            logger.warning(
                "snapshot at seq %d failed (%s); journal retained", seq, exc
            )
            return None
        self._journal.reset(start_seq=seq)
        self.compactions += 1
        self._ops_since_checkpoint = 0
        return {"seq": seq, "catalogs": len(catalogs)}

    def durability_stats(self) -> dict | None:
        """Journal/snapshot/recovery counters (``None`` when in-memory)."""
        if self._journal is None or self._snapshots is None:
            return None
        with self._lock:
            quarantined = len(self._quarantined)
        return {
            "state_dir": str(self._state_dir),
            "last_seq": self._journal.last_seq,
            "journaled_ops": self.journaled_ops,
            "journal_bytes": self._journal.bytes_written,
            "fsyncs": self._journal.fsyncs,
            "snapshots_written": self._snapshots.written,
            "snapshots_skipped": self.snapshots_skipped,
            "snapshot_failures": self.snapshot_failures,
            "compactions": self.compactions,
            "recovered_catalogs": self.recovered_catalogs,
            "replayed_ops": self.replayed_ops,
            "journal_truncations": self.journal_truncations,
            "truncated_bytes": self.truncated_bytes,
            "quarantined": quarantined,
        }

    def close(self) -> None:
        """Release the journal file handle (tests, daemon shutdown)."""
        if self._journal is not None:
            self._journal.close()

    # -- audit --------------------------------------------------------------
    def _audit(
        self, name: str, catalog: ViewCatalog
    ) -> tuple["CatalogAuditor", "AuditReport"]:
        """Audit *catalog* on a copy of *name*'s auditor; publish nothing.

        Raises :class:`~repro.errors.AnalysisError` when findings reach
        the configured severity; the caller must not install/keep the
        offending content.  On success returns the audited copy and its
        report, for the caller to publish with the catalog once the
        journal holds the change.
        """
        from ..analysis.catalog import CatalogAuditor

        assert self._audit_threshold is not None
        published = self._auditors.get(name)
        auditor = copy.copy(published) if published else CatalogAuditor()
        report = auditor.audit(catalog)
        self.audits += 1
        offending = report.at_least(self._audit_threshold)
        if offending:
            self.audit_rejections += 1
            raise AnalysisError(
                f"catalog {name!r} rejected by audit preflight: "
                f"{len(offending)} diagnostic(s) at or above "
                f"{self._audit_threshold.name.lower()} severity",
                diagnostics=tuple(offending),
            )
        return auditor, report

    # -- lookup -------------------------------------------------------------
    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._catalogs

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._catalogs))

    def quarantined_names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._quarantined))

    def get(self, name: str) -> ViewCatalog:
        """The catalog registered under *name* (taxonomy error if none)."""
        with self._lock:
            if name in self._quarantined:
                raise self._corruption_error(name)
            try:
                return self._catalogs[name]
            except KeyError:
                raise UnknownViewError(
                    f"unknown catalog {name!r}; register it first with a "
                    '{"type": "catalog", "action": "register"} message'
                ) from None

    def resolve(
        self, name: str | None, default: ViewCatalog | None
    ) -> ViewCatalog:
        """The catalog a plan request should run against."""
        if name is not None:
            return self.get(str(name))
        if default is None:
            raise UnknownViewError(
                "request names no catalog and the daemon has no default "
                "(--views); register a catalog or pass \"catalog\""
            )
        return default

    # -- mutation -----------------------------------------------------------
    def register(self, name: str, views: Iterable[str]) -> dict:
        """Create (or wholly replace) the catalog under *name*.

        With auditing enabled the catalog is audited *before* it is
        installed: a rejected registration leaves any previously
        registered content, its auditor and its report untouched.  A
        durable registry journals the accepted registration before
        installing it; re-registering a quarantined name clears its
        quarantine.
        """
        if not name:
            raise ParseError('catalog "name" must be a non-empty string')
        texts = [str(text) for text in views]
        catalog = ViewCatalog(texts)
        content_root = catalog.content_root()
        ack = {
            "catalog": name,
            "action": "register",
            "views": len(catalog),
            "version": catalog.version,
            "content_root": content_root,
        }
        audited = self._audit(name, catalog) if self.auditing else None
        if audited is not None:
            ack["audit"] = _audit_ack(audited[1])
        # The journal carries the texts as received — they parse to the
        # same views (that's what the journaled root verifies on replay),
        # and skipping re-serialization keeps the append overhead low.
        self._journal_op(
            {
                "op": "register",
                "name": name,
                "views": texts,
                "root": content_root,
            }
        )
        with self._lock:
            ack["replaced"] = name in self._catalogs
            self._catalogs[name] = catalog
            if audited is not None:
                self._auditors[name], self._reports[name] = audited
            self._quarantined.pop(name, None)
            self.registrations += 1
        self._maybe_checkpoint()
        return ack

    def update(
        self,
        name: str,
        *,
        add: Iterable[str] = (),
        remove: Iterable[str] = (),
        replace: Iterable[str] = (),
    ) -> dict:
        """Apply incremental deltas to a registered catalog.

        The catalog *name* is validated first — an unknown (or
        quarantined) name reports its registry-level error even when
        the view payload is also malformed.  The update is then staged
        on a copy (see :func:`_stage_update`), audited and journaled
        there, and published whole.  Every mutation's
        :class:`~repro.views.view.CatalogDelta` is echoed in the
        acknowledgement so the client can audit exactly what changed
        and at which version.  Any rejected or failed step leaves the
        published catalog untouched (the same object, order, version
        and root), and its auditor and audit report with it.
        """
        catalog = self.get(name)
        op = {
            "op": "update",
            "name": name,
            "remove": [str(view_name) for view_name in remove],
            "replace": [str(text) for text in replace],
            "add": [str(text) for text in add],
        }
        staged, deltas = _stage_update(catalog, op)
        op["root"] = staged.content_root()
        ack = {
            "catalog": name,
            "action": "update",
            "deltas": [str(delta) for delta in deltas],
            "views": len(staged),
            "version": staged.version,
            "content_root": op["root"],
        }
        audited = self._audit(name, staged) if self.auditing else None
        if audited is not None:
            ack["audit"] = _audit_ack(audited[1])
        # Never acknowledge (or serve) state the journal does not hold.
        self._journal_op(op)
        with self._lock:
            self._catalogs[name] = staged
            if audited is not None:
                self._auditors[name], self._reports[name] = audited
            self.updates += 1
        self._maybe_checkpoint()
        return ack

    def remove(self, name: str) -> dict:
        """Drop the catalog under *name* (quarantined names included).

        Removing a quarantined catalog is the operator's "give up on
        this content" escape hatch — the quarantine marker is dropped
        along with the name, and the removal is journaled so it
        survives restarts.
        """
        with self._lock:
            known = name in self._catalogs or name in self._quarantined
            was_quarantined = name in self._quarantined
        if not known:
            raise UnknownViewError(
                f"unknown catalog {name!r}; nothing to remove"
            )
        self._journal_op({"op": "remove", "name": name})
        with self._lock:
            self._catalogs.pop(name, None)
            self._quarantined.pop(name, None)
            self.removals += 1
        self._auditors.pop(name, None)
        self._reports.pop(name, None)
        ack = {
            "catalog": name,
            "action": "remove",
            "removed": True,
            "was_quarantined": was_quarantined,
        }
        self._maybe_checkpoint()
        return ack

    def stats(self) -> Mapping[str, dict]:
        """Per-catalog introspection for the ``stats`` message."""
        with self._lock:
            catalogs = dict(self._catalogs)
            reports = dict(self._reports)
            quarantined = dict(self._quarantined)
        snapshot = {}
        for name, catalog in sorted(catalogs.items()):
            entry = {
                "views": len(catalog),
                "version": catalog.version,
                "content_root": catalog.content_root(),
            }
            report = reports.get(name)
            if report is not None:
                entry["diagnostics"] = {
                    "error": len(report.errors),
                    "warning": len(report.warnings),
                    "info": len(report.infos),
                }
            snapshot[name] = entry
        for name, record in sorted(quarantined.items()):
            snapshot[name] = {
                "quarantined": True,
                "reason": record.reason,
            }
        return snapshot


def _audit_ack(report: "AuditReport") -> dict:
    """The audit summary attached to a register/update acknowledgement."""
    return {
        "diagnostics": report.counts(),
        "views_analyzed": report.views_analyzed,
        "views_reused": report.views_reused,
    }


def _from_texts(views: object) -> ViewCatalog:
    """A catalog from journaled or snapshotted view texts."""
    if not isinstance(views, (list, tuple)):
        raise ValueError("view texts are not a list")
    return ViewCatalog(str(text) for text in views)


def _stage_update(
    catalog: ViewCatalog, op: Mapping
) -> tuple[ViewCatalog, list[CatalogDelta]]:
    """Apply an update *op* to a copy of *catalog*; return it and its deltas.

    Live updates and journal replay both run this.  Every text is parsed
    before the first delta, so a parse error outranks an unknown or
    duplicate view.  Removals run first (so a rename expressed as
    remove+add is order-independent), then replacements, then
    additions.  The copy shares *catalog*'s dicts, which deltas never
    edit in place, so *catalog* itself is never touched.
    """
    replace = [as_view(str(text)) for text in op.get("replace", ())]
    add = [as_view(str(text)) for text in op.get("add", ())]
    staged = copy.copy(catalog)
    deltas = [staged.remove_view(str(name)) for name in op.get("remove", ())]
    deltas += [staged.replace_view(view) for view in replace]
    deltas += [staged.add_view(view) for view in add]
    return staged, deltas
