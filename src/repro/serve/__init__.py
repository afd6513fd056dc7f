"""The resident planning daemon behind ``repro serve``.

This package promotes the one-shot ``repro batch`` path into a
long-lived multi-tenant service: an asyncio front door speaking
newline-delimited JSON over a TCP or Unix socket, streaming plan
requests into a :class:`~repro.parallel.SupervisedWorkerPool` whose
workers each plan on one warm planner context and keep the catalogs
they were sent resident, amortizing planning work across requests.

Robustness is the organizing principle (see the "Degradation ladder"
section of ``docs/robustness.md``):

* bounded admission with explicit load-shedding
  (:class:`~repro.errors.OverloadError`, exit code 78, with a
  ``Retry-After``-style hint) and per-tenant token-bucket rate limits;
* deadline propagation — queue wait is charged against the request's
  budget before a worker ever sees it;
* heartbeat-supervised workers restarted on crash/hang with
  breaker-scoreboard merge, recycled on request count or RSS;
* named catalog registration and staged updates (``catalog``
  messages), each change acknowledged with its
  :class:`~repro.views.view.CatalogDelta` records;
* graceful drain on SIGTERM (:class:`~repro.errors.ShuttingDownError`,
  exit code 79): stop admitting, settle in-flight work within a drain
  deadline, flush the plan cache, checkpoint the catalog state, exit 0;
* durable catalog state (``--state-dir``): a checksummed write-ahead
  journal (:class:`~repro.serve.journal.CatalogJournal`) plus compacted
  snapshots (:class:`~repro.serve.snapshot.SnapshotStore`) recover
  every named catalog across restarts, content-root-verified, with
  corrupt content quarantined
  (:class:`~repro.errors.CatalogCorruptionError`, exit code 80);
* ``healthz``/``stats`` introspection messages.
"""

from .admission import AdmissionController, AdmissionPolicy, TokenBucket
from .catalogs import CatalogRegistry
from .client import RetryBackoff, ServeClient
from .daemon import PlanningDaemon, ServeConfig
from .journal import CatalogJournal, scan_journal
from .protocol import (
    decode_frame,
    encode_frame,
    error_from_payload,
    error_response,
)
from .snapshot import SnapshotStore

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "CatalogJournal",
    "CatalogRegistry",
    "PlanningDaemon",
    "RetryBackoff",
    "ServeClient",
    "ServeConfig",
    "SnapshotStore",
    "TokenBucket",
    "decode_frame",
    "encode_frame",
    "error_from_payload",
    "error_response",
    "scan_journal",
]
