"""The asyncio front door: intake, dispatch, drain, introspection.

One :class:`PlanningDaemon` owns four pieces of machinery:

* an **asyncio server** (TCP or Unix socket) reading newline-delimited
  JSON frames per connection (:mod:`repro.serve.protocol`);
* an :class:`~repro.serve.admission.AdmissionController` deciding
  shed-or-admit *before* any planning cost is spent;
* a bounded intake queue feeding **dispatcher coroutines** that submit
  admitted requests to the long-lived
  :class:`~repro.parallel.SupervisedWorkerPool` and stream responses
  back as they settle (responses are correlated by ``id``, not order);
* a **drain protocol**: SIGTERM, SIGINT, or a ``{"type": "drain"}``
  frame stops admission (:class:`~repro.errors.ShuttingDownError` for
  late arrivals), settles in-flight work within ``drain_deadline``
  seconds, shuts the pool down (anything past the deadline resolves
  with a structured ShuttingDownError outcome — never silence), flushes
  the plan cache directory, and exits 0 on a clean drain.

With ``state_dir`` set, the catalog registry is durable: every
register/update/remove is journaled-then-applied
(:mod:`repro.serve.journal`), the drain writes a compacted snapshot
(:mod:`repro.serve.snapshot`), and the next ``run()`` recovers all
named catalogs before the ready line — content-root-verified, with
corrupt content quarantined behind
:class:`~repro.errors.CatalogCorruptionError` (exit 80).

Deadline propagation: a request admitted with a ``timeout`` is stamped
on admission; the dispatcher re-arms the budget with the *remaining*
deadline via :meth:`~repro.planner.limits.ResourceBudget.with_deadline`
before the worker sees it, so queue wait is charged against the
request's budget, not added on top of it.  A request whose deadline
fully elapsed while queued is answered immediately with a structured
:class:`~repro.errors.BudgetExceededError` — shedding late is still
cheaper than planning pointlessly.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import os
import signal
import stat
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import (
    BudgetExceededError,
    ParseError,
    ReproError,
    ShuttingDownError,
)
from ..parallel.supervisor import SupervisedWorkerPool, SupervisorPolicy
from ..parallel.worker import WorkerConfig, WorkerTask
from ..planner.limits import ResourceBudget
from ..service.batch import request_from_payload
from ..service.cache import PlanCache
from ..testing.faults import fire
from ..views.view import ViewCatalog
from .admission import AdmissionController, AdmissionPolicy
from .catalogs import CatalogRegistry
from .protocol import decode_frame, encode_frame, error_response

__all__ = ["PlanningDaemon", "ServeConfig"]


@dataclass(frozen=True)
class ServeConfig:
    """Everything the daemon needs to listen, admit, and plan."""

    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (reported once listening).
    port: int = 0
    #: When set, a Unix socket path is used instead of TCP.
    unix_socket: str | None = None
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    supervisor: SupervisorPolicy = field(default_factory=SupervisorPolicy)
    worker: WorkerConfig = field(default_factory=WorkerConfig)
    #: CLI-level budget applied to requests without their own timeout.
    default_budget: ResourceBudget | None = None
    #: Dispatcher coroutines; 0 = one per worker plus one.
    dispatchers: int = 0
    #: Seconds a graceful drain may spend settling in-flight work.
    drain_deadline: float = 10.0
    #: Audit-preflight severity for catalog register/update messages:
    #: ``"error"``/``"warning"``/``"info"`` reject catalogs whose C1xx
    #: findings reach that severity; ``None``/``"never"`` disables.
    audit_fail_on: str | None = None
    #: Directory holding the catalog write-ahead journal + snapshots;
    #: ``None`` keeps the registry purely in-memory.  With a state dir
    #: the daemon recovers every named catalog on startup and journals
    #: every mutation before acknowledging it.
    state_dir: str | None = None
    #: Journaled operations between compacted snapshots.
    snapshot_every: int = 64

    def resolve_dispatchers(self) -> int:
        if self.dispatchers > 0:
            return self.dispatchers
        return max(1, self.supervisor.workers) + 1


class _QueueItem:
    """One admitted plan request waiting for a dispatcher."""

    __slots__ = ("rid", "request", "writer", "lock", "admitted_at")

    def __init__(
        self,
        rid: str,
        request: Any,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        admitted_at: float,
    ) -> None:
        self.rid = rid
        self.request = request
        self.writer = writer
        self.lock = lock
        self.admitted_at = admitted_at


class PlanningDaemon:
    """A resident multi-tenant planning service (see module docstring)."""

    def __init__(
        self,
        config: ServeConfig | None = None,
        *,
        default_catalog: ViewCatalog | None = None,
        on_ready: Callable[["PlanningDaemon"], None] | None = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.pool = SupervisedWorkerPool(
            self.config.worker, policy=self.config.supervisor
        )
        self.admission = AdmissionController(self.config.admission)
        self.catalogs = CatalogRegistry(
            audit_fail_on=self.config.audit_fail_on,
            state_dir=self.config.state_dir,
            snapshot_every=self.config.snapshot_every,
        )
        self.default_catalog = default_catalog
        self._on_ready = on_ready
        #: ``("tcp", host, port)`` or ``("unix", path)`` once listening.
        self.address: tuple | None = None
        self.started_at: float | None = None
        self.requests_total = 0
        self.responses_total = 0
        self.error_responses = 0
        self.degraded_served = 0
        self._task_seq = itertools.count()
        self._rid_seq = itertools.count(1)
        self._profile_totals: dict[str, float] = {}
        self._search_totals: dict[str, int] = {}
        self._profiled_requests = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._queue: asyncio.Queue | None = None
        self._drained: asyncio.Event | None = None
        self._draining = False
        self._drain_reason: str | None = None
        self._drain_started: float | None = None
        self._queue_settled = True
        self.drain_report: dict | None = None
        self.cache_entries_flushed: int | None = None
        #: Result of the drain-time catalog checkpoint (durable mode).
        self.final_checkpoint: dict | None = None

    # -- lifecycle ----------------------------------------------------------
    async def run(self) -> int:
        """Serve until drained; returns the process exit code (0/79)."""
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._queue = asyncio.Queue()
        self._drained = asyncio.Event()
        self.started_at = time.monotonic()
        self.pool.start()
        if self.config.unix_socket is not None:
            # A previous daemon (cleanly exited or killed) leaves its
            # socket file behind; binding over a stale one must work.
            self._unlink_socket(self.config.unix_socket)
            server = await asyncio.start_unix_server(
                self._on_connection, path=self.config.unix_socket
            )
            self.address = ("unix", self.config.unix_socket)
        else:
            server = await asyncio.start_server(
                self._on_connection, self.config.host, self.config.port
            )
            sock = server.sockets[0].getsockname()
            self.address = ("tcp", sock[0], sock[1])
        installed_signals = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, self.begin_drain, f"signal:{signum.name}"
                )
                installed_signals.append(signum)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread or unsupported platform
        dispatchers = [
            asyncio.create_task(self._dispatch())
            for _ in range(self.config.resolve_dispatchers())
        ]
        if self._on_ready is not None:
            self._on_ready(self)
        try:
            await self._drained.wait()
        finally:
            server.close()
            await server.wait_closed()
            if self.config.unix_socket is not None:
                self._unlink_socket(self.config.unix_socket)
            for signum in installed_signals:
                try:
                    loop.remove_signal_handler(signum)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass
        for _ in dispatchers:
            self._queue.put_nowait(None)
        if not self._queue_settled:
            # The drain deadline already elapsed queue-side.  Shut the
            # pool down *before* waiting on the dispatchers: that aborts
            # queued tickets and kills in-flight workers so every
            # outstanding future settles with a structured
            # ShuttingDownError — otherwise the dispatchers would keep
            # planning the backlog past the deadline, and a
            # deadline-less in-flight request on a healthy worker would
            # never resolve, hanging the drain forever.
            self.drain_report = await asyncio.to_thread(
                self.pool.shutdown, drain=False
            )
        _, pending = await asyncio.wait(
            dispatchers, timeout=max(self._drain_remaining(), 1.0)
        )
        if pending:
            # Dispatchers missed the deadline (e.g. stuck awaiting a
            # future the pool still holds).  asyncio.wait does not
            # cancel on timeout, so no response is torn mid-write;
            # aborting the pool resolves whatever they are blocked on,
            # and the second wait then settles promptly.
            self._queue_settled = False
            if self.drain_report is None:
                self.drain_report = await asyncio.to_thread(
                    self.pool.shutdown, drain=False
                )
            await asyncio.gather(*dispatchers, return_exceptions=True)
        if self.drain_report is None:
            self.drain_report = await asyncio.to_thread(
                self.pool.shutdown, drain=True, deadline=self._drain_remaining()
            )
        self.cache_entries_flushed = self._flush_cache()
        if self.catalogs.durable:
            # A clean drain leaves the state dir compacted: one
            # snapshot, an empty journal, fast next boot.  Checkpoint
            # failure is non-fatal — the journal alone still recovers.
            try:
                self.final_checkpoint = self.catalogs.checkpoint()
            finally:
                self.catalogs.close()
        clean = (
            self._queue_settled
            and bool(self.drain_report.get("drained", False))
            and int(self.drain_report.get("aborted", 0)) == 0
        )
        return 0 if clean else ShuttingDownError.exit_code

    def begin_drain(self, reason: str = "request") -> None:
        """Flip the daemon into draining mode (idempotent, thread-safe)."""
        if self._draining:
            return
        self._draining = True
        self._drain_reason = reason
        self._drain_started = time.monotonic()
        self.admission.draining = True
        fire("serve_drain")  # phase: stop admitting
        loop = self._loop
        if loop is None:
            return
        loop.call_soon_threadsafe(
            lambda: loop.create_task(self._finish_drain())
        )

    async def _finish_drain(self) -> None:
        assert self._queue is not None and self._drained is not None
        try:
            await asyncio.wait_for(
                self._queue.join(), timeout=self.config.drain_deadline
            )
            self._queue_settled = True
        except asyncio.TimeoutError:
            self._queue_settled = False
        fire("serve_drain")  # phase: in-flight settled (or deadline hit)
        self._drained.set()

    @staticmethod
    def _unlink_socket(path: str) -> None:
        """Remove *path* only if it is (or was) a Unix socket file."""
        try:
            if stat.S_ISSOCK(os.stat(path).st_mode):
                os.unlink(path)
        except OSError:
            pass

    def _drain_remaining(self) -> float:
        if self._drain_started is None:
            return self.config.drain_deadline
        elapsed = time.monotonic() - self._drain_started
        return max(0.0, self.config.drain_deadline - elapsed)

    def _flush_cache(self) -> int | None:
        """Settle the shared plan-cache directory durably (drain step)."""
        cache_dir = self.config.worker.cache_dir
        if cache_dir is None:
            return None
        try:
            cache = PlanCache(
                cache_dir, ttl_seconds=self.config.worker.cache_ttl
            )
            return cache.flush()
        except Exception:
            return None

    # -- intake -------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        lock = asyncio.Lock()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                stripped = line.strip()
                if not stripped:
                    continue
                await self._handle_frame(stripped, writer, lock)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _handle_frame(
        self,
        raw: bytes,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
    ) -> None:
        self.requests_total += 1
        try:
            payload = decode_frame(raw)
        except ParseError as exc:
            await self._send(writer, lock, error_response(None, exc))
            return
        mtype = str(payload.get("type", "plan"))
        rid = payload.get("id")
        rid = str(rid) if rid is not None else None
        if mtype == "healthz":
            await self._send(writer, lock, {"id": rid, **self.healthz()})
        elif mtype == "stats":
            await self._send(writer, lock, {"id": rid, **self.stats()})
        elif mtype == "drain":
            self.begin_drain("drain message")
            await self._send(
                writer,
                lock,
                {
                    "id": rid,
                    "status": "draining",
                    "drain_deadline": self.config.drain_deadline,
                },
            )
        elif mtype == "catalog":
            try:
                ack = self._handle_catalog(payload)
            except ReproError as exc:
                await self._send(writer, lock, error_response(rid, exc))
            else:
                await self._send(
                    writer, lock, {"id": rid, "status": "ok", **ack}
                )
        elif mtype == "plan":
            await self._handle_plan(payload, writer, lock)
        else:
            await self._send(
                writer,
                lock,
                error_response(
                    rid, ParseError(f"unknown message type {mtype!r}")
                ),
            )

    def _handle_catalog(self, payload: dict) -> dict:
        action = str(payload.get("action", ""))
        name = str(payload.get("name", ""))
        if action == "register":
            views = payload.get("views", [])
            if not isinstance(views, list):
                raise ParseError('catalog "views" must be a list of texts')
            return self.catalogs.register(name, views)
        if action == "update":
            # Validate the catalog name *before* the payload shape: an
            # update naming an unknown (or quarantined) catalog must
            # report the registry-level error consistently, even when
            # the view lists are also malformed.
            self.catalogs.get(name)

            def _texts(key: str) -> list:
                value = payload.get(key, [])
                if not isinstance(value, list):
                    raise ParseError(f'catalog "{key}" must be a list')
                return value

            return self.catalogs.update(
                name,
                add=_texts("add"),
                remove=_texts("remove"),
                replace=_texts("replace"),
            )
        if action == "remove":
            return self.catalogs.remove(name)
        raise ParseError(
            f'unknown catalog action {action!r}; expected "register", '
            '"update", or "remove"'
        )

    async def _handle_plan(
        self,
        payload: dict,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
    ) -> None:
        assert self._loop is not None and self._queue is not None
        raw_id = payload.get("id")
        rid = (
            str(raw_id)
            if raw_id is not None
            else f"req-{next(self._rid_seq)}"
        )
        tenant = str(payload.get("tenant", "default"))
        try:
            self.admission.admit(
                tenant=tenant, queue_depth=self._queue.qsize()
            )
        except ReproError as exc:
            await self._send(writer, lock, error_response(rid, exc))
            return
        try:
            catalog_name = payload.get("catalog")
            catalog = self.catalogs.resolve(
                None if catalog_name is None else str(catalog_name),
                self.default_catalog,
            )
            body = {
                key: value
                for key, value in payload.items()
                if key not in ("type", "tenant", "catalog")
            }
            body.setdefault("id", rid)
            request = request_from_payload(
                body,
                catalog,
                number=rid,
                default_budget=self.config.default_budget,
            )
        except ReproError as exc:
            # Unlike batch, a daemon never aborts on one bad request —
            # the producer is some remote tenant, not our own pipeline.
            await self._send(writer, lock, error_response(rid, exc))
            return
        self._queue.put_nowait(
            _QueueItem(rid, request, writer, lock, self._loop.time())
        )

    # -- dispatch -----------------------------------------------------------
    async def _dispatch(self) -> None:
        assert self._queue is not None
        while True:
            item = await self._queue.get()
            if item is None:
                self._queue.task_done()
                break
            try:
                await self._serve_item(item)
            except Exception as exc:
                # Belt and braces: a dispatcher bug must still answer.
                try:
                    await self._send(
                        item.writer,
                        item.lock,
                        error_response(item.rid, exc),
                    )
                except Exception:
                    pass
            finally:
                self._queue.task_done()

    async def _serve_item(self, item: _QueueItem) -> None:
        assert self._loop is not None
        started = self._loop.time()
        request = item.request
        budget = request.budget
        if budget is not None and budget.deadline_seconds is not None:
            waited = started - item.admitted_at
            remaining = budget.deadline_seconds - waited
            if remaining <= 0:
                error = BudgetExceededError(
                    f"request {request.id!r} spent its whole "
                    f"{budget.deadline_seconds:.3f}s deadline queued "
                    f"({waited:.3f}s); not planned",
                    resource="deadline",
                )
                await self._send(
                    item.writer, item.lock, error_response(item.rid, error)
                )
                return
            request = dataclasses.replace(
                request, budget=budget.with_deadline(remaining)
            )
        task = WorkerTask(index=next(self._task_seq), request=request)
        try:
            future = self.pool.submit(task)
        except ShuttingDownError as exc:
            await self._send(
                item.writer, item.lock, error_response(item.rid, exc)
            )
            return
        result = await asyncio.wrap_future(future)
        if result.error is not None:
            await self._send(
                item.writer, item.lock, error_response(item.rid, result.error)
            )
            return
        outcome = result.outcome
        assert outcome is not None  # error/outcome is exhaustive
        self.admission.record_service_time(self._loop.time() - started)
        if outcome.status == "degraded":
            self.degraded_served += 1
        response = outcome.to_json()
        self._absorb_profile(response)
        response["id"] = item.rid
        await self._send(item.writer, item.lock, response)

    def _absorb_profile(self, payload: dict) -> None:
        profile = payload.get("profile")
        if not isinstance(profile, dict):
            return
        seconds = profile.get("phase_seconds")
        if not isinstance(seconds, dict):
            return
        for phase, value in seconds.items():
            try:
                self._profile_totals[phase] = self._profile_totals.get(
                    phase, 0.0
                ) + float(value)
            except (TypeError, ValueError):
                continue
        search = profile.get("search")
        if isinstance(search, dict):
            for counter, value in search.items():
                try:
                    self._search_totals[counter] = self._search_totals.get(
                        counter, 0
                    ) + int(value)
                except (TypeError, ValueError):
                    continue
        self._profiled_requests += 1

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        payload: dict,
    ) -> None:
        if payload.get("status") == "error":
            self.error_responses += 1
        self.responses_total += 1
        frame = encode_frame(payload)
        try:
            async with lock:
                writer.write(frame)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, RuntimeError):
            pass  # client went away; the response is accounted regardless

    # -- introspection ------------------------------------------------------
    def status(self) -> str:
        """Where the daemon sits on the degradation ladder.

        ``draining`` > ``shedding`` (intake queue at capacity right
        now) > ``degraded`` (a worker was restarted, a request got a
        crash outcome, a degraded/stale-cache answer was served — both
        sticky until process restart — or a recovered catalog is
        quarantined, sticky until it is re-registered or removed) >
        ``healthy``.
        """
        if self._draining:
            return "draining"
        depth = self._queue.qsize() if self._queue is not None else 0
        if depth >= self.config.admission.max_queue_depth:
            return "shedding"
        if (
            self.pool.restarts > 0
            or self.pool.crashes > 0
            or self.degraded_served > 0
            or self.catalogs.quarantined_names()
        ):
            return "degraded"
        return "healthy"

    def healthz(self) -> dict:
        """The lightweight liveness payload."""
        return {
            "status": self.status(),
            "draining": self._draining,
            "queue_depth": (
                self._queue.qsize() if self._queue is not None else 0
            ),
            "workers": len(self.pool._slots),
            "busy_workers": self.pool.busy_workers(),
            "uptime_seconds": (
                round(time.monotonic() - self.started_at, 3)
                if self.started_at is not None
                else 0.0
            ),
            "recovered_catalogs": self.catalogs.recovered_catalogs,
            "compactions": self.catalogs.compactions,
            "quarantined_catalogs": len(self.catalogs.quarantined_names()),
        }

    def stats(self) -> dict:
        """The full introspection payload."""
        profile: dict | None = None
        if self._profiled_requests:
            profile = {
                "requests": self._profiled_requests,
                "phase_seconds": {
                    phase: round(seconds, 6)
                    for phase, seconds in sorted(
                        self._profile_totals.items()
                    )
                },
                "search": {
                    counter: total
                    for counter, total in sorted(
                        self._search_totals.items()
                    )
                },
            }
        return {
            **self.healthz(),
            "drain_reason": self._drain_reason,
            "requests": {
                "received": self.requests_total,
                "responses": self.responses_total,
                "errors": self.error_responses,
                "degraded": self.degraded_served,
            },
            "admission": self.admission.stats(),
            "queue_capacity": self.config.admission.max_queue_depth,
            "pool": self.pool.stats(),
            "catalogs": dict(self.catalogs.stats()),
            "durability": self.catalogs.durability_stats(),
            "audit": {
                "enabled": self.catalogs.auditing,
                "audits": self.catalogs.audits,
                "rejections": self.catalogs.audit_rejections,
            },
            "profile": profile,
        }
