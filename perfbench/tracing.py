"""Spans recorded from outside the program, and their self times.

A :class:`Tracer` keeps spans in memory — name, start, end, parent span
and request id — and writes them once, at the end of the traced run.
Layers are timed by wrapping a callee's public function at the name
its caller looks it up by; ``src/`` itself is never modified.  Work
inside worker processes is not wrapped: it comes from the outcome
profiles and ``stats`` frames the program already emits.

Phase wrappers (the nine plan phases) do not nest: a phase function
called inside another phase — ``PlannerContext.minimize`` on each view
during grouping, say — belongs to the outer phase, exactly as the
planner's own stage timers book it.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator

#: Shared by every process on the host (CLOCK_MONOTONIC on Linux), so
#: spans from a traced child compare with the generator's timestamps.
clock = time.monotonic

_NAME, _RID, _START, _END, _PARENT, _ATTRS = range(6)

#: The plan phases reported per layer as ``core.<phase>_ms``.
CORE_PHASES = (
    "minimize", "grouping", "canonical_db", "view_tuples", "tuple_cores",
    "set_cover",
)
#: Pipe writes smaller than this are control messages, not tasks.
TASK_MIN_BYTES = 1024


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list[Any]] = []
        self.aliases: dict[str, str] = {}
        self._local = threading.local()
        self._frames = itertools.count(1)

    # -- recording ----------------------------------------------------------
    def _state(self) -> threading.local:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.phases = 0
            local.frame = None
        return local

    def active(self, phase: bool = False) -> bool:
        """Whether a new span should be recorded on this thread."""
        if os.getpid() != self.pid:  # a forked worker's copy
            return False
        return not (phase and self._state().phases)

    @contextmanager
    def span(
        self, name: str, rid: str | None = None, *, phase: bool = False
    ) -> Iterator[None]:
        state = self._state()
        parent = state.stack[-1] if state.stack else None
        if rid is None:
            rid = self.spans[parent][_RID] if parent is not None else state.frame
        index = len(self.spans)
        self.spans.append([name, rid, clock(), None, parent, None])
        state.stack.append(index)
        state.phases += phase
        try:
            yield
        finally:
            self.spans[index][_END] = clock()
            state.stack.pop()
            state.phases -= phase

    def annotate(self, **attrs: Any) -> None:
        """Attach *attrs* to the innermost open span of this thread."""
        state = self._state()
        if state.stack:
            self.spans[state.stack[-1]][_ATTRS] = attrs

    def event(self, name: str, rid: str | None = None, **attrs: Any) -> None:
        """A zero-length span carrying *attrs* (sizes, worker results)."""
        if os.getpid() != self.pid:
            return
        now = clock()
        self.spans.append([name, rid, now, now, None, attrs])

    def new_frame(self) -> str:
        """Start an anonymous request id for spans on this thread."""
        frame = f"frame-{next(self._frames)}"
        self._state().frame = frame
        return frame

    def alias(self, rid: str) -> None:
        """Name this thread's current anonymous frame *rid*."""
        frame = self._state().frame
        if frame is not None:
            self.aliases[frame] = rid

    # -- wrapping -----------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        rid: Callable[..., str | None] | None = None,
        phase: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper recording span *name*."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.active(phase):
                return original(*args, **kwargs)
            with self.span(
                name, rid(*args, **kwargs) if rid else None, phase=phase
            ):
                return original(*args, **kwargs)

        setattr(owner, attr, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "aliases": self.aliases}, handle)


# -- layer wrappers -----------------------------------------------------------

def install_planning(tracer: Tracer) -> None:
    """The plan phases, wrapped where ``plan()``/CoreCover call them."""
    from repro.core import corecover
    from repro.cost.registry import CostModel
    from repro.planner.context import PlannerContext

    for attr, name in (
        ("group_equivalent_views", "core.grouping"),
        ("view_tuples", "core.view_tuples"),
        ("tuple_cores", "core.tuple_cores"),
        ("minimum_covers", "core.set_cover"),
    ):
        tracer.wrap(corecover, attr, name, phase=True)
    tracer.wrap(PlannerContext, "minimize", "core.minimize", phase=True)
    tracer.wrap(
        PlannerContext, "canonical_database", "core.canonical_db", phase=True
    )
    tracer.wrap(PlannerContext, "join_tree", "planner.preflight", phase=True)
    tracer.wrap(CostModel, "select", "cost.ranking", phase=True)


def install_catalog(tracer: Tracer) -> None:
    from repro.views.view import ViewCatalog

    tracer.wrap(ViewCatalog, "__init__", "views.catalog_build")


def _payload_rid(payload: Any, *args: Any, number: Any = None, **_: Any) -> str:
    if isinstance(payload, dict) and "id" in payload:
        return str(payload["id"])
    return str(number)


def install_service(tracer: Tracer) -> None:
    """Batch intake, the resilient executor and the plan() inside it."""
    from repro.service import batch, executor

    tracer.wrap(batch, "request_from_payload", "datalog.parse", rid=_payload_rid)
    tracer.wrap(
        executor.ResilientExecutor,
        "execute",
        "service.execute",
        rid=lambda _self, request, *a, **k: request.id,
    )
    original = executor.plan

    def plan(*args: Any, **kwargs: Any) -> Any:
        with tracer.span("planner.plan"):
            result = original(*args, **kwargs)
            tracer.annotate(hit_rate=result.stats.cache_hit_rate)
            return result

    executor.plan = plan


def _result_attrs(result: Any) -> dict:
    outcome = getattr(result, "outcome", None)
    stats = getattr(result, "stats", None)
    return {
        "worker_ms": (
            outcome.elapsed_seconds * 1000.0 if outcome is not None else None
        ),
        "hit_rate": stats.cache_hit_rate if stats is not None else None,
        "pool_event": getattr(result, "pool_event", ""),
    }


def install_transport(tracer: Tracer) -> None:
    """Bytes handed to a worker: every pipe write of the parent."""
    from multiprocessing import connection

    original = connection.Connection._send_bytes

    def _send_bytes(self: Any, buf: Any) -> None:
        tracer.event("parallel.send", bytes=len(buf))
        original(self, buf)

    connection.Connection._send_bytes = _send_bytes


def install_pool(tracer: Tracer) -> None:
    """``ParallelPlanningEngine``'s hand-off to ``multiprocessing.Pool``."""
    from multiprocessing import pool

    original = pool.Pool.apply_async

    def apply_async(self, func, args=(), kwds={}, callback=None,
                    error_callback=None):
        task = args[0] if args else None
        rid = getattr(getattr(task, "request", None), "id", None)

        def done(result: Any) -> None:
            tracer.event("parallel.result", rid, **_result_attrs(result))
            if callback is not None:
                callback(result)

        with tracer.span("parallel.submit", rid):
            return original(self, func, args, kwds, done, error_callback)

    pool.Pool.apply_async = apply_async


def install_serve(tracer: Tracer) -> None:
    """The daemon's codec, admission, intake, dispatch and registry."""
    from repro.parallel.supervisor import SupervisedWorkerPool
    from repro.serve import daemon
    from repro.serve.admission import AdmissionController
    from repro.serve.catalogs import CatalogRegistry
    from repro.serve.journal import CatalogJournal

    decode = daemon.decode_frame

    def decode_frame(raw: Any) -> dict:
        tracer.new_frame()
        with tracer.span("serve.codec"):
            return decode(raw)

    daemon.decode_frame = decode_frame
    tracer.wrap(
        daemon,
        "encode_frame",
        "serve.codec",
        rid=lambda payload: str(payload.get("id")),
    )
    tracer.wrap(AdmissionController, "admit", "serve.admit")
    intake = daemon.request_from_payload

    def request_from_payload(payload: Any, *args: Any, **kwargs: Any) -> Any:
        tracer.alias(_payload_rid(payload, **kwargs))
        with tracer.span("datalog.parse"):
            return intake(payload, *args, **kwargs)

    daemon.request_from_payload = request_from_payload
    submit = SupervisedWorkerPool.submit

    def traced_submit(self: Any, task: Any, **kwargs: Any) -> Any:
        rid = task.request.id
        with tracer.span("parallel.submit", rid):
            future = submit(self, task, **kwargs)
        future.add_done_callback(
            lambda done: tracer.event(
                "parallel.result", rid, **_result_attrs(done.result())
            )
        )
        return future

    SupervisedWorkerPool.submit = traced_submit
    tracer.wrap(CatalogRegistry, "register", "serve.register")
    tracer.wrap(CatalogRegistry, "update", "serve.update")
    tracer.wrap(CatalogJournal, "append", "serve.journal_append")


LAYERS: dict[str, tuple[Callable[[Tracer], None], ...]] = {
    "batch-serial": (install_catalog, install_service, install_planning),
    "batch-parallel": (
        install_catalog, install_service, install_pool, install_transport,
    ),
    "serve": (install_catalog, install_serve, install_transport),
}


# -- reading a trace ----------------------------------------------------------

class Trace:
    """Loaded spans with self times and resolved request ids."""

    def __init__(self, spans: list[list[Any]], aliases: dict[str, str]) -> None:
        children = [0.0] * len(spans)
        for span in spans:
            if span[_PARENT] is not None and span[_END] is not None:
                children[span[_PARENT]] += span[_END] - span[_START]
        #: ``(name, rid, start, end, self seconds, attrs)`` per finished
        #: span.
        self.rows: list[tuple[str, Any, float, float, float, dict]] = [
            (
                span[_NAME],
                aliases.get(span[_RID], span[_RID]),
                span[_START],
                span[_END],
                span[_END] - span[_START] - children[index],
                span[_ATTRS] or {},
            )
            for index, span in enumerate(spans)
            if span[_END] is not None
        ]

    @classmethod
    def load(cls, path: str) -> "Trace":
        with open(path) as handle:
            payload = json.load(handle)
        return cls(payload["spans"], payload["aliases"])

    def select(
        self, name: str, keep: Callable[[Any, float], bool] | None = None
    ) -> list[tuple[Any, float, float, float, dict]]:
        """``(rid, start, end, self seconds, attrs)`` of spans *name*."""
        return [
            (rid, start, end, seconds, attrs)
            for span_name, rid, start, end, seconds, attrs in self.rows
            if span_name == name and (keep is None or keep(rid, start))
        ]

    def by_request_ms(
        self,
        names: Iterable[str],
        keep: Callable[[Any, float], bool] | None = None,
    ) -> dict[Any, float]:
        """Self time of *names* summed per request id, in ms.

        Spans without a request id count one request each.
        """
        totals: dict[Any, float] = defaultdict(float)
        for name in names:
            for position, (rid, _, _, seconds, _) in enumerate(
                self.select(name, keep)
            ):
                key = rid if rid is not None else (name, position)
                totals[key] += seconds * 1000.0
        return dict(totals)

    def per_request_ms(
        self,
        names: Iterable[str],
        keep: Callable[[Any, float], bool] | None = None,
    ) -> list[float]:
        """Self time of *names* summed per request id, in ms."""
        return list(self.by_request_ms(names, keep).values())
