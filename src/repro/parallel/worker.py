"""Worker-side state for the supervised worker pool.

Each pool worker holds one :class:`WorkerState`: a resilient executor
(whose circuit breakers span every request the worker serves, matching
the serial executor's semantics) and the executor's one warm
:class:`~repro.planner.context.PlannerContext`, which every request the
worker serves plans on.  Every memo in a context is keyed on the
structure of queries and view definitions, never on catalog identity,
so one context is sound across every catalog and every catalog change
the worker sees; warm state that is specific to one catalog (its
Section 5.2 class memo and compiled view forms) lives on the worker's
resident copy of that catalog.  The context grows for the worker's
life; ``SupervisorPolicy.recycle_after_requests`` and
``max_rss_bytes`` bound it by replacing the worker.

Everything crossing the process boundary is a small picklable
dataclass:

* :class:`WorkerTask` in — the request, its input-order index, and any
  chaos faults to activate for just this task (deterministic kill
  tests attach the fault to the poisoned task, so replacement workers
  are unaffected).  The request is either a service-layer
  :class:`~repro.service.executor.PlanRequest` (batch and serve) or a
  :class:`PlanTask`, one bare ``plan()`` call with no service layer
  (the experiment sweeps).  Its catalog crosses as pickled bytes the
  pool makes once per catalog version and the worker unpickles once
  (see :mod:`repro.parallel.supervisor`).
* :class:`WorkerResult` out — the outcome (or, for a plan task, its
  :class:`PlanTaskResult`), breaker-counter deltas for the parent's
  scoreboard, and the planner-stats delta.
  Input errors (:class:`~repro.errors.ReproError`) ride back as
  ``error`` so the parent re-raises them with the same taxonomy
  exit-code semantics as the serial path; any other worker-side
  exception degrades to a ``failed`` outcome for that request alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

from ..core.corecover import CoreCoverStats
from ..datalog.query import ConjunctiveQuery
from ..errors import ReproError, ServiceError, WorkerCrashError
from ..planner.context import PlannerContext, PlannerStats
from ..service.cache import PlanCache
from ..service.executor import (
    BackendFailure,
    ExecutionOutcome,
    PlanRequest,
    ResilientExecutor,
)
from ..service.policy import ServicePolicy
from ..testing.faults import Fault, fire, inject
from ..views.view import ViewCatalog

__all__ = [
    "PlanTask",
    "PlanTaskResult",
    "WorkerConfig",
    "WorkerResult",
    "WorkerState",
    "WorkerTask",
    "crash_outcome",
    "run_plan_task",
]


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs to build its executor (picklable)."""

    policy: ServicePolicy = field(default_factory=ServicePolicy)
    cache_dir: str | None = None
    cache_ttl: float | None = None
    strict_cache: bool = False
    profile: bool = False
    #: Catalogs each worker keeps unpickled (an LRU keyed by their bytes).
    pool_size: int = 4

    def __post_init__(self) -> None:
        if self.pool_size < 1:
            raise ValueError(
                f"pool_size must be >= 1 (got {self.pool_size})"
            )


@dataclass(frozen=True)
class WorkerTask:
    """One request dispatched to a worker, tagged with its input order."""

    index: int
    request: PlanRequest | PlanTask
    #: Faults activated around just this task (chaos tests only).
    chaos: tuple[Fault, ...] = ()


@dataclass(frozen=True)
class WorkerResult:
    """What one task sends back across the process boundary."""

    index: int
    outcome: ExecutionOutcome | None = None
    #: An input error the parent must re-raise (serial semantics).
    error: ReproError | None = None
    #: Per-backend ``(successes, failures)`` delta for this task.
    breaker_deltas: Mapping[str, tuple[int, int]] = field(
        default_factory=dict
    )
    #: Planner-stats delta of this task on the worker's warm context.
    stats: PlannerStats | None = None
    #: What a :class:`PlanTask` returns; ``None`` for plan requests.
    plan: PlanTaskResult | None = None


def crash_outcome(
    request: PlanRequest | PlanTask, error: ServiceError
) -> ExecutionOutcome:
    """A ``failed`` outcome for a request its worker could not finish.

    Used for a worker that died or hung mid-plan
    (:class:`~repro.errors.WorkerCrashError`) and for in-flight requests
    aborted by a drain deadline
    (:class:`~repro.errors.ShuttingDownError`).
    """
    return ExecutionOutcome(
        status="failed",
        request_id=request.id,
        attempts=0,
        backend_used=None,
        degraded=False,
        cache="off",
        rewritings=(),
        plan_status=None,
        breakers={},
        failures=(
            BackendFailure(
                backend="worker",
                error=type(error).__name__,
                message=str(error),
                skipped=True,
            ),
        ),
        error=error,
    )


class WorkerState:
    """One worker's executor plus the warm planner context it plans on."""

    def __init__(self, config: WorkerConfig) -> None:
        self.config = config
        cache: PlanCache | None = None
        if config.cache_dir is not None:
            cache = PlanCache(
                config.cache_dir,
                ttl_seconds=config.cache_ttl,
                strict=config.strict_cache,
            )
        self.executor = ResilientExecutor(
            config.policy,
            cache=cache,
            profile=config.profile,
        )
        self.context = self.executor.context

    def run(self, task: WorkerTask) -> WorkerResult:
        """Serve one task, activating its chaos faults if any."""
        if task.chaos:
            with inject(*task.chaos):
                return self._run(task)
        return self._run(task)

    def _run(self, task: WorkerTask) -> WorkerResult:
        request = task.request
        try:
            fire("worker_dispatch")
            if isinstance(request, PlanTask):
                return WorkerResult(
                    index=task.index,
                    plan=run_plan_task(request, self.context),
                )
            before = self.context.snapshot()
            totals_before = self.executor.breaker_totals()
            outcome = self.executor.execute(request)
            deltas = {
                name: (
                    successes - totals_before[name][0],
                    failures - totals_before[name][1],
                )
                for name, (successes, failures) in (
                    self.executor.breaker_totals().items()
                )
            }
            return WorkerResult(
                index=task.index,
                outcome=outcome,
                breaker_deltas=deltas,
                stats=self.context.snapshot().since(before),
            )
        except ReproError as exc:
            # The request itself is bad — identical on every backend and
            # every worker.  Ship it back for the parent to re-raise so
            # the batch aborts with the same taxonomy exit code as the
            # serial path.
            return WorkerResult(index=task.index, error=exc)
        except Exception as exc:
            return WorkerResult(
                index=task.index,
                outcome=crash_outcome(
                    request,
                    WorkerCrashError(
                        f"worker failed while planning request "
                        f"{request.id!r}: {type(exc).__name__}: {exc}",
                        request_id=request.id,
                    ),
                ),
            )


# -- bare plan tasks (experiment sweeps) ------------------------------------


@dataclass(frozen=True)
class PlanTask:
    """One bare ``plan()`` call for :func:`repro.parallel.plan_map`."""

    query: ConjunctiveQuery
    views: ViewCatalog
    backend: str = "corecover"
    options: Mapping = field(default_factory=dict)
    #: ``None`` = a private context per call (the harness's legacy
    #: behaviour); ``True`` = the worker's shared warm context;
    #: ``False`` = a fresh context with memoization off.
    caching: bool | None = None

    @property
    def id(self) -> str:
        """The name crash reports give the task: its query."""
        return str(self.query)


@dataclass(frozen=True)
class PlanTaskResult:
    """The picklable summary a plan task returns."""

    rewritings: tuple[str, ...]
    stats: CoreCoverStats | None
    #: Worker-side wall time of the ``plan()`` call.
    elapsed_seconds: float
    minimum_subgoals: int | None

    @property
    def has_rewriting(self) -> bool:
        return bool(self.rewritings)


def run_plan_task(task: PlanTask, shared: PlannerContext) -> PlanTaskResult:
    """Execute one plan task, on *shared* if the task caches."""
    from ..planner.registry import plan

    context: PlannerContext | None = None
    if task.caching:
        context = shared
    elif task.caching is not None:
        context = PlannerContext(caching=False)
    started = time.perf_counter()
    result = plan(
        task.query,
        task.views,
        backend=task.backend,
        context=context,
        **dict(task.options),
    )
    elapsed = time.perf_counter() - started
    details = result.details
    stats = getattr(details, "stats", None)
    minimum = None
    if details is not None and hasattr(details, "minimum_subgoals"):
        minimum = details.minimum_subgoals()
    return PlanTaskResult(
        rewritings=tuple(str(r) for r in result.rewritings),
        stats=stats if isinstance(stats, CoreCoverStats) else None,
        elapsed_seconds=elapsed,
        minimum_subgoals=minimum,
    )
