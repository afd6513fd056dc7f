"""The resilient executor: supervised ``plan()`` with failover.

:class:`ResilientExecutor` wraps the planner registry behind one call,
:meth:`~ResilientExecutor.execute`, that a serving tier can trust:

1. **Cache first** — a content-addressed, checksummed on-disk
   :class:`~repro.service.cache.PlanCache` (optional) answers repeated
   requests without planning at all; corrupted entries read as misses.
2. **Retry with backoff** — each backend gets ``RetryPolicy.max_attempts``
   tries; transient failures (anything that is not an input error) are
   retried after an exponential-backoff-with-full-jitter delay.  The
   clock, sleeper, and jitter source are injectable, so the chaos tests
   replay deterministically with zero real sleeping.
3. **Circuit breakers** — one
   :class:`~repro.service.breaker.CircuitBreaker` per backend records
   every outcome; an open breaker skips its backend outright instead of
   burning the request deadline on a known-bad path.
4. **Certified failover** — on exhaustion or open circuit, the request
   falls down the chain (default ``corecover -> bucket -> naive``).
   Fallback results must re-verify as genuine equivalent rewritings
   (Definition 2.3) before being served; a backend caught emitting an
   uncertifiable rewriting is quarantined for the process lifetime.
5. **Degraded mode** — when every backend is down, a stale cache entry
   (past TTL) is served with ``degraded=True`` rather than failing; only
   when there is nothing at all does the outcome turn ``failed``,
   carrying a :class:`~repro.errors.RetryExhaustedError` or
   :class:`~repro.errors.CircuitOpenError`.

The request deadline comes from the request's
:class:`~repro.planner.limits.ResourceBudget`: every attempt receives
the *remaining* share via :meth:`ResourceBudget.with_deadline`, so
retries and failover never exceed the caller's overall deadline.

``execute()`` raises only for **input errors** (the request itself is
bad — parse/arity/unknown-view problems are the caller's bug, identical
on every backend).  Operational trouble always lands in the returned
:class:`ExecutionOutcome`; call :meth:`ExecutionOutcome.raise_for_status`
for exception-style handling.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..datalog.parser import parse_query
from ..datalog.query import ConjunctiveQuery
from ..errors import (
    BudgetExceededError,
    CircuitOpenError,
    ReproError,
    RetryExhaustedError,
    UnsupportedQueryError,
    structured_error,
)
from ..planner.context import PlannerContext, PlannerStats
from ..planner.limits import PlanStatus, ResourceBudget
from ..planner.registry import plan
from ..profiling.phases import profile_from_stages
from ..testing.faults import fire
from ..views.view import ViewCatalog
from .breaker import BreakerState, CircuitBreaker
from .cache import CachedPlan, PlanCache, request_key
from .failover import (
    certify_rewritings,
    is_quarantined,
    quarantine,
    resolve_chain,
)
from .policy import ServicePolicy

__all__ = [
    "BackendFailure",
    "ExecutionOutcome",
    "PlanRequest",
    "ResilientExecutor",
]


@dataclass(frozen=True)
class PlanRequest:
    """One rewriting request entering the service layer."""

    query: ConjunctiveQuery
    views: ViewCatalog
    #: Echoed into the outcome (NDJSON correlation id).
    id: str | None = None
    #: Forwarded to the backend (e.g. ``max_rewritings``).
    options: Mapping = field(default_factory=dict)
    #: Overall request budget; its deadline bounds retries + failover.
    budget: ResourceBudget | None = None
    #: Intake parse time (the pre-context ``parse`` phase of a profile);
    #: excluded from the cache key.
    parse_seconds: float = 0.0

    def cache_key(self, chain: tuple[str, ...]) -> str:
        """Content-addressed key over query + relevant views + config.

        Only the views sharing a body predicate with the query (the
        catalog's predicate-signature index, a conservative superset of
        anything a rewriting can use) are hashed, so a delta to an
        irrelevant view leaves this request's cached plan addressable
        while a delta to any potentially-used view misses cleanly.
        """
        return request_key(
            str(self.query),
            [
                str(view.definition)
                for view in self.views.relevant_views(self.query)
            ],
            {"chain": list(chain), "options": dict(self.options)},
        )


@dataclass(frozen=True)
class BackendFailure:
    """Why one backend did not serve the request."""

    backend: str
    error: str
    message: str
    attempts: int = 0
    #: ``True`` when the backend never ran (open circuit / quarantine).
    skipped: bool = False

    def to_json(self) -> dict:
        return {
            "backend": self.backend,
            "error": self.error,
            "message": self.message,
            "attempts": self.attempts,
            "skipped": self.skipped,
        }


@dataclass(frozen=True)
class ExecutionOutcome:
    """Everything one supervised execution produced."""

    #: ``"ok"`` (served live or from fresh cache), ``"degraded"`` (stale
    #: cache, all backends down), or ``"failed"`` (nothing to serve).
    status: str
    request_id: str | None
    #: Total planning attempts across the whole chain (0 = cache hit).
    attempts: int
    #: The backend whose answer was served (cache entries remember
    #: theirs); ``None`` on failure.
    backend_used: str | None
    degraded: bool
    #: ``"hit"``, ``"stale"``, ``"miss"``, or ``"off"`` (no cache).
    cache: str
    rewritings: tuple[ConjunctiveQuery, ...]
    #: The served plan's status: ``"complete"``, or
    #: ``"budget_exhausted"`` for an anytime best-so-far answer.  Cache
    #: hits carry the cached entry's own status (always ``"complete"``
    #: — partial results are never cached); ``None`` on failure.
    plan_status: str | None
    #: Breaker state per backend at outcome time.
    breakers: Mapping[str, str]
    failures: tuple[BackendFailure, ...] = ()
    elapsed_seconds: float = 0.0
    #: The terminal error (``failed`` status only).
    error: BaseException | None = None
    #: Planner-stats delta of the serving attempt (observability only;
    #: never rendered into the default JSON shape).
    planner_stats: "PlannerStats | None" = None
    #: Phase-level profile payload; present only under ``--profile`` and
    #: then included in :meth:`to_json`.
    profile: Mapping | None = None

    @property
    def ok(self) -> bool:
        """Whether a non-degraded answer was served."""
        return self.status == "ok"

    def raise_for_status(self) -> None:
        """Raise the terminal error when the request failed."""
        if self.status == "failed" and self.error is not None:
            raise self.error

    def to_json(self) -> dict:
        """The one-line NDJSON outcome object ``repro batch`` emits."""
        payload: dict = {
            "id": self.request_id,
            "status": self.status,
            "attempts": self.attempts,
            "backend_used": self.backend_used,
            "degraded": self.degraded,
            "cache": self.cache,
            "plan_status": self.plan_status,
            "rewritings": [str(r) for r in self.rewritings],
            "breakers": dict(self.breakers),
            "elapsed_ms": round(self.elapsed_seconds * 1000, 3),
        }
        if self.failures:
            payload["failures"] = [f.to_json() for f in self.failures]
        if self.error is not None:
            payload["error"] = json.loads(structured_error(self.error))
        if self.profile is not None:
            payload["profile"] = dict(self.profile)
        return payload


@dataclass
class _Attempted:
    """Internal result of driving one backend through its retry loop."""

    rewritings: tuple[ConjunctiveQuery, ...] | None = None
    plan_status: str | None = None
    failure: BackendFailure | None = None
    attempts: int = 0
    #: The request-level budget is gone; stop walking the chain.
    abort: bool = False
    #: Planner-stats delta over this backend's whole retry loop.
    stats: "PlannerStats | None" = None


class ResilientExecutor:
    """Supervised planning over a certified failover chain."""

    def __init__(
        self,
        policy: ServicePolicy | None = None,
        *,
        cache: PlanCache | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        rng: Callable[[], float] = random.random,
        profile: bool = False,
    ) -> None:
        self.policy = policy if policy is not None else ServicePolicy()
        self.chain = resolve_chain(self.policy.chain)
        self.cache = cache
        #: Attach a phase-level profile payload to every outcome.
        self.profile = profile
        self._clock = clock
        self._sleep = sleep
        self._rng = rng
        #: The context every request plans on, so a repeated request
        #: replans warm; every memo in it is keyed on structure.
        self.context = PlannerContext()
        self._breakers: dict[str, CircuitBreaker] = {
            name: CircuitBreaker(self.policy.breaker, clock=clock)
            for name in self.chain
        }

    def breaker(self, backend: str) -> CircuitBreaker:
        """The circuit breaker tracking *backend*."""
        return self._breakers[backend]

    def breaker_states(self) -> dict[str, str]:
        """Breaker state name per backend (outcome observability)."""
        return {
            name: breaker.state.value
            for name, breaker in self._breakers.items()
        }

    def breaker_totals(self) -> dict[str, tuple[int, int]]:
        """Monotonic ``(successes, failures)`` per backend.

        Parallel workers diff these totals around each task to report a
        per-request delta the parent merges into its scoreboard.
        """
        return {
            name: (breaker.successes, breaker.failures)
            for name, breaker in self._breakers.items()
        }

    # -- the supervised call ------------------------------------------------
    def execute(self, request: PlanRequest) -> ExecutionOutcome:
        """Serve *request* through cache, retries, breakers, failover."""
        started = self._clock()
        key = request.cache_key(self.chain) if self.cache is not None else None
        cache_disposition = "off" if self.cache is None else "miss"

        if self.cache is not None and key is not None:
            cached = self.cache.read(key)
            if cached is not None:
                return self._served_from_cache(
                    request, cached, started, stale=False
                )

        budget = request.budget
        deadline_at = None
        if budget is not None and budget.deadline_seconds is not None:
            deadline_at = started + budget.deadline_seconds

        failures: list[BackendFailure] = []
        total_attempts = 0
        any_backend_ran = False
        last_stats: PlannerStats | None = None
        for index, backend in enumerate(self.chain):
            if is_quarantined(backend):
                failures.append(
                    BackendFailure(
                        backend=backend,
                        error="Quarantined",
                        message="backend emitted an uncertifiable rewriting "
                        "earlier in this process",
                        skipped=True,
                    )
                )
                continue
            breaker = self._breakers[backend]
            if not breaker.allow():
                failures.append(
                    BackendFailure(
                        backend=backend,
                        error="CircuitOpenError",
                        message=f"circuit open for {breaker.retry_after():.3f}s",
                        skipped=True,
                    )
                )
                continue
            any_backend_ran = True
            attempted = self._drive_backend(request, backend, deadline_at)
            total_attempts += attempted.attempts
            last_stats = attempted.stats or last_stats
            if attempted.rewritings is not None:
                # A fallback's answer must re-certify before being served.
                if index > 0:
                    ok, offender = certify_rewritings(
                        attempted.rewritings, request.query, request.views
                    )
                    if not ok:
                        reason = (
                            f"uncertifiable rewriting {offender!r} for "
                            f"query {request.query}"
                        )
                        quarantine(backend, reason)
                        breaker.record_failure()
                        failures.append(
                            BackendFailure(
                                backend=backend,
                                error="UncertifiableRewriting",
                                message=reason,
                                attempts=attempted.attempts,
                            )
                        )
                        continue
                breaker.record_success()
                plan_status = attempted.plan_status or "complete"
                # Only complete answers are cached: a budget-exhausted
                # partial reflects *this* request's budget, and serving
                # it to a later, generously-budgeted request would
                # silently hide rewritings that request could have had.
                if (
                    self.cache is not None
                    and key is not None
                    and plan_status == "complete"
                ):
                    self.cache.write(
                        key,
                        CachedPlan(
                            backend=backend,
                            rewritings=tuple(
                                str(r) for r in attempted.rewritings
                            ),
                            plan_status=plan_status,
                            created_at=self.cache.now(),
                        ),
                    )
                return ExecutionOutcome(
                    status="ok",
                    request_id=request.id,
                    attempts=total_attempts,
                    backend_used=backend,
                    degraded=False,
                    cache=cache_disposition,
                    rewritings=attempted.rewritings,
                    plan_status=plan_status,
                    breakers=self.breaker_states(),
                    failures=tuple(failures),
                    elapsed_seconds=self._clock() - started,
                    planner_stats=attempted.stats,
                    profile=self._profile_payload(request, attempted.stats),
                )
            if attempted.failure is not None:
                failures.append(attempted.failure)
            if attempted.abort:
                break

        # Every backend failed or was skipped: degraded stale serving.
        if self.cache is not None and key is not None:
            stale = self.cache.read(key, allow_stale=True)
            if stale is not None:
                return self._served_from_cache(
                    request,
                    stale,
                    started,
                    stale=True,
                    attempts=total_attempts,
                    failures=tuple(failures),
                )

        error: ReproError
        if failures and not any_backend_ran and all(
            f.error == "CircuitOpenError" for f in failures
        ):
            retry_after = min(
                (self._breakers[f.backend].retry_after() for f in failures),
                default=0.0,
            )
            error = CircuitOpenError(
                f"every backend in chain {'/'.join(self.chain)} is "
                f"circuit-open; earliest trial in {retry_after:.3f}s",
                retry_after=retry_after,
            )
        else:
            error = RetryExhaustedError(
                f"no backend in chain {'/'.join(self.chain)} produced a "
                f"certified rewriting after {total_attempts} attempt(s): "
                + "; ".join(
                    f"{f.backend}: {f.error}" for f in failures
                ),
                attempts=total_attempts,
            )
        return ExecutionOutcome(
            status="failed",
            request_id=request.id,
            attempts=total_attempts,
            backend_used=None,
            degraded=False,
            cache=cache_disposition,
            rewritings=(),
            plan_status=None,
            breakers=self.breaker_states(),
            failures=tuple(failures),
            elapsed_seconds=self._clock() - started,
            error=error,
            planner_stats=last_stats,
            profile=self._profile_payload(request, last_stats),
        )

    # -- internals ----------------------------------------------------------
    def _served_from_cache(
        self,
        request: PlanRequest,
        cached: CachedPlan,
        started: float,
        *,
        stale: bool,
        attempts: int = 0,
        failures: tuple[BackendFailure, ...] = (),
    ) -> ExecutionOutcome:
        rewritings = tuple(parse_query(text) for text in cached.rewritings)
        return ExecutionOutcome(
            status="degraded" if stale else "ok",
            request_id=request.id,
            attempts=attempts,
            backend_used=cached.backend,
            degraded=stale,
            cache="stale" if stale else "hit",
            rewritings=rewritings,
            plan_status=cached.plan_status,
            breakers=self.breaker_states(),
            failures=failures,
            elapsed_seconds=self._clock() - started,
            # A cache hit never planned, so only the parse phase exists.
            profile=self._profile_payload(request, None),
        )

    def _profile_payload(
        self, request: PlanRequest, stats: PlannerStats | None
    ) -> dict | None:
        """The ``--profile`` JSON payload, or ``None`` when disabled."""
        if not self.profile:
            return None
        stages = stats.stages if stats is not None else ()
        payload = profile_from_stages(
            stages, parse_seconds=request.parse_seconds
        ).to_json()
        # Search-effort counters ride along with the phase timings so
        # batch/serve consumers can see how much homomorphism work each
        # request cost, whether the acyclic fast path carried it, and how
        # many view classes the catalog already held.
        class_hits, class_misses = (
            stats.cache_counts("view_class") if stats is not None else (0, 0)
        )
        payload["search"] = {
            "hom_searches": stats.hom_searches if stats is not None else 0,
            "hom_nodes": stats.hom_nodes if stats is not None else 0,
            "fast_path_searches": (
                stats.fast_path_searches if stats is not None else 0
            ),
            "view_class_hits": class_hits,
            "view_class_misses": class_misses,
        }
        return payload

    def _drive_backend(
        self,
        request: PlanRequest,
        backend: str,
        deadline_at: float | None,
    ) -> _Attempted:
        """One backend's retry loop; never raises except for input errors."""
        before = self.context.snapshot()
        result = _Attempted()
        try:
            return self._retry_loop(request, backend, deadline_at, result)
        finally:
            # The delta even on raise: an input error's outcome still
            # reports whatever planning work preceded it.
            result.stats = self.context.snapshot().since(before)

    def _retry_loop(
        self,
        request: PlanRequest,
        backend: str,
        deadline_at: float | None,
        result: _Attempted,
    ) -> _Attempted:
        breaker = self._breakers[backend]
        retry = self.policy.retry
        last_error: BaseException | None = None
        for attempt in range(1, retry.max_attempts + 1):
            if deadline_at is not None and self._clock() >= deadline_at:
                breaker.cancel_trial()  # proved nothing about health
                result.failure = BackendFailure(
                    backend=backend,
                    error="DeadlineExhausted",
                    message="request deadline expired before the attempt",
                    attempts=result.attempts,
                )
                result.abort = True
                return result
            attempt_budget = request.budget
            if attempt_budget is not None and deadline_at is not None:
                attempt_budget = attempt_budget.with_deadline(
                    deadline_at - self._clock()
                )
            result.attempts += 1
            try:
                fire("service_retry")
                planned = plan(
                    request.query,
                    request.views,
                    backend=backend,
                    context=self.context,
                    budget=attempt_budget,
                    **dict(request.options),
                )
            except UnsupportedQueryError as exc:
                # Permanent for this backend, but another backend (or
                # an extension-aware one) may still handle the query.
                # A property of the *request*, not of backend health —
                # recording a failure here would let a stream of
                # out-of-scope queries open the breaker of a perfectly
                # healthy backend, so the breaker stays untouched (an
                # unresolved trial is cancelled, not failed).
                result.failure = BackendFailure(
                    backend=backend,
                    error=type(exc).__name__,
                    message=str(exc),
                    attempts=result.attempts,
                )
                breaker.cancel_trial()
                return result
            except BudgetExceededError as exc:
                # The request-level budget is gone; stop everything.
                breaker.cancel_trial()  # proved nothing about health
                result.failure = BackendFailure(
                    backend=backend,
                    error=type(exc).__name__,
                    message=str(exc),
                    attempts=result.attempts,
                )
                result.abort = True
                return result
            except ReproError:
                # Input errors are the caller's bug on any backend; the
                # admitted trial (if any) must still not leak.
                breaker.cancel_trial()
                raise
            except Exception as exc:  # transient: retry with backoff
                last_error = exc
                breaker.record_failure()
                if attempt < retry.max_attempts:
                    self._backoff(attempt, deadline_at)
                continue

            outcome = planned.outcome
            if outcome is None or outcome.status is PlanStatus.COMPLETE:
                result.rewritings = planned.rewritings
                result.plan_status = "complete"
                return result
            if outcome.status is PlanStatus.BUDGET_EXHAUSTED:
                certified = outcome.certified_rewritings
                if certified:
                    # Anytime serving: the certified best-so-far is a
                    # genuine equivalent rewriting set, just maybe not
                    # all of them.
                    result.rewritings = certified
                    result.plan_status = "budget_exhausted"
                    return result
                breaker.cancel_trial()  # proved nothing about health
                result.failure = BackendFailure(
                    backend=backend,
                    error="BudgetExhausted",
                    message=f"budget exhausted ({outcome.exhausted_resource}) "
                    "with no certified rewriting",
                    attempts=result.attempts,
                )
                # A spent deadline dooms every later backend too.
                result.abort = outcome.exhausted_resource == "deadline"
                return result
            # PlanStatus.FAILED: an unexpected error degraded under the
            # budget — same transient treatment as a raw raise.
            last_error = outcome.error
            breaker.record_failure()
            if attempt < retry.max_attempts:
                self._backoff(attempt, deadline_at)

        result.failure = BackendFailure(
            backend=backend,
            error="RetryExhaustedError",
            message=f"{retry.max_attempts} attempt(s) failed; last error: "
            f"{type(last_error).__name__ if last_error else 'unknown'}: "
            f"{last_error}",
            attempts=result.attempts,
        )
        return result

    def _backoff(self, attempt: int, deadline_at: float | None) -> None:
        """Sleep the full-jitter delay, never past the request deadline."""
        delay = self.policy.retry.delay(attempt, self._rng)
        if deadline_at is not None:
            delay = min(delay, max(0.0, deadline_at - self._clock()))
        if delay > 0:
            self._sleep(delay)
