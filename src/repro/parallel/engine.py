"""Batch and sweep drivers over the supervised worker pool.

:class:`ParallelPlanningEngine` (``repro batch --workers N``) and
:func:`plan_map` (the experiment sweeps) start a
:class:`~repro.parallel.supervisor.SupervisedWorkerPool`, submit their
tasks to it, and yield results **in input order** — byte-identical text
output to the serial path, whatever the completion order.  Crash
isolation, timeouts, and breaker accounting are the pool's: a worker
that dies mid-task fails only that task, with
:class:`~repro.errors.WorkerCrashError`, whether or not the request
carries a deadline.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import Future
from typing import Iterable, Iterator, Mapping, Sequence

from ..planner.context import PlannerContext
from ..service.executor import ExecutionOutcome, PlanRequest
from ..testing.faults import Fault
from .supervisor import SupervisedWorkerPool, SupervisorPolicy
from .worker import (
    PlanTask,
    PlanTaskResult,
    WorkerConfig,
    WorkerResult,
    WorkerTask,
    run_plan_task,
)

__all__ = ["ParallelPlanningEngine", "plan_map"]

#: Tasks submitted ahead of the one being read, per worker.  ``submit``
#: pickles each task when it is called and every task carries its
#: catalog's full bytes, so the window bounds how many copies of those
#: bytes the queued tickets hold at once.
_WINDOW_PER_WORKER = 2


def _in_order(
    pool: SupervisedWorkerPool, tasks: Iterable[WorkerTask]
) -> Iterator[WorkerResult]:
    """Submit *tasks* to the started *pool*; yield results in input order."""
    window = _WINDOW_PER_WORKER * pool.policy.workers
    pending: deque[Future[WorkerResult]] = deque()
    for task in tasks:
        pending.append(pool.submit(task))
        if len(pending) > window:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


class ParallelPlanningEngine:
    """Batch planning on a supervised worker pool, outcomes in input order.

    One engine runs one batch: :meth:`run` starts the pool and shuts it
    down when the batch ends.  The pool's breaker scoreboard and
    counters stay readable afterwards.
    """

    def __init__(
        self,
        config: WorkerConfig | None = None,
        *,
        policy: SupervisorPolicy | None = None,
    ) -> None:
        self.pool = SupervisedWorkerPool(config, policy=policy)

    def run(
        self,
        requests: Iterable[PlanRequest],
        *,
        chaos: Mapping[int, tuple[Fault, ...]] | None = None,
    ) -> Iterator[ExecutionOutcome]:
        """Yield one outcome per request, in input order.

        *chaos* maps input indexes to faults activated around just that
        task, worker-side (deterministic kill tests).  Note the intake
        difference from the serial CLI loop: all requests are
        materialized before the first outcome is yielded.
        """
        faults = chaos or {}
        tasks = [
            WorkerTask(
                index=index,
                request=request,
                chaos=tuple(faults.get(index, ())),
            )
            for index, request in enumerate(requests)
        ]
        with self.pool:
            for result in _in_order(self.pool, tasks):
                if result.error is not None:
                    raise result.error
                assert result.outcome is not None  # error/outcome is exhaustive
                yield result.outcome


def plan_map(
    tasks: Sequence[PlanTask],
    *,
    workers: int | None = None,
) -> list[PlanTaskResult]:
    """Run bare plan tasks, results in input order.

    The experiment harness's fan-out: no service layer, no retries.
    ``workers`` of ``None``/``0`` means ``os.cpu_count()``; 1 runs
    in-process on one warm context, and exceptions propagate.
    Across workers, a :class:`~repro.errors.ReproError` is re-raised
    here; any other exception, and a worker that dies mid-task, raise
    :class:`~repro.errors.WorkerCrashError`.
    """
    count = workers if workers and workers > 0 else (os.cpu_count() or 1)
    if count <= 1:
        shared = PlannerContext()
        return [run_plan_task(task, shared) for task in tasks]
    results: list[PlanTaskResult] = []
    with SupervisedWorkerPool(policy=SupervisorPolicy(workers=count)) as pool:
        for result in _in_order(
            pool, (WorkerTask(index, task) for index, task in enumerate(tasks))
        ):
            if result.plan is None:
                if result.error is not None:
                    raise result.error
                assert result.outcome is not None and result.outcome.error
                raise result.outcome.error
            results.append(result.plan)
    return results
