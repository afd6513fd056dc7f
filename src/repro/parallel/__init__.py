"""Process-pool parallel planning on one supervised worker pool.

Public surface:

* :class:`SupervisedWorkerPool` / :class:`SupervisorPolicy` — the only
  process pool: heartbeat supervision, crash isolation with restart,
  recycling, drain-aware shutdown.  The :mod:`repro.serve` daemon keeps
  one for its whole residency; the two drivers below start one per run.
* :class:`ParallelPlanningEngine` — ``repro batch --workers N``: fans
  service-layer requests across the pool, outcomes in input order, with
  one warm planner context per worker, breaker-delta merging, and
  per-task crash isolation.
* :func:`plan_map` — the experiment harness's lighter fan-out of bare
  ``plan()`` calls.
"""

from .engine import ParallelPlanningEngine, plan_map
from .supervisor import (
    BreakerScoreboard,
    SupervisedWorkerPool,
    SupervisorPolicy,
)
from .worker import (
    PlanTask,
    PlanTaskResult,
    WorkerConfig,
    WorkerResult,
    WorkerState,
    WorkerTask,
    crash_outcome,
    run_plan_task,
)

__all__ = [
    "BreakerScoreboard",
    "ParallelPlanningEngine",
    "PlanTask",
    "PlanTaskResult",
    "SupervisedWorkerPool",
    "SupervisorPolicy",
    "WorkerConfig",
    "WorkerResult",
    "WorkerState",
    "WorkerTask",
    "crash_outcome",
    "plan_map",
    "run_plan_task",
]
