"""Chaos tests for the supervised worker pool.

The contract: a resident pool survives worker crashes, hangs, and lost
heartbeats by replacing the worker and failing *only* the in-flight
request; recycling is invisible to callers; and drain-deadline aborts
resolve every submitted request with a structured error — a future is
never left pending.
"""

import os
import signal
import time

import pytest

from repro import parse_query
from repro.errors import ShuttingDownError, WorkerCrashError
from repro.parallel import (
    SupervisedWorkerPool,
    SupervisorPolicy,
    WorkerConfig,
    WorkerTask,
)
from repro.service import PlanRequest, ServicePolicy
from repro.service.executor import ResilientExecutor
from repro.testing.faults import ExitFault, StallFault

from .conftest import QUERY


def _config(**overrides):
    overrides.setdefault("policy", ServicePolicy(chain=("corecover",)))
    overrides.setdefault("pool_size", 2)
    return WorkerConfig(**overrides)


def _task(catalog, index, *, rid=None, chaos=(), deadline=None):
    from repro.planner.limits import ResourceBudget

    budget = (
        None if deadline is None else ResourceBudget(deadline_seconds=deadline)
    )
    request = PlanRequest(
        query=parse_query(QUERY),
        views=catalog,
        id=rid if rid is not None else f"r{index}",
        budget=budget,
    )
    return WorkerTask(index=index, request=request, chaos=tuple(chaos))


def _serial_rewritings(task):
    """The serial executor's rewritings for *task*'s request."""
    outcome = ResilientExecutor(_config().policy).execute(task.request)
    assert outcome.ok
    return [str(rewriting) for rewriting in outcome.rewritings]


def _wait_until(predicate, timeout=10.0):
    limit = time.monotonic() + timeout
    while time.monotonic() < limit:
        if predicate():
            return True
        time.sleep(0.05)
    return False


def test_serves_requests_and_merges_breakers(catalog):
    pool = SupervisedWorkerPool(
        _config(), policy=SupervisorPolicy(workers=2)
    ).start()
    try:
        futures = [pool.submit(_task(catalog, i)) for i in range(6)]
        results = [future.result(timeout=60) for future in futures]
        assert [r.index for r in results] == list(range(6))
        assert all(r.outcome.status == "ok" for r in results)
        summary = pool.scoreboard.summary()
        assert summary["corecover"]["successes"] == 6
        assert pool.stats()["completed"] == 6
    finally:
        report = pool.shutdown(drain=True, deadline=10.0)
    assert report["drained"] is True
    assert report["aborted"] == 0


def test_killed_worker_fails_only_its_request(catalog):
    pool = SupervisedWorkerPool(
        _config(), policy=SupervisorPolicy(workers=2, heartbeat_grace=5.0)
    ).start()
    try:
        tasks = [
            _task(
                catalog,
                i,
                chaos=(ExitFault("worker_dispatch"),) if i == 2 else (),
                deadline=30.0,
            )
            for i in range(5)
        ]
        results = [
            pool.submit(task).result(timeout=60) for task in tasks
        ]
        assert results[2].outcome.status == "failed"
        assert isinstance(results[2].outcome.error, WorkerCrashError)
        for i in (0, 1, 3, 4):
            assert results[i].outcome.status == "ok", f"r{i} must survive"
            assert [
                str(rewriting) for rewriting in results[i].outcome.rewritings
            ] == _serial_rewritings(tasks[i])
        assert pool.restarts >= 1
        assert pool.crashes == 1
    finally:
        pool.shutdown(drain=True, deadline=10.0)


def test_idle_worker_death_is_healed_by_heartbeat_sweep(catalog):
    pool = SupervisedWorkerPool(
        _config(),
        policy=SupervisorPolicy(workers=1, heartbeat_interval=3600.0),
    ).start()
    try:
        # Warm check, then murder the idle worker out-of-band.
        assert pool.submit(_task(catalog, 0)).result(timeout=60).outcome
        victim = pool._slots[0].process
        os.kill(victim.pid, signal.SIGKILL)
        assert _wait_until(lambda: not victim.is_alive())
        # The monitor thread is effectively disabled (1h interval), so
        # the sweep below is deterministically the one that heals.
        assert pool.heartbeat_sweep() == 1
        assert pool.restarts == 1
        # The replacement serves the next request; nothing failed.
        result = pool.submit(_task(catalog, 1)).result(timeout=60)
        assert result.outcome.status == "ok"
        assert pool.crashes == 0
    finally:
        pool.shutdown(drain=True, deadline=10.0)


def test_dispatch_retries_once_after_idle_death(catalog):
    pool = SupervisedWorkerPool(
        _config(),
        policy=SupervisorPolicy(workers=1, heartbeat_interval=3600.0),
    ).start()
    try:
        assert pool.submit(_task(catalog, 0)).result(timeout=60).outcome
        victim = pool._slots[0].process
        os.kill(victim.pid, signal.SIGKILL)
        assert _wait_until(lambda: not victim.is_alive())
        # Submitting against the corpse must transparently respawn and
        # serve — an idle death never fails a request.
        result = pool.submit(_task(catalog, 1)).result(timeout=60)
        assert result.outcome.status == "ok"
        assert pool.crashes == 0
        assert pool.restarts == 1
    finally:
        pool.shutdown(drain=True, deadline=10.0)


def test_recycling_is_invisible_to_callers(catalog):
    pool = SupervisedWorkerPool(
        _config(),
        policy=SupervisorPolicy(workers=1, recycle_after_requests=2),
    ).start()
    try:
        tasks = [_task(catalog, i) for i in range(5)]
        results = [pool.submit(task).result(timeout=60) for task in tasks]
        assert all(r.outcome.status == "ok" for r in results)
        for task, result in zip(tasks, results):
            assert [
                str(rewriting) for rewriting in result.outcome.rewritings
            ] == _serial_rewritings(task)
        assert pool.recycles >= 2
        assert pool.crashes == 0
        # Breakers reflect exactly the five requests served, across all
        # worker incarnations — no double-counting through recycling.
        assert pool.scoreboard.summary()["corecover"]["successes"] == 5
    finally:
        pool.shutdown(drain=True, deadline=10.0)


def test_hung_worker_is_killed_at_task_deadline(catalog):
    pool = SupervisedWorkerPool(
        _config(),
        policy=SupervisorPolicy(
            workers=1, task_grace_seconds=0.5, heartbeat_grace=60.0
        ),
    ).start()
    try:
        stall = StallFault("worker_dispatch", seconds=30.0)
        result = pool.submit(
            _task(catalog, 0, chaos=(stall,), deadline=0.2)
        ).result(timeout=60)
        assert result.outcome.status == "failed"
        assert isinstance(result.outcome.error, WorkerCrashError)
        assert "did not respond" in str(result.outcome.error)
        assert pool.restarts == 1
    finally:
        pool.shutdown(drain=True, deadline=10.0)


def test_drain_deadline_aborts_with_structured_outcomes(catalog):
    pool = SupervisedWorkerPool(
        _config(),
        policy=SupervisorPolicy(workers=1, heartbeat_grace=60.0),
    ).start()
    stall = StallFault("worker_dispatch", seconds=30.0)
    stuck = pool.submit(_task(catalog, 0, chaos=(stall,)))
    queued = [pool.submit(_task(catalog, i)) for i in range(1, 4)]
    # Give the stalled task time to actually occupy the worker.
    assert _wait_until(lambda: pool.busy_workers() == 1)
    report = pool.shutdown(drain=True, deadline=0.3)
    assert report["drained"] is False
    assert report["aborted"] == 4
    # Every future settled — nothing silently dropped — and each
    # aborted request carries the ShuttingDownError taxonomy entry.
    for future in [stuck, *queued]:
        result = future.result(timeout=10)
        assert result.outcome.status == "failed"
        assert isinstance(result.outcome.error, ShuttingDownError)


def test_submit_after_shutdown_sheds_with_taxonomy_error(catalog):
    pool = SupervisedWorkerPool(
        _config(), policy=SupervisorPolicy(workers=1)
    ).start()
    pool.shutdown(drain=True, deadline=10.0)
    with pytest.raises(ShuttingDownError) as excinfo:
        pool.submit(_task(catalog, 0))
    assert excinfo.value.exit_code == 79
