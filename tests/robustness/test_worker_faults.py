"""Chaos tests for the parallel engine's worker isolation.

The contract under test: a worker that misbehaves — raises unexpectedly
or dies outright (SIGKILL) — fails **only the request it was serving**.
Every other request in the batch completes normally and outcomes still
arrive in input order.  A dead worker is noticed directly, so nothing
waits on it, whether or not the request carries a deadline.
"""

import json
import threading
import time

import pytest

from repro import ViewCatalog, parse_query
from repro.cli import main
from repro.errors import WorkerCrashError
from repro.experiments.harness import SweepConfig, run_sweep
from repro.parallel import (
    ParallelPlanningEngine,
    SupervisorPolicy,
    WorkerConfig,
    WorkerState,
    WorkerTask,
    crash_outcome,
)
from repro.planner.limits import ResourceBudget
from repro.service import PlanRequest, ServicePolicy
from repro.testing.faults import (
    INJECTION_POINTS,
    ExitFault,
    RaiseFault,
    inject,
)

QUERY = "q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)"
VIEWS = [
    "v1(A, B) :- a(A, B), a(B, B)",
    "v2(C, D) :- a(C, E), b(C, D)",
]

#: How long a call may take before it counts as hung.  Each call below
#: finishes in about a second; one that waits on a dead worker never
#: finishes.
HANG_SECONDS = 30.0


@pytest.fixture()
def catalog():
    return ViewCatalog(VIEWS)


def _requests(catalog, count, *, deadline=None):
    budget = (
        None
        if deadline is None
        else ResourceBudget(deadline_seconds=deadline)
    )
    query = parse_query(QUERY)
    return [
        PlanRequest(query=query, views=catalog, id=f"r{i}", budget=budget)
        for i in range(count)
    ]


def _finishes(call):
    """Run *call* in a thread and return its result, or raise its error.

    Fails the test if the call is still running after ``HANG_SECONDS``.
    """
    box = {}

    def target():
        try:
            box["value"] = call()
        except Exception as exc:
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(HANG_SECONDS)
    assert not thread.is_alive(), f"still blocked after {HANG_SECONDS:.0f}s"
    if "error" in box:
        raise box["error"]
    return box["value"]


def test_worker_dispatch_is_a_registered_injection_point():
    assert "worker_dispatch" in INJECTION_POINTS


def test_poisoned_task_fails_alone_in_process_pool(catalog):
    """A worker-side unexpected exception on task 1 (workers=2)
    degrades that request to a failed outcome; r0 and r2 are fine."""
    engine = ParallelPlanningEngine(
        WorkerConfig(policy=ServicePolicy(chain=("corecover",))),
        policy=SupervisorPolicy(workers=2),
    )
    chaos = {1: (RaiseFault("worker_dispatch"),)}
    outcomes = list(engine.run(_requests(catalog, 3), chaos=chaos))
    assert [o.request_id for o in outcomes] == ["r0", "r1", "r2"]
    assert outcomes[0].ok and outcomes[2].ok
    poisoned = outcomes[1]
    assert poisoned.status == "failed"
    assert isinstance(poisoned.error, WorkerCrashError)
    assert poisoned.failures[0].backend == "worker"
    assert "r1" in str(poisoned.error)


def test_killed_worker_fails_only_its_own_request(catalog):
    """SIGKILL mid-dispatch: the supervisor sees the worker die, well
    before deadline + grace, and only the poisoned request fails."""
    engine = ParallelPlanningEngine(
        WorkerConfig(policy=ServicePolicy(chain=("corecover",))),
        policy=SupervisorPolicy(workers=2, task_grace_seconds=1.0),
    )
    chaos = {1: (ExitFault("worker_dispatch"),)}
    started = time.monotonic()
    arrived = {}
    outcomes = []
    for outcome in engine.run(
        _requests(catalog, 3, deadline=0.25), chaos=chaos
    ):
        arrived[outcome.request_id] = time.monotonic() - started
        outcomes.append(outcome)
    assert [o.request_id for o in outcomes] == ["r0", "r1", "r2"]
    assert outcomes[0].ok and outcomes[2].ok
    killed = outcomes[1]
    assert killed.status == "failed"
    assert isinstance(killed.error, WorkerCrashError)
    assert killed.failures[0].backend == "worker"
    message = killed.failures[0].message
    assert "died mid-request" in message or "was killed mid-request" in message
    assert arrived["r1"] < 0.25 + 1.0


def test_killed_worker_without_deadline_fails_only_its_own_request(catalog):
    """No deadline means no timeout: the supervisor must notice the
    death itself, or the batch waits forever."""
    engine = ParallelPlanningEngine(
        WorkerConfig(policy=ServicePolicy(chain=("corecover",))),
        policy=SupervisorPolicy(workers=2),
    )
    chaos = {1: (ExitFault("worker_dispatch"),)}
    outcomes = _finishes(
        lambda: list(engine.run(_requests(catalog, 3), chaos=chaos))
    )
    assert [o.request_id for o in outcomes] == ["r0", "r1", "r2"]
    assert [o.status for o in outcomes] == ["ok", "failed", "ok"]
    assert isinstance(outcomes[1].error, WorkerCrashError)


def test_cli_batch_with_killed_workers_exits_77_without_timeout(
    tmp_path, capsys
):
    """``repro batch --workers 2`` with no ``--timeout``: the active
    fault plan is fork-inherited, so every worker SIGKILLs itself on
    dispatch, and the batch still ends with exit 77."""
    views = tmp_path / "views.dl"
    views.write_text("\n".join(VIEWS) + "\n")
    requests = tmp_path / "requests.ndjson"
    requests.write_text(json.dumps({"id": "w1", "query": QUERY}) + "\n")
    argv = [
        "batch", str(requests), "--views", str(views),
        "--chain", "corecover", "--workers", "2",
    ]
    with inject(ExitFault("worker_dispatch", times=None)):
        code = _finishes(lambda: main(argv))
    assert code == 77
    assert "WorkerCrashError" in capsys.readouterr().err


def test_run_sweep_with_killed_workers_raises_worker_crash():
    """The sweep fan-out under the same fork-inherited kill: the first
    dead worker surfaces as WorkerCrashError instead of a hang."""
    config = SweepConfig(
        shape="chain",
        num_relations=6,
        nondistinguished=0,
        view_counts=(8,),
        queries_per_point=3,
        query_subgoals=4,
        seed=7,
    )
    with inject(ExitFault("worker_dispatch", times=None)):
        with pytest.raises(WorkerCrashError):
            _finishes(lambda: run_sweep(config, workers=2))


def test_serial_path_reports_crash_identically(catalog):
    """``WorkerState.run``, driven in-process, wraps the same unexpected
    exception in the same WorkerCrashError outcome shape as the pool
    path."""
    state = WorkerState(
        WorkerConfig(policy=ServicePolicy(chain=("corecover",)))
    )
    first, second = _requests(catalog, 2)
    crashed = state.run(
        WorkerTask(0, first, chaos=(RaiseFault("worker_dispatch"),))
    )
    served = state.run(WorkerTask(1, second))
    assert crashed.outcome.status == "failed"
    assert isinstance(crashed.outcome.error, WorkerCrashError)
    assert served.outcome.ok


def test_task_attached_chaos_does_not_leak_to_parent(catalog):
    """Chaos faults ride the task; the parent process's fault plan
    stays untouched (nothing active after the run)."""
    from repro.testing import faults

    engine = ParallelPlanningEngine(
        WorkerConfig(policy=ServicePolicy(chain=("corecover",))),
        policy=SupervisorPolicy(workers=2),
    )
    chaos = {0: (RaiseFault("worker_dispatch"),)}
    list(engine.run(_requests(catalog, 2), chaos=chaos))
    assert faults._ACTIVE is None


def test_crash_outcome_shape(catalog):
    request = _requests(catalog, 1)[0]
    error = WorkerCrashError("worker gone", request_id="r0")
    outcome = crash_outcome(request, error)
    assert outcome.status == "failed"
    assert outcome.request_id == "r0"
    assert outcome.cache == "off"
    assert outcome.error is error
    payload = outcome.to_json()
    assert payload["status"] == "failed"
    assert payload["failures"][0]["backend"] == "worker"
