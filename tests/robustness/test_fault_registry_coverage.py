"""Every registered injection point is exercised by at least one test.

The fault registry (:func:`repro.testing.faults.describe_injection_points`)
is the contract between the production code (which fires points) and the
chaos suite (which injects at them).  A point that exists in the registry
but is never exercised is dead chaos surface: faults registered there
would silently never trigger.  This module pins the registry to a table
of *exercisers* — one minimal scenario per point, each asserted to
actually fire its point — so adding a new injection point without
chaos coverage fails CI by construction.
"""

import pytest

from repro import (
    PlanCache,
    PlanRequest,
    ResilientExecutor,
    ViewCatalog,
    parse_query,
    plan,
)
from repro.parallel import (
    SupervisedWorkerPool,
    WorkerConfig,
    WorkerState,
    WorkerTask,
)
from repro.serve.admission import AdmissionController
from repro.service import ServicePolicy
from repro.testing.faults import (
    describe_injection_points,
    inject,
    injection_points,
)

QUERY = "q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)"
VIEWS = [
    "v1(A, B) :- a(A, B), a(B, B)",
    "v2(C, D) :- a(C, E), b(C, D)",
]


def _workload():
    return parse_query(QUERY), ViewCatalog(VIEWS)


def _exercise_planner():
    query, views = _workload()
    plan(query, views, backend="corecover")


def _exercise_service_retry():
    query, views = _workload()
    executor = ResilientExecutor(ServicePolicy(chain=("corecover",)))
    executor.execute(PlanRequest(query=query, views=views, id="r0"))


def _exercise_cache_read(tmp_path):
    cache = PlanCache(str(tmp_path / "cache"))
    cache.read("deadbeef")


def _exercise_cache_write(tmp_path):
    from repro.service.cache import CachedPlan

    cache = PlanCache(str(tmp_path / "cache"))
    cache.write(
        "deadbeef",
        CachedPlan(
            backend="corecover",
            rewritings=(),
            plan_status="complete",
            created_at=0.0,
        ),
    )


def _exercise_worker_dispatch():
    # What every pool worker runs per task, driven in-process.
    query, views = _workload()
    state = WorkerState(
        WorkerConfig(policy=ServicePolicy(chain=("corecover",)))
    )
    state.run(WorkerTask(0, PlanRequest(query=query, views=views, id="r0")))


def _exercise_catalog_delta():
    _, views = _workload()
    views.add_view("v9(A) :- a(A, A)")


def _exercise_serve_admission():
    AdmissionController().admit()


def _exercise_serve_drain():
    # An unstarted pool's shutdown still walks the drain protocol's
    # first phase (stop admitting) — the cheapest way to fire the point.
    SupervisedWorkerPool().shutdown()


def _exercise_worker_heartbeat():
    # A sweep over zero slots still fires the supervision point.
    SupervisedWorkerPool().heartbeat_sweep()


def _exercise_journal_append(tmp_path):
    # One durable mutation commits one journal record: append + fsync.
    from repro.serve.catalogs import CatalogRegistry

    registry = CatalogRegistry(state_dir=tmp_path / "state")
    registry.register("t1", VIEWS)
    registry.close()


def _exercise_snapshot_write(tmp_path):
    from repro.serve.catalogs import CatalogRegistry

    registry = CatalogRegistry(state_dir=tmp_path / "state")
    registry.register("t1", VIEWS)
    registry.checkpoint()
    registry.close()


#: point -> exerciser.  Keys are asserted equal to the live registry, so
#: a new injection point cannot land without a chaos exerciser.
EXERCISERS = {
    "hom_search": lambda tmp_path: _exercise_planner(),
    "cache_lookup": lambda tmp_path: _exercise_planner(),
    "enumeration": lambda tmp_path: _exercise_planner(),
    "service_retry": lambda tmp_path: _exercise_service_retry(),
    "cache_read": _exercise_cache_read,
    "cache_write": _exercise_cache_write,
    "worker_dispatch": lambda tmp_path: _exercise_worker_dispatch(),
    "catalog_delta": lambda tmp_path: _exercise_catalog_delta(),
    "serve_admission": lambda tmp_path: _exercise_serve_admission(),
    "serve_drain": lambda tmp_path: _exercise_serve_drain(),
    "worker_heartbeat": lambda tmp_path: _exercise_worker_heartbeat(),
    "journal_append": _exercise_journal_append,
    "journal_fsync": _exercise_journal_append,
    "snapshot_write": _exercise_snapshot_write,
}


def test_every_registered_point_has_an_exerciser():
    assert set(EXERCISERS) == set(injection_points())


def test_registry_descriptions_are_complete():
    described = dict(describe_injection_points())
    assert set(described) == set(injection_points())
    assert all(description for description in described.values())


@pytest.mark.parametrize("point", sorted(EXERCISERS))
def test_exerciser_actually_fires_its_point(point, tmp_path):
    with inject() as active:
        EXERCISERS[point](tmp_path)
    assert active.observed[point] >= 1, (
        f"exerciser for {point!r} never fired it; the registry has "
        "dead chaos surface"
    )
