"""How catalogs cross to supervised workers: once per version, not per task.

The parent pickles a catalog at the first submit after each version
change and reuses the bytes; each worker unpickles a byte string once
and keeps the catalog resident, keyed by those bytes.  Every task still
carries its catalog's full bytes, so a task plans against the catalog
as it stood at submit, and two catalogs that differ only in
registration order (equal content roots) never share a resident copy.
"""

import pytest

from repro import ViewCatalog, parse_query
from repro.parallel import (
    SupervisedWorkerPool,
    SupervisorPolicy,
    WorkerConfig,
    WorkerTask,
)
from repro.service import PlanRequest, ServicePolicy
from repro.service.executor import ResilientExecutor
from repro.testing.faults import StallFault
from repro.views import as_view

POLICY = ServicePolicy(chain=("corecover",))
QUERY = "q(X, Z) :- car(X, Y), loc(Y, Z)"
ORDER_QUERY = "q(X) :- r(X, Y), s(X)"
ORDER_VIEWS = ["v1(X) :- r(X, Y)", "v2(X) :- r(X, Z)", "w(X) :- s(X)"]


@pytest.fixture()
def catalog():
    return ViewCatalog(
        [
            "v1(X, Z) :- car(X, Y), loc(Y, Z)",
            "v2(X, Y) :- car(X, Y)",
        ]
    )


@pytest.fixture()
def pool():
    pool = SupervisedWorkerPool(
        WorkerConfig(policy=POLICY, pool_size=2),
        policy=SupervisorPolicy(workers=1, heartbeat_grace=60.0),
    ).start()
    yield pool
    pool.shutdown(drain=True, deadline=10.0)


def _task(index, views, query=QUERY, chaos=()):
    request = PlanRequest(
        query=parse_query(query), views=views, id=f"r{index}"
    )
    return WorkerTask(index=index, request=request, chaos=tuple(chaos))


def _rewritings(outcome):
    assert outcome is not None and outcome.ok, outcome
    return [str(rewriting) for rewriting in outcome.rewritings]


def _serial(views, query=QUERY):
    """The serial executor's rewritings for *query* on *views* as they stand."""
    request = PlanRequest(query=parse_query(query), views=views, id="serial")
    return _rewritings(ResilientExecutor(POLICY).execute(request))


def test_parent_pickles_a_catalog_once_per_version(
    catalog, pool, monkeypatch
):
    pickled = []
    getstate = ViewCatalog.__getstate__

    def counting(self):
        pickled.append(self.version)
        return getstate(self)

    monkeypatch.setattr(ViewCatalog, "__getstate__", counting)
    version = catalog.version
    futures = [pool.submit(_task(i, catalog)) for i in range(8)]
    assert all(f.result(timeout=60).outcome.ok for f in futures)
    assert pickled == [version]
    catalog.replace_view(as_view("v2(X, Y) :- car(Y, X)"))
    assert pool.submit(_task(8, catalog)).result(timeout=60).outcome.ok
    assert pickled == [version, version + 1]


def test_worker_keeps_its_catalog_between_tasks(catalog, pool):
    first = pool.submit(_task(0, catalog)).result(timeout=60)
    second = pool.submit(_task(1, catalog)).result(timeout=60)
    assert first.stats is not None and second.stats is not None
    assert first.stats.cache_counts("view_class")[1] > 0
    hits, misses = second.stats.cache_counts("view_class")
    assert hits > 0 and misses == 0
    assert _rewritings(second.outcome) == _rewritings(first.outcome)


def test_task_plans_against_the_catalog_as_submitted(catalog, pool):
    before = _serial(catalog)
    stall = StallFault("worker_dispatch", seconds=2.0)
    held = pool.submit(_task(0, catalog, chaos=(stall,)))
    queued = pool.submit(_task(1, catalog))
    # Task 1 waits behind the stalled task while its catalog changes in
    # a way that changes its answer.
    catalog.replace_view(as_view("v1(X, Y) :- loc(X, Y)"))
    after = _serial(catalog)
    assert after != before
    fresh = pool.submit(_task(2, catalog))
    assert not queued.done()
    assert _rewritings(held.result(timeout=60).outcome) == before
    assert _rewritings(queued.result(timeout=60).outcome) == before
    assert _rewritings(fresh.result(timeout=60).outcome) == after


def test_registration_order_is_never_conflated(pool):
    first = ViewCatalog(ORDER_VIEWS)
    swapped = ViewCatalog([ORDER_VIEWS[1], ORDER_VIEWS[0], ORDER_VIEWS[2]])
    # Equal content roots, yet each order picks its own representative.
    assert first.content_root() == swapped.content_root()
    assert _serial(first, ORDER_QUERY) != _serial(swapped, ORDER_QUERY)
    for index, views in enumerate((first, swapped, first, swapped)):
        result = pool.submit(_task(index, views, ORDER_QUERY)).result(
            timeout=60
        )
        assert _rewritings(result.outcome) == _serial(views, ORDER_QUERY)


def test_remove_and_re_add_changes_the_answer(pool):
    views = ViewCatalog(ORDER_VIEWS)
    root = views.content_root()
    before = pool.submit(_task(0, views, ORDER_QUERY)).result(timeout=60)
    assert _rewritings(before.outcome) == _serial(views, ORDER_QUERY)
    views.remove_view("v1")
    views.add_view(ORDER_VIEWS[0])
    assert views.content_root() == root
    after = pool.submit(_task(1, views, ORDER_QUERY)).result(timeout=60)
    assert _rewritings(after.outcome) == _serial(views, ORDER_QUERY)
    assert _rewritings(after.outcome) != _rewritings(before.outcome)
