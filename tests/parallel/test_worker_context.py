"""One warm planner context per worker, across every catalog it sees.

Every planner memo is keyed on the structure of queries and view
definitions, so a worker plans each request on one context for its
whole life.  A warm worker must answer exactly as a cold one after any
change to the catalog, and plan less where the structures repeat.  The
cold side gets the catalog as a fresh worker would, unpickled with an
empty class memo, so its counts are not helped by the warm side's.
"""

import pickle

import pytest

from repro import ViewCatalog, parse_query
from repro.parallel import PlanTask, WorkerConfig, WorkerState, WorkerTask
from repro.service import PlanRequest, ServicePolicy
from repro.views import as_view

QUERY = "q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)"


@pytest.fixture()
def catalog():
    return ViewCatalog(
        [
            "v1(A, B) :- a(A, B), a(B, B)",
            "v2(C, D) :- a(C, E), b(C, D)",
            "v3(A) :- a(A, A)",
        ]
    )


def _unrelated():
    """A different catalog whose view bodies repeat v1's and v2's."""
    return ViewCatalog(
        [
            "w1(A, B) :- a(A, B), a(B, B)",
            "w2(C, D) :- a(C, E), b(C, D)",
        ]
    )


def _add_one(catalog):
    catalog.add("v4(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)")
    return catalog


def _remove_one(catalog):
    catalog.remove_view("v1")
    return catalog


def _add_five(catalog):
    for text in (
        "u0(P, Q) :- a(P, Q), a(Q, Q)",
        "u1(P, Q) :- b(P, Q)",
        "u2(P) :- a(P, P), b(P, P)",
        "u3(P, Q) :- a(P, R), a(R, R), b(R, Q)",
        "u4(P) :- c(P)",
    ):
        catalog.add(text)
    return catalog


def _replace_one(catalog):
    catalog.replace_view(as_view("v1(A, B) :- a(A, B)"))
    return catalog


#: Each change takes the catalog a worker planned on first and returns
#: the catalog its second request names.
CHANGES = {
    "add-one": _add_one,
    "remove-one": _remove_one,
    "add-five": _add_five,
    "replace-one": _replace_one,
    "unrelated": lambda catalog: _unrelated(),
}


def _state():
    return WorkerState(
        WorkerConfig(policy=ServicePolicy(chain=("corecover",)))
    )


def _serve(state, index, views, query=QUERY):
    request = PlanRequest(
        query=parse_query(query), views=views, id=f"r{index}"
    )
    result = state.run(WorkerTask(index, request))
    assert result.outcome is not None and result.stats is not None, result
    return result


def _answer(result):
    outcome = result.outcome
    return outcome.status, [str(r) for r in outcome.rewritings]


def _cold(views):
    """*views* as a fresh worker receives them, on a fresh worker."""
    return _serve(_state(), 0, pickle.loads(pickle.dumps(views)))


def test_second_request_on_same_catalog_plans_less(catalog):
    state = _state()
    first = _serve(state, 0, catalog)
    second = _serve(state, 1, catalog)
    assert first.outcome.ok and second.outcome.ok
    assert _answer(second) == _answer(first)
    assert second.stats.hom_searches < first.stats.hom_searches
    assert second.stats.cache_misses < first.stats.cache_misses


@pytest.mark.parametrize("change", sorted(CHANGES))
def test_warm_worker_answers_as_a_cold_one(catalog, change):
    warm = _state()
    before = _answer(_serve(warm, 0, catalog))
    changed = CHANGES[change](catalog)
    after = _serve(warm, 1, changed)
    cold = _cold(changed)
    assert _answer(after) == _answer(cold)
    assert after.stats.hom_searches <= cold.stats.hom_searches
    # Each change alters the answer, so a memo that answered for the
    # catalog before the change would show.
    assert _answer(after) != before


def test_unrelated_catalog_plans_less_than_cold(catalog):
    warm = _state()
    _serve(warm, 0, catalog)
    after = _serve(warm, 1, _unrelated())
    cold = _cold(_unrelated())
    assert _answer(after) == _answer(cold)
    assert after.stats.hom_searches < cold.stats.hom_searches


def test_caching_plan_tasks_share_the_worker_context(catalog):
    state = _state()
    task = PlanTask(query=parse_query(QUERY), views=catalog, caching=True)
    first = state.run(WorkerTask(0, task)).plan
    second = state.run(WorkerTask(1, task)).plan
    assert first is not None and second is not None
    assert second.rewritings == first.rewritings
    assert second.stats.hom_searches < first.stats.hom_searches


@pytest.mark.parametrize("caching", [False, None])
def test_uncached_plan_task_leaves_the_shared_context_alone(catalog, caching):
    state = _state()
    _serve(state, 0, catalog)
    before = state.context.snapshot()
    task = PlanTask(query=parse_query(QUERY), views=catalog, caching=caching)
    result = state.run(WorkerTask(1, task)).plan
    assert result is not None and result.rewritings
    assert state.context.snapshot() == before


def test_resident_catalog_lru_must_hold_one():
    with pytest.raises(ValueError, match="pool_size"):
        WorkerConfig(pool_size=0)
