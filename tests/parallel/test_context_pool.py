"""Warm context pools: fingerprint keying, LRU behaviour, warm reuse."""

import pytest

from repro import ViewCatalog, parse_query
from repro.views import as_view
from repro.parallel import (
    PlannerContextPool,
    PlanTask,
    catalog_fingerprint,
    run_plan_task,
)
from repro.parallel.worker import WorkerConfig, WorkerState, WorkerTask
from repro.service import PlanRequest, ServicePolicy


@pytest.fixture()
def catalog():
    return ViewCatalog(
        [
            "v1(A, B) :- a(A, B), a(B, B)",
            "v2(C, D) :- a(C, E), b(C, D)",
            "v3(A) :- a(A, A)",
        ]
    )


QUERY = "q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)"


class TestFingerprint:
    def test_different_catalog_different_fingerprint(self, catalog):
        other = ViewCatalog(["v1(A, B) :- a(A, B)"])
        key = catalog_fingerprint(catalog).key
        assert key != catalog_fingerprint(other).key

    def test_config_key_order_is_canonical(self, catalog):
        assert catalog_fingerprint(
            catalog, {"a": 1, "b": 2}
        ) == catalog_fingerprint(catalog, {"b": 2, "a": 1})


class TestPoolLru:
    def test_hit_returns_same_context(self, catalog):
        pool = PlannerContextPool(2)
        first, event1 = pool.acquire_catalog(catalog)
        again, event2 = pool.acquire_catalog(catalog)
        assert (event1, event2) == ("miss", "exact")
        assert again is first
        assert pool.hits == 1 and pool.misses == 1

    def test_lru_eviction_drops_least_recent(self, catalog):
        # Distinct configurations never delta-match, so each key below
        # is its own entry.
        pool = PlannerContextPool(2)
        keys = {name: {"key": name} for name in "abc"}
        a, _ = pool.acquire_catalog(catalog, keys["a"])
        pool.acquire_catalog(catalog, keys["b"])
        pool.acquire_catalog(catalog, keys["a"])  # refresh a; b is now least-recent
        pool.acquire_catalog(catalog, keys["c"])  # evicts b
        fingerprints = {
            name: catalog_fingerprint(catalog, config)
            for name, config in keys.items()
        }
        assert fingerprints["a"] in pool and fingerprints["c"] in pool
        assert fingerprints["b"] not in pool
        assert pool.evictions == 1
        assert pool.acquire_catalog(catalog, keys["a"])[0] is a

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            PlannerContextPool(0)


class TestWarmReuse:
    def test_second_request_on_same_catalog_plans_less(self, catalog):
        """The acceptance check for warm pools: a repeated request
        against the same catalog hits the pooled context and performs
        strictly fewer homomorphism searches and cache misses."""
        state = WorkerState(
            WorkerConfig(policy=ServicePolicy(chain=("corecover",)))
        )
        query = parse_query(QUERY)
        first = state.run(
            WorkerTask(0, PlanRequest(query=query, views=catalog, id="r1"))
        )
        second = state.run(
            WorkerTask(1, PlanRequest(query=query, views=catalog, id="r2"))
        )
        assert first.outcome is not None and first.outcome.ok
        assert second.outcome is not None and second.outcome.ok
        assert first.pool_event == "miss"
        assert second.pool_event == "exact"
        assert second.fingerprint == first.fingerprint
        assert first.stats is not None and second.stats is not None
        assert second.stats.hom_searches < first.stats.hom_searches
        assert second.stats.cache_misses < first.stats.cache_misses

    def test_caching_plan_tasks_share_a_pooled_context(self, catalog):
        pool = PlannerContextPool(2)
        task = PlanTask(query=parse_query(QUERY), views=catalog, caching=True)
        first = run_plan_task(task, pool)
        second = run_plan_task(task, pool)
        assert pool.misses == 1 and pool.hits == 1
        assert second.rewritings == first.rewritings
        assert first.stats is not None and second.stats is not None
        assert second.stats.hom_searches < first.stats.hom_searches

    def test_different_catalog_gets_its_own_context(self, catalog):
        state = WorkerState(
            WorkerConfig(policy=ServicePolicy(chain=("corecover",)))
        )
        query = parse_query(QUERY)
        other = ViewCatalog(
            [
                "w1(A, B) :- a(A, B), a(B, B)",
                "w2(C, D) :- a(C, E), b(C, D)",
            ]
        )
        first = state.run(
            WorkerTask(0, PlanRequest(query=query, views=catalog, id="r1"))
        )
        second = state.run(
            WorkerTask(1, PlanRequest(query=query, views=other, id="r2"))
        )
        assert second.fingerprint != first.fingerprint
        assert second.pool_event == "miss"


class TestCatalogFingerprint:
    def test_exact_key_matches_rebuilt_catalog(self, catalog):
        fp1 = catalog_fingerprint(catalog, {"chain": ["corecover"]})
        fp2 = catalog_fingerprint(
            ViewCatalog(list(catalog)), {"chain": ["corecover"]}
        )
        assert fp1 == fp2 and fp1.key == fp2.key

    def test_delta_counts_per_view_changes(self, catalog):
        fp1 = catalog_fingerprint(catalog)
        grown = ViewCatalog(list(catalog))
        grown.add("v4(A) :- b(A, A)")
        fp2 = catalog_fingerprint(grown)
        assert fp1.delta(fp2) == 1
        assert fp1.names_only_in(fp2) == frozenset({"v4"})
        assert fp2.names_only_in(fp1) == frozenset()

    def test_replace_counts_two(self, catalog):
        mutated = ViewCatalog(list(catalog))
        mutated.replace_view(as_view("v3(A) :- b(A, A)"))
        fp1 = catalog_fingerprint(catalog)
        fp2 = catalog_fingerprint(mutated)
        assert fp1.delta(fp2) == 2

    def test_config_changes_only_config_hash(self, catalog):
        fp1 = catalog_fingerprint(catalog, {"chain": ["corecover"]})
        fp2 = catalog_fingerprint(catalog, {"chain": ["bucket"]})
        assert fp1.root == fp2.root
        assert fp1.config_hash != fp2.config_hash
        assert fp1.key != fp2.key


class TestDeltaUpgrade:
    def test_single_view_add_upgrades_warm_context(self, catalog):
        pool = PlannerContextPool(2)
        first, event1 = pool.acquire_catalog(catalog)
        catalog.add("v4(A) :- b(A, A)")
        second, event2 = pool.acquire_catalog(catalog)
        assert event1 == "miss" and event2 == "delta"
        assert second is first  # the same warm context, upgraded
        assert pool.counters() == {
            "hits": 0, "delta_hits": 1, "misses": 1, "evictions": 0,
        }
        # The upgraded entry answers exactly at its new key now.
        third, event3 = pool.acquire_catalog(catalog)
        assert third is first and event3 == "exact"

    def test_large_delta_is_a_miss(self, catalog):
        pool = PlannerContextPool(4)
        first, _ = pool.acquire_catalog(catalog)
        for i in range(5):
            catalog.add(f"w{i}(A) :- b(A, A)")
        second, event = pool.acquire_catalog(catalog)
        assert event == "miss" and second is not first

    def test_different_config_never_delta_matches(self, catalog):
        pool = PlannerContextPool(4)
        pool.acquire_catalog(catalog, {"chain": ["corecover"]})
        catalog.add("v4(A) :- b(A, A)")
        _, event = pool.acquire_catalog(catalog, {"chain": ["bucket"]})
        assert event == "miss"

    def test_removal_retires_memoized_view_work(self, catalog):
        pool = PlannerContextPool(2)
        context, _ = pool.acquire_catalog(catalog)
        query = parse_query(QUERY)
        # Warm the context on the full catalog, then drop a view.
        from repro.core import core_cover

        core_cover(query, catalog, context=context)
        assert context._view_rows  # warmed
        removed = catalog.get("v1")
        catalog.remove_view("v1")
        upgraded, event = pool.acquire_catalog(catalog)
        assert event == "delta" and upgraded is context
        removed_key = context.view_definition_key(removed)
        assert all(key[1] != removed_key for key in context._view_rows)
        assert all(key[1] != removed_key for key in context._tuple_cores)

    def test_delta_replan_keeps_warm_memos(self, catalog):
        """The acceptance check for incremental replanning: after a
        one-view delta the upgraded context replans with strictly fewer
        homomorphism searches than the cold first plan."""
        state = WorkerState(
            WorkerConfig(policy=ServicePolicy(chain=("corecover",)))
        )
        query = parse_query(QUERY)
        first = state.run(
            WorkerTask(0, PlanRequest(query=query, views=catalog, id="r1"))
        )
        catalog.add("v4(A) :- b(A, A)")
        second = state.run(
            WorkerTask(1, PlanRequest(query=query, views=catalog, id="r2"))
        )
        assert first.pool_event == "miss"
        assert second.pool_event == "delta"
        assert state.pool.delta_hits >= 1
        assert second.fingerprint != first.fingerprint
        assert first.stats is not None and second.stats is not None
        assert second.stats.hom_searches < first.stats.hom_searches
