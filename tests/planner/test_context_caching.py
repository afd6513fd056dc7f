"""Caching effect of the PlannerContext on the Figure 6 star workload.

The acceptance bar for the memoization layer: on the paper's 500-view
star workload, CoreCover with caching on must answer identical questions
from cache — measurably fewer homomorphism searches than with caching
off, with byte-identical rewritings.
"""

import gc
import pickle
import weakref

import pytest

from repro import PlannerContext, ViewCatalog, core_cover, plan
from repro.workload import WorkloadConfig, chain_query, generate_workload

STAR_RELATIONS = 13
NUM_VIEWS = 500
SEED = 17


@pytest.fixture(scope="class")
def star500(request):
    """The star catalog, all-distinguished unless the test class sets
    ``nondistinguished``: with existential variables the tuple-cores are
    searched, so the tuple-core memo is exercised."""
    return generate_workload(
        WorkloadConfig(
            shape="star",
            num_relations=STAR_RELATIONS,
            num_views=NUM_VIEWS,
            nondistinguished=getattr(request.cls, "nondistinguished", 0),
            seed=SEED,
        )
    )


@pytest.fixture(scope="class")
def cached_and_uncached(star500):
    cached = core_cover(
        star500.query, star500.views, context=PlannerContext(caching=True)
    )
    uncached = core_cover(
        star500.query, star500.views, context=PlannerContext(caching=False)
    )
    return cached, uncached


class TestCachingEffect:
    def test_identical_rewritings(self, cached_and_uncached):
        cached, uncached = cached_and_uncached
        assert cached.rewritings == uncached.rewritings
        assert cached.has_rewriting

    def test_identical_intermediates(self, cached_and_uncached):
        cached, uncached = cached_and_uncached
        assert cached.minimized_query == uncached.minimized_query
        assert cached.view_tuples == uncached.view_tuples
        assert [c.covered for c in cached.cores] == [
            c.covered for c in uncached.cores
        ]
        assert cached.filter_candidates == uncached.filter_candidates

    def test_fewer_homomorphism_searches_with_caching(
        self, cached_and_uncached
    ):
        cached, uncached = cached_and_uncached
        assert cached.stats.caching_enabled is True
        assert uncached.stats.caching_enabled is False
        # The 500-view star catalog contains many structurally duplicate
        # view definitions; with caching their minimizations and
        # equivalence tests are answered without a search.
        assert cached.stats.hom_searches < uncached.stats.hom_searches

    def test_tuple_core_searches_not_worse_with_caching(
        self, cached_and_uncached
    ):
        # Within one run the view-equivalence grouping already removed
        # duplicate definitions, so tuple-core search counts match; the
        # strict reduction appears across runs (see the shared-context
        # test below).
        cached, uncached = cached_and_uncached
        assert cached.stats.core_searches <= uncached.stats.core_searches

    def test_cache_counters(self, cached_and_uncached):
        cached, uncached = cached_and_uncached
        assert cached.stats.cache_hits > 0
        assert cached.stats.cache_hit_rate > 0.0
        assert uncached.stats.cache_hits == 0
        assert uncached.stats.cache_hit_rate == 0.0


class TestCachingEffectExistentialViews(TestCachingEffect):
    nondistinguished = 1


class TestSharedContextAcrossRuns:
    def test_second_run_is_all_hits(self, star500):
        context = PlannerContext()
        first = core_cover(star500.query, star500.views, context=context)
        second = core_cover(star500.query, star500.views, context=context)
        assert second.rewritings == first.rewritings
        assert second.stats.hom_searches == 0
        assert second.stats.core_searches == 0
        assert second.stats.cache_misses == 0
        assert second.stats.cache_hits > 0

    def test_warm_runs_pin_no_new_atoms(self, star500):
        """A warm tuple-core lookup reuses the keys it already holds:
        the interner's identity table (which pins every object it sees)
        stops growing once the query has been planned."""
        context = PlannerContext()
        pinned = []
        for _ in range(3):
            core_cover(star500.query, star500.views, context=context)
            pinned.append(len(context.interner._atom_by_identity))
        assert pinned[1] == pinned[2]

    def test_shared_context_keeps_no_view_alive(self):
        """A pooled context plans against successive catalog versions; it
        keeps memoized work keyed on view definitions, never the
        :class:`View` objects of the versions it planned against."""
        workload = generate_workload(
            WorkloadConfig(
                shape="chain", num_relations=40, num_views=200, seed=SEED
            )
        )
        payload = pickle.dumps(ViewCatalog(workload.views))
        queries = [chain_query(start, 8) for start in (0, 7, 14, 21, 28)]
        context = PlannerContext()
        views = []
        for _ in range(5):
            catalog = pickle.loads(payload)
            views.extend(weakref.ref(view) for view in catalog)
            for query in queries:
                plan(query, catalog, context=context)
            del catalog
        gc.collect()
        assert len(views) == 1000
        assert [ref() for ref in views if ref() is not None] == []
        assert context.snapshot().cache_hits > 0

    def test_stage_times_accumulate(self, star500):
        context = PlannerContext()
        core_cover(star500.query, star500.views, context=context)
        stages = dict(context.snapshot().stages)
        for stage in (
            "minimize",
            "grouping",
            "view_tuples",
            "tuple_cores",
            "cover",
            "rewrite:corecover",
        ):
            assert stage in stages
            assert stages[stage] >= 0.0


class TestSharedContextExistentialViews(TestSharedContextAcrossRuns):
    nondistinguished = 1


class TestNoCyclicGarbage:
    """A ``plan()`` call frees what it allocates by reference counting
    alone: its recursive searches break their closures' self-references,
    so the cyclic collector finds nothing after a call, cold or warm."""

    @pytest.mark.parametrize(
        "shape, nondistinguished, fast_path",
        [
            ("star", 0, True),
            ("chain", 0, True),
            ("chain", 0, False),
            ("star", 1, True),
        ],
    )
    def test_calls_leave_no_cycles(self, shape, nondistinguished, fast_path):
        workload = generate_workload(
            WorkloadConfig(
                shape=shape,
                num_relations=STAR_RELATIONS if shape == "star" else 40,
                query_subgoals=6,
                num_views=150,
                nondistinguished=nondistinguished,
                seed=SEED,
            )
        )
        # A fresh catalog, so grouping runs its hom searches.
        catalog = ViewCatalog(workload.views)
        gc.collect()
        gc.disable()
        try:
            for backend in ("corecover", "corecover-star"):
                context = PlannerContext()
                for call in ("cold", "warm"):
                    result = plan(
                        workload.query,
                        catalog,
                        backend=backend,
                        context=context,
                        acyclic_fast_path=fast_path,
                    )
                    assert gc.collect() == 0, (backend, call)
                    if nondistinguished and call == "cold":
                        assert result.details.stats.core_searches > 0
        finally:
            gc.enable()
