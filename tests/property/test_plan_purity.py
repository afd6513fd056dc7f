"""Property: ``plan()`` is deterministic and side-effect-free.

The resilient executor retries ``plan()`` on a shared
:class:`PlannerContext` and caches its answers by content-addressed
request key, so both pillars are load-bearing:

* **determinism** — the same (query, views, backend) must produce the
  same rewritings on every call, or retries could serve different
  answers for one request and the plan cache would be wrong;
* **purity** — a call must not mutate its inputs, and its only effect
  on a shared context is *monotone* cache growth (memoization may add
  entries, never remove or rewrite them).  The same holds for the
  catalog: a call may add view-class labels to its
  :attr:`~repro.views.view.ViewCatalog.class_memo`, like growth on a
  context, but never changes a view, the index or the content root.
"""

from hypothesis import given, settings, strategies as st

from repro.planner import PlannerContext, plan
from repro.workload import WorkloadConfig, generate_workload

BACKENDS = ("corecover", "bucket", "minicon")


def _workload(shape, seed, num_views):
    num_relations = 7 if shape == "star" else 10
    return generate_workload(
        WorkloadConfig(
            shape=shape,
            num_relations=num_relations,
            query_subgoals=4,
            num_views=num_views,
            seed=seed,
        )
    )


workload_params = st.tuples(
    st.sampled_from(["star", "chain"]),
    st.integers(min_value=0, max_value=5_000),
    st.integers(min_value=5, max_value=15),
)


def _fingerprint(query, views):
    return str(query), tuple(str(view.definition) for view in views)


class TestPlanPurity:
    @settings(max_examples=8, deadline=None)
    @given(workload_params)
    def test_repeated_calls_on_a_shared_context_are_identical(self, params):
        shape, seed, num_views = params
        workload = _workload(shape, seed, num_views)
        before = _fingerprint(workload.query, workload.views)
        for name in BACKENDS:
            context = PlannerContext(caching=True)
            results = [
                plan(workload.query, workload.views, backend=name,
                     context=context)
                for _ in range(3)
            ]
            first = results[0]
            for repeat in results[1:]:
                assert repeat.rewritings == first.rewritings, name
                assert repeat.has_rewriting == first.has_rewriting, name
        # Inputs survive every backend untouched.
        assert _fingerprint(workload.query, workload.views) == before

    @settings(max_examples=8, deadline=None)
    @given(workload_params)
    def test_shared_context_cache_counters_are_monotone(self, params):
        shape, seed, num_views = params
        workload = _workload(shape, seed, num_views)
        context = PlannerContext(caching=True)
        seen = []
        for _ in range(3):
            plan(
                workload.query,
                workload.views,
                backend="corecover",
                context=context,
            )
            seen.append((context.cache_hits, context.cache_misses))
        for (h0, m0), (h1, m1) in zip(seen, seen[1:]):
            assert h1 >= h0, "cache hits went backwards"
            assert m1 >= m0, "cache misses went backwards"
        # Warm repeats never re-derive: the miss count stops growing
        # after the first call, so all later lookups are pure hits.
        assert seen[1][1] == seen[2][1], "warm repeat added cache misses"

    @settings(max_examples=8, deadline=None)
    @given(workload_params)
    def test_fresh_contexts_reproduce_the_first_answer(self, params):
        """Determinism across *independent* contexts (what the executor
        relies on when it rebuilds a context per backend)."""
        shape, seed, num_views = params
        workload = _workload(shape, seed, num_views)
        answers = {
            plan(
                workload.query,
                workload.views,
                backend="corecover",
                context=PlannerContext(caching=True),
            ).rewritings
            for _ in range(2)
        }
        assert len(answers) == 1
