"""Catalog scaling: the predicate index keeps planning sublinear in |V|.

The workload a production catalog actually faces: the catalog keeps
growing (N ∈ {50, 200, 800} chain views over an 80-relation schema) but
any one query still touches only 4 relations — 5% of the predicates.
Without the index, view grouping and T(Q, V) enumerate all N views;
with it they enumerate only the predicate-relevant slice, so the
homomorphism-search count is driven by the *relevant* views, not the
catalog size.

Recorded per point in ``BENCH_corecover.json``: wall time,
``touched_views`` / ``touched_views_ratio``, and ``hom_searches``.  Two
assertions gate CI:

* at every N the planner enumerates at most 20% of the catalog
  (``touched_views_ratio <= 0.2`` — the query touches ≤10% of the
  predicates, so anything near 1.0 means the index stopped pruning);
* homomorphism searches grow **sublinearly**: scaling views 16x
  (50 → 800) must scale searches by strictly less than half of 16x.
"""

from repro.core import core_cover
from repro.planner import PlannerContext
from repro.workload import WorkloadConfig, generate_workload

import pytest

from conftest import attach_corecover_stats, time_on_fresh_catalog

#: The view-count axis; the query always touches 4 of 80 relations (5%).
CATALOG_SIZES = (50, 200, 800)
NUM_RELATIONS = 80
QUERY_SUBGOALS = 4
SEED = 31

#: Fraction of the catalog the planner may enumerate (acceptance bound).
MAX_TOUCHED_RATIO = 0.2

#: hom_searches(800)/hom_searches(50) must stay under half of linear.
SUBLINEAR_FACTOR = 0.5

#: N -> hom_searches, filled by the parametrized bench, asserted at the end.
_HOM_SEARCHES: dict[int, int] = {}


def _workload(num_views):
    return generate_workload(
        WorkloadConfig(
            shape="chain",
            num_relations=NUM_RELATIONS,
            query_subgoals=QUERY_SUBGOALS,
            num_views=num_views,
            view_locality=0.1,
            seed=SEED,
        )
    )


@pytest.mark.parametrize("num_views", CATALOG_SIZES)
def test_catalog_scaling(benchmark, num_views):
    workload = _workload(num_views)
    benchmark.group = "catalog-scaling"

    result = time_on_fresh_catalog(
        benchmark,
        lambda query, views: core_cover(
            query, views, context=PlannerContext()
        ),
        workload.query,
        workload.views,
    )
    stats = result.stats
    attach_corecover_stats(benchmark, result)
    benchmark.extra_info["num_views"] = num_views
    benchmark.extra_info["predicate_touch_fraction"] = (
        QUERY_SUBGOALS / NUM_RELATIONS
    )
    _HOM_SEARCHES[num_views] = stats.hom_searches

    assert result.has_rewriting
    assert stats.total_views == num_views
    # The acceptance bound: a query touching <=10% of the predicates
    # must enumerate at most 20% of the catalog.
    assert stats.touched_views_ratio <= MAX_TOUCHED_RATIO, (
        f"index stopped pruning: enumerated {stats.touched_views} of "
        f"{num_views} views ({stats.touched_views_ratio:.0%})"
    )


def test_hom_searches_grow_sublinearly():
    """CI gate: 16x more views must cost well under 16x the searches."""
    assert set(_HOM_SEARCHES) == set(CATALOG_SIZES), (
        "run the parametrized catalog-scaling bench first"
    )
    smallest, largest = min(CATALOG_SIZES), max(CATALOG_SIZES)
    view_scaling = largest / smallest
    search_scaling = _HOM_SEARCHES[largest] / max(1, _HOM_SEARCHES[smallest])
    assert search_scaling < SUBLINEAR_FACTOR * view_scaling, (
        f"hom searches scaled {search_scaling:.1f}x across a "
        f"{view_scaling:.0f}x view sweep ({_HOM_SEARCHES}); the "
        "predicate index should keep this sublinear"
    )
