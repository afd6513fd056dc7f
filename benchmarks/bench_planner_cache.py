"""Planner-cache ablation: CoreCover with memoization on vs. off.

Both variants run the Figure 6 star workload through the same
``PlannerContext`` API; the only difference is ``caching``.  The
``extra_info`` deltas (homomorphism searches, tuple-core searches, cache
hit rate) quantify how much of the pipeline's work the memoization layer
absorbs on catalogs with structurally repeated view definitions.
"""

import pytest

from repro.core import core_cover_impl
from repro.planner import PlannerContext

from conftest import (
    attach_corecover_stats,
    star_workload,
    time_on_fresh_catalog,
)

CACHE_VIEW_COUNTS = (250, 500)


@pytest.mark.parametrize("num_views", CACHE_VIEW_COUNTS)
def test_corecover_caching_enabled(benchmark, num_views):
    workload = star_workload(num_views)

    def run(query, views):
        return core_cover_impl(
            query, views, context=PlannerContext(caching=True)
        )

    result = time_on_fresh_catalog(
        benchmark, run, workload.query, workload.views
    )
    assert result.has_rewriting
    assert result.stats.cache_hits > 0
    attach_corecover_stats(benchmark, result)


@pytest.mark.parametrize("num_views", CACHE_VIEW_COUNTS)
def test_corecover_caching_disabled(benchmark, num_views):
    workload = star_workload(num_views)

    def run(query, views):
        return core_cover_impl(
            query, views, context=PlannerContext(caching=False)
        )

    result = time_on_fresh_catalog(
        benchmark, run, workload.query, workload.views
    )
    assert result.has_rewriting
    assert result.stats.cache_hits == 0
    attach_corecover_stats(benchmark, result)
