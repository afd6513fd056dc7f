"""Ablation: the Section 5.2 equivalence-class grouping.

The paper attributes CoreCover's scalability to processing only one
representative per view class and per view-tuple class.  This benchmark
runs CoreCover with grouping on and off on the same workloads; the
grouped variant should scale much better in the number of views.
"""

import pytest

from repro.core import core_cover

from conftest import (
    attach_corecover_stats,
    star_workload,
    time_on_fresh_catalog,
)

ABLATION_VIEWS = (100, 300)


@pytest.mark.parametrize("num_views", ABLATION_VIEWS)
def test_grouped(benchmark, num_views):
    workload = star_workload(num_views)
    result = time_on_fresh_catalog(
        benchmark, core_cover, workload.query, workload.views
    )
    attach_corecover_stats(benchmark, result)


@pytest.mark.parametrize("num_views", ABLATION_VIEWS)
def test_ungrouped(benchmark, num_views):
    workload = star_workload(num_views)
    result = time_on_fresh_catalog(
        benchmark,
        core_cover,
        workload.query,
        workload.views,
        False,  # group_views
        False,  # group_tuples
    )
    benchmark.extra_info["gmr_count"] = len(result.rewritings)


def test_grouping_preserves_minimum(benchmark):
    """Correctness guard for the ablation: same GMR size either way."""
    workload = star_workload(150)

    def both():
        grouped = core_cover(workload.query, workload.views)
        ungrouped = core_cover(
            workload.query, workload.views, False, False
        )
        return grouped, ungrouped

    grouped, ungrouped = benchmark.pedantic(both, rounds=1, iterations=1)
    assert grouped.minimum_subgoals() == ungrouped.minimum_subgoals()
