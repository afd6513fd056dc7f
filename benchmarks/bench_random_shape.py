"""Random-shape queries (the third Section 7 shape family).

The paper: "We studied different shapes of queries, such as chain
queries, star queries, and randomly generated queries [23]."  Figures are
only shown for stars and chains; this benchmark covers the random family
with the same protocol (time to generate all GMRs, class counts in
``extra_info``).  Cycle queries — also a [23] shape — get one target too.
"""

import pytest

from repro.core import core_cover
from repro.workload import WorkloadConfig, generate_workload

from conftest import attach_corecover_stats, time_on_fresh_catalog

RANDOM_VIEWS = (50, 150, 400)


@pytest.mark.parametrize("num_views", RANDOM_VIEWS)
def test_random_shape_time(benchmark, num_views):
    workload = generate_workload(
        WorkloadConfig(
            shape="random",
            num_relations=10,
            query_subgoals=6,
            num_views=num_views,
            seed=31,
        )
    )
    result = time_on_fresh_catalog(
        benchmark, core_cover, workload.query, workload.views
    )
    assert result.has_rewriting
    attach_corecover_stats(benchmark, result)


@pytest.mark.parametrize("num_views", (60, 200))
def test_cycle_shape_time(benchmark, num_views):
    workload = generate_workload(
        WorkloadConfig(
            shape="cycle",
            num_relations=20,
            query_subgoals=6,
            num_views=num_views,
            seed=33,
        )
    )
    result = time_on_fresh_catalog(
        benchmark, core_cover, workload.query, workload.views
    )
    assert result.has_rewriting
    attach_corecover_stats(benchmark, result)
