"""Figure 8: CoreCover time to generate all GMRs for chain queries.

(a) all variables distinguished (paper: < 2 s at 1000 views);
(b) one nondistinguished variable (paper: < 1.4 s at 1000 views).
"""

import pytest

from repro.core import core_cover

from conftest import (
    VIEW_COUNTS,
    attach_corecover_stats,
    chain_workload,
    time_on_fresh_catalog,
)


@pytest.mark.parametrize("num_views", VIEW_COUNTS)
def test_fig8a_chain_all_distinguished(benchmark, num_views):
    workload = chain_workload(num_views, nondistinguished=0)
    result = time_on_fresh_catalog(
        benchmark, core_cover, workload.query, workload.views
    )
    assert result.has_rewriting
    attach_corecover_stats(benchmark, result)


@pytest.mark.parametrize("num_views", VIEW_COUNTS)
def test_fig8b_chain_one_nondistinguished(benchmark, num_views):
    workload = chain_workload(num_views, nondistinguished=1)
    result = time_on_fresh_catalog(
        benchmark, core_cover, workload.query, workload.views
    )
    assert result.has_rewriting
    attach_corecover_stats(benchmark, result)
