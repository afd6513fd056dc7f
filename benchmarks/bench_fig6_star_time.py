"""Figure 6: CoreCover time to generate all GMRs for star queries.

(a) all variables distinguished; (b) one nondistinguished variable.
The paper reports times bounded by ~1 second on 2001 hardware, roughly
flat in the number of views; the benchmark's per-view-count timings are
the reproduced series.
"""

import pytest

from repro.core import core_cover

from conftest import (
    VIEW_COUNTS,
    attach_corecover_stats,
    star_workload,
    time_on_fresh_catalog,
)


@pytest.mark.parametrize("num_views", VIEW_COUNTS)
def test_fig6a_star_all_distinguished(benchmark, num_views):
    workload = star_workload(num_views, nondistinguished=0)
    result = time_on_fresh_catalog(
        benchmark, core_cover, workload.query, workload.views
    )
    assert result.has_rewriting
    attach_corecover_stats(benchmark, result)


@pytest.mark.parametrize("num_views", VIEW_COUNTS)
def test_fig6b_star_one_nondistinguished(benchmark, num_views):
    workload = star_workload(num_views, nondistinguished=1)
    result = time_on_fresh_catalog(
        benchmark, core_cover, workload.query, workload.views
    )
    assert result.has_rewriting
    attach_corecover_stats(benchmark, result)
