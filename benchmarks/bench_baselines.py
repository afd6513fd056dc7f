"""Baseline comparison: CoreCover vs. naive search vs. MiniCon vs. Bucket.

Backs the Section 4.3 discussion (and Example 4.2): CoreCover reaches the
GMR directly through tuple-cores, the naive Theorem 3.1 search enumerates
view-tuple combinations, MiniCon partitions with minimal MCDs, and the
bucket algorithm wades through a Cartesian product.
"""

import pytest

from repro.baselines import bucket_algorithm, minicon
from repro.core import core_cover, naive_gmr_search
from repro.experiments.paper_examples import car_loc_part, example_42

from conftest import star_workload, time_on_fresh_catalog


@pytest.fixture(scope="module")
def clp():
    return car_loc_part()


@pytest.fixture(scope="module")
def ex42():
    return example_42(4)


class TestCarLocPart:
    def test_corecover(self, benchmark, clp):
        result = time_on_fresh_catalog(
            benchmark, core_cover, clp.query, clp.views
        )
        benchmark.extra_info["min_subgoals"] = result.minimum_subgoals()

    def test_naive_search(self, benchmark, clp):
        rewritings = benchmark(naive_gmr_search, clp.query, clp.views)
        benchmark.extra_info["min_subgoals"] = min(
            len(r.body) for r in rewritings
        )

    def test_minicon(self, benchmark, clp):
        result = benchmark(minicon, clp.query, clp.views)
        benchmark.extra_info["min_subgoals"] = min(
            len(r.body) for r in result.contained_rewritings
        )

    def test_bucket(self, benchmark, clp):
        result = benchmark(bucket_algorithm, clp.query, clp.views)
        benchmark.extra_info["combinations"] = result.combinations_tried
        benchmark.extra_info["min_subgoals"] = min(
            len(r.body) for r in result.equivalent_rewritings
        )


class TestExample42:
    def test_corecover(self, benchmark, ex42):
        result = time_on_fresh_catalog(
            benchmark, core_cover, ex42.query, ex42.views
        )
        assert result.minimum_subgoals() == 1

    def test_minicon(self, benchmark, ex42):
        result = benchmark(minicon, ex42.query, ex42.views, False, 50)
        # MiniCon's combinations include redundant multi-literal rewritings.
        benchmark.extra_info["rewritings"] = len(result.contained_rewritings)


class TestScaling:
    @pytest.mark.parametrize("num_views", (50, 150))
    def test_corecover_scales(self, benchmark, num_views):
        workload = star_workload(num_views)
        result = time_on_fresh_catalog(
            benchmark, core_cover, workload.query, workload.views
        )
        assert result.has_rewriting

    def test_bucket_on_small_workload(self, benchmark):
        workload = star_workload(30)
        result = benchmark.pedantic(
            bucket_algorithm,
            args=(workload.query, workload.views),
            kwargs={"max_combinations": 20_000},
            rounds=1,
            iterations=1,
        )
        benchmark.extra_info["combinations"] = result.combinations_tried
