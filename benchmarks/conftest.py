"""Shared fixtures for the benchmark suite.

Each ``bench_fig*`` module regenerates one figure of the paper's Section 7
(the benchmark's timing is the figure's y-axis where the figure plots
time; class counts and costs are attached as ``extra_info`` so the
benchmark report doubles as the figure's data series).

Workloads are generated once per parameterization — the benchmarks time
only the algorithm under study, never the generator.  A planning call is
timed with :func:`time_on_fresh_catalog`, so every round starts from a
catalog with no resident view classes, as the paper's per-query timings
(which include the Section 5.2 grouping) do.

At the end of the session every benchmark's timings and ``extra_info``
(including planner cache hit rates) are dumped to a machine-readable
``BENCH_corecover.json`` at the repository root, so CI can archive the
figure series without parsing pytest-benchmark's own storage format.
"""

import copy
import json

import pytest

from repro.workload import WorkloadConfig, generate_workload

#: Abbreviated view-count axis (the paper sweeps 100..1000; EXPERIMENTS.md
#: records a full-axis run via ``python -m repro.experiments.figures``).
VIEW_COUNTS = (100, 250, 500, 1000)

STAR_RELATIONS = 13
CHAIN_RELATIONS = 40

#: Rounds of a benchmark timed by :func:`time_on_fresh_catalog`.
FRESH_ROUNDS = 5


def star_workload(num_views, nondistinguished=0, seed=17):
    return generate_workload(
        WorkloadConfig(
            shape="star",
            num_relations=STAR_RELATIONS,
            num_views=num_views,
            nondistinguished=nondistinguished,
            seed=seed,
        )
    )


def chain_workload(num_views, nondistinguished=0, seed=23):
    return generate_workload(
        WorkloadConfig(
            shape="chain",
            num_relations=CHAIN_RELATIONS,
            num_views=num_views,
            nondistinguished=nondistinguished,
            seed=seed,
        )
    )


#: Benchmark fixtures that attached stats this session.  pytest-benchmark
#: drops fixtures from its own session list under ``--benchmark-disable``;
#: tracking them here keeps the JSON dump working in smoke runs too.
_INSTRUMENTED = []


@pytest.fixture
def benchmark(benchmark):
    """Override pytest-benchmark's fixture to register every benchmark.

    Previously only benchmarks that routed through
    :func:`attach_corecover_stats` survived ``--benchmark-disable`` into
    the JSON dump; wrapping the fixture itself means *all* entries (the
    service/budget/lint overhead suites, the parallel-speedup bench)
    accumulate into ``BENCH_corecover.json`` regardless of mode.
    """
    if benchmark not in _INSTRUMENTED:
        _INSTRUMENTED.append(benchmark)
    return benchmark


def time_on_fresh_catalog(benchmark, target, query, views, *args, **kwargs):
    """Benchmark ``target(query, views, *args, **kwargs)`` round by round.

    A catalog keeps the view classes its first planning call computes, so
    repeated calls on one catalog would time grouping in the first round
    only.  Each round instead plans on a shallow copy of *views*, made in
    the round's untimed setup, which starts with no resident classes.
    """

    def setup():
        return (query, copy.copy(views), *args), dict(kwargs)

    return benchmark.pedantic(target, setup=setup, rounds=FRESH_ROUNDS)


def attach_corecover_stats(benchmark, result):
    """Record the Figure 7/9 series on the benchmark report."""
    if benchmark not in _INSTRUMENTED:
        _INSTRUMENTED.append(benchmark)
    stats = result.stats
    benchmark.extra_info["view_classes"] = stats.view_classes
    benchmark.extra_info["total_view_tuples"] = stats.total_view_tuples
    benchmark.extra_info["view_tuple_classes"] = stats.view_tuple_classes
    benchmark.extra_info["maximal_tuple_classes"] = stats.maximal_tuple_classes
    benchmark.extra_info["gmr_count"] = len(result.rewritings)
    benchmark.extra_info["gmr_size"] = result.minimum_subgoals()
    benchmark.extra_info["touched_views"] = stats.touched_views
    benchmark.extra_info["touched_views_ratio"] = stats.touched_views_ratio
    benchmark.extra_info["caching_enabled"] = stats.caching_enabled
    benchmark.extra_info["hom_searches"] = stats.hom_searches
    benchmark.extra_info["core_searches"] = stats.core_searches
    benchmark.extra_info["cache_hits"] = stats.cache_hits
    benchmark.extra_info["cache_misses"] = stats.cache_misses
    benchmark.extra_info["cache_hit_rate"] = stats.cache_hit_rate


def _benchmark_rows(session):
    """One JSON-ready row per benchmark that ran this session."""
    bench_session = getattr(session.config, "_benchmarksession", None)
    benches = list(bench_session.benchmarks) if bench_session else []
    # With benchmarking enabled the session list already holds one entry
    # per test; the instrumented fixtures only fill the gap that
    # --benchmark-disable leaves.  Dedup by name, not identity — the
    # fixture and its session record are distinct objects.
    names = {bench.name for bench in benches}
    benches.extend(b for b in _INSTRUMENTED if b.name not in names)
    rows = []
    for bench in benches:
        row = {
            "name": bench.name,
            "group": bench.group,
            "params": bench.params,
            "extra_info": dict(bench.extra_info),
        }
        stats = getattr(bench, "stats", None)
        if stats is not None:  # absent under --benchmark-disable
            # Session records nest the numbers one level deeper
            # (metadata.stats.stats) than the fixture objects do.
            timings = getattr(stats, "stats", stats)
            row["timing_seconds"] = {
                "min": timings.min,
                "mean": timings.mean,
                "max": timings.max,
                "stddev": timings.stddev,
                "rounds": getattr(timings, "rounds", None),
            }
        rows.append(row)
    return rows


def pytest_sessionfinish(session, exitstatus):
    """Dump per-figure timings and extra_info to BENCH_corecover.json."""
    rows = _benchmark_rows(session)
    if not rows:
        return
    payload = {
        "suite": "corecover",
        "view_counts": list(VIEW_COUNTS),
        "benchmarks": rows,
    }
    target = session.config.rootpath / "BENCH_corecover.json"
    target.write_text(json.dumps(payload, indent=2, default=str) + "\n")
