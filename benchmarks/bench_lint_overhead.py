"""Overhead of preflight static analysis on top of planning.

``plan(..., preflight=True)`` runs the full rule set (including the
semantic rules that minimize the query and build its canonical
database) before the backend.  Because preflight shares the planner's
``PlannerContext``, that work warms the containment caches the backend
then hits, so the marginal cost should be small.  This benchmark times
plain planning against preflighted planning on the Figure 6 star
workload and the car-loc-part example; the ratio lands in
``BENCH_corecover.json`` as ``extra_info["lint_overhead_ratio"]``.
"""

import copy
import time

import pytest

from repro import plan
from repro.experiments import paper_examples

from conftest import (
    attach_corecover_stats,
    star_workload,
    time_on_fresh_catalog,
)

NUM_VIEWS = 100


def _best_of(callable_, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


def test_lint_preflight_overhead(benchmark):
    workload = star_workload(NUM_VIEWS, nondistinguished=0)

    result = time_on_fresh_catalog(
        benchmark, plan, workload.query, workload.views, preflight=True
    )
    assert result.has_rewriting
    assert result.analysis is not None and result.analysis.ok

    # Each call plans on a catalog copy without resident view classes,
    # so both variants pay for the grouping stage.
    plain = _best_of(
        lambda: plan(workload.query, copy.copy(workload.views))
    )
    checked = _best_of(
        lambda: plan(
            workload.query, copy.copy(workload.views), preflight=True
        )
    )
    ratio = checked / plain if plain > 0 else 1.0
    benchmark.extra_info["lint_overhead_ratio"] = ratio
    benchmark.extra_info["plain_seconds"] = plain
    benchmark.extra_info["preflight_seconds"] = checked
    attach_corecover_stats(benchmark, result.details)
    # Preflight re-runs containment work the backend would do anyway
    # (and warms its caches); allow generous slack for CI timer noise.
    assert ratio <= 3.0, (
        f"preflight costs {ratio - 1:.0%} on the star workload"
    )


def test_lint_overhead_car_loc_part(benchmark):
    example = paper_examples.car_loc_part()

    result = time_on_fresh_catalog(
        benchmark, plan, example.query, example.views, preflight=True
    )
    assert result.has_rewriting
    # The catalog's duplicate view v5 is reported but does not block.
    assert any(d.code == "R101" for d in result.diagnostics)

    plain = _best_of(lambda: plan(example.query, copy.copy(example.views)))
    checked = _best_of(
        lambda: plan(
            example.query, copy.copy(example.views), preflight=True
        )
    )
    benchmark.extra_info["lint_overhead_ratio"] = (
        checked / plain if plain > 0 else 1.0
    )
    attach_corecover_stats(benchmark, result.details)
