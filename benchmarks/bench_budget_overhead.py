"""Overhead of the cooperative-cancellation checkpoints.

The anytime layer threads ``BudgetMeter.checkpoint()`` calls through the
homomorphism search, view-tuple enumeration, and set-cover branching.
This benchmark times the unbudgeted Figure 6 star run and compares it
against the same run under a fully unlimited :class:`ResourceBudget`
(every checkpoint live, nothing ever trips).  The ratio lands in
``BENCH_corecover.json`` as ``extra_info["budget_overhead_ratio"]``; the
target from the robustness issue is <= 5% overhead, asserted here with
slack for CI timer noise.
"""

import copy
import time

import pytest

from repro import ResourceBudget, plan

from conftest import (
    attach_corecover_stats,
    star_workload,
    time_on_fresh_catalog,
)

NUM_VIEWS = 250
#: The asserted gate on the ratio: the 1.05 target plus slack for
#: noisy shared CI runners.  CI prints it from ``extra_info``.
MAX_RATIO = 1.5


def _best_of(callable_, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


def test_budget_checkpoint_overhead(benchmark):
    workload = star_workload(NUM_VIEWS, nondistinguished=0)
    unlimited = ResourceBudget(deadline_seconds=float("inf"))

    result = time_on_fresh_catalog(
        benchmark, plan, workload.query, workload.views
    )
    assert result.has_rewriting

    # Best-of-N manual timings on both variants: pytest-benchmark owns
    # the unbudgeted series above, this just derives the ratio.  Each
    # call plans on a catalog copy without resident view classes, so
    # both variants pay for (and checkpoint) the grouping stage.
    plain = _best_of(
        lambda: plan(workload.query, copy.copy(workload.views))
    )
    metered = _best_of(
        lambda: plan(
            workload.query, copy.copy(workload.views), budget=unlimited
        )
    )
    ratio = metered / plain if plain > 0 else 1.0
    benchmark.extra_info["budget_overhead_ratio"] = ratio
    benchmark.extra_info["budget_overhead_max_ratio"] = MAX_RATIO
    benchmark.extra_info["unbudgeted_seconds"] = plain
    benchmark.extra_info["budgeted_seconds"] = metered
    attach_corecover_stats(benchmark, result.details)
    assert ratio <= MAX_RATIO, (
        f"budget checkpoints cost {ratio - 1:.0%} on the star workload"
    )
