"""Parallel planning speedup and the phase-level cost breakdown.

Times the same batch of chain-workload plan tasks through
:func:`repro.parallel.plan_map` — the sweep fan-out on the supervised
worker pool — at 4, 2, and 1 workers, **in that order**, so the forked
workers never inherit a parent process warmed by the serial run, and
reports
``parallel_speedup_x2`` / ``parallel_speedup_x4`` plus the merged
``phase_fraction_*`` breakdown of where planning time actually goes.

The 2x-at-4-workers floor is only asserted on machines with at least 4
CPUs; on smaller containers the numbers are still recorded in
``BENCH_corecover.json`` (fork + pickle overhead usually makes them < 1
there, which is exactly what docs/performance.md tells users to expect).
"""

import os
import time

from repro.parallel import PlanTask, plan_map
from repro.profiling import PhaseProfile
from repro.workload import WorkloadConfig, workload_series

from conftest import CHAIN_RELATIONS

NUM_VIEWS = 500
NUM_TASKS = 10


def _tasks():
    template = WorkloadConfig(
        shape="chain",
        num_relations=CHAIN_RELATIONS,
        num_views=NUM_VIEWS,
        nondistinguished=0,
        seed=23,
    )
    return [
        PlanTask(query=workload.query, views=workload.views, caching=True)
        for workload in workload_series(template, NUM_TASKS)
    ]


def _wall(tasks, workers):
    started = time.perf_counter()
    results = plan_map(tasks, workers=workers)
    elapsed = time.perf_counter() - started
    assert len(results) == len(tasks)
    return elapsed, results


def test_parallel_speedup(benchmark):
    tasks = _tasks()

    # Parallel walls first: the workers fork from a parent that has not
    # planned yet, so they start cold like the serial run.
    wall_x4, results = _wall(tasks, 4)
    wall_x2, _ = _wall(tasks, 2)
    wall_serial, serial_results = _wall(tasks, 1)

    speedup_x2 = wall_serial / wall_x2 if wall_x2 > 0 else 0.0
    speedup_x4 = wall_serial / wall_x4 if wall_x4 > 0 else 0.0
    benchmark.extra_info["num_tasks"] = NUM_TASKS
    benchmark.extra_info["num_views"] = NUM_VIEWS
    benchmark.extra_info["cpu_count"] = os.cpu_count()
    benchmark.extra_info["serial_wall_seconds"] = wall_serial
    benchmark.extra_info["x2_wall_seconds"] = wall_x2
    benchmark.extra_info["x4_wall_seconds"] = wall_x4
    benchmark.extra_info["parallel_speedup_x2"] = speedup_x2
    benchmark.extra_info["parallel_speedup_x4"] = speedup_x4

    # Where the time goes: merge every task's phase profile into one
    # breakdown (the CoreCoverStats already carry canonical phases).
    merged = PhaseProfile(serial_results[0].stats.phase_seconds)
    for result in serial_results[1:]:
        merged = merged.merged(PhaseProfile(result.stats.phase_seconds))
    for name, fraction in merged.fractions().items():
        benchmark.extra_info[f"phase_fraction_{name}"] = fraction

    # Register a timing series for the JSON dump: one serial task.
    single = tasks[:1]
    benchmark(lambda: plan_map(single, workers=1))

    if (os.cpu_count() or 1) >= 4:
        assert speedup_x4 >= 2.0, (
            f"4-worker pool only {speedup_x4:.2f}x over serial "
            f"({wall_serial:.2f}s -> {wall_x4:.2f}s) on "
            f"{os.cpu_count()} CPUs"
        )
