"""Steady-state serve latency vs per-request cold ``repro batch``.

The daemon's whole reason to exist: a resident process whose workers
each hold a warm planner context answers a request for the price of a
socket round-trip plus planning, while the one-shot CLI pays
interpreter startup, imports, and catalog parsing *per request*.  This
benchmark prices both sides — warm p50/p99 over a live daemon, cold
wall time of a single-request ``repro batch`` subprocess — and asserts
the headline ``serve_warm_speedup`` (cold / warm p50) is at least 2x.
All numbers land in ``BENCH_corecover.json``.

The second test is the backpressure sanity check: a 2x-overload burst
against a small admission queue must shed *some* requests (bounded
queues working) but never all of them (admission not seized up), and
every request — served or shed — gets a terminal response.
"""

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro import ViewCatalog
from repro.parallel import SupervisorPolicy
from repro.parallel.worker import WorkerConfig
from repro.serve import AdmissionPolicy, ServeConfig
from repro.serve.testing import running_daemon
from repro.service import ServicePolicy
from repro.testing.faults import StallFault, inject

REPO_ROOT = Path(__file__).resolve().parent.parent

QUERY = "q(X, Z) :- car(X, Y), loc(Y, Z)"
VIEWS = [
    "v1(X, Z) :- car(X, Y), loc(Y, Z)",
    "v2(X, Y) :- car(X, Y)",
    "v3(Y, Z) :- loc(Y, Z)",
]

WARM_SAMPLES = 40


def _serve_config(**overrides):
    overrides.setdefault(
        "worker",
        WorkerConfig(policy=ServicePolicy(chain=("corecover",)), pool_size=4),
    )
    overrides.setdefault("supervisor", SupervisorPolicy(workers=2))
    return ServeConfig(**overrides)


def _percentile(samples, fraction):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(fraction * (len(ordered) - 1)))
    return ordered[index]


def _cold_batch_seconds(tmp_path, repeats=3):
    """Wall seconds of one single-request ``repro batch`` subprocess."""
    views_path = tmp_path / "views.dl"
    views_path.write_text("\n".join(VIEWS) + "\n")
    requests_path = tmp_path / "one.ndjson"
    requests_path.write_text(json.dumps({"id": "cold", "query": QUERY}) + "\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    argv = [
        sys.executable, "-m", "repro", "batch", str(requests_path),
        "--views", str(views_path), "--chain", "corecover",
    ]
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        proc = subprocess.run(
            argv, env=env, cwd=REPO_ROOT, capture_output=True, text=True
        )
        elapsed = time.perf_counter() - started
        assert proc.returncode == 0, proc.stderr
        best = min(best, elapsed)
    return best


def test_serve_warm_latency_vs_cold_batch(benchmark, tmp_path):
    catalog = ViewCatalog(VIEWS)
    with running_daemon(_serve_config(), catalog=catalog) as handle:
        with handle.client(timeout=60.0) as client:
            for i in range(5):  # warm each worker's context
                assert client.plan(QUERY, id=f"warm-{i}")["status"] == "ok"
            samples = []
            for i in range(WARM_SAMPLES):
                started = time.perf_counter()
                response = client.plan(QUERY, id=f"s-{i}")
                samples.append(time.perf_counter() - started)
                assert response["status"] == "ok"
            benchmark(lambda: client.plan(QUERY))

    warm_p50 = statistics.median(samples)
    warm_p99 = _percentile(samples, 0.99)
    cold = _cold_batch_seconds(tmp_path)
    speedup = cold / warm_p50 if warm_p50 > 0 else float("inf")

    benchmark.extra_info["serve_warm_p50_ms"] = round(warm_p50 * 1000, 3)
    benchmark.extra_info["serve_warm_p99_ms"] = round(warm_p99 * 1000, 3)
    benchmark.extra_info["batch_cold_ms"] = round(cold * 1000, 3)
    benchmark.extra_info["serve_warm_speedup"] = round(speedup, 2)
    benchmark.extra_info["warm_samples"] = WARM_SAMPLES

    assert speedup >= 2.0, (
        f"a warm daemon request (p50 {warm_p50 * 1000:.1f}ms) must beat a "
        f"cold per-request batch ({cold * 1000:.1f}ms) by >= 2x, "
        f"got {speedup:.2f}x"
    )


def test_shed_rate_under_2x_overload(benchmark, tmp_path):
    """Burst 2x the intake capacity; some requests shed, none vanish."""
    catalog = ViewCatalog(VIEWS)
    depth = 8
    config = _serve_config(
        admission=AdmissionPolicy(max_queue_depth=depth),
        supervisor=SupervisorPolicy(workers=1, heartbeat_grace=60.0),
    )
    # ~50ms of injected service time per request turns a burst into a
    # real backlog; capacity ~= queue depth + in-flight, so 2x that
    # must overflow the bounded queue.
    burst = 2 * (depth + 2)

    def _overload_round():
        with inject(StallFault("worker_dispatch", seconds=0.05, times=None)):
            with running_daemon(config, catalog=catalog) as handle:
                with handle.client(timeout=120.0) as client:
                    responses = client.request_many(
                        {"id": f"b-{i}", "query": QUERY} for i in range(burst)
                    )
        return responses

    responses = benchmark.pedantic(_overload_round, rounds=1, iterations=1)
    assert len(responses) == burst, "every burst request must be answered"
    shed = [
        r
        for r in responses
        if r.get("status") == "error"
        and r["error"]["error"] == "OverloadError"
    ]
    served = [r for r in responses if r.get("status") in ("ok", "degraded")]
    assert len(shed) + len(served) == burst, (
        "burst responses must be either served or shed with a "
        "structured OverloadError"
    )
    shed_rate = len(shed) / burst
    benchmark.extra_info["overload_burst"] = burst
    benchmark.extra_info["overload_queue_depth"] = depth
    benchmark.extra_info["overload_shed_rate"] = round(shed_rate, 3)
    assert 0 < shed_rate < 1, (
        f"2x overload should shed some but not all requests; "
        f"shed {len(shed)}/{burst}"
    )
    for response in shed:
        assert response["error"]["retry_after"] > 0
        assert response["error"]["exit_code"] == 78
