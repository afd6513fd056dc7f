"""Workload ``batch-chain``: ``repro batch`` as a subprocess, serial and 2 workers.

One seeded 1000-view chain catalog (Figure 8(a) settings) and 300
distinct seeded chain-query requests, run as
``repro batch <requests> --views <catalog> --chain corecover`` once with
the default ``--workers 1`` and once with ``--workers 2``.  Chain
planning is small, so the parallel run is dominated by intake, pickling
and dispatch of the 1000-view catalog every task carries, and the
serial run by cold planning inside the service layer.  ``--chain
corecover`` keeps the run on planning: the default chain fails over to
``bucket``, which takes seconds on large catalogs.

End to end: ``latency_*`` are the serial outcomes' own ``elapsed_ms``,
``throughput_rps`` is requests per wall second of the whole
``--workers 2`` invocation.
"""

from __future__ import annotations

import json
import sys
from functools import partial
from pathlib import Path

from perfbench.inputs import CHAIN_CONFIG, catalog_texts, chain_queries
from perfbench.measure import (
    Finished,
    Metric,
    Result,
    add_median,
    child_env,
    median,
    outcome_layers,
    overhead,
    percentile,
    run_child,
)
from perfbench.reference import answer_digest, certify, references
from perfbench.tracing import CORE_PHASES, TASK_MIN_BYTES, Trace

REQUESTS = 300
WORKERS = 2
#: Empty-request ``--workers 2`` runs per untraced run; ``setup_s`` is
#: their median.
SETUP_RUNS = 3
TIMEOUT_S = 120.0
#: Each phase and the end-to-end metrics it yields.
PHASES = {"serial": "latency", "parallel": "throughput"}


def run(*, seed: int, seconds: int, traced: bool, work: Path, root: Path) -> Result:
    views = catalog_texts(CHAIN_CONFIG, seed)
    queries = chain_queries(seed, REQUESTS, "batch-requests")
    answers = references(
        views, queries, None, work=work, env=child_env(root, work)
    )
    result = Result(uncertified=certify(views, queries, answers, seed))
    expected = {
        f"r{i:03d}": answer_digest(answer) for i, answer in enumerate(answers)
    }
    (work / "views.dl").write_text("\n".join(views) + "\n")
    (work / "requests.ndjson").write_text(
        "".join(
            json.dumps({"id": rid, "query": query}) + "\n"
            for rid, query in zip(expected, queries)
        )
    )
    (work / "empty.ndjson").write_text("")
    bench = _Invoker(work, root)
    plain = bench.measure(traced=False)
    outcomes = {
        phase: _check(plain[phase], expected, result) for phase in PHASES
    }
    result.metrics = end_to_end(plain, outcomes)
    result.extra = {
        "serial_rps": Metric(REQUESTS / plain["serial"].wall_s, "req/s", REQUESTS)
    }
    if traced:
        with_trace = bench.measure(traced=True)
        outcomes = {
            phase: _check(with_trace[phase], expected, result)
            for phase in PHASES
        }
        result.layers = per_layer(with_trace, outcomes)
        result.layers.update(
            overhead(end_to_end(with_trace, outcomes), result.metrics)
        )
    return result


class _Invoker:
    """Runs ``repro batch`` plainly or under the benchmark's wrappers."""

    def __init__(self, work: Path, root: Path) -> None:
        self.work = work
        self.root = root
        self.env = child_env(root, work)

    def batch(self, requests: str, workers: int, spans: str | None) -> Finished:
        args = [
            "batch", requests, "--views", "views.dl", "--chain", "corecover",
            "--workers", str(workers),
        ]
        if spans is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            layers = "batch-serial" if workers == 1 else "batch-parallel"
            args.append("--profile")
            command = [
                sys.executable, str(self.root / "perfbench" / "traced_main.py"),
                spans, layers, "--", *args,
            ]
        return run_child(command, cwd=self.work, env=self.env, timeout=TIMEOUT_S)

    def measure(self, *, traced: bool) -> dict:
        def spans(name: str) -> str | None:
            return str(self.work / f"{name}.spans.json") if traced else None

        raw = {
            "setup": [
                self.batch("empty.ndjson", WORKERS, spans("setup")).wall_s
                for _ in range(1 if traced else SETUP_RUNS)
            ],
            "serial": self.batch("requests.ndjson", 1, spans("serial")),
            "parallel": self.batch("requests.ndjson", WORKERS, spans("parallel")),
        }
        if traced:
            raw["traces"] = {
                name: Trace.load(spans(name))
                for name in ("setup", "serial", "parallel")
            }
        return raw


def _check(finished: Finished, expected: dict[str, str], result: Result) -> list[dict]:
    """Count one outcome per request; return the ok outcomes."""
    outcomes = {}
    for line in finished.stdout.splitlines():
        try:
            outcome = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(outcome, dict) and "id" in outcome:
            outcomes[str(outcome["id"])] = outcome
    kept = []
    for rid, digest in expected.items():
        outcome = outcomes.get(rid)
        answered = outcome is not None and outcome.get("status") == "ok"
        wrong = answered and answer_digest(outcome["rewritings"]) != digest
        result.count(answered and not wrong, wrong=wrong)
        if answered and not wrong:
            kept.append(outcome)
    return kept


def end_to_end(raw: dict, outcomes: dict[str, list[dict]]) -> dict[str, Metric]:
    serial, parallel = raw["serial"], raw["parallel"]
    latencies = [outcome["elapsed_ms"] for outcome in outcomes["serial"]]
    return {
        "setup_s": Metric(median(raw["setup"]), "s", len(raw["setup"])),
        "peak_rss_mb": Metric(
            max(serial.peak_rss_mb, parallel.peak_rss_mb), "MB", 2
        ),
        "latency_p50_ms": Metric(median(latencies), "ms", len(latencies)),
        "latency_p90_ms": Metric(
            percentile(latencies, 0.9), "ms", len(latencies)
        ),
        "throughput_rps": Metric(REQUESTS / parallel.wall_s, "req/s", REQUESTS),
    }


def per_layer(raw: dict, outcomes: dict[str, list[dict]]) -> dict[str, Metric]:
    traces = raw["traces"]
    serial, parallel = traces["serial"], traces["parallel"]
    layers: dict[str, Metric] = {}

    add = partial(add_median, layers)

    add(
        "views.catalog_build_ms",
        [ms for trace in traces.values()
         for ms in trace.per_request_ms(["views.catalog_build"])],
        "ms",
    )
    add(
        "datalog.parse_ms",
        serial.per_request_ms(["datalog.parse"])
        + parallel.per_request_ms(["datalog.parse"]),
        "ms",
    )
    # Serial: plan phases run in this process, under the wrappers.
    layers.update(outcome_layers(outcomes["serial"], "latency", phases=False))
    add(
        "planner.preflight_ms.latency",
        serial.per_request_ms(["planner.preflight"]),
        "ms",
    )
    for core in CORE_PHASES:
        add(
            f"core.{core}_ms.latency",
            serial.per_request_ms([f"core.{core}"]),
            "ms",
        )
    add(
        "planner.cache_hit_rate.latency",
        [attrs["hit_rate"] for *_, attrs in serial.select("planner.plan")],
        "ratio",
    )
    add(
        "service.execute_ms.latency",
        serial.per_request_ms(["service.execute"]),
        "ms",
    )
    # No task crosses a process boundary in a --workers 1 run.
    layers["parallel.task_bytes.latency"] = Metric(0.0, "B", 0)

    # Parallel: plan phases run in the workers; their profiles say how long.
    layers.update(outcome_layers(outcomes["parallel"], "throughput", phases=True))
    results = parallel.select("parallel.result")
    add(
        "planner.cache_hit_rate.throughput",
        [a["hit_rate"] for *_, a in results if a["hit_rate"] is not None],
        "ratio",
    )
    add(
        "parallel.task_bytes.throughput",
        [
            attrs["bytes"]
            for _, _, _, _, attrs in parallel.select("parallel.send")
            if attrs["bytes"] >= TASK_MIN_BYTES
        ],
        "B",
    )
    add(
        "parallel.submit_ms.throughput",
        parallel.per_request_ms(["parallel.submit"]),
        "ms",
    )
    worker_ms = [attrs["worker_ms"] for _, _, _, _, attrs in results]
    add("parallel.worker_ms.throughput", worker_ms, "ms")
    submits = parallel.select("parallel.submit")
    if results and submits:
        # Every task is handed off at once, so hand-off-to-result time is
        # mostly queueing; report per-task pool occupancy beyond the
        # executor instead.
        busy_ms = 1000.0 * (
            max(start for _, start, _, _, _ in results)
            - min(start for _, start, _, _, _ in submits)
        )
        layers["parallel.dispatch_ms.throughput"] = Metric(
            WORKERS * busy_ms / len(results) - sum(worker_ms) / len(worker_ms),
            "ms",
            len(results),
        )
    pool = _context_pool(raw["parallel"].stderr)
    if pool is not None:
        lookups = pool["hits"] + pool["delta_hits"] + pool["misses"]
        layers["parallel.context_pool_hit_rate.throughput"] = Metric(
            (pool["hits"] + pool["delta_hits"]) / lookups if lookups else 0.0,
            "ratio",
            lookups,
        )
    return layers


def _context_pool(stderr: str) -> dict | None:
    for line in stderr.splitlines():
        if line.startswith("{") and "context_pool" in line:
            return json.loads(line)["context_pool"]
    return None
