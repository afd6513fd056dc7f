"""Workload ``plan-star``: library ``plan()`` calls in one process, one thread.

One seeded 1000-view star catalog (Figure 6(a) settings) and 150
distinct seeded 8-subgoal star queries.  Each query runs
``plan(q, catalog, backend="corecover", cost_model="m1")`` cold, on a
fresh ``PlannerContext``, and warm, on one context shared across the
list, after an untimed warm-up pass.  Bound by the planner; no process
boundary is crossed, so ``service``, ``parallel`` and ``serve`` never
run.

End to end: ``latency_*`` are the cold calls, ``throughput_rps`` is warm
calls per second of planning.
"""

from __future__ import annotations

import json
import sys
from functools import partial
from pathlib import Path

from perfbench.inputs import STAR_CONFIG, catalog_texts, star_queries
from perfbench.measure import (
    HostSpeed,
    Metric,
    Result,
    add_median,
    child_env,
    median,
    overhead,
    percentile,
    run_child,
)
from perfbench.reference import answer_digest, certify, references
from perfbench.tracing import CORE_PHASES, Trace

#: Queries per run: enough that the cold p90 (15 samples beyond it)
#: does not hinge on the few most expensive queries one seed draws.
QUERIES = 150
#: Catalog builds per run; ``setup_s`` is their median.
BUILDS = 5
TIMEOUT_S = 150.0
#: Each phase and the end-to-end metrics it yields.
PHASES = {"cold": "latency", "warm": "throughput"}


def run(*, seed: int, seconds: int, traced: bool, work: Path, root: Path) -> Result:
    views = catalog_texts(STAR_CONFIG, seed)
    queries = star_queries(seed, QUERIES)
    answers = references(
        views, queries, "m1", work=work, env=child_env(root, work)
    )
    result = Result(uncertified=certify(views, queries, answers, seed))
    expected = [answer_digest(answer) for answer in answers]
    spec = work / "plan-star.json"
    spec.write_text(
        json.dumps(
            {
                "views": views, "queries": queries, "builds": BUILDS,
                "seconds": seconds,
            }
        )
    )
    plain = _library(spec, work, root, traced=False)
    _check(plain, expected, result)
    result.metrics = end_to_end(plain)
    result.extra = extra(plain)
    if traced:
        with_trace = _library(spec, work, root, traced=True)
        _check(with_trace, expected, result)
        result.layers = per_layer(with_trace)
        result.layers.update(overhead(end_to_end(with_trace), result.metrics))
    return result


def _library(spec: Path, work: Path, root: Path, *, traced: bool) -> dict:
    out = work / ("plan-star-traced.out" if traced else "plan-star.out")
    finished = run_child(
        [
            sys.executable, str(root / "perfbench" / "plan_child.py"),
            str(spec), str(out), "1" if traced else "0",
        ],
        cwd=work, env=child_env(root, work), timeout=TIMEOUT_S,
    )
    if finished.returncode != 0:
        raise RuntimeError(
            f"plan-star library process exited {finished.returncode}: "
            f"{finished.stderr.strip()[-2000:]}"
        )
    return json.loads(out.read_text())


def _check(raw: dict, expected: list[str], result: Result) -> None:
    """Count every timed answer; drop failed ones from the samples."""
    for phase in PHASES:
        kept = []
        for answer in raw[phase]:
            failed = "error" in answer
            wrong = not failed and answer["digest"] != expected[answer["query"]]
            result.count(not failed and not wrong, wrong=wrong)
            if not failed and not wrong:
                kept.append(answer)
        raw[phase] = kept


def _speed(raw: dict) -> dict[str, HostSpeed]:
    """Host speed per timed phase, from the chunks run before its calls."""
    return {
        phase: HostSpeed(samples) for phase, samples in raw["calibration"].items()
    }


def end_to_end(raw: dict) -> dict[str, Metric]:
    speed = _speed(raw)
    cold = [answer["ms"] for answer in raw["cold"]]
    warm = [answer["ms"] for answer in raw["warm"]]
    setup = raw["setup_s"]
    return {
        "setup_s": Metric(median(setup), "s", len(setup)),
        "peak_rss_mb": Metric(raw["peak_rss_mb"], "MB", 1),
        "latency_p50_ms": Metric(
            speed["cold"].time(median(cold)), "ms", len(cold)
        ),
        "latency_p90_ms": Metric(
            speed["cold"].time(percentile(cold, 0.9)), "ms", len(cold)
        ),
        "throughput_rps": Metric(
            speed["warm"].rate(1000.0 * len(warm) / sum(warm)),
            "req/s",
            len(warm),
        ),
    }


def extra(raw: dict) -> dict[str, Metric]:
    """Printed beside the end-to-end metrics: host speed, warm latency."""
    speed = _speed(raw)
    warm = [answer["ms"] for answer in raw["warm"]]
    table = {
        f"host.slowdown.{phase}": host.metric() for phase, host in speed.items()
    }
    table["warm_p50_ms"] = Metric(
        speed["warm"].time(median(warm)), "ms", len(warm)
    )
    table["warm_p90_ms"] = Metric(
        speed["warm"].time(percentile(warm, 0.9)), "ms", len(warm)
    )
    return table


def per_layer(raw: dict) -> dict[str, Metric]:
    trace = Trace(raw["trace"]["spans"], raw["trace"]["aliases"])
    builds = trace.per_request_ms(
        ["views.catalog_build"], lambda rid, _: rid is None
    )
    layers = {
        "views.catalog_build_ms": Metric(median(builds), "ms", len(builds)),
    }
    add = partial(add_median, layers)
    add("datalog.parse_ms", trace.per_request_ms(["datalog.parse"]), "ms")

    for phase, role in PHASES.items():
        answers = raw[phase]
        rids = {answer["rid"] for answer in answers}

        def of(key: str) -> list[float]:
            return [answer[key] for answer in answers]

        def keep(rid, _start) -> bool:
            return rid in rids

        def spans(*names: str) -> list[float]:
            return trace.per_request_ms(names, keep)

        add(f"views.touched_ratio.{role}", of("touched_ratio"), "ratio")
        add(f"planner.preflight_ms.{role}", spans("planner.preflight"), "ms")
        add(f"planner.cache_hit_rate.{role}", of("cache_hit_rate"), "ratio")
        for core in CORE_PHASES:
            add(f"core.{core}_ms.{role}", spans(f"core.{core}"), "ms")
        for count in ("view_classes", "view_tuples", "tuple_classes", "rewritings"):
            add(f"core.{count}.{role}", of(count), "count")
        add(f"containment.hom_searches.{role}", of("hom_searches"), "count")
        add(f"containment.hom_nodes.{role}", of("hom_nodes"), "count")
        searches = sum(of("hom_searches"))
        layers[f"containment.fast_path_share.{role}"] = Metric(
            sum(of("fast_path_searches")) / searches if searches else 0.0,
            "ratio",
            len(answers),
        )
        ranking = trace.by_request_ms(["cost.ranking"], keep)
        add(f"cost.ranking_ms.{role}", list(ranking.values()), "ms")
        plans = {
            rid: (end - start) * 1000.0
            for rid, start, end, _, _ in trace.select("planner.plan", keep)
        }
        add(
            f"cost.ranking_share.{role}",
            [ranking.get(rid, 0.0) / ms for rid, ms in plans.items() if ms],
            "ratio",
        )
        # No service layer runs: every answer is one plan() call.
        layers[f"service.attempts_per_ok.{role}"] = Metric(
            1.0, "ratio", len(answers)
        )
        # No task crosses a process boundary.
        layers[f"parallel.task_bytes.{role}"] = Metric(0.0, "B", 0)
    return layers
