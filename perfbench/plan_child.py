"""The plan-star library process: catalog builds, cold and warm ``plan()``.

Usage: ``python3 perfbench/plan_child.py SPEC_JSON OUT_JSON TRACE``

SPEC_JSON holds the view texts, the query texts, the number of catalog
builds and the seconds to measure.  The process builds
``ViewCatalog(texts)`` that many times (set-up), plans every query cold
— each on a fresh ``PlannerContext`` — then on one shared context: an
untimed warm-up pass, then timed warm passes until the seconds are up
(at least one).  A calibration chunk runs before every timed call, on
the same thread, so the host's speed is sampled where the work runs.
OUT_JSON receives per-request latencies, answer digests, the planner's
own counters and the calibration samples; with TRACE=1 also the spans
of the wrapped layers.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from perfbench.measure import calibration_chunk  # noqa: E402
from perfbench.reference import answer_digest  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    Tracer,
    install_catalog,
    install_planning,
)
from repro.datalog.parser import parse_query  # noqa: E402
from repro.planner import PlannerContext, plan  # noqa: E402
from repro.views import ViewCatalog  # noqa: E402


def _plan(tracer, rid, index, query, catalog, context) -> dict:
    try:
        if tracer is None:
            started = time.perf_counter()
            result = plan(
                query, catalog, backend="corecover", cost_model="m1",
                context=context,
            )
            elapsed = time.perf_counter() - started
        else:
            with tracer.span("planner.plan", rid):
                started = time.perf_counter()
                result = plan(
                    query, catalog, backend="corecover", cost_model="m1",
                    context=context,
                )
                elapsed = time.perf_counter() - started
    except Exception as exc:  # reported as a failed operation
        return {"query": index, "error": f"{type(exc).__name__}: {exc}"}
    details = result.details.stats
    stats = result.stats
    return {
        "query": index,
        "rid": rid,
        "ms": elapsed * 1000.0,
        "digest": answer_digest(str(r) for r in result.rewritings),
        "touched_ratio": details.touched_views_ratio,
        "view_classes": details.view_classes,
        "view_tuples": details.total_view_tuples,
        "tuple_classes": details.view_tuple_classes,
        "rewritings": len(result.rewritings),
        "cache_hit_rate": stats.cache_hit_rate,
        "hom_searches": stats.hom_searches,
        "hom_nodes": stats.hom_nodes,
        "fast_path_searches": stats.fast_path_searches,
    }


def main(argv: list[str]) -> int:
    source, target, trace = argv
    spec = json.loads(Path(source).read_text())
    tracer = None
    if trace == "1":
        tracer = Tracer()
        install_catalog(tracer)
        install_planning(tracer)
    calibration: dict[str, list[float]] = {"cold": [], "warm": []}
    builds = []
    for _ in range(spec["builds"]):
        started = time.perf_counter()
        catalog = ViewCatalog(spec["views"])
        builds.append(time.perf_counter() - started)
    queries = []
    for index, text in enumerate(spec["queries"]):
        if tracer is None:
            queries.append(parse_query(text))
        else:
            with tracer.span("datalog.parse", f"parse:{index}"):
                queries.append(parse_query(text))
    deadline = time.perf_counter() + spec["seconds"]
    # The cold pass runs first: no shared context is alive yet, so its
    # garbage collections do not traverse one.
    cold = []
    for index, query in enumerate(queries):
        calibration["cold"].append(calibration_chunk())
        cold.append(
            _plan(tracer, f"cold:{index}", index, query, catalog, PlannerContext())
        )
    shared = PlannerContext()
    for index, query in enumerate(queries):
        _plan(tracer, f"warmup:{index}", index, query, catalog, shared)
    warm: list[dict] = []
    passes = 0
    while not warm or time.perf_counter() < deadline:
        for index, query in enumerate(queries):
            calibration["warm"].append(calibration_chunk())
            warm.append(
                _plan(
                    tracer, f"warm:{passes}:{index}", index, query, catalog,
                    shared,
                )
            )
        passes += 1
    out = {
        "setup_s": builds,
        "cold": cold,
        "warm": warm,
        "calibration": calibration,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        out["trace"] = {"spans": tracer.spans, "aliases": tracer.aliases}
    Path(target).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
