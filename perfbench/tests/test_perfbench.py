"""The benchmark's own tests: inputs, metric names, tail rule, gate.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from perfbench import batch_chain, plan_star, run, serve_chain_rw
from perfbench.inputs import (
    CHAIN_CONFIG,
    STAR_CONFIG,
    catalog_texts,
    chain_queries,
    renamed,
    serve_inputs,
    star_queries,
)
from perfbench.measure import (
    MIN_BEYOND,
    Finished,
    Result,
    beyond,
    overhead,
    percentile,
)
from perfbench.reference import answer_digest, certify
from perfbench.tracing import CORE_PHASES, Trace, Tracer, clock

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- inputs -------------------------------------------------------------------

def test_same_seed_gives_identical_inputs():
    assert catalog_texts(CHAIN_CONFIG, 7) == catalog_texts(CHAIN_CONFIG, 7)
    assert catalog_texts(STAR_CONFIG, 7) == catalog_texts(STAR_CONFIG, 7)
    assert star_queries(7, 100) == star_queries(7, 100)
    assert chain_queries(7, 300, "s") == chain_queries(7, 300, "s")
    views = catalog_texts(CHAIN_CONFIG, 7)

    def schedule():
        return serve_inputs(
            7, frames=240, update_share=0.1, pool=60, views=views,
            connections=2, closed_reads=50,
        )

    assert schedule() == schedule()
    assert star_queries(7, 100) != star_queries(8, 100)
    assert catalog_texts(CHAIN_CONFIG, 7) != catalog_texts(CHAIN_CONFIG, 8)


def test_queries_are_distinct():
    assert len(set(star_queries(3, plan_star.QUERIES))) == plan_star.QUERIES
    requests = chain_queries(3, batch_chain.REQUESTS, "batch-requests")
    assert len(set(requests)) == batch_chain.REQUESTS


def test_renamed_update_changes_the_hash_but_not_the_view():
    from repro.containment.containment import is_equivalent_to
    from repro.views import as_view, view_content_hash

    text = catalog_texts(CHAIN_CONFIG, 2)[5]
    old, new = as_view(text), as_view(renamed(text, 4))
    assert new.name == old.name
    assert view_content_hash(new) != view_content_hash(old)
    assert is_equivalent_to(new.definition, old.definition)


# -- the tail rule ------------------------------------------------------------

def test_every_tail_percentile_has_ten_samples_beyond_it():
    assert beyond(plan_star.QUERIES, 0.9) >= MIN_BEYOND
    assert beyond(batch_chain.REQUESTS, 0.9) >= MIN_BEYOND
    views = catalog_texts(CHAIN_CONFIG, 1)
    inputs = serve_inputs(
        1,
        frames=serve_chain_rw.frames_for(SPEC["run_seconds"]),
        update_share=serve_chain_rw.UPDATE_SHARE,
        pool=serve_chain_rw.POOL,
        views=views,
        connections=serve_chain_rw.CONNECTIONS,
        closed_reads=1,
    )
    kinds = [frame.kind for frame in inputs.schedule]
    assert kinds.count("update") >= 1 and kinds.count("read") >= 1
    closed = round(serve_chain_rw.MIN_CLOSED_S * 13)
    assert beyond(closed, 0.9) >= MIN_BEYOND


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.9) == 90
    assert beyond(100, 0.9) == 10
    assert percentile([5.0], 0.95) == 5.0


# -- tracing ------------------------------------------------------------------

def test_self_time_subtracts_children_and_phases_do_not_nest():
    tracer = Tracer()
    with tracer.span("outer", "r1"):
        with tracer.span("core.grouping", phase=True):
            assert not tracer.active(phase=True)
        with tracer.span("inner"):
            pass
    trace = Trace(tracer.spans, tracer.aliases)
    (rid, start, end, self_s, _), = trace.select("outer")
    children = sum(
        row[2] - row[1]
        for name in ("core.grouping", "inner")
        for row in trace.select(name)
    )
    assert rid == "r1"
    assert self_s == pytest.approx(end - start - children)
    assert {row[0] for row in trace.select("inner")} == {"r1"}


# -- metric names and units -----------------------------------------------------

CORE = CORE_PHASES


def _profile() -> dict:
    phases = {phase: 0.001 for phase in ("parse", "preflight", *CORE)}
    phases["cost_ranking"] = 0.0
    return {
        "phase_seconds": phases,
        "total_seconds": sum(phases.values()),
        "search": {"hom_searches": 4, "hom_nodes": 9, "fast_path_searches": 4},
    }


def _outcome(rid: str) -> dict:
    return {
        "id": rid, "status": "ok", "attempts": 1, "rewritings": ["q :- v"],
        "elapsed_ms": 12.5, "profile": _profile(),
    }


def _plan_star_raw() -> dict:
    tracer = Tracer()
    with tracer.span("views.catalog_build"):
        pass
    with tracer.span("datalog.parse", "parse:0"):
        pass
    raw = {
        "setup_s": [0.3], "peak_rss_mb": 90.0,
        "calibration": {"cold": [4.5], "warm": [5.0]},
    }
    for phase in plan_star.PHASES:
        rid = f"{phase}:0"
        with tracer.span("planner.plan", rid):
            for name in ("planner.preflight", "cost.ranking") + tuple(
                f"core.{core}" for core in CORE
            ):
                with tracer.span(name, phase=True):
                    pass
        raw[phase] = [
            dict(
                query=0, rid=rid, ms=1.0, digest="d", touched_ratio=0.5,
                view_classes=1, view_tuples=1, tuple_classes=1, rewritings=1,
                cache_hit_rate=0.5, hom_searches=2, hom_nodes=3,
                fast_path_searches=1,
            )
        ]
    raw["trace"] = {"spans": tracer.spans, "aliases": tracer.aliases}
    return raw


def _batch_raw() -> tuple[dict, dict]:
    traces = {}
    for name in ("setup", "serial", "parallel"):
        tracer = Tracer()
        with tracer.span("views.catalog_build"):
            pass
        with tracer.span("datalog.parse", "r000"):
            pass
        if name == "serial":
            with tracer.span("service.execute", "r000"):
                with tracer.span("planner.plan"):
                    tracer.annotate(hit_rate=0.5)
                    for phase in ("planner.preflight",) + tuple(
                        f"core.{core}" for core in CORE
                    ):
                        with tracer.span(phase, phase=True):
                            pass
        if name == "parallel":
            with tracer.span("parallel.submit", "r000"):
                pass
            tracer.event("parallel.send", bytes=250_000)
            tracer.event(
                "parallel.result", "r000", worker_ms=12.0, hit_rate=1.0,
                pool_event="exact",
            )
        traces[name] = Trace(tracer.spans, tracer.aliases)
    finished = Finished(
        5.0, 0, "",
        json.dumps({"context_pool": {"hits": 1, "delta_hits": 0, "misses": 1}}),
        100.0,
    )
    raw = {
        "setup": [0.6], "serial": finished, "parallel": finished,
        "traces": traces,
    }
    return raw, {"serial": [_outcome("r000")], "parallel": [_outcome("r000")]}


def _serve_raw() -> dict:
    tracer = Tracer()
    with tracer.span("serve.register"):
        with tracer.span("views.catalog_build"):
            pass
        with tracer.span("serve.journal_append"):
            pass
    read = {
        "kind": "read", "ok": True, "latency_ms": 50.0,
        "message": _outcome("o0"),
    }
    raw = {"setup": [0.8], "peak_rss_mb": 130.0, "late_ms": [1.0]}
    for phase, rid in (("closed", "c0-0"), ("open", "o0")):
        raw[f"{phase}_started"] = clock()
        tracer.new_frame()
        with tracer.span("serve.codec"):
            pass
        tracer.alias(rid)
        with tracer.span("datalog.parse"):
            pass
        with tracer.span("serve.admit"):
            pass
        with tracer.span("parallel.submit", rid):
            pass
        tracer.event("parallel.send", bytes=250_000)
        tracer.event(
            "parallel.result", rid, worker_ms=1.0, hit_rate=1.0,
            pool_event="exact",
        )
        with tracer.span("serve.codec", rid):
            pass
        if phase == "open":
            tracer.new_frame()
            with tracer.span("serve.update"):
                with tracer.span("serve.journal_append"):
                    pass
    raw["open"] = [read, {"kind": "update", "ok": True, "latency_ms": 4.0}]
    raw["closed"] = {"records": [read], "elapsed_s": 1.0}
    raw["stats"] = [
        {
            "pool": {"pool": {"hits": hits, "delta_hits": 0, "misses": 1}},
            "admission": {"shed": {"queue_full": 0}},
        }
        for hits in (0, 5, 9)
    ]
    raw["trace"] = Trace(tracer.spans, tracer.aliases)
    return raw


def _results() -> dict[str, Result]:
    """Each workload's result on synthetic data, traced."""
    plan_raw = _plan_star_raw()
    batch_raw, outcomes = _batch_raw()
    serve_raw = _serve_raw()
    tables = {
        "plan-star": (
            plan_star.end_to_end(plan_raw), plan_star.per_layer(plan_raw)
        ),
        "batch-chain": (
            batch_chain.end_to_end(batch_raw, outcomes),
            batch_chain.per_layer(batch_raw, outcomes),
        ),
        "serve-chain-rw": (
            serve_chain_rw.end_to_end(serve_raw),
            serve_chain_rw.per_layer(serve_raw),
        ),
    }
    results = {}
    for workload, (plain, layers) in tables.items():
        layers.update(overhead(plain, plain))
        results[workload] = Result(metrics=plain, layers=layers, attempted=1)
    return results


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == ["plan-star", "serve-chain-rw"]
    assert set(names) <= set(run.WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(all_names) == len(set(all_names))
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in metrics:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len(json.dumps(SPEC)) <= 64 * 1024


@pytest.mark.parametrize("traced", [False, True])
def test_every_workload_reports_every_name_with_its_unit(traced):
    key = "per_layer" if traced else "end_to_end"
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    for workload, result in _results().items():
        line = run._summary({workload: result}, traced)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert {
            name: metric["unit"] for name, metric in line["metrics"].items()
        } == declared, workload
        for metric in line["metrics"].values():
            assert isinstance(metric["value"], float)


def test_end_to_end_metrics_are_never_zero():
    for result in _results().values():
        for name in run.manifest_names(traced=False):
            assert result.metrics[name].value > 0, name


# -- the correctness gate -------------------------------------------------------

VIEWS = [
    "v1(M, D, C) :- car(M, D), loc(D, C)",
    "v2(S, M, C) :- part(S, M, C)",
    "v4(M, D, C, S) :- car(M, D), loc(D, C), part(S, M, C)",
]
QUERY = "q1(S, C) :- car(M, a), loc(a, C), part(S, M, C)"


def _reference() -> list[str]:
    from repro.datalog.parser import parse_query
    from repro.planner import PlannerContext, plan
    from repro.views import ViewCatalog

    result = plan(
        parse_query(QUERY), ViewCatalog(VIEWS), backend="corecover",
        context=PlannerContext(),
    )
    return sorted(str(r) for r in result.rewritings)


def test_certification_rejects_a_corrupted_reference():
    answer = _reference()
    assert answer and certify(VIEWS, [QUERY], [answer], seed=1) == 0
    corrupted = ["q1(S, C) :- v2(S, M, C)"]
    assert certify(VIEWS, [QUERY], [corrupted], seed=1) == 1


def test_gate_fails_a_corrupted_plan_answer():
    answer = _reference()
    raw = {
        phase: [{"query": 0, "ms": 1.0, "digest": answer_digest(answer[1:])}]
        for phase in plan_star.PHASES
    }
    result = Result()
    plan_star._check(raw, [answer_digest(answer)], result)
    assert (result.attempted, result.failed, result.wrong) == (2, 2, 2)
    assert not result.correct and raw["cold"] == []


def test_gate_fails_a_corrupted_batch_outcome():
    answer = _reference()
    corrupted = answer + ["q1(S, C) :- v2(S, M, C)"]
    lines = [
        {"id": "r000", "status": "ok", "rewritings": answer},
        {"id": "r001", "status": "ok", "rewritings": corrupted},
        {"id": "r002", "status": "failed", "rewritings": []},
    ]
    stdout = "\n".join(json.dumps(line) for line in lines)
    finished = Finished(1.0, 0, stdout, "", 1.0)
    expected = {f"r00{i}": answer_digest(answer) for i in range(4)}
    result = Result()
    kept = batch_chain._check(finished, expected, result)
    assert [outcome["id"] for outcome in kept] == ["r000"]
    assert (result.attempted, result.failed, result.wrong) == (4, 3, 1)


def test_gate_fails_a_corrupted_serve_response():
    answer = _reference()
    result = Result()
    load = serve_chain_rw._Load(
        VIEWS, [QUERY], [answer_digest(answer)], None, ["root0", "root1"],
        None, None, result,
    )
    now = clock()
    good = load._judge("read", 0, now, (now, {"status": "ok", "rewritings": answer}))
    corrupted = answer + ["q1(S, C) :- v2(S, M, C)"]
    bad = load._judge(
        "read", 0, now, (now, {"status": "ok", "rewritings": corrupted})
    )
    stale = load._judge(
        "update", 0, now, (now, {"status": "ok", "content_root": "root0"})
    )
    missing = load._judge("read", 0, now, None)
    assert good["ok"] and not bad["ok"] and not stale["ok"] and not missing["ok"]
    assert (result.attempted, result.failed, result.wrong) == (4, 3, 2)
