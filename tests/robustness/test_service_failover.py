"""Certified failover, quarantine, and degraded stale serving.

These are the acceptance chaos tests for the service layer: corecover
is broken with injected faults and the executor must fall down the
chain, serving only rewritings that re-certify as genuinely equivalent
(Definition 2.3), quarantining any backend caught lying.
"""

import pytest

from repro import (
    ResourceBudget,
    RetryExhaustedError,
    ViewCatalog,
    is_equivalent_rewriting,
    parse_query,
)
from repro.planner.registry import (
    _BACKENDS,
    RewriterBackend,
    register_backend,
)
from repro.service import (
    ChainConfigError,
    PlanCache,
    PlanRequest,
    ResilientExecutor,
    RetryPolicy,
    ServicePolicy,
    is_quarantined,
    quarantined_backends,
    resolve_chain,
)
from repro.testing.faults import INJECTION_POINTS, RaiseFault, inject


@pytest.fixture()
def workload():
    query = parse_query("q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)")
    views = ViewCatalog(
        [
            "v1(A, B) :- a(A, B), a(B, B)",
            "v2(C, D) :- a(C, E), b(C, D)",
            "v3(A) :- a(A, A)",
        ]
    )
    return query, views


def make_executor(fake_clock, *, chain, max_attempts=3, cache=None):
    policy = ServicePolicy(
        chain=chain,
        retry=RetryPolicy(max_attempts=max_attempts, base_delay=0.01),
    )
    return ResilientExecutor(
        policy,
        cache=cache,
        clock=fake_clock,
        sleep=lambda _d: None,
        rng=lambda: 1.0,
    )


class TestFailover:
    def test_broken_corecover_fails_over_to_certified_bucket(
        self, workload, fake_clock
    ):
        """The headline acceptance scenario: every corecover attempt dies
        on an injected ``hom_search`` fault; bucket serves instead, and
        everything served re-verifies as a genuine equivalent rewriting.
        """
        query, views = workload
        executor = make_executor(
            fake_clock, chain=("corecover", "bucket", "naive")
        )
        # Each corecover attempt starts a hom search immediately, so
        # exactly max_attempts triggers exhaust on corecover and leave
        # the fallback backends untouched.
        with inject(RaiseFault("hom_search", times=3)):
            outcome = executor.execute(PlanRequest(query, views, id="acc-1"))
        assert outcome.ok
        assert outcome.attempts > 1
        assert outcome.backend_used != "corecover"
        assert outcome.backend_used == "bucket"
        assert outcome.rewritings
        for rewriting in outcome.rewritings:
            assert is_equivalent_rewriting(rewriting, query, views)
        assert outcome.breakers["corecover"] == "open"
        assert outcome.breakers["bucket"] == "closed"
        [failure] = outcome.failures
        assert failure.backend == "corecover"
        assert failure.attempts == 3

    def test_all_backends_down_without_cache_fails(self, workload, fake_clock):
        executor = make_executor(
            fake_clock, chain=("corecover", "bucket", "naive"), max_attempts=1
        )
        with inject(RaiseFault("hom_search", times=None)):
            outcome = executor.execute(PlanRequest(*workload))
        assert outcome.status == "failed"
        assert isinstance(outcome.error, RetryExhaustedError)
        assert outcome.backend_used is None
        assert {f.backend for f in outcome.failures} == {
            "corecover",
            "bucket",
            "naive",
        }

    def test_failover_respects_the_request_deadline(
        self, workload, fake_clock
    ):
        """Once the request budget's deadline is spent, later chain links
        are not even tried."""
        executor = make_executor(
            fake_clock, chain=("corecover", "bucket"), max_attempts=1
        )
        request = PlanRequest(
            *workload, budget=ResourceBudget(deadline_seconds=0.0)
        )
        outcome = executor.execute(request)
        assert outcome.status == "failed"
        # The deadline abort stops the walk: bucket is never consulted.
        assert [f.backend for f in outcome.failures] == ["corecover"]


def _liar_run(query, catalog, *, context, **options):
    """A backend that claims a non-equivalent query is a rewriting."""
    return (parse_query("q(X, Y) :- v1(X, Y)"),), None


@pytest.fixture()
def liar_backend():
    backend = RewriterBackend(
        name="liar",
        description="test backend emitting uncertifiable rewritings",
        run=_liar_run,
    )
    register_backend(backend, replace=True)
    yield backend
    _BACKENDS.pop("liar", None)


class TestQuarantine:
    def test_uncertifiable_fallback_is_quarantined(
        self, workload, fake_clock, liar_backend
    ):
        executor = make_executor(
            fake_clock, chain=("corecover", "liar", "bucket"), max_attempts=1
        )
        with inject(RaiseFault("hom_search", times=1)):
            outcome = executor.execute(PlanRequest(*workload, id="q-1"))
        # The liar's answer failed certification; bucket served instead.
        assert outcome.ok
        assert outcome.backend_used == "bucket"
        assert is_quarantined("liar")
        assert "liar" in quarantined_backends()
        liar_failures = [f for f in outcome.failures if f.backend == "liar"]
        assert liar_failures[0].error == "UncertifiableRewriting"

        # A later request skips the quarantined backend outright.
        with inject(RaiseFault("hom_search", times=1)):
            second = executor.execute(PlanRequest(*workload, id="q-2"))
        assert second.ok
        assert second.backend_used == "bucket"
        skipped = [f for f in second.failures if f.backend == "liar"]
        assert skipped[0].error == "Quarantined"
        assert skipped[0].skipped

    def test_primary_backend_is_never_certified_away(
        self, workload, fake_clock, liar_backend
    ):
        """Certification gates *fallbacks* only: the chain head is the
        trusted configuration, so a liar at index 0 still serves (its
        output is the operator's explicit choice)."""
        executor = make_executor(fake_clock, chain=("liar",), max_attempts=1)
        outcome = executor.execute(PlanRequest(*workload))
        assert outcome.ok
        assert outcome.backend_used == "liar"
        assert not is_quarantined("liar")


class TestDegradedServing:
    def test_stale_cache_serves_when_every_backend_is_down(
        self, workload, fake_clock, tmp_path
    ):
        """Acceptance: all backends faulted -> the stale (past-TTL) cache
        entry is served with ``degraded: true`` instead of failing."""
        cache = PlanCache(tmp_path / "plans", ttl_seconds=0.0)
        settings = {
            "chain": ("corecover", "bucket", "naive"),
            "max_attempts": 1,
            "cache": cache,
        }
        # An earlier executor primes the cache.  This one's context starts
        # cold: a memoized plan needs no hom search, so the injected fault
        # could not take corecover down.
        primed = make_executor(fake_clock, **settings).execute(
            PlanRequest(*workload, id="warm")
        )
        assert primed.ok and primed.cache == "miss"

        executor = make_executor(fake_clock, **settings)
        with inject(RaiseFault("hom_search", times=None)):
            outcome = executor.execute(PlanRequest(*workload, id="cold"))
        assert outcome.status == "degraded"
        assert outcome.degraded
        assert outcome.cache == "stale"
        assert outcome.backend_used == "corecover"  # the entry remembers
        assert outcome.plan_status == "complete"  # the entry's own status
        assert [str(r) for r in outcome.rewritings] == [
            "q(X, Y) :- v1(X, Z), v2(Z, Y)"
        ]
        # The failures that forced degraded mode stay observable.
        assert {f.backend for f in outcome.failures} == {
            "corecover",
            "bucket",
            "naive",
        }

    def test_all_injection_points_fire_in_a_supervised_run(
        self, workload, fake_clock, tmp_path
    ):
        """A cache-backed supervised run plus a worker dispatch, a
        catalog delta, the serve-tier lifecycle (admission, drain,
        heartbeat sweep), and a durable catalog commit + checkpoint
        exercises the full registry of injection points — planner-,
        service-, catalog-, parallel-, daemon-, and durability-level
        alike."""
        from repro.parallel import SupervisedWorkerPool
        from repro.parallel import WorkerConfig, WorkerState, WorkerTask
        from repro.serve.admission import AdmissionController
        from repro.serve.catalogs import CatalogRegistry
        from repro.views import as_view

        query, views = workload
        cache = PlanCache(tmp_path / "plans")
        executor = make_executor(
            fake_clock, chain=("corecover",), cache=cache
        )
        worker = WorkerState(
            WorkerConfig(policy=ServicePolicy(chain=("corecover",)))
        )
        with inject() as active:
            executor.execute(PlanRequest(query, views))
            worker.run(WorkerTask(0, PlanRequest(query, views)))
            views.add_view(as_view("v_extra(X) :- a(X, X)"))
            AdmissionController().admit()
            pool = SupervisedWorkerPool()  # unstarted: lifecycle only
            pool.heartbeat_sweep()
            pool.shutdown()
            registry = CatalogRegistry(state_dir=tmp_path / "state")
            registry.register("t1", ["v1(A, B) :- a(A, B)"])
            registry.checkpoint()
            registry.close()
        assert active.exercised_points() == INJECTION_POINTS


class TestChainValidation:
    def test_unknown_backend_rejected(self):
        from repro.planner.registry import UnknownBackendError

        with pytest.raises(UnknownBackendError):
            resolve_chain(("corecover", "nope"))

    def test_non_rewriting_backend_rejected(self):
        """inverse-rules emits a maximally-contained program, not
        equivalent rewritings — it cannot sit in a certified chain."""
        with pytest.raises(ChainConfigError):
            resolve_chain(("corecover", "inverse-rules"))

    def test_duplicate_backend_rejected(self):
        with pytest.raises(ChainConfigError):
            resolve_chain(("corecover", "corecover"))

    def test_empty_chain_rejected(self):
        with pytest.raises(ChainConfigError):
            resolve_chain(())
