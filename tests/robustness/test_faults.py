"""Chaos tests: deterministic fault injection against the planner.

Each test drives :func:`repro.planner.plan` with a fault active at one
of the named injection points and asserts the anytime invariants hold:
the call returns within the deadline plus a bounded epsilon, never
leaks an unexpected exception in non-strict budgeted mode, and any
certified best-so-far rewriting verifies as genuinely equivalent.
"""

import time

import pytest

from repro import (
    ResourceBudget,
    ViewCatalog,
    is_equivalent_rewriting,
    parse_query,
    plan,
)
from repro.planner import PlanStatus
from repro.testing.faults import (
    INJECTION_POINTS,
    CancelFault,
    Fault,
    RaiseFault,
    StallFault,
    inject,
)

EPSILON = 0.25


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


#: The injection points a bare (unsupervised) plan() call fires; the
#: service-level points are exercised in tests/robustness/test_service_*.
PLANNER_POINTS = ("hom_search", "cache_lookup", "enumeration")


class TestObservability:
    def test_all_planner_injection_points_are_exercised(self, workload):
        """An empty plan only observes — and must see every point fire."""
        query, views = workload
        with inject() as active:
            plan(query, views, backend="corecover")
        assert active.exercised_points() == PLANNER_POINTS
        assert set(PLANNER_POINTS) <= set(INJECTION_POINTS)

    def test_firing_counts_replay_deterministically(self, workload):
        # Equal firing counts hold per starting state: the replay runs on
        # a second catalog of the same views, because a catalog keeps the
        # view classes its first call computed.
        query, views = workload
        replay = ViewCatalog(list(views))
        with inject() as first:
            plan(query, views, backend="corecover")
        with inject() as second:
            plan(query, replay, backend="corecover")
        assert first.observed == second.observed

    def test_second_call_on_one_catalog_skips_grouping_searches(
        self, workload
    ):
        query, views = workload
        with inject() as first:
            cold = plan(query, views, backend="corecover")
        with inject() as second:
            warm = plan(query, views, backend="corecover")
        assert second.observed["hom_search"] < first.observed["hom_search"]
        assert warm.rewritings == cold.rewritings

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError):
            Fault(point="not-a-point")

    def test_nesting_rejected(self):
        with inject():
            with pytest.raises(RuntimeError):
                with inject():
                    pass  # pragma: no cover


class TestStall:
    def test_stalled_hom_search_still_meets_deadline(self, workload):
        """A search that stalls must not stop the deadline from firing.

        The stall happens *inside* one hom search, so the return bound is
        deadline + one stall duration + epsilon (checkpoints cannot
        interrupt a stalled foreign call, only bound what follows it).
        """
        query, views = workload
        stall = 0.05
        deadline = 0.05
        started = time.monotonic()
        with inject(StallFault("hom_search", seconds=stall, times=None)):
            result = plan(
                query,
                views,
                backend="corecover",
                budget=ResourceBudget(deadline_seconds=deadline),
            )
        elapsed = time.monotonic() - started
        assert elapsed <= deadline + stall + EPSILON
        assert result.outcome.status is PlanStatus.BUDGET_EXHAUSTED
        assert result.outcome.exhausted_resource == "deadline"


class TestRaise:
    def test_cache_crash_degrades_to_failed_under_budget(self, workload):
        query, views = workload
        with inject(RaiseFault("cache_lookup", after=3)):
            result = plan(
                query,
                views,
                backend="corecover",
                budget=ResourceBudget(deadline_seconds=30.0),
            )
        outcome = result.outcome
        assert outcome.status is PlanStatus.FAILED
        assert isinstance(outcome.error, RuntimeError)
        assert result.rewritings == ()

    def test_cache_crash_raises_without_budget(self, workload):
        """Unbudgeted planning keeps fail-fast semantics."""
        query, views = workload
        with inject(RaiseFault("cache_lookup", after=3)):
            with pytest.raises(RuntimeError):
                plan(query, views, backend="corecover")

    def test_cache_crash_raises_in_strict_mode(self, workload):
        query, views = workload
        with inject(RaiseFault("cache_lookup", after=3)):
            with pytest.raises(RuntimeError):
                plan(
                    query,
                    views,
                    backend="corecover",
                    budget=ResourceBudget(deadline_seconds=30.0, strict=True),
                )


class TestCancel:
    # Cancel at the first, middle and last "enumeration" firing of the
    # corecover run, counted on a replica catalog so the cancelled run
    # starts as cold as the counted one.
    @pytest.mark.parametrize("step", ["start", "middle", "last"])
    def test_mid_enumeration_cancel_returns_anytime_outcome(
        self, workload, step
    ):
        """Cancellation at an arbitrary enumeration step must degrade
        to ``BUDGET_EXHAUSTED`` with only-genuine certified results."""
        query, views = workload
        with inject() as observed:
            plan(query, ViewCatalog(list(views)), backend="corecover")
        firings = observed.observed["enumeration"]
        after = {"start": 1, "middle": (firings + 1) // 2, "last": firings}
        with inject(CancelFault("enumeration", after=after[step])) as active:
            result = plan(query, views, backend="corecover")
        assert active.triggered, "the cancel fault never fired"
        outcome = result.outcome
        assert outcome.status is PlanStatus.BUDGET_EXHAUSTED
        assert outcome.exhausted_resource == "fault-injection"
        for rewriting in outcome.certified_rewritings:
            assert is_equivalent_rewriting(rewriting, query, views)

    def test_cancel_before_any_work_yields_no_rewritings(self, workload):
        query, views = workload
        with inject(CancelFault("enumeration", after=1)):
            result = plan(query, views, backend="corecover")
        assert result.outcome.status is PlanStatus.BUDGET_EXHAUSTED
        assert result.outcome.rewritings == ()
