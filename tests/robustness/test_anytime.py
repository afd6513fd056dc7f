"""Anytime-planning invariants under resource budgets.

The acceptance bar from the robustness issue: on a budget-exceeding
workload every backend returns ``BUDGET_EXHAUSTED`` within
``deadline + 0.25s``, never raises through ``plan()`` in non-strict mode,
and any rewriting it marks *certified* verifies as a genuinely equivalent
rewriting.
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
from repro.errors import BudgetExceededError
from repro.planner import PlannerContext, PlanStatus
from repro.workload import WorkloadConfig, generate_workload

#: Every registered backend that can produce rewritings, plus the
#: inverse-rules backend (which must also respect budgets).
BACKENDS = (
    "corecover",
    "corecover-star",
    "naive",
    "bucket",
    "minicon",
    "inverse-rules",
)

EPSILON = 0.25


@pytest.fixture(scope="module")
def small_workload():
    query = parse_query("q(X, Y) :- a(X, Z), a(Z, Z), b(Z, Y)")
    views = ViewCatalog(
        [
            "v1(A, B) :- a(A, B), a(B, B)",
            "v2(C, D) :- a(C, E), b(C, D)",
            "v3(A) :- a(A, A)",
        ]
    )
    return query, views


@pytest.fixture(scope="module")
def star_workload():
    """A Figure 6 star workload heavy enough that tiny budgets trip."""
    return generate_workload(
        WorkloadConfig(shape="star", num_views=60, nondistinguished=0, seed=3)
    )


class TestDeadline:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_zero_deadline_returns_within_epsilon(
        self, small_workload, backend
    ):
        query, views = small_workload
        deadline = 0.0
        started = time.monotonic()
        result = plan(
            query,
            views,
            backend=backend,
            budget=ResourceBudget(deadline_seconds=deadline),
        )
        elapsed = time.monotonic() - started
        assert elapsed <= deadline + EPSILON
        outcome = result.outcome
        assert outcome is not None
        # inverse-rules does ~zero work on this input and may complete
        # before the first checkpoint; everything else must exhaust.
        if backend != "inverse-rules":
            assert outcome.status is PlanStatus.BUDGET_EXHAUSTED
            assert outcome.exhausted_resource == "deadline"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_star_workload_deadline(self, star_workload, backend):
        deadline = 0.01
        started = time.monotonic()
        result = plan(
            star_workload.query,
            star_workload.views,
            backend=backend,
            budget=ResourceBudget(deadline_seconds=deadline),
        )
        elapsed = time.monotonic() - started
        assert elapsed <= deadline + EPSILON
        assert result.outcome is not None

    def test_certified_partials_are_equivalent(self, star_workload):
        """Any certified best-so-far rewriting is a real rewriting.

        Count limits are paired with a deadline: a count budget only
        bounds the *counted* resource, so enumeration loops that sit
        between charges (set-cover branching, MiniCon partitioning) are
        bounded by the deadline dimension instead.
        """
        checked = 0
        for backend in ("corecover", "corecover-star", "bucket", "minicon"):
            for budget in (
                ResourceBudget(max_hom_searches=50, deadline_seconds=1.0),
                ResourceBudget(max_hom_searches=200, deadline_seconds=1.0),
                ResourceBudget(max_rewritings=1, deadline_seconds=1.0),
            ):
                result = plan(
                    star_workload.query,
                    star_workload.views,
                    backend=backend,
                    budget=budget,
                )
                outcome = result.outcome
                if outcome.status is not PlanStatus.BUDGET_EXHAUSTED:
                    continue
                for rewriting in outcome.certified_rewritings:
                    assert is_equivalent_rewriting(
                        rewriting, star_workload.query, star_workload.views
                    )
                    checked += 1
        # The budgets above are tuned so at least one backend records a
        # certified partial before tripping; a zero count means the test
        # went stale, not that the invariant holds.
        assert checked > 0


class TestStrictMode:
    def test_strict_budget_raises(self, small_workload):
        query, views = small_workload
        with pytest.raises(BudgetExceededError):
            plan(
                query,
                views,
                backend="corecover",
                budget=ResourceBudget(deadline_seconds=0.0, strict=True),
            )

    def test_strict_flag_on_plan(self, small_workload):
        query, views = small_workload
        with pytest.raises(BudgetExceededError):
            plan(
                query,
                views,
                backend="corecover",
                budget=ResourceBudget(deadline_seconds=0.0),
                strict_budget=True,
            )


class TestBudgetedContext:
    def test_context_budget_applies_without_plan_budget(self, small_workload):
        query, views = small_workload
        ctx = PlannerContext(
            budget=ResourceBudget(max_hom_searches=1)
        )
        result = plan(query, views, backend="corecover", context=ctx)
        assert result.outcome.status is PlanStatus.BUDGET_EXHAUSTED

    def test_per_call_budget_leaves_context_unbudgeted(self, small_workload):
        query, views = small_workload
        ctx = PlannerContext()
        result = plan(
            query,
            views,
            backend="corecover",
            context=ctx,
            budget=ResourceBudget(deadline_seconds=0.0),
        )
        assert result.outcome.status is PlanStatus.BUDGET_EXHAUSTED
        assert ctx.meter is None  # restored after the call
        # The same context planning again without a budget completes.
        again = plan(query, views, backend="corecover", context=ctx)
        assert again.outcome.status is PlanStatus.COMPLETE
        assert again.has_rewriting


class TestMaxRewritings:
    def test_cap_is_respected(self, star_workload):
        result = plan(
            star_workload.query,
            star_workload.views,
            backend="corecover-star",
            budget=ResourceBudget(max_rewritings=1, deadline_seconds=1.0),
        )
        outcome = result.outcome
        if (
            outcome.status is PlanStatus.BUDGET_EXHAUSTED
            and outcome.exhausted_resource == "rewritings"
        ):
            assert len(outcome.rewritings) <= 1


class TestCostRankingBudget:
    """Cost ranking runs under the call's budget, one checkpoint per
    priced rewriting.  M2 pricing is slowed per rewriting, so a deadline
    the rewriting stage cannot reach expires while the set is ranked."""

    REWRITINGS = 40
    DEADLINE = 0.3
    PER_REWRITING = 0.02  # 40 x 20 ms: ranking alone outlasts the deadline

    @pytest.fixture()
    def ranked(self, star_workload, monkeypatch):
        from repro.cost import estimator, registry

        statistics = estimator.StatisticsCatalog(
            estimator.RelationStats(view.name, 100, (10,) * view.arity)
            for view in star_workload.views
        )
        original = registry.optimal_plan_m2_estimated

        def slowed(rewriting, catalog):
            time.sleep(self.PER_REWRITING)
            return original(rewriting, catalog)

        monkeypatch.setattr(registry, "optimal_plan_m2_estimated", slowed)

        def run(**options):
            return plan(
                star_workload.query,
                star_workload.views,
                backend="corecover-star",
                max_rewritings=self.REWRITINGS,
                cost_model="m2",
                statistics=statistics,
                **options,
            )

        return run

    def test_deadline_expiring_mid_ranking(self, ranked):
        complete = ranked()
        assert complete.outcome.status is PlanStatus.COMPLETE
        assert len(complete.rewritings) == self.REWRITINGS
        started = time.monotonic()
        result = ranked(budget=ResourceBudget(deadline_seconds=self.DEADLINE))
        elapsed = time.monotonic() - started
        assert elapsed <= self.DEADLINE + EPSILON
        outcome = result.outcome
        assert outcome.status is PlanStatus.BUDGET_EXHAUSTED
        assert outcome.exhausted_resource == "deadline"
        # The rewriting stage finished: every rewriting is returned, and
        # certified; the best plan priced before the deadline is chosen.
        assert result.rewritings == complete.rewritings
        assert all(r.certified for r in outcome.rewritings)
        assert len(outcome.rewritings) == self.REWRITINGS
        assert result.chosen is not None
        assert result.chosen.rewriting in result.rewritings
        assert result.chosen.cost >= complete.chosen.cost

    def test_strict_budget_raises_mid_ranking(self, ranked):
        started = time.monotonic()
        with pytest.raises(BudgetExceededError):
            ranked(
                budget=ResourceBudget(deadline_seconds=self.DEADLINE),
                strict_budget=True,
            )
        assert time.monotonic() - started <= self.DEADLINE + EPSILON
