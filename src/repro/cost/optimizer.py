"""A cost-based optimizer over the rewriting search spaces.

The paper's two-step architecture (Section 1) separates the *rewriting
generator* (CoreCover / CoreCover*) from the *optimizer*, which turns a
logical rewriting into a physical plan.  This module provides that
optimizer for all three cost models:

* **M1** — the plan is the subgoal set; nothing to order.
* **M2** — the key observation is that ``size(IR_i)`` depends only on the
  *set* of the first ``i`` subgoals, so a Selinger-style dynamic program
  over subsets finds the optimal order in ``O(2^n · n)`` join-size
  evaluations instead of ``n!`` plans.
* **M3** — drop annotations depend on the order's *suffix*, so the
  optimizer enumerates permutations (the paper's queries have ≤ 8
  subgoals) with both the supplementary-relation and the Section 6.2
  heuristic annotators.

It also implements the Section 5.1 *filtering subgoal* pass: empty-core
view tuples are added to a rewriting when they lower the optimal M2 cost
(rewriting P3 of the car-loc-part example).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Callable, Iterable, Sequence

from ..datalog.query import ConjunctiveQuery
from ..engine.database import Database
from ..views.view import ViewCatalog
from ..core.view_tuples import ViewTuple
from .estimator import StatisticsCatalog
from .intermediates import PlanExecution, VarTable, execute_plan, join_step
from .models import cost_m3
from .plans import PhysicalPlan
from .supplementary import heuristic_plan, supplementary_plan


@dataclass(frozen=True)
class OptimizedPlan:
    """An optimal physical plan for one rewriting, with its cost."""

    rewriting: ConjunctiveQuery
    plan: PhysicalPlan
    cost: float
    execution: PlanExecution | None = None


class TooManySubgoalsError(ValueError):
    """Raised when exhaustive optimization would blow up."""


_MAX_DP_SUBGOALS = 16
_MAX_PERMUTATION_SUBGOALS = 8


def optimal_plan_m2(
    rewriting: ConjunctiveQuery, database: Database
) -> OptimizedPlan:
    """The cheapest M2 ordering of *rewriting* over a view database.

    Uses dynamic programming over subgoal subsets with exact,
    incrementally materialized intermediate relations.
    """
    n = len(rewriting.body)
    if n > _MAX_DP_SUBGOALS:
        raise TooManySubgoalsError(
            f"{n} subgoals exceed the 2^n dynamic program's limit "
            f"({_MAX_DP_SUBGOALS})"
        )
    subgoal_sizes = [
        len(database.relation(atom.predicate))
        if database.has_relation(atom.predicate)
        else 0
        for atom in rewriting.body
    ]

    # tables[mask] is the natural join (all attributes) of the subgoals in
    # ``mask``; built lazily level by level from any predecessor.
    empty = VarTable((), frozenset({()}))
    tables: dict[int, VarTable] = {0: empty}
    best_cost: dict[int, float] = {0: 0.0}
    best_last: dict[int, int] = {}

    full = (1 << n) - 1
    masks_by_level: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(1, full + 1):
        masks_by_level[mask.bit_count()].append(mask)

    for level in range(1, n + 1):
        for mask in masks_by_level[level]:
            # Materialize the join for this subset from one predecessor.
            low_bit = mask & -mask
            predecessor = mask ^ low_bit
            tables[mask] = join_step(
                tables[predecessor],
                rewriting.body[low_bit.bit_length() - 1],
                database,
            )
            intermediate_size = len(tables[mask])
            cost = None
            last = None
            remaining = mask
            while remaining:
                bit = remaining & -remaining
                remaining ^= bit
                index = bit.bit_length() - 1
                candidate = best_cost[mask ^ bit] + intermediate_size
                if cost is None or candidate < cost:
                    cost = candidate
                    last = index
            best_cost[mask] = cost  # type: ignore[assignment]
            best_last[mask] = last  # type: ignore[assignment]
        # Free the previous level's tables; only level-1 predecessors are
        # needed and each mask pulls from exactly one.
        if level >= 2:
            for mask in masks_by_level[level - 1]:
                tables.pop(mask, None)

    order: list[int] = []
    mask = full
    while mask:
        last = best_last[mask]
        order.append(last)
        mask ^= 1 << last
    order.reverse()

    plan = PhysicalPlan.from_rewriting(rewriting, order)
    execution = execute_plan(plan, database)
    total = sum(subgoal_sizes) + best_cost[full]
    return OptimizedPlan(rewriting, plan, total, execution)


def optimal_plan_m2_estimated(
    rewriting: ConjunctiveQuery, catalog: StatisticsCatalog
) -> OptimizedPlan:
    """Like :func:`optimal_plan_m2` but with System-R size estimates."""
    n = len(rewriting.body)
    if n > _MAX_DP_SUBGOALS:
        raise TooManySubgoalsError(
            f"{n} subgoals exceed the 2^n dynamic program's limit "
            f"({_MAX_DP_SUBGOALS})"
        )
    subgoal_sizes = [
        catalog.estimate_relation_size(atom) for atom in rewriting.body
    ]

    full = (1 << n) - 1
    best_cost: dict[int, float] = {0: 0.0}
    best_last: dict[int, int] = {}
    size_cache: dict[int, float] = {}

    def subset_size(mask: int) -> float:
        cached = size_cache.get(mask)
        if cached is None:
            atoms = [
                rewriting.body[i] for i in range(n) if mask & (1 << i)
            ]
            cached = catalog.estimate_join_size(atoms)
            size_cache[mask] = cached
        return cached

    for mask in range(1, full + 1):
        intermediate = subset_size(mask)
        cost = None
        last = None
        remaining = mask
        while remaining:
            bit = remaining & -remaining
            remaining ^= bit
            index = bit.bit_length() - 1
            previous = best_cost.get(mask ^ bit)
            if previous is None:
                continue
            candidate = previous + intermediate
            if cost is None or candidate < cost:
                cost = candidate
                last = index
        best_cost[mask] = cost  # type: ignore[assignment]
        best_last[mask] = last  # type: ignore[assignment]

    order: list[int] = []
    mask = full
    while mask:
        last = best_last[mask]
        order.append(last)
        mask ^= 1 << last
    order.reverse()

    plan = PhysicalPlan.from_rewriting(rewriting, order)
    return OptimizedPlan(rewriting, plan, sum(subgoal_sizes) + best_cost[full])


def optimal_plan_m3(
    rewriting: ConjunctiveQuery,
    query: ConjunctiveQuery,
    views: ViewCatalog,
    database: Database,
    annotator: str = "heuristic",
) -> OptimizedPlan:
    """The cheapest M3 plan across all orders of *rewriting*'s subgoals.

    ``annotator`` selects the drop strategy: ``"supplementary"`` for the
    classic rule [4] or ``"heuristic"`` for the Section 6.2 renaming rule.
    """
    n = len(rewriting.body)
    if n > _MAX_PERMUTATION_SUBGOALS:
        raise TooManySubgoalsError(
            f"{n} subgoals exceed the permutation search's limit "
            f"({_MAX_PERMUTATION_SUBGOALS})"
        )
    if annotator == "supplementary":
        def build(order: Sequence[int]) -> PhysicalPlan:
            return supplementary_plan(rewriting, order)
    elif annotator == "heuristic":
        def build(order: Sequence[int]) -> PhysicalPlan:
            return heuristic_plan(rewriting, query, views, order)
    else:
        raise ValueError(
            f"unknown annotator {annotator!r}; expected 'supplementary' "
            "or 'heuristic'"
        )

    best: OptimizedPlan | None = None
    for order in permutations(range(n)):
        plan = build(order)
        execution = execute_plan(plan, database)
        cost = cost_m3(execution)
        if best is None or cost < best.cost:
            best = OptimizedPlan(rewriting, plan, cost, execution)
    assert best is not None
    return best


def optimal_plan_m3_estimated(
    rewriting: ConjunctiveQuery,
    query: ConjunctiveQuery,
    views: ViewCatalog,
    catalog: StatisticsCatalog,
    annotator: str = "heuristic",
) -> OptimizedPlan:
    """Statistics-only M3 optimization (no materialized data).

    Section 6.2 ends with exactly this requirement: "the optimizer needs
    to make the tradeoff between dropping Y and removing this comparison
    by using the information about the sizes of view relations and
    generalized supplementary relations".  Intermediate sizes come from
    the System-R join estimate; GSR sizes apply Cardenas' projection
    formula to the estimated ``IR_i`` over the retained columns' domain.
    The drop annotations themselves are data-independent (they depend
    only on the query/views), so the symbolic annotators are reused.
    """
    from .supplementary import heuristic_plan, supplementary_plan

    n = len(rewriting.body)
    if n > _MAX_PERMUTATION_SUBGOALS:
        raise TooManySubgoalsError(
            f"{n} subgoals exceed the permutation search's limit "
            f"({_MAX_PERMUTATION_SUBGOALS})"
        )
    if annotator == "supplementary":
        def build(order: Sequence[int]) -> PhysicalPlan:
            return supplementary_plan(rewriting, order)
    elif annotator == "heuristic":
        def build(order: Sequence[int]) -> PhysicalPlan:
            return heuristic_plan(rewriting, query, views, order)
    else:
        raise ValueError(
            f"unknown annotator {annotator!r}; expected 'supplementary' "
            "or 'heuristic'"
        )

    best: OptimizedPlan | None = None
    for order in permutations(range(n)):
        plan = build(order)
        cost = _estimate_m3_cost(plan, catalog)
        if best is None or cost < best.cost:
            best = OptimizedPlan(rewriting, plan, cost)
    assert best is not None
    return best


def _estimate_m3_cost(plan: PhysicalPlan, catalog: StatisticsCatalog) -> float:
    """Estimated ``Σ size(g_i) + size(GSR_i)`` for an annotated plan."""
    total = 0.0
    prefix_atoms = []
    for position, step in enumerate(plan.steps):
        prefix_atoms.append(step.atom)
        total += catalog.estimate_relation_size(step.atom)
        intermediate = catalog.estimate_join_size(prefix_atoms)
        retained = plan.schema_after(position)
        if len(retained) < len(_all_prefix_variables(plan, position)):
            domain = 1.0
            for variable in retained:
                domain *= catalog.variable_domain(prefix_atoms, variable)
            total += catalog.estimate_projection_size(intermediate, domain)
        else:
            total += intermediate
    return total


def _all_prefix_variables(plan: PhysicalPlan, position: int) -> set:
    variables: set = set()
    for step in plan.steps[: position + 1]:
        variables |= step.atom.variable_set()
    return variables


def optimal_plan_io(
    rewriting: ConjunctiveQuery,
    database: Database,
    params: "IoParameters | None" = None,
) -> OptimizedPlan:
    """The ordering with the fewest *simulated disk IOs* (see iomodel).

    This is the ground truth cost model M2 approximates; the tests check
    that the M2-optimal and IO-optimal orders price within a whisker of
    each other.  Permutation search (IO is order- and spill-dependent).
    """
    from .iomodel import IoParameters, simulate_plan_io

    if params is None:
        params = IoParameters()
    n = len(rewriting.body)
    if n > _MAX_PERMUTATION_SUBGOALS:
        raise TooManySubgoalsError(
            f"{n} subgoals exceed the permutation search's limit "
            f"({_MAX_PERMUTATION_SUBGOALS})"
        )
    best: OptimizedPlan | None = None
    for order in permutations(range(n)):
        plan = PhysicalPlan.from_rewriting(rewriting, order)
        execution = execute_plan(plan, database)
        cost = simulate_plan_io(execution, params).total
        if best is None or cost < best.cost:
            best = OptimizedPlan(rewriting, plan, cost, execution)
    assert best is not None
    return best


def best_rewriting_m2(
    rewritings: Iterable[ConjunctiveQuery],
    database: Database,
    *,
    checkpoint: Callable[[OptimizedPlan], None] | None = None,
) -> OptimizedPlan | None:
    """The M2-cheapest rewriting among candidates (None if no candidates).

    *checkpoint*, when given, is called with the best plan so far after
    each rewriting is priced (the cost-ranking budget hook).
    """
    best: OptimizedPlan | None = None
    for rewriting in rewritings:
        optimized = optimal_plan_m2(rewriting, database)
        if best is None or optimized.cost < best.cost:
            best = optimized
        if checkpoint is not None:
            checkpoint(best)
    return best


def improve_with_filters(
    rewriting: ConjunctiveQuery,
    filter_candidates: Sequence[ViewTuple],
    database: Database,
) -> OptimizedPlan:
    """Greedily add filtering subgoals while they lower the M2 cost.

    This is the cost-based decision of Section 5.1: a view tuple with an
    empty tuple-core cannot *cover* anything, but joining a very selective
    view relation early can shrink every later intermediate relation
    (rewriting P3 beating P2 when view V3 is selective).
    """
    current = optimal_plan_m2(rewriting, database)
    remaining = list(filter_candidates)
    improved = True
    while improved and remaining:
        improved = False
        best_addition: tuple[OptimizedPlan, ViewTuple] | None = None
        for candidate in remaining:
            extended = current.rewriting.with_body(
                current.rewriting.body + (candidate.atom,)
            )
            optimized = optimal_plan_m2(extended, database)
            if optimized.cost < current.cost and (
                best_addition is None or optimized.cost < best_addition[0].cost
            ):
                best_addition = (optimized, candidate)
        if best_addition is not None:
            current, used = best_addition
            remaining.remove(used)
            improved = True
    return current
