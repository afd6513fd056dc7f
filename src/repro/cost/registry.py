"""The cost-model registry (Table 1 as pluggable strategies).

The planner's :func:`repro.planner.registry.plan` entry point resolves
cost models by name from this registry, mirroring the
:class:`~repro.planner.registry.RewriterBackend` registry on the
rewriting side.  Each :class:`CostModel` selects the cheapest rewriting
from a candidate set and returns an :class:`~repro.cost.optimizer.OptimizedPlan`:

* ``m1`` — plan = subgoal set, cost = number of subgoals.  Needs no data.
* ``m2`` — plan = ordered subgoals, cost = Σ size(gᵢ) + size(IRᵢ).  Needs
  a materialized view database (exact) or a
  :class:`~repro.cost.estimator.StatisticsCatalog` (estimated).
* ``m3`` — plan = ordered subgoals with attribute drops, cost =
  Σ size(gᵢ) + size(GSRᵢ).  Same data requirements as ``m2`` plus the
  original query and views for the drop annotators.

Custom models can be registered with :func:`register_cost_model` (e.g.
the IO simulator in :mod:`repro.cost.iomodel` wrapped as a model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..datalog.query import ConjunctiveQuery
from ..errors import ReproError
from .estimator import StatisticsCatalog
from .optimizer import (
    OptimizedPlan,
    _MAX_PERMUTATION_SUBGOALS,
    best_rewriting_m2,
    optimal_plan_m2_estimated,
    optimal_plan_m3,
    optimal_plan_m3_estimated,
)
from .plans import PhysicalPlan

__all__ = [
    "CostModel",
    "UnknownCostModelError",
    "available_cost_models",
    "get_cost_model",
    "register_cost_model",
]


class UnknownCostModelError(ReproError, LookupError):
    """Raised when a cost-model name does not resolve."""


@dataclass(frozen=True)
class CostModel:
    """A named strategy for pricing rewritings and picking the cheapest.

    ``select`` receives the candidate rewritings plus keyword context
    (``query``, ``views``, ``database``, ``statistics`` and any
    model-specific options) and returns the winning
    :class:`OptimizedPlan`, or ``None`` when there are no candidates.

    Under a resource budget, :func:`repro.planner.plan` also passes
    ``checkpoint``: the selector calls it with the best plan priced so
    far after each rewriting it prices, and an exhausted budget raises
    from it.  The built-in selectors all take it.
    """

    name: str
    description: str
    #: Whether the model needs a view database or statistics catalog.
    needs_data: bool
    selector: Callable[..., Optional[OptimizedPlan]]

    def select(
        self,
        rewritings: Sequence[ConjunctiveQuery],
        *,
        query: ConjunctiveQuery | None = None,
        views=None,
        database=None,
        statistics: StatisticsCatalog | None = None,
        checkpoint: Callable[[OptimizedPlan], None] | None = None,
        **options,
    ) -> Optional[OptimizedPlan]:
        """Pick the cheapest rewriting under this model.

        *checkpoint* is forwarded only when given, so a custom selector
        without the parameter still runs unbudgeted.
        """
        if checkpoint is not None:
            options["checkpoint"] = checkpoint
        return self.selector(
            tuple(rewritings),
            query=query,
            views=views,
            database=database,
            statistics=statistics,
            **options,
        )


_MODELS: dict[str, CostModel] = {}


def _normalize(name: str) -> str:
    return name.strip().lower().replace("_", "-")


def register_cost_model(model: CostModel, *, replace: bool = False) -> CostModel:
    """Register *model* under its (normalized) name."""
    key = _normalize(model.name)
    if not replace and key in _MODELS:
        raise ValueError(f"cost model {key!r} is already registered")
    _MODELS[key] = model
    return model


def available_cost_models() -> tuple[str, ...]:
    """Registered cost-model names, sorted."""
    return tuple(sorted(_MODELS))


def get_cost_model(name: str) -> CostModel:
    """Resolve a cost model by name.

    Raises :class:`UnknownCostModelError` with the registered names when
    the lookup fails.
    """
    key = _normalize(name)
    model = _MODELS.get(key)
    if model is None:
        registered = ", ".join(available_cost_models()) or "(none)"
        raise UnknownCostModelError(
            f"unknown cost model {name!r}; registered cost models: {registered}"
        )
    return model


# -- built-in models ---------------------------------------------------------

def _select_m1(rewritings, *, query=None, views=None, database=None,
               statistics=None, checkpoint=None, **options
               ) -> Optional[OptimizedPlan]:
    """Fewest subgoals first, then the smallest rendered rewriting.

    The tie-break key is ``str(rewriting)``, built from each distinct
    atom rendered once per call: one call's rewritings share their head
    and their view-tuple atoms.
    """
    if not rewritings:
        return None
    rendered: dict[int, str] = {}

    def text(atom) -> str:
        # Keyed by identity: every atom stays alive through the call.
        found = rendered.get(id(atom))
        if found is None:
            found = rendered[id(atom)] = str(atom)
        return found

    best = best_key = chosen = None
    for rewriting in rewritings:
        body = ", ".join(map(text, rewriting.body))
        key = (len(rewriting.body), f"{text(rewriting.head)} :- {body}")
        if best is None or key < best_key:
            best, best_key, chosen = rewriting, key, None
        if checkpoint is not None:
            if chosen is None:
                chosen = _m1_plan(best)
            checkpoint(chosen)
    return chosen if chosen is not None else _m1_plan(best)


def _m1_plan(rewriting: ConjunctiveQuery) -> OptimizedPlan:
    plan = PhysicalPlan.from_rewriting(rewriting)
    return OptimizedPlan(rewriting, plan, float(len(rewriting.body)))


def _select_m2(rewritings, *, query=None, views=None, database=None,
               statistics=None, checkpoint=None, **options
               ) -> Optional[OptimizedPlan]:
    if not rewritings:
        return None
    if database is not None:
        return best_rewriting_m2(rewritings, database, checkpoint=checkpoint)
    if statistics is not None:
        best: Optional[OptimizedPlan] = None
        for rewriting in rewritings:
            optimized = optimal_plan_m2_estimated(rewriting, statistics)
            if best is None or optimized.cost < best.cost:
                best = optimized
            if checkpoint is not None:
                checkpoint(best)
        return best
    raise ValueError(
        "cost model 'm2' prices intermediate relations; pass a view "
        "database (exact) or a StatisticsCatalog (estimated)"
    )


def _select_m3(rewritings, *, query=None, views=None, database=None,
               statistics=None, annotator: str = "heuristic",
               checkpoint=None, **options) -> Optional[OptimizedPlan]:
    if not rewritings:
        return None
    if query is None or views is None:
        raise ValueError(
            "cost model 'm3' needs the original query and the view catalog "
            "for its attribute-drop annotators"
        )
    candidates = [
        r for r in rewritings if len(r.body) <= _MAX_PERMUTATION_SUBGOALS
    ]
    if not candidates:
        return None
    best: Optional[OptimizedPlan] = None
    for rewriting in candidates:
        if database is not None:
            optimized = optimal_plan_m3(
                rewriting, query, views, database, annotator
            )
        elif statistics is not None:
            optimized = optimal_plan_m3_estimated(
                rewriting, query, views, statistics, annotator
            )
        else:
            raise ValueError(
                "cost model 'm3' prices generalized supplementary "
                "relations; pass a view database (exact) or a "
                "StatisticsCatalog (estimated)"
            )
        if best is None or optimized.cost < best.cost:
            best = optimized
        if checkpoint is not None:
            checkpoint(best)
    return best


register_cost_model(CostModel(
    name="m1",
    description="number of subgoals (Table 1, M1)",
    needs_data=False,
    selector=_select_m1,
))
register_cost_model(CostModel(
    name="m2",
    description="sum of view and intermediate-relation sizes (Table 1, M2)",
    needs_data=True,
    selector=_select_m2,
))
register_cost_model(CostModel(
    name="m3",
    description="M2 with attribute drops / supplementary relations (Table 1, M3)",
    needs_data=True,
    selector=_select_m3,
))
