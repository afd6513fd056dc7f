"""The unified planner pipeline.

The paper's two-step architecture (Section 1) — a *rewriting generator*
followed by a *cost-based optimizer* — is realized here as one pipeline:

* :class:`~repro.planner.context.PlannerContext` is the shared planning
  substrate threaded through every stage: structural interning
  (:mod:`repro.datalog.interning`), memoized minimization, containment,
  join trees, view evaluation and tuple-cores behind one lookup path,
  per-stage wall times, and homomorphism-search counters.
* :mod:`repro.planner.registry` exposes every rewriting algorithm —
  CoreCover, CoreCover*, the naive Theorem 3.1 search, Bucket, MiniCon,
  and inverse rules — as a :class:`RewriterBackend` behind one
  :func:`plan` entry point, with the M1/M2/M3 cost models resolved from
  the parallel :mod:`repro.cost.registry`.

The legacy entry points (``core_cover``, ``core_cover_star``,
``bucket_algorithm``, ``minicon``, ``naive_gmr_search``) remain available
and are thin shims over the registry.

Registry symbols are loaded lazily (PEP 562) so that importing
:mod:`repro.core` — whose modules type against :class:`PlannerContext` —
never triggers the backend modules mid-initialization.
"""

from .context import PlannerContext, PlannerStats
from .limits import (
    AnytimeRewriting,
    BudgetMeter,
    PlanOutcome,
    PlanStatus,
    ResourceBudget,
)

_LAZY = {
    "PlanResult",
    "RewriterBackend",
    "UnknownBackendError",
    "available_backends",
    "get_backend",
    "plan",
    "register_backend",
}

__all__ = sorted(
    {
        "AnytimeRewriting",
        "BudgetMeter",
        "PlanOutcome",
        "PlanStatus",
        "PlannerContext",
        "PlannerStats",
        "ResourceBudget",
    }
    | _LAZY
)


def __getattr__(name):
    if name in _LAZY:
        from . import registry

        return getattr(registry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
