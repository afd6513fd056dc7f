"""Workload generation for the Section 7 experiments.

A workload is one query plus ``num_views`` random views of the same shape.
Following the paper: queries have 8 subgoals, views have 1-3 subgoals
chosen uniformly, 40 queries are averaged per data point, and queries
without rewritings are discarded (the generator resamples the views until
the query is rewritable, up to a configurable number of attempts).

The ``num_relations`` knob controls the base-schema pool size and thereby
the saturation level of the view-equivalence-class curves (Figures 7/9):
views are drawn from the whole pool, so many are useless for the query —
exactly as the class counts in the paper keep growing while the
*representative view tuples* stay nearly constant.
"""

from __future__ import annotations

import copy
import dataclasses
import random
from dataclasses import dataclass
from typing import Iterator

from ..core.corecover import core_cover
from ..datalog.query import ConjunctiveQuery
from ..views.view import ViewCatalog
from . import shapes


class WorkloadError(RuntimeError):
    """Raised when no rewritable workload can be generated."""


@dataclass(frozen=True)
class WorkloadConfig:
    """Knobs mirroring the paper's query-generator parameters."""

    shape: str = "star"  # "star" | "chain" | "random"
    num_relations: int = 13
    query_subgoals: int = 8
    num_views: int = 100
    min_view_subgoals: int = 1
    max_view_subgoals: int = 3
    #: 0 = all variables distinguished (Figures 6(a)/8(a));
    #: 1 = one nondistinguished variable (Figures 6(b)/8(b)).
    nondistinguished: int = 0
    #: Probability that a view is built over the query's own relations
    #: rather than the full pool.  The paper does not publish this knob;
    #: without some locality, small view sets almost never rewrite the
    #: query (see EXPERIMENTS.md).
    view_locality: float = 0.5
    #: Probability that an eligible view actually drops a variable when
    #: ``nondistinguished`` is set (single-subgoal chain views never do,
    #: as in the paper).
    nondistinguished_rate: float = 0.5
    seed: int = 0
    require_rewritable: bool = True
    max_attempts: int = 50


@dataclass(frozen=True)
class Workload:
    """A generated query together with its view catalog."""

    query: ConjunctiveQuery
    views: ViewCatalog
    config: WorkloadConfig

    def __str__(self) -> str:
        return (
            f"Workload({self.config.shape}, |body|={len(self.query.body)}, "
            f"views={len(self.views)})"
        )


def generate_workload(config: WorkloadConfig) -> Workload:
    """Generate one workload according to *config*.

    With ``require_rewritable`` (the paper "ignored queries that did not
    have rewritings"), view sets are resampled — with fresh randomness —
    until CoreCover finds at least one rewriting.
    """
    rng = random.Random(config.seed)
    for _attempt in range(config.max_attempts):
        query, query_relations = _build_query(config, rng)
        views = _build_views(config, rng, query_relations)
        workload = Workload(query, views, config)
        if not config.require_rewritable:
            return workload
        # Checked on a shallow copy, which starts with no resident view
        # classes: the returned catalog must not come pre-grouped, or
        # the first timed call on it would skip the Section 5.2 grouping
        # the paper's per-query timings include.
        if core_cover(query, copy.copy(views)).has_rewriting:
            return workload
    raise WorkloadError(
        f"no rewritable {config.shape} workload found in "
        f"{config.max_attempts} attempts (seed={config.seed}); "
        "increase num_views or max_attempts"
    )


def workload_series(
    base_config: WorkloadConfig, queries: int
) -> Iterator[Workload]:
    """Yield *queries* workloads varying only the seed (one per query).

    Used by the Figure 6-9 harness, which averages 40 queries per point.
    """
    for offset in range(queries):
        yield generate_workload(
            _with_seed(base_config, base_config.seed + offset * 7919)
        )


def _with_seed(config: WorkloadConfig, seed: int) -> WorkloadConfig:
    return dataclasses.replace(config, seed=seed)


def _build_query(
    config: WorkloadConfig, rng: random.Random
) -> tuple[ConjunctiveQuery, tuple[int, ...]]:
    """Build the query and report which base relations it uses."""
    if config.shape == "star":
        indices = rng.sample(range(config.num_relations), config.query_subgoals)
        query = shapes.star_query(
            indices, nondistinguished=config.nondistinguished
        )
        return query, tuple(indices)
    if config.shape == "chain":
        start = rng.randrange(
            max(1, config.num_relations - config.query_subgoals + 1)
        )
        query = shapes.chain_query(
            start, config.query_subgoals, nondistinguished=config.nondistinguished
        )
        return query, tuple(range(start, start + config.query_subgoals))
    if config.shape == "cycle":
        indices = rng.sample(range(config.num_relations), config.query_subgoals)
        query = shapes.cycle_query(
            indices, nondistinguished=config.nondistinguished
        )
        return query, tuple(indices)
    if config.shape == "random":
        query = shapes.random_query(
            config.num_relations,
            config.query_subgoals,
            rng,
            nondistinguished=config.nondistinguished,
        )
        return query, tuple(range(config.num_relations))
    raise ValueError(f"unknown workload shape {config.shape!r}")


def _build_views(
    config: WorkloadConfig,
    rng: random.Random,
    query_relations: tuple[int, ...],
) -> ViewCatalog:
    catalog = ViewCatalog()
    for index in range(config.num_views):
        size = rng.randint(config.min_view_subgoals, config.max_view_subgoals)
        name = f"v{index}"
        local = rng.random() < config.view_locality
        drops = 0
        if config.nondistinguished and rng.random() < config.nondistinguished_rate:
            drops = config.nondistinguished
        if config.shape == "star":
            pool = list(query_relations) if local else range(config.num_relations)
            relations = rng.sample(pool, min(size, len(list(pool))))
            view = shapes.star_view(relations, name, nondistinguished=drops, rng=rng)
        elif config.shape == "chain":
            if local:
                window_start = query_relations[0]
                window_size = len(query_relations)
                start = window_start + rng.randrange(window_size - size + 1)
            else:
                start = rng.randrange(config.num_relations - size + 1)
            view = shapes.chain_view(
                start, size, name,
                nondistinguished=drops if size > 1 else 0,
                rng=rng,
            )
        elif config.shape == "cycle":
            if local:
                # An arc of the query's own relation ring.
                start = rng.randrange(len(query_relations))
                view = shapes.cycle_view(
                    query_relations, start, min(size, len(query_relations)),
                    name,
                    nondistinguished=drops if size > 1 else 0,
                    rng=rng,
                )
            else:
                start = rng.randrange(config.num_relations - size + 1)
                view = shapes.chain_view(
                    start, size, name,
                    nondistinguished=drops if size > 1 else 0,
                    rng=rng,
                )
        elif config.shape == "random":
            view = shapes.random_view(
                config.num_relations, size, name, rng, nondistinguished=drops
            )
        else:
            raise ValueError(f"unknown workload shape {config.shape!r}")
        catalog.add(view)
    return catalog
