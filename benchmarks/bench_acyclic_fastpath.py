"""Acyclic fast path: join-tree-guided search vs blind backtracking.

Two claims, at the two layers the PR touches:

1. **Engine layer (CI-gated).**  On the Figure 8 chain *shape* — a chain
   of subgoals over one shared edge predicate, matched into a target
   whose spine grows misleading dead-end branches — homomorphism search
   is the whole cost, and the Yannakakis-style semijoin filtering wins
   big: ``acyclic_speedup`` (wall) and ``hom_nodes_ratio`` (search
   nodes) land well above the 1.5x / 2x CI floors while producing the
   identical homomorphism enumeration.

2. **Plan layer (identity-asserted).**  The stock Figure 8/9 chain
   workloads run through ``plan()`` on both paths and must produce
   bit-identical rewritings.  No wall gate here on purpose: CoreCover's
   pipeline is deliberately *not* hom-search-bound (that is the paper's
   contribution — the cover search, not the containment test, carries
   the cost), so the fast path's end-to-end effect on these workloads is
   neutral; the recorded stats document exactly that.
"""

import copy
import time

import pytest

from repro.containment.homomorphism import (
    acyclic_scope,
    find_homomorphisms,
    observe_searches,
)
from repro.containment.join_guided import AcyclicRouter
from repro.datalog import Atom, Constant, Variable
from repro.planner import PlannerContext, plan

from conftest import chain_workload, time_on_fresh_catalog

#: Figure 8 chain shape: source chain length / target spine / tooth length.
CHAIN_LENGTH = 12
SPINE_LENGTH = 16
TOOTH_LENGTH = 8


def _chain_source(length):
    variables = [Variable(f"V{i}") for i in range(length + 1)]
    return [
        Atom("e", (variables[i], variables[i + 1])) for i in range(length)
    ]


def _comb_target(spine, tooth):
    """A spine path with a dead-end tooth at every spine node.

    Each tooth shares its prefix with the spine, so a blind chain walk
    commits ``tooth`` steps deep before failing; the semijoin passes
    delete every tooth edge up front.
    """
    atoms = []
    for i in range(spine):
        atoms.append(Atom("e", (Constant(f"s{i}"), Constant(f"s{i + 1}"))))
    for i in range(spine):
        previous = f"s{i}"
        for j in range(tooth):
            branch = f"t{i}_{j}"
            atoms.append(Atom("e", (Constant(previous), Constant(branch))))
            previous = branch
    return atoms


class _NodeCounter:
    def __init__(self):
        self.nodes = 0

    def record_search(self):
        pass

    def record_nodes(self, nodes):
        self.nodes += nodes


def _run_general(source, target):
    counter = _NodeCounter()
    with observe_searches(counter):
        started = time.perf_counter()
        homs = list(find_homomorphisms(source, target))
        elapsed = time.perf_counter() - started
    return elapsed, counter.nodes, homs


def _run_guided(source, target):
    counter = _NodeCounter()
    with observe_searches(counter), acyclic_scope(AcyclicRouter()):
        started = time.perf_counter()
        homs = list(find_homomorphisms(source, target))
        elapsed = time.perf_counter() - started
    return elapsed, counter.nodes, homs


def test_acyclic_engine_speedup(benchmark):
    """The CI-gated series: speedup and node ratio on the chain shape."""
    source = _chain_source(CHAIN_LENGTH)
    target = _comb_target(SPINE_LENGTH, TOOTH_LENGTH)

    # Warm interners/caches, then best-of-5 for the recorded ratio (the
    # benchmark fixture times the guided engine for the timing row).
    _run_general(source, target)
    _run_guided(source, target)
    general_s, general_nodes, general_homs = min(
        (_run_general(source, target) for _ in range(5)), key=lambda r: r[0]
    )
    guided_s, guided_nodes, guided_homs = min(
        (_run_guided(source, target) for _ in range(5)), key=lambda r: r[0]
    )
    assert guided_homs == general_homs  # bit-identical enumeration
    assert guided_homs, "the comb target must admit homomorphisms"

    def timed():
        with acyclic_scope(AcyclicRouter()):
            return list(find_homomorphisms(source, target))

    benchmark(timed)
    benchmark.extra_info["acyclic_speedup"] = round(general_s / guided_s, 2)
    benchmark.extra_info["hom_nodes_ratio"] = round(
        general_nodes / guided_nodes, 2
    )
    benchmark.extra_info["hom_nodes_general"] = general_nodes
    benchmark.extra_info["hom_nodes_guided"] = guided_nodes
    benchmark.extra_info["general_ms"] = round(general_s * 1000, 3)
    benchmark.extra_info["guided_ms"] = round(guided_s * 1000, 3)
    benchmark.extra_info["homomorphisms"] = len(guided_homs)
    # Mirror the CI floors locally so a regression fails fast.
    assert general_nodes / guided_nodes >= 2.0
    assert general_s / guided_s >= 1.5


@pytest.mark.parametrize("num_views", (100, 250))
@pytest.mark.parametrize("nondistinguished", (0, 1))
def test_fig8_fig9_chain_plans_bit_identical(
    benchmark, num_views, nondistinguished
):
    """Stock Figure 8/9 chain workloads through both plan() paths."""
    workload = chain_workload(num_views, nondistinguished=nondistinguished)

    def fast_path(query, views):
        return plan(query, views, context=PlannerContext())

    fast = time_on_fresh_catalog(
        benchmark, fast_path, workload.query, workload.views
    )
    # The general path also starts without resident view classes, so
    # both paths do the same grouping work.
    started = time.perf_counter()
    general = plan(
        workload.query,
        copy.copy(workload.views),
        context=PlannerContext(),
        acyclic_fast_path=False,
    )
    general_s = time.perf_counter() - started
    assert fast.rewritings == general.rewritings  # the whole point
    stats = fast.details.stats
    benchmark.extra_info["bit_identical"] = True
    benchmark.extra_info["acyclic_fast_path"] = stats.acyclic_fast_path
    benchmark.extra_info["join_tree_depth"] = stats.join_tree_depth
    benchmark.extra_info["fast_path_searches"] = fast.stats.fast_path_searches
    benchmark.extra_info["hom_nodes_fast"] = fast.stats.hom_nodes
    benchmark.extra_info["hom_nodes_general"] = general.stats.hom_nodes
    benchmark.extra_info["general_path_ms"] = round(general_s * 1000, 3)
    benchmark.extra_info["rewritings"] = len(fast.rewritings)
