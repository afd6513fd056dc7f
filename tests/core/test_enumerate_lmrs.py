"""Tests for LMR enumeration within the view-tuple space."""

import pytest

from repro.core import (
    core_cover,
    core_cover_star,
    enumerate_view_tuple_lmrs,
    view_tuple_lattice,
)
from repro.datalog import parse_query
from repro.experiments import paper_examples
from repro.experiments.paper_examples import car_loc_part, example_41
from repro.planner import PlannerContext
from repro.views import ViewCatalog, is_locally_minimal
from repro.workload import WorkloadConfig, generate_workload


class TestEnumeration:
    def test_car_loc_part_lmrs(self):
        clp = car_loc_part()
        lmrs = list(enumerate_view_tuple_lmrs(clp.query, clp.views))
        rendered = {str(q) for q in lmrs}
        assert "q1(S, C) :- v4(M, a, C, S)" in rendered
        assert "q1(S, C) :- v1(M, a, C), v2(S, M, C)" in rendered
        # The v5 twin of P2 is also a distinct view-tuple LMR.
        assert "q1(S, C) :- v2(S, M, C), v5(M, a, C)" in rendered

    def test_all_yields_are_locally_minimal(self):
        clp = car_loc_part()
        for lmr in enumerate_view_tuple_lmrs(clp.query, clp.views):
            assert is_locally_minimal(lmr, clp.query, clp.views), str(lmr)

    def test_subset_minimality_filters_supersets(self):
        ex = example_41()
        lmrs = list(enumerate_view_tuple_lmrs(ex.query, ex.views))
        assert [str(q) for q in lmrs] == ["q(X, Y) :- v1(X, Z), v2(Z, Y)"]

    def test_limit_respected(self):
        clp = car_loc_part()
        lmrs = list(enumerate_view_tuple_lmrs(clp.query, clp.views, limit=1))
        assert len(lmrs) == 1

    def test_no_rewriting_yields_nothing(self):
        q = parse_query("q(X) :- e(X, X), f(X, X)")
        views = ViewCatalog(["v(A) :- e(A, A)"])
        assert list(enumerate_view_tuple_lmrs(q, views)) == []


class TestLattice:
    def test_gmrs_match_corecover(self):
        clp = car_loc_part()
        lattice = view_tuple_lattice(clp.query, clp.views)
        corecover = core_cover(clp.query, clp.views)
        assert {str(q) for q in lattice.gmrs()} == {
            str(q) for q in corecover.rewritings
        }

    def test_proposition_32_cmrs_contain_a_gmr(self):
        """Proposition 3.2 on concrete instances."""
        clp = car_loc_part()
        lattice = view_tuple_lattice(clp.query, clp.views)
        gmr_sizes = {len(q.body) for q in lattice.gmrs()}
        cmr_sizes = {len(q.body) for q in lattice.cmrs()}
        assert min(gmr_sizes) in cmr_sizes

    def test_gmr_not_cmr_example_lattice(self):
        from repro.experiments.paper_examples import gmr_not_cmr

        ex = gmr_not_cmr()
        lattice = view_tuple_lattice(ex.query, ex.views)
        # The view-tuple space only contains P2 here.
        assert [str(q) for q in lattice.rewritings] == ["q(X) :- v(X, X)"]
        assert lattice.cmr_indices == (0,)


def _bodies(rewritings):
    return {frozenset(str(atom) for atom in r.body) for r in rewritings}


def _star_equals_lmr_oracle(query, views):
    """Ungrouped CoreCover* against the view-tuple LMR walk; returns
    how many rewritings they agree on."""
    star = core_cover_star(
        query, views, group_views=False, group_tuples=False,
        context=PlannerContext(),
    )
    lmrs = list(enumerate_view_tuple_lmrs(query, views, limit=None))
    assert _bodies(star.rewritings) == _bodies(lmrs)
    assert len(star.rewritings) == len(lmrs)
    return len(lmrs)


class TestTheorem51Oracle:
    """Theorem 5.1's search space, two ways: CoreCover*'s irredundant
    covers of ungrouped tuple-cores are exactly the minimal rewritings
    using view tuples that the subset walk finds."""

    @pytest.mark.parametrize(
        "example",
        ["car_loc_part", "example_31", "gmr_not_cmr", "example_41",
         "example_42", "example_61"],
    )
    def test_paper_examples(self, example):
        fixture = getattr(paper_examples, example)()
        assert _star_equals_lmr_oracle(fixture.query, fixture.views) >= 1

    @pytest.mark.parametrize("shape", ["star", "chain", "random"])
    def test_small_random_workloads(self, shape):
        several = 0
        for seed in range(20):
            workload = generate_workload(
                WorkloadConfig(
                    shape=shape,
                    num_relations=6,
                    query_subgoals=4,
                    num_views=8,
                    seed=seed,
                    max_attempts=200,
                )
            )
            several += (
                _star_equals_lmr_oracle(workload.query, workload.views) > 1
            )
        # Many draws have a choice of rewritings, so the sets compared
        # are not all singletons.
        assert several >= 5
