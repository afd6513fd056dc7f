"""Tests for view-tuple computation (Section 3.3)."""

import pytest

from repro.containment import canonical_database, minimize, thaw_atom
from repro.core import view_tuples
from repro.datalog import Atom, Constant, Variable, parse_atom, parse_query
from repro.engine import Database, evaluate
from repro.experiments.paper_examples import car_loc_part, example_41
from repro.planner import PlannerContext
from repro.views import ViewCatalog
from repro.workload import WorkloadConfig, generate_workload


def evaluated_tuples(query, views):
    """The Section 3.3 definition, unabridged: evaluate *every* view over
    ``D_Q`` and thaw its answers, grouped by view, sorted by atom."""
    database = Database.from_facts(canonical_database(query).facts)
    expected = []
    for view in views:
        atoms = {
            thaw_atom(Atom(view.name, tuple(Constant(value) for value in row)))
            for row in evaluate(view.definition, database)
        }
        expected.extend((view.name, atom) for atom in sorted(atoms, key=str))
    return expected


def assert_matches_evaluation(query, views):
    expected = evaluated_tuples(query, views)
    for candidates, context in (
        (views, None),
        (views, PlannerContext()),
        (list(views), None),
    ):
        got = view_tuples(query, candidates, context=context)
        assert [(t.name, t.atom) for t in got] == expected


class TestCarLocPart:
    def test_paper_view_tuples(self):
        clp = car_loc_part()
        tuples = view_tuples(minimize(clp.query), clp.views)
        rendered = sorted(str(t) for t in tuples)
        assert rendered == [
            "v1(M, a, C)",
            "v2(S, M, C)",
            "v3(S)",
            "v4(M, a, C, S)",
            "v5(M, a, C)",
        ]

    def test_view_reference_preserved(self):
        clp = car_loc_part()
        tuples = view_tuples(minimize(clp.query), clp.views)
        by_name = {t.name: t for t in tuples}
        assert by_name["v4"].view.arity == 4


class TestExample41:
    def test_three_view_tuples(self):
        ex = example_41()
        tuples = view_tuples(minimize(ex.query), ex.views)
        rendered = sorted(str(t) for t in tuples)
        assert rendered == ["v1(X, Z)", "v1(Z, Z)", "v2(Z, Y)"]

    def test_expansion_of_view_tuple(self):
        ex = example_41()
        tuples = view_tuples(minimize(ex.query), ex.views)
        from repro.datalog import FreshVariableFactory

        v2_tuple = next(t for t in tuples if t.name == "v2")
        atoms, fresh = v2_tuple.expansion(FreshVariableFactory(["X", "Y", "Z"]))
        assert len(atoms) == 2
        assert len(fresh) == 1  # E is existential in v2
        # The expansion mentions the tuple's own arguments Z and Y.
        variables = set()
        for atom in atoms:
            variables |= atom.variable_set()
        assert Variable("Z") in variables and Variable("Y") in variables


class TestGeneralBehaviour:
    def test_view_over_missing_relation_yields_nothing(self):
        q = parse_query("q(X) :- e(X, X)")
        views = ViewCatalog(["v(A) :- f(A, A)"])
        assert view_tuples(minimize(q), views) == []

    def test_multiple_tuples_from_one_view(self):
        q = parse_query("q(X, Y) :- e(X, Y), e(Y, X)")
        views = ViewCatalog(["v(A, B) :- e(A, B)"])
        tuples = view_tuples(minimize(q), views)
        assert sorted(str(t) for t in tuples) == ["v(X, Y)", "v(Y, X)"]

    def test_constant_in_view_restricts_tuples(self):
        q = parse_query("q(X) :- e(X, a), e(X, b)")
        views = ViewCatalog(["v(A) :- e(A, a)"])
        tuples = view_tuples(minimize(q), views)
        assert [str(t) for t in tuples] == ["v(X)"]

    def test_query_constant_appears_in_tuple(self):
        q = parse_query("q(X) :- e(X, a)")
        views = ViewCatalog(["v(A, B) :- e(A, B)"])
        tuples = view_tuples(minimize(q), views)
        assert [str(t) for t in tuples] == ["v(X, a)"]

    def test_deterministic_order(self):
        clp = car_loc_part()
        first = [str(t) for t in view_tuples(minimize(clp.query), clp.views)]
        second = [str(t) for t in view_tuples(minimize(clp.query), clp.views)]
        assert first == second

    def test_duplicate_valuations_deduplicated(self):
        # Two valuations of the view body can produce the same head tuple.
        q = parse_query("q(X) :- e(X, Y), e(X, Z)")
        views = ViewCatalog(["v(A) :- e(A, B)"])
        tuples = view_tuples(minimize(q), views)
        assert [str(t) for t in tuples] == ["v(X)"]


class TestAgainstEvaluatingEveryView:
    """``view_tuples`` skips views whose body predicates are not all in
    ``D_Q``; its output must still equal evaluating every view."""

    @pytest.mark.parametrize("shape", ["star", "chain", "random"])
    @pytest.mark.parametrize("seed", range(5))
    def test_random_workloads(self, shape, seed):
        workload = generate_workload(
            WorkloadConfig(
                shape=shape,
                num_relations=8,
                query_subgoals=4,
                num_views=40,
                nondistinguished=1,
                seed=seed,
                require_rewritable=False,
            )
        )
        assert_matches_evaluation(minimize(workload.query), workload.views)

    def test_query_predicate_with_another_arity(self):
        q = parse_query("q(X, Y) :- e(X, Y), f(Y)")
        views = ViewCatalog(
            [
                "v1(A) :- e(A, A, A)",
                "v2(A, B) :- e(A, B)",
                "v3(A) :- f(A), e(A, B, C)",
            ]
        )
        minimized = minimize(q)
        assert [str(t) for t in view_tuples(minimized, views)] == ["v2(X, Y)"]
        assert_matches_evaluation(minimized, views)

    def test_views_with_comparison_atoms(self):
        q = parse_query("q(X, Y) :- e(X, Y), e(Y, Y)")
        views = ViewCatalog(
            [
                "v1(A, B) :- e(A, B), A != B",
                "v2(A) :- e(A, A), g(A), A = A",
                "v3(A) :- e(A, B), B != a",
            ]
        )
        minimized = minimize(q)
        assert [str(t) for t in view_tuples(minimized, views)] == [
            "v1(X, Y)",
            "v3(X)",
            "v3(Y)",
        ]
        assert_matches_evaluation(minimized, views)
