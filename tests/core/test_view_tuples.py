"""Tests for view-tuple computation (Section 3.3)."""

import pytest

from repro.containment import canonical_database, minimize, thaw_atom
from repro.core import ViewTuple, core_cover, tuple_core, tuple_cores, view_tuples
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


def bare(view_tuple):
    """*view_tuple* without the core its join read off."""
    return ViewTuple(view_tuple.view, view_tuple.atom)


def assert_searched_cores(query, tuples, cores):
    """Each core is what the tuple-core search returns on the bare tuple."""
    assert len(cores) == len(tuples)
    for view_tuple, core in zip(tuples, cores):
        searched = tuple_core(query, bare(view_tuple))
        assert core.view_tuple == view_tuple
        assert core.covered == searched.covered, str(view_tuple)
        assert core.mapping == searched.mapping, str(view_tuple)


class TestCoresFromTheJoin:
    """A view with no existential variable has the identity as its only
    tuple-core mapping (Lemma 4.1), so the join over ``D_Q`` already
    holds its core; ``tuple_cores`` takes it from there."""

    def test_existential_free_views_carry_their_core(self):
        ex = example_41()
        minimized = minimize(ex.query)
        tuples = view_tuples(minimized, ex.views)
        carried = {str(t): t.join_core for t in tuples}
        # v1 has no existential variable, v2 has E.
        assert carried["v1(X, Z)"] == (minimized, frozenset({0, 1}))
        assert carried["v1(Z, Z)"] == (minimized, frozenset({1}))
        assert carried["v2(Z, Y)"] is None
        assert_searched_cores(minimized, tuples, tuple_cores(minimized, tuples))

    def test_join_core_takes_no_part_in_equality(self):
        clp = car_loc_part()
        minimized = minimize(clp.query)
        for view_tuple in view_tuples(minimized, clp.views):
            assert bare(view_tuple) == view_tuple
            assert hash(bare(view_tuple)) == hash(view_tuple)

    def test_duplicate_subgoals_are_all_covered(self):
        # Not minimized: both copies of e(X, Y) freeze to one fact.
        q = parse_query("q(X, Y) :- e(X, Y), f(Y), e(X, Y)")
        views = ViewCatalog(["v(A, B) :- e(A, B), e(A, B)", "w(A) :- f(A), f(A)"])
        tuples = view_tuples(q, views)
        cores = tuple_cores(q, tuples)
        assert {str(c.view_tuple): c.covered for c in cores} == {
            "v(X, Y)": {0, 2},
            "w(Y)": {1},
        }
        assert_searched_cores(q, tuples, cores)

    def test_cores_answer_only_for_the_joined_query(self):
        """A core read off Q1's join is not Q2's: the same body in another
        order numbers its subgoals differently."""
        q1 = parse_query("q(X, Y) :- e(X, Y), f(Y, X)")
        q2 = parse_query("q(X, Y) :- f(Y, X), e(X, Y)")
        views = ViewCatalog(["v(A, B) :- e(A, B)", "w(A, B) :- f(B, A), e(A, C)"])
        for context in (None, PlannerContext(), PlannerContext(caching=False)):
            tuples = view_tuples(q1, views, context=context)
            assert [t.join_core for t in tuples if t.name == "v"] == [
                (q1, frozenset({0}))
            ]
            cores = tuple_cores(q2, tuples, context=context)
            assert [sorted(c.covered) for c in cores] == [[1], [0]]
            assert_searched_cores(q2, tuples, cores)

    def test_join_over_another_querys_database_reads_no_core(self):
        q1 = parse_query("q(X, Y) :- e(X, Y), f(Y, X)")
        q2 = parse_query("q(X, Y) :- f(Y, X), e(X, Y)")
        views = ViewCatalog(["v(A, B) :- e(A, B)"])
        tuples = view_tuples(q2, views, canonical_database(q1))
        assert [str(t) for t in tuples] == ["v(X, Y)"]
        assert tuples[0].join_core is None
        assert_searched_cores(q2, tuples, tuple_cores(q2, tuples))

    @pytest.mark.parametrize("caching", [True, False])
    def test_views_with_existential_variables_still_search(self, caching):
        ex = example_41()
        context = PlannerContext(caching=caching)
        result = core_cover(ex.query, ex.views, context=context)
        # v2's existential E leaves a search; v1's two tuples need none.
        assert result.stats.core_searches == 1
        minimized = result.minimized_query
        assert_searched_cores(minimized, result.view_tuples, result.cores)
        assert {str(c.view_tuple): sorted(c.covered) for c in result.cores} == {
            "v1(X, Z)": [0, 1],
            "v1(Z, Z)": [1],
            "v2(Z, Y)": [2],
        }

    def test_all_distinguished_catalog_searches_nothing(self):
        clp = car_loc_part()
        views = ViewCatalog(
            [view for view in clp.views if not view.existential_variables()]
        )
        result = core_cover(clp.query, views, context=PlannerContext())
        assert result.cores and result.stats.core_searches == 0
        assert_searched_cores(
            result.minimized_query, result.view_tuples, result.cores
        )
