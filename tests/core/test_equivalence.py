"""Tests for equivalence classes of views and view tuples (Section 5.2)."""

import copy
import pickle

from hypothesis import given, settings, strategies as st

from repro.containment import minimize
from repro.core import (
    core_representatives,
    group_cores_by_coverage,
    group_equivalent_views,
    tuple_cores,
    view_representatives,
    view_tuples,
)
from repro.datalog import parse_query
from repro.experiments.paper_examples import car_loc_part
from repro.planner import PlannerContext, plan
from repro.views import ViewCatalog, as_view
from repro.core.equivalence import maximal_coverage_count
from repro.views.view import ViewClassMemo


class TestViewGrouping:
    def test_identical_definitions_grouped(self):
        clp = car_loc_part()
        classes = group_equivalent_views(list(clp.views))
        sizes = sorted(len(members) for members in classes)
        assert sizes == [1, 1, 1, 2]  # v1 and v5 together
        merged = next(c for c in classes if len(c) == 2)
        assert {v.name for v in merged} == {"v1", "v5"}

    def test_equivalence_modulo_renaming(self):
        views = [
            as_view("v1(A, B) :- e(A, C), f(C, B)"),
            as_view("v2(X, Y) :- e(X, W), f(W, Y)"),
        ]
        assert len(group_equivalent_views(views)) == 1

    def test_equivalence_modulo_redundancy(self):
        views = [
            as_view("v1(A) :- e(A, B)"),
            as_view("v2(A) :- e(A, B), e(A, C)"),
        ]
        assert len(group_equivalent_views(views)) == 1

    def test_different_views_not_grouped(self):
        views = [
            as_view("v1(A) :- e(A, B)"),
            as_view("v2(A) :- e(B, A)"),
        ]
        assert len(group_equivalent_views(views)) == 2

    def test_head_argument_order_matters(self):
        views = [
            as_view("v1(A, B) :- e(A, B)"),
            as_view("v2(B, A) :- e(A, B)"),
        ]
        assert len(group_equivalent_views(views)) == 2

    def test_representatives_one_per_class(self):
        clp = car_loc_part()
        reps = view_representatives(list(clp.views))
        assert len(reps) == 4


class TestCatalogClassMemo:
    """The catalog-resident per-view state: Section 5.2 class labels and
    compiled view forms."""

    def test_views_sharing_a_name_are_classified_by_definition(self):
        # A label answers only for the View object it was made for.
        views = [as_view("v(A) :- e(A, B)"), as_view("v(A) :- e(B, A)")]
        memo = ViewClassMemo()
        assert len(group_equivalent_views(views, memo=memo)) == 2

    def test_relabelling_a_name_keeps_its_class_anchor(self):
        memo = ViewClassMemo()
        group_equivalent_views([as_view("v(A) :- e(A, B)")], memo=memo)
        # Same name, new object, same class: the class must keep an
        # anchor, or the next equivalent view would open a second class.
        relabelled = as_view("v(A) :- e(A, B)")
        group_equivalent_views([relabelled], memo=memo)
        twin = as_view("w(X) :- e(X, Y)")
        classes = group_equivalent_views([relabelled, twin], memo=memo)
        assert [[v.name for v in members] for members in classes] == [
            ["v", "w"]
        ]

    def test_catalog_delta_drops_touched_names_and_empty_classes(self):
        catalog = ViewCatalog(
            ["v1(A) :- e(A, B)", "v2(A) :- e(A, C)", "v3(A) :- f(A)"]
        )
        group_equivalent_views(list(catalog), memo=catalog.class_memo)
        assert len(catalog.class_memo) == 3
        catalog.replace_view("v3(A) :- e(A, D)")
        catalog.remove_view("v1")
        assert len(catalog.class_memo) == 1
        # f/1's class emptied: its anchor went with it.
        assert sum(map(len, catalog.class_memo._anchors)) == 1
        classes = group_equivalent_views(
            list(catalog), PlannerContext(), catalog.class_memo
        )
        assert [[v.name for v in members] for members in classes] == [
            ["v2", "v3"]
        ]

    def test_pickled_and_copied_catalogs_start_without_classes(self):
        catalog = ViewCatalog(["v1(A) :- e(A, B)", "v2(A) :- e(A, C)"])
        group_equivalent_views(list(catalog), memo=catalog.class_memo)
        assert len(catalog.class_memo) == 2
        for clone in (
            pickle.loads(pickle.dumps(catalog)),
            copy.copy(catalog),
            copy.deepcopy(catalog),
        ):
            assert len(clone.class_memo) == 0
            assert clone.class_memo is not catalog.class_memo
            assert clone.content_root() == catalog.content_root()

    def test_uncached_context_bypasses_the_catalog_memo(self):
        catalog = ViewCatalog(["v1(A) :- e(A, B)", "v2(A) :- e(A, C)"])
        context = PlannerContext(caching=False)
        group_equivalent_views(list(catalog), context, catalog.class_memo)
        assert len(catalog.class_memo) == 0
        assert context.counters["view_class"].misses == 2

    # -- compiled view forms, kept beside the class memo ----------------------
    QUERY = "q(X, Y) :- e(X, Z), f(Z, Y)"
    VIEWS = [
        "v1(A, B) :- e(A, C), f(C, B)",
        "v2(A, C) :- e(A, C)",
        "v3(C, B) :- f(C, B)",
    ]

    def test_a_form_answers_only_for_its_exact_view(self):
        catalog = ViewCatalog(self.VIEWS)
        view = catalog.get("v2")
        form = catalog.view_forms.form(view)
        assert catalog.view_forms.form(view) is form
        # Same name and definition, another object: compiled afresh.
        twin = as_view("v2(A, C) :- e(A, C)")
        assert catalog.view_forms.form(twin) is not form
        assert form.key == catalog.view_forms.form(twin).key

    def test_planning_fills_and_deltas_drop_forms(self):
        catalog = ViewCatalog(self.VIEWS)
        assert len(catalog.view_forms) == 0  # building compiles nothing
        plan(parse_query(self.QUERY), catalog, context=PlannerContext())
        assert len(catalog.view_forms) == 3
        catalog.remove_view("v1")
        assert len(catalog.view_forms) == 2
        catalog.replace_view("v2(A, D) :- e(A, D)")
        assert len(catalog.view_forms) == 1
        catalog.add("v4(A) :- e(A, A)")
        assert len(catalog.view_forms) == 1

    def test_pickled_and_copied_catalogs_start_without_forms(self):
        catalog = ViewCatalog(self.VIEWS)
        plan(parse_query(self.QUERY), catalog, context=PlannerContext())
        assert len(catalog.view_forms) == 3
        for clone in (
            pickle.loads(pickle.dumps(catalog)),
            copy.copy(catalog),
            copy.deepcopy(catalog),
        ):
            assert len(clone.view_forms) == 0
            assert clone.view_forms is not catalog.view_forms

    def test_planning_leaves_the_pickled_bytes_alone(self):
        catalog = ViewCatalog(self.VIEWS)
        query = parse_query(self.QUERY)
        # The catalog's own index lookups, which every plan() makes,
        # fill the lookup caches the pickle has always carried.
        catalog.relevant_views(query)
        catalog.comparison_atoms()
        before = pickle.dumps(catalog)
        plan(query, catalog, context=PlannerContext())
        assert len(catalog.view_forms) and len(catalog.class_memo)
        assert pickle.dumps(catalog) == before

    def test_uncached_context_leaves_the_catalog_forms_empty(self):
        catalog = ViewCatalog(self.VIEWS)
        query = parse_query(self.QUERY)
        uncached = plan(query, catalog, context=PlannerContext(caching=False))
        assert len(catalog.view_forms) == 0
        cached = plan(query, catalog, context=PlannerContext())
        assert [str(r) for r in cached.rewritings] == [
            str(r) for r in uncached.rewritings
        ]


class TestCoreGrouping:
    def test_group_by_coverage(self):
        clp = car_loc_part()
        minimized = minimize(clp.query)
        tuples = view_tuples(minimized, clp.views)
        cores = tuple_cores(minimized, tuples)
        groups = group_cores_by_coverage(cores)
        # Coverage sets: {0,1} (v1, v5), {2} (v2), {} (v3), {0,1,2} (v4).
        assert len(groups) == 4
        assert len(groups[frozenset({0, 1})]) == 2

    def test_representatives_ordered_largest_first(self):
        clp = car_loc_part()
        minimized = minimize(clp.query)
        tuples = view_tuples(minimized, clp.views)
        cores = tuple_cores(minimized, tuples)
        reps = core_representatives(cores)
        sizes = [len(core.covered) for core in reps]
        assert sizes == sorted(sizes, reverse=True)
        assert len(reps) == 4


def _all_pairs_maximal(coverage):
    """The maximal nonempty sets by comparing every pair."""
    return sum(
        1
        for covered in coverage
        if covered and not any(covered < other for other in coverage)
    )


class TestMaximalCoverageCount:
    def test_car_loc_part(self):
        # {0,1,2} (v4) holds {0,1} and {2}; {} (v3) is not a class that
        # covers anything.
        coverage = [frozenset({0, 1}), frozenset({2}), frozenset(),
                    frozenset({0, 1, 2})]
        assert maximal_coverage_count(coverage) == 1

    @settings(max_examples=300, deadline=None)
    @given(st.sets(st.frozensets(st.integers(0, 7), max_size=8), max_size=40))
    def test_largest_first_scan_equals_all_pairs(self, coverage):
        assert maximal_coverage_count(coverage) == _all_pairs_maximal(
            coverage
        )
