"""Tests for CoreCover and CoreCover* (Sections 4 and 5)."""

import pytest

from repro.containment import is_equivalent_to
from repro.core import add_filter_subgoal, core_cover, core_cover_star
from repro.core import corecover
from repro.datalog import parse_query
from repro.experiments.paper_examples import (
    car_loc_part,
    example_41,
    example_42,
    gmr_not_cmr,
)
from repro.views import ViewCatalog, is_equivalent_rewriting


class TestCarLocPart:
    def test_gmr_is_p4(self):
        clp = car_loc_part()
        result = core_cover(clp.query, clp.views)
        assert [str(r) for r in result.rewritings] == [
            "q1(S, C) :- v4(M, a, C, S)"
        ]
        assert result.minimum_subgoals() == 1

    def test_v3_reported_as_filter_candidate(self):
        clp = car_loc_part()
        result = core_cover(clp.query, clp.views)
        assert [str(f) for f in result.filter_candidates] == ["v3(S)"]

    def test_star_variant_includes_p2(self):
        clp = car_loc_part()
        result = core_cover_star(clp.query, clp.views)
        rendered = {str(r) for r in result.rewritings}
        assert "q1(S, C) :- v4(M, a, C, S)" in rendered
        assert "q1(S, C) :- v1(M, a, C), v2(S, M, C)" in rendered

    def test_star_rewritings_all_equivalent(self):
        clp = car_loc_part()
        result = core_cover_star(clp.query, clp.views)
        for rewriting in result.rewritings:
            assert is_equivalent_rewriting(rewriting, clp.query, clp.views)

    def test_add_filter_subgoal_reconstructs_p3(self):
        clp = car_loc_part()
        result = core_cover_star(clp.query, clp.views)
        p2 = next(r for r in result.rewritings if len(r.body) == 2)
        v3 = result.filter_candidates[0]
        p3 = add_filter_subgoal(p2, v3)
        assert is_equivalent_rewriting(p3, clp.query, clp.views)
        assert len(p3.body) == 3

    def test_view_grouping_detects_v1_v5(self):
        clp = car_loc_part()
        result = core_cover(clp.query, clp.views)
        assert result.stats.total_views == 5
        assert result.stats.view_classes == 4


class TestExamples:
    def test_example_41_gmr(self):
        ex = example_41()
        result = core_cover(ex.query, ex.views)
        assert [str(r) for r in result.rewritings] == [
            "q(X, Y) :- v1(X, Z), v2(Z, Y)"
        ]

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_example_42_single_literal_gmr(self, k):
        ex = example_42(k)
        result = core_cover(ex.query, ex.views)
        assert [str(r) for r in result.rewritings] == ["q(X, Y) :- v(X, Y)"]

    def test_gmr_not_cmr_example(self):
        ex = gmr_not_cmr()
        result = core_cover(ex.query, ex.views)
        # The view-tuple space contains P2 (which is both GMR and CMR).
        assert [str(r) for r in result.rewritings] == ["q(X) :- v(X, X)"]


class TestBehaviour:
    def test_no_rewriting(self):
        q = parse_query("q(X) :- e(X, X), f(X, X)")
        views = ViewCatalog(["v(A) :- e(A, A)"])
        result = core_cover(q, views)
        assert not result.has_rewriting
        assert result.minimum_subgoals() is None

    def test_rewriting_requires_full_coverage(self):
        q = parse_query("q(X, Y) :- e(X, Y), f(Y, X)")
        views = ViewCatalog(["v(A, B) :- e(A, B)"])
        assert not core_cover(q, views).has_rewriting

    def test_query_minimized_first(self):
        # The redundant second subgoal must not demand coverage.
        q = parse_query("q(X) :- e(X, a), e(X, Y)")
        views = ViewCatalog(["v(A) :- e(A, a)"])
        result = core_cover(q, views)
        assert [str(r) for r in result.rewritings] == ["q(X) :- v(X)"]
        assert len(result.minimized_query.body) == 1

    def test_multiple_gmrs_enumerated(self):
        q = parse_query("q(X, Y) :- e(X, Y)")
        views = ViewCatalog(
            ["v1(A, B) :- e(A, B)", "v2(A, B) :- e(A, B), g(A, B)"]
        )
        result = core_cover(q, views)
        # v2 cannot help (g is not in the query); only v1 covers.
        assert [str(r) for r in result.rewritings] == ["q(X, Y) :- v1(X, Y)"]

    def test_grouping_does_not_change_rewriting_count_semantics(self):
        clp = car_loc_part()
        grouped = core_cover(clp.query, clp.views)
        ungrouped = core_cover(
            clp.query, clp.views, group_views=False, group_tuples=False
        )
        # v1/v5 are interchangeable: ungrouped finds the same GMR set here
        # because v4 alone wins in both.
        assert {str(r) for r in grouped.rewritings} == {
            str(r) for r in ungrouped.rewritings
        }

    def test_ungrouped_star_exposes_duplicates(self):
        q = parse_query("q(X, Y) :- e(X, Y)")
        views = ViewCatalog(["v1(A, B) :- e(A, B)", "v2(A, B) :- e(A, B)"])
        grouped = core_cover_star(q, views)
        ungrouped = core_cover_star(
            q, views, group_views=False, group_tuples=False
        )
        assert len(grouped.rewritings) == 1
        assert len(ungrouped.rewritings) == 2  # one per equivalent view

    def test_stats_fields_populated(self):
        clp = car_loc_part()
        stats = core_cover(clp.query, clp.views).stats
        # View tuples are computed from the 4 view representatives
        # (v1 and v5 collapse during view grouping).
        assert stats.total_view_tuples == 4
        assert stats.view_tuple_classes == 4
        assert stats.maximal_tuple_classes == 1  # v4 covers everything
        assert stats.elapsed_seconds > 0

    def test_max_rewritings_cap(self):
        q = parse_query("q(X, Y) :- e(X, Y)")
        views = ViewCatalog(
            [f"v{i}(A, B) :- e(A, B)" for i in range(4)]
        )
        result = core_cover_star(q, views, group_views=False, max_rewritings=2)
        assert len(result.rewritings) <= 2

    def test_rewriting_head_matches_query_head(self):
        clp = car_loc_part()
        for rewriting in core_cover_star(clp.query, clp.views).rewritings:
            assert rewriting.head == clp.query.head


#: Ungrouped CoreCover* over three e-views and three f-views: every
#: (v_i, w_j) pair is an irredundant cover.
_PAIRS = [
    f"q(X, Y) :- v{i}(X, Y), w{j}(Y, Z)" for i in range(3) for j in range(3)
]


class TestStarBuildsEachRewritingOnce:
    """CoreCover* builds a rewriting when the enumeration reports its
    cover, and returns that same object: one build per rewriting."""

    @pytest.mark.parametrize(
        "cap, expected", [(None, _PAIRS), (4, _PAIRS[:4]), (1, _PAIRS[:1])]
    )
    def test_build_count_and_output(self, monkeypatch, cap, expected):
        built = []
        original = corecover._build_rewriting

        def counting(minimized, chosen):
            rewriting = original(minimized, chosen)
            built.append(rewriting)
            return rewriting

        monkeypatch.setattr(corecover, "_build_rewriting", counting)
        q = parse_query("q(X, Y) :- e(X, Y), f(Y, Z)")
        views = ViewCatalog(
            [f"v{i}(A, B) :- e(A, B)" for i in range(3)]
            + [f"w{i}(A, B) :- f(A, B)" for i in range(3)]
        )
        result = core_cover_star(
            q, views, group_views=False, group_tuples=False,
            max_rewritings=cap,
        )
        assert [str(r) for r in result.rewritings] == expected
        assert len(built) == len(result.rewritings)
        assert {id(r) for r in built} == {id(r) for r in result.rewritings}

    def test_car_loc_part_output(self, monkeypatch):
        calls = []
        original = corecover._build_rewriting
        monkeypatch.setattr(
            corecover,
            "_build_rewriting",
            lambda *args: calls.append(args) or original(*args),
        )
        clp = car_loc_part()
        result = core_cover_star(
            clp.query, clp.views, group_views=False, group_tuples=False
        )
        assert [str(r) for r in result.rewritings] == [
            "q1(S, C) :- v1(M, a, C), v2(S, M, C)",
            "q1(S, C) :- v2(S, M, C), v5(M, a, C)",
            "q1(S, C) :- v4(M, a, C, S)",
        ]
        assert len(calls) == 3


class TestComparisonGuard:
    def test_comparison_in_query_rejected(self):
        q = parse_query("q(X, Y) :- e(X, Y), X <= Y")
        views = ViewCatalog(["v(A, B) :- e(A, B)"])
        with pytest.raises(ValueError, match="comparison atoms"):
            core_cover(q, views)

    def test_comparison_in_view_rejected(self):
        q = parse_query("q(X, Y) :- e(X, Y)")
        views = ViewCatalog(["v(A, B) :- e(A, B), A <= B"])
        with pytest.raises(ValueError, match="repro.extensions"):
            core_cover_star(q, views)

    def test_catalog_offenders_match_a_scan_across_deltas(self):
        """A catalog answers from its cached comparison atoms; the error
        must read as a scan of its views would, also after a delta."""
        from repro.core.corecover import core_cover_impl

        q = parse_query("q(X, Y) :- e(X, Y), X != Y")
        views = ViewCatalog(
            [
                "v1(A, B) :- e(A, B), A <= B",
                "v2(A, B) :- e(A, B)",
                "v3(A, B) :- e(A, B), A != B, B <= A",
            ]
        )

        def message(candidates):
            with pytest.raises(ValueError, match="comparison atoms") as caught:
                core_cover_impl(q, candidates)
            return str(caught.value)

        assert message(views) == message(list(views))
        assert "X != Y, v1: A <= B, v3: A != B, v3: B <= A." in message(views)
        views.remove_view("v1")
        views.add_view("v0(A) :- e(A, A), A < a")
        assert message(views) == message(list(views))
        assert "X != Y, v3: A != B, v3: B <= A, v0: A < a." in message(views)
