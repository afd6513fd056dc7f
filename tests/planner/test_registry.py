"""Tests for the rewriter-backend and cost-model registries."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    PlannerContext,
    ViewCatalog,
    available_backends,
    bucket_algorithm,
    core_cover,
    core_cover_star,
    get_backend,
    minicon,
    naive_gmr_search,
    parse_query,
    plan,
)
from repro.baselines.inverse_rules import InverseRule
from repro.datalog import Atom, ConjunctiveQuery, Constant, Variable
from repro.cost import (
    UnknownCostModelError,
    available_cost_models,
    get_cost_model,
)
from repro.planner import UnknownBackendError


@pytest.fixture()
def clp():
    """The car-loc-part running example."""
    query = parse_query("q1(S, C) :- car(M, a), loc(a, C), part(S, M, C)")
    views = ViewCatalog(
        [
            "v1(M, D, C) :- car(M, D), loc(D, C)",
            "v2(S, M, C) :- part(S, M, C)",
            "v3(S) :- car(M, a), loc(a, C), part(S, M, C)",
            "v4(M, D, C, S) :- car(M, D), loc(D, C), part(S, M, C)",
            "v5(M, D, C) :- car(M, D), loc(D, C)",
        ]
    )
    return query, views


class TestBackendRegistry:
    def test_expected_backends_registered(self):
        assert available_backends() == (
            "bucket",
            "corecover",
            "corecover-star",
            "inverse-rules",
            "minicon",
            "naive",
        )

    def test_every_listed_backend_resolves(self):
        for name in available_backends():
            backend = get_backend(name)
            assert backend.name == name
            assert backend.description

    def test_name_normalization(self):
        assert get_backend("CoreCover").name == "corecover"
        assert get_backend("corecover_star").name == "corecover-star"
        assert get_backend("  MINICON ").name == "minicon"

    def test_unknown_backend_lists_registered(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            get_backend("does-not-exist")
        message = str(excinfo.value)
        assert "does-not-exist" in message
        for name in available_backends():
            assert name in message

    def test_plan_rejects_unknown_backend(self, clp):
        query, views = clp
        with pytest.raises(UnknownBackendError):
            plan(query, views, backend="no-such-backend")


class TestPlanEntryPoint:
    def test_every_backend_runs_through_plan(self, clp):
        query, views = clp
        for name in available_backends():
            result = plan(query, views, backend=name)
            assert result.backend == name
            assert result.stats.cache_misses >= 0
            if get_backend(name).produces_rewritings:
                assert result.rewritings, f"{name} found no rewriting"

    def test_inverse_rules_details_are_rules(self, clp):
        query, views = clp
        result = plan(query, views, backend="inverse-rules")
        assert result.rewritings == ()
        assert not result.has_rewriting
        assert all(isinstance(rule, InverseRule) for rule in result.details)

    def test_stats_are_per_call_deltas_on_shared_context(self, clp):
        query, views = clp
        context = PlannerContext()
        first = plan(query, views, backend="corecover", context=context)
        second = plan(query, views, backend="corecover", context=context)
        # The second run re-asks the same interned questions: everything
        # is a hit, and its delta-stats must not include the first run.
        assert second.stats.hom_searches == 0
        assert second.stats.cache_hits <= first.stats.cache_lookups
        assert second.rewritings == first.rewritings

    def test_plan_with_cost_model_m1(self, clp):
        query, views = clp
        result = plan(query, views, backend="corecover", cost_model="m1")
        assert result.cost_model == "m1"
        assert result.chosen is not None
        best = min(result.rewritings, key=lambda r: len(r.body))
        assert len(result.chosen.rewriting.body) == len(best.body)


class TestLegacyShims:
    def test_core_cover_matches_registry(self, clp):
        query, views = clp
        shim = core_cover(query, views)
        direct = plan(query, views, backend="corecover")
        assert shim.rewritings == direct.rewritings
        assert shim.rewritings == direct.details.rewritings

    def test_core_cover_star_matches_registry(self, clp):
        query, views = clp
        shim = core_cover_star(query, views, max_rewritings=16)
        direct = plan(
            query, views, backend="corecover-star", max_rewritings=16
        )
        assert shim.rewritings == direct.rewritings

    def test_naive_matches_registry(self, clp):
        query, views = clp
        shim = naive_gmr_search(query, views)
        direct = plan(query, views, backend="naive")
        assert tuple(shim) == direct.rewritings

    def test_minicon_matches_registry(self, clp):
        query, views = clp
        shim = minicon(query, views)
        direct = plan(query, views, backend="minicon")
        assert shim.mcds == direct.details.mcds
        assert shim.equivalent_rewritings == direct.rewritings

    def test_bucket_matches_registry(self, clp):
        query, views = clp
        shim = bucket_algorithm(query, views)
        direct = plan(query, views, backend="bucket")
        assert shim.contained_rewritings == direct.details.contained_rewritings
        assert shim.equivalent_rewritings == direct.rewritings


class TestCostModelRegistry:
    def test_expected_models_registered(self):
        assert available_cost_models() == ("m1", "m2", "m3")

    def test_every_listed_model_resolves(self):
        for name in available_cost_models():
            model = get_cost_model(name)
            assert model.name == name

    def test_unknown_model_lists_registered(self):
        with pytest.raises(UnknownCostModelError) as excinfo:
            get_cost_model("m99")
        message = str(excinfo.value)
        for name in available_cost_models():
            assert name in message

    def test_m2_without_data_raises(self, clp):
        query, views = clp
        with pytest.raises(ValueError, match="m2"):
            plan(query, views, backend="corecover", cost_model="m2")

    def test_m1_needs_no_data(self):
        assert get_cost_model("m1").needs_data is False
        assert get_cost_model("m2").needs_data is True

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_m1_choice_is_the_smallest_rendering(self, data):
        """M1 renders each atom once per call, but still chooses the
        rewriting with the smallest ``(len(body), str(rewriting))``."""
        terms = [Variable(name) for name in "XYZ"] + [Constant("a")]
        atom = st.builds(
            Atom,
            st.sampled_from(["v1", "v2", "v3"]),
            st.tuples(st.sampled_from(terms), st.sampled_from(terms)),
        )
        # Shared atom objects, as one call's view tuples are shared.
        pool = data.draw(st.lists(atom, min_size=1, max_size=6))
        heads = data.draw(st.lists(atom, min_size=1, max_size=3))
        length = data.draw(st.integers(min_value=1, max_value=3))
        rewritings = data.draw(
            st.lists(
                st.builds(
                    ConjunctiveQuery,
                    st.sampled_from(heads),
                    st.lists(
                        st.sampled_from(pool), min_size=length, max_size=length
                    ).map(tuple),
                ),
                min_size=1,
                max_size=12,
            )
        )
        chosen = get_cost_model("m1").select(rewritings)
        expected = min(rewritings, key=lambda r: (len(r.body), str(r)))
        assert chosen.rewriting is expected
        assert chosen.cost == float(length)
