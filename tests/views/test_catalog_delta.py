"""The indexed, versioned catalog: deltas, the index, and chaos safety.

The contract under test: every mutation is one copy-on-write delta —
version bumps monotonically, the content root tracks exactly the set of
rendered definitions, the predicate index answers relevance queries
identically to a from-scratch rebuild, and a fault injected mid-delta
(the ``catalog_delta`` point) leaves the catalog on the **old**
consistent version with no torn index.
"""

import hashlib
import pickle

import pytest

from repro.datalog.query import MalformedQueryError
from repro.errors import DuplicateViewError, UnknownViewError
from repro.testing.faults import RaiseFault, inject
from repro.views import CatalogDelta, ViewCatalog, as_view, view_content_hash


@pytest.fixture()
def catalog():
    return ViewCatalog(
        [
            "v1(A, B) :- a(A, B)",
            "v2(A, B) :- b(A, B), a(B, B)",
            "v3(A) :- c(A, A)",
        ]
    )


class TestVersioning:
    def test_version_bumps_once_per_mutation(self, catalog):
        start = catalog.version
        catalog.add("v4(A) :- d(A, A)")
        catalog.remove_view("v4")
        catalog.replace_view(as_view("v3(A) :- d(A, A)"))
        assert catalog.version == start + 3

    def test_delta_reports_versions_roots_and_members(self, catalog):
        old_root = catalog.content_root()
        delta = catalog.add_view(as_view("v4(A) :- d(A, A)"))
        assert isinstance(delta, CatalogDelta)
        assert delta.old_version + 1 == delta.new_version == catalog.version
        assert catalog.content_root() != old_root
        assert [v.name for v in delta.added] == ["v4"]
        assert delta.removed == ()

    def test_replace_is_one_delta(self, catalog):
        start = catalog.version
        delta = catalog.replace_view(as_view("v1(A, B) :- d(A, B)"))
        assert catalog.version == start + 1
        assert [v.name for v in delta.added] == ["v1"]
        assert [v.name for v in delta.removed] == ["v1"]
        assert delta.removed[0].definition != delta.added[0].definition

    def test_content_root_is_order_independent(self):
        texts = ["v1(A) :- a(A, A)", "v2(A) :- b(A, A)"]
        forward = ViewCatalog(texts)
        backward = ViewCatalog(list(reversed(texts)))
        assert forward.content_root() == backward.content_root()

    def test_root_round_trips_through_remove(self, catalog):
        root = catalog.content_root()
        catalog.add("v4(A) :- d(A, A)")
        catalog.remove_view("v4")
        assert catalog.content_root() == root

    def test_hashes_are_per_view_content(self, catalog):
        hashes = catalog.view_hashes()
        assert set(hashes) == {"v1", "v2", "v3"}
        assert hashes["v1"] == view_content_hash(catalog.get("v1"))


class TestIndex:
    def test_matches_from_scratch_rebuild(self, catalog):
        catalog.add("v4(A) :- a(A, A), c(A, A)")
        catalog.remove_view("v2")
        catalog.replace_view(as_view("v3(A) :- b(A, A)"))
        rebuilt = ViewCatalog(list(catalog))
        assert catalog.indexed_predicates() == rebuilt.indexed_predicates()
        for pair in catalog.indexed_predicates():
            assert [
                v.name for v in catalog.views_for_predicates([pair])
            ] == [v.name for v in rebuilt.views_for_predicates([pair])]
        # Construction is one change for every view, and equals one add
        # per view on every observable, pickle bytes included.
        texts = [str(view) for view in catalog] + [
            "v5(A, B) :- e(A, B), a(A, B)",
            "v6(A) :- c(A, A), A < 3",
        ]
        built = ViewCatalog(texts)
        grown = ViewCatalog()
        for text in texts:
            grown.add(text)
        assert built.names() == grown.names() == ("v1", "v3", "v4", "v5", "v6")
        assert built.version == grown.version == len(texts)
        assert built.indexed_predicates() == grown.indexed_predicates()
        for pair in built.indexed_predicates():
            assert [
                v.name for v in built.views_for_predicates([pair])
            ] == [v.name for v in grown.views_for_predicates([pair])]
        assert built.view_hashes() == grown.view_hashes()
        assert list(built.view_hashes()) == list(grown.view_hashes())
        assert built.content_root() == grown.content_root()
        assert pickle.dumps(built) == pickle.dumps(grown)

    @pytest.mark.parametrize(
        "bad, error",
        [("v1(A) :- z(A, A)", DuplicateViewError),
         ("v9(A, A) :- z(A, A)", MalformedQueryError)],
    )
    def test_construction_raises_on_the_view_add_would(self, bad, error):
        texts = ["v1(A) :- a(A, A)", "v2(A) :- b(A, A)", bad, "v2(A) :- c"]
        grown = ViewCatalog()
        with pytest.raises(error) as incremental:
            for text in texts:
                grown.add(text)
        with pytest.raises(error) as at_once:
            ViewCatalog(texts)
        assert str(at_once.value) == str(incremental.value)
        assert grown.names() == ("v1", "v2")


    def test_no_shared_predicate_prunes_to_nothing(self):
        from repro import parse_query

        catalog = ViewCatalog(["v1(A) :- a(A, A)"])
        query = parse_query("q(X) :- b(X, X)")
        assert catalog.relevant_names(query) == ()
        assert ("a", 2) in catalog.indexed_predicates()

    def test_comparison_atoms_stay_out_of_the_index(self):
        catalog = ViewCatalog(["v1(A, B) :- a(A, B), A < B"])
        assert catalog.indexed_predicates() == frozenset({("a", 2)})


class TestLazyRoot:
    def test_building_computes_no_root_until_read(self, monkeypatch):
        from repro.views import view as view_module

        calls = []
        real = view_module.catalog_content_root

        def counting(hashes):
            calls.append(len(hashes))
            return real(hashes)

        monkeypatch.setattr(view_module, "catalog_content_root", counting)
        catalog = ViewCatalog(
            f"v{i}(A, B) :- r{i % 7}(A, B), s{i % 5}(B, A)" for i in range(200)
        )
        assert calls == []
        root = catalog.content_root()
        assert catalog.content_root() == root
        assert calls == [200]
        catalog.add("w(A) :- r0(A, A)")
        assert calls == [200]
        assert catalog.content_root() != root
        assert calls == [200, 201]


class TestPickledBytes:
    def test_one_version_pickles_to_one_digest(self):
        """Reads fill only derived caches, which stay out of the pickle:
        the plan-star catalog (seed 3) pickles to one digest fresh,
        after planning on it and after its root is read."""
        from repro.planner import plan
        from repro.workload import WorkloadConfig, generate_workload, star_query

        workload = generate_workload(
            WorkloadConfig(shape="star", num_relations=13, num_views=1000, seed=3)
        )
        catalog = ViewCatalog(workload.views)

        def digest():
            return hashlib.sha256(pickle.dumps(catalog)).hexdigest()

        fresh = digest()
        for start in range(5):
            query = star_query([(start + i) % 13 for i in range(8)])
            plan(query, catalog, backend="corecover", cost_model="m1")
        planned = digest()
        catalog.content_root()
        assert (fresh, planned, digest()) == (fresh, fresh, fresh)
        assert pickle.loads(pickle.dumps(catalog)).content_root() == (
            catalog.content_root()
        )


class TestChaosSafety:
    def test_fault_mid_add_leaves_old_version(self, catalog):
        version = catalog.version
        root = catalog.content_root()
        names = catalog.names()
        index = {
            pair: tuple(
                v.name for v in catalog.views_for_predicates([pair])
            )
            for pair in catalog.indexed_predicates()
        }
        with inject(RaiseFault("catalog_delta")):
            with pytest.raises(RuntimeError):
                catalog.add("v4(A) :- a(A, A)")
        # The mutation never happened: no torn index, no half-bump.
        assert catalog.version == version
        assert catalog.content_root() == root
        assert catalog.names() == names
        assert "v4" not in catalog
        assert {
            pair: tuple(
                v.name for v in catalog.views_for_predicates([pair])
            )
            for pair in catalog.indexed_predicates()
        } == index

    def test_fault_mid_remove_keeps_the_view(self, catalog):
        version = catalog.version
        with inject(RaiseFault("catalog_delta")):
            with pytest.raises(RuntimeError):
                catalog.remove_view("v1")
        assert "v1" in catalog and catalog.version == version
        # The index still routes a-queries through v1.
        assert "v1" in {
            v.name for v in catalog.views_for_predicates([("a", 2)])
        }

    def test_fault_mid_replace_keeps_old_definition(self, catalog):
        old = catalog.get("v1")
        with inject(RaiseFault("catalog_delta")):
            with pytest.raises(RuntimeError):
                catalog.replace_view(as_view("v1(A, B) :- d(A, B)"))
        assert catalog.get("v1") is old
        assert ("d", 2) not in catalog.indexed_predicates()

    def test_catalog_usable_after_fault(self, catalog):
        """After an aborted delta the next mutation commits normally and
        lands on the same state a never-faulted catalog reaches."""
        with inject(RaiseFault("catalog_delta")):
            with pytest.raises(RuntimeError):
                catalog.add("v4(A) :- d(A, A)")
        delta = catalog.add_view(as_view("v4(A) :- d(A, A)"))
        assert delta.old_version + 1 == catalog.version
        pristine = ViewCatalog(list(catalog))
        assert pristine.content_root() == catalog.content_root()

    def test_duplicate_and_unknown_raise_before_any_state_change(
        self, catalog
    ):
        version = catalog.version
        with pytest.raises(DuplicateViewError):
            catalog.add("v1(A) :- a(A, A)")
        with pytest.raises(UnknownViewError):
            catalog.remove_view("nope")
        assert catalog.version == version
