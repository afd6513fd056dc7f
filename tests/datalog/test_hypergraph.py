"""Tests for the shared hypergraph module: GYO reduction and join trees."""

import pytest

from repro.datalog import parse_query
from repro.datalog.hypergraph import (
    JoinTree,
    gyo_reduce,
    is_acyclic,
    join_tree,
    join_tree_of_atoms,
)

CHAIN = parse_query("q(X0, X4) :- e(X0, X1), e(X1, X2), e(X2, X3), e(X3, X4)")
STAR = parse_query("q(C) :- r1(C, A), r2(C, B), r3(C, D)")
TRIANGLE = parse_query("q(X) :- e(X, Y), e(Y, Z), e(Z, X)")
COMPARISON = parse_query("q(X, Y) :- e(X, Z), e(Z, Y), X < Y")


def _check_running_intersection(query, tree):
    """Every variable's atoms must form a connected subtree."""
    relational = [a for a in query.body if not a.is_comparison]
    parent_of = dict(zip(tree.order, tree.parent))
    for variable in {v for a in relational for v in a.variable_set()}:
        holders = {
            position
            for position, atom in enumerate(query.body)
            if not atom.is_comparison and variable in atom.variable_set()
        }
        # Walk each holder towards the root; within the holder set, all
        # but one node (the subtree's top) must have a holder parent.
        tops = [p for p in holders if parent_of[p] not in holders]
        assert len(tops) == 1, (
            f"{variable} spans a disconnected set of atoms {holders}"
        )


class TestJoinTreeShapes:
    def test_chain_is_acyclic_with_linear_tree(self):
        tree = join_tree(CHAIN)
        assert tree is not None
        assert sorted(tree.order) == [0, 1, 2, 3]
        assert tree.parent.count(-1) == 1  # connected: a single root
        assert tree.depth == 4  # a chain join tree is a path
        _check_running_intersection(CHAIN, tree)

    def test_star_is_acyclic(self):
        tree = join_tree(STAR)
        assert tree is not None
        # Lowest-position-first ear elimination linearizes a star whose
        # hub variable lives in every edge (any chaining satisfies the
        # running-intersection property), so the depth is the atom count.
        assert tree.depth == 3
        _check_running_intersection(STAR, tree)

    def test_triangle_is_cyclic(self):
        assert join_tree(TRIANGLE) is None
        assert not is_acyclic(TRIANGLE)
        residue = gyo_reduce(TRIANGLE)
        assert len(residue) == 3  # all three edges survive

    def test_single_atom_is_its_own_root(self):
        tree = join_tree(parse_query("q(X) :- e(X, Y)"))
        assert tree is not None
        assert tree.order == (0,)
        assert tree.parent == (-1,)
        assert tree.depth == 1

    def test_disconnected_body_yields_forest(self):
        forest = join_tree(parse_query("q(X, Y) :- e(X, A), f(Y, B)"))
        assert forest is not None
        assert set(forest.roots) == {0, 1}
        assert forest.depth == 1

    def test_comparison_atoms_are_not_nodes(self):
        tree = join_tree(COMPARISON)
        assert tree is not None
        assert sorted(tree.order) == [0, 1]  # the `<` atom is skipped

    def test_children_precede_parents_in_order(self):
        for query in (CHAIN, STAR, COMPARISON):
            tree = join_tree(query)
            seen = set()
            for node, parent in zip(tree.order, tree.parent):
                assert parent not in seen or parent == -1
                seen.add(node)
            # Every non-root parent appears somewhere in the order.
            assert all(p == -1 or p in seen for p in tree.parent)

    def test_traversal_is_root_first(self):
        tree = join_tree(CHAIN)
        assert tree.traversal() == tuple(reversed(tree.order))
        assert tree.traversal()[0] in tree.roots

    def test_parent_of(self):
        tree = join_tree(CHAIN)
        for node, parent in zip(tree.order, tree.parent):
            assert tree.parent_of(node) == parent


class TestAgreementWithGyo:
    @pytest.mark.parametrize("seed", range(30))
    def test_join_tree_exists_iff_gyo_reduces(self, seed):
        from repro.workload import WorkloadConfig, generate_workload

        workload = generate_workload(
            WorkloadConfig(
                shape="random",
                num_relations=5,
                query_subgoals=5,
                num_views=1,
                seed=seed,
                require_rewritable=False,
            )
        )
        query = workload.query
        assert (join_tree(query) is not None) == is_acyclic(query)

    def test_join_tree_of_atoms_matches_query_form(self):
        assert join_tree_of_atoms(CHAIN.body) == join_tree(CHAIN)


class TestDeprecatedReExport:
    def test_catalog_package_export(self):
        from repro.analysis import catalog

        assert catalog.is_acyclic is is_acyclic


class TestJoinTreeDataclass:
    def test_frozen(self):
        tree = join_tree(CHAIN)
        with pytest.raises(Exception):
            tree.depth = 99

    def test_empty_tree(self):
        tree = JoinTree(order=(), parent=(), depth=0)
        assert tree.roots == ()
        assert tree.traversal() == ()
