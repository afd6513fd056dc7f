"""Join-tree-guided homomorphism search — the acyclic fast path.

For an alpha-acyclic source, the Chandra-Merlin search need not be a
blind backtracking walk: Yannakakis' semijoin program over a join tree
filters each atom's candidate-target list in two linear passes
(bottom-up, then top-down), after which almost every surviving candidate
participates in a full homomorphism.  This module implements that
filtering and then re-runs **the ordinary backtracking loop over the
filtered candidate lists** — same atom order, same candidate order —
which is what makes the fast path *bit-identical* to the general path:

* atom order comes from :func:`~repro.containment.homomorphism._ordered_positions`
  (shared with the backtracker);
* each filtered candidate list preserves the target-index order the
  backtracker scans;
* a pruned candidate provably extends to no homomorphism (the semijoin
  only removes a candidate when some adjacent source atom has no
  seed-consistent target agreeing on their shared variables), so the
  surviving search yields exactly the same substitutions, in exactly the
  same order — only the dead branches disappear.

Injectivity is still checked at the leaves exactly as in the general
path (semijoin filtering is sound for it: every injective homomorphism
is a homomorphism, so its candidates always survive).

The router falls back (returns ``None``) for cyclic sources, sources
containing comparison atoms, and trivial (< 2 atom) sources; the caller
(:func:`~repro.containment.homomorphism.find_homomorphisms`) then runs
the general backtracker.  Cooperative cancellation works mid-semijoin:
the active :func:`~repro.containment.homomorphism.cancellation_scope`
checkpoint is called per candidate examined, so a budget can expire
before any backtracking starts.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from ..datalog.atoms import Atom
from ..datalog.hypergraph import JoinTree, join_tree_of_atoms
from ..datalog.substitution import Substitution
from ..datalog.terms import Variable
from .homomorphism import (
    _CHECKPOINT,
    _OBSERVER,
    _is_injective,
    _ordered_positions,
    _source_terms,
    _target_index,
    unify_atom,
)

__all__ = ["AcyclicRouter"]


class AcyclicRouter:
    """Per-context router implementing the ``AcyclicGuide`` protocol.

    One router lives on each :class:`~repro.planner.context.PlannerContext`
    (shared across every search of a planning session); it memoizes join
    trees per source-atoms tuple, so repeated searches over the same
    body — the common case under the containment cache's misses — pay
    for ear elimination once.
    """

    def __init__(self) -> None:
        #: Join tree per source tuple; ``None`` records "not eligible".
        self._trees: dict[tuple[Atom, ...], JoinTree | None] = {}
        #: Searches actually routed through the guided engine.
        self.guided_searches = 0

    def tree_for(self, source: Sequence[Atom]) -> JoinTree | None:
        """The memoized join tree of *source*, or ``None`` if ineligible."""
        key = tuple(source)
        try:
            return self._trees[key]
        except KeyError:
            pass
        if len(key) < 2 or any(atom.is_comparison for atom in key):
            tree = None
        else:
            tree = join_tree_of_atoms(key)
        self._trees[key] = tree
        return tree

    def guide(
        self,
        source: Sequence[Atom],
        target: Sequence[Atom],
        seed: Substitution,
        injective: bool,
    ) -> Optional[Iterator[Substitution]]:
        """A guided search iterator, or ``None`` to use the backtracker."""
        tree = self.tree_for(source)
        if tree is None:
            return None
        self.guided_searches += 1
        return _guided_search(
            tuple(source), tuple(target), seed, injective, tree
        )


def _guided_search(
    source: tuple[Atom, ...],
    target: tuple[Atom, ...],
    seed: Substitution,
    injective: bool,
    tree: JoinTree,
) -> Iterator[Substitution]:
    index = _target_index(target)
    ordered = _ordered_positions(source, index)
    all_terms = _source_terms(source) if injective else set()
    checkpoint = _CHECKPOINT.get()
    observer = _OBSERVER.get()
    record_nodes = (
        getattr(observer, "record_nodes", None) if observer is not None else None
    )
    # Node accounting stays honest across engines: every unit of work —
    # a candidate unification, a semijoin membership test, a backtracking
    # call — counts as one node, so the fast path's reported node counts
    # include the filtering work it does instead of backtracking.
    nodes = 0

    try:
        # Per-atom seed-consistent candidates, in target-index order (the
        # order the backtracker scans).  Each entry keeps the binding of
        # the atom's variables for the semijoin projections below.
        candidates: list[list[tuple[Atom, Substitution]]] = []
        for atom in source:
            row: list[tuple[Atom, Substitution]] = []
            for candidate in index.get((atom.predicate, atom.arity), ()):
                nodes += 1
                if checkpoint is not None:
                    checkpoint()
                extended = unify_atom(atom, candidate, seed)
                if extended is not None:
                    row.append((candidate, extended))
            if not row:
                return  # some atom has no candidate: no homomorphism
            candidates.append(row)

        variables = [frozenset(atom.variable_set()) for atom in source]

        def shared_of(child: int, parent: int) -> tuple[Variable, ...]:
            return tuple(
                sorted(variables[child] & variables[parent], key=repr)
            )

        def semijoin(kept: int, against: int) -> bool:
            """Filter *kept*'s candidates by agreement with *against*.

            Returns ``False`` when *kept* has no candidate left (no
            homomorphism exists at all).
            """
            nonlocal nodes
            shared = shared_of(kept, against)
            if not shared:
                return True
            keys = set()
            for _, binding in candidates[against]:
                nodes += 1
                if checkpoint is not None:
                    checkpoint()
                keys.add(tuple(binding.apply_term(v) for v in shared))
            survivors = []
            for entry in candidates[kept]:
                nodes += 1
                if checkpoint is not None:
                    checkpoint()
                if tuple(entry[1].apply_term(v) for v in shared) in keys:
                    survivors.append(entry)
            if not survivors:
                return False
            candidates[kept] = survivors
            return True

        # Bottom-up: in elimination order, parent ⋉ child.
        for slot, child in enumerate(tree.order):
            parent = tree.parent[slot]
            if parent == -1:
                continue
            if not semijoin(parent, child):
                return
        # Top-down: in reverse order, child ⋉ parent.
        for slot in range(len(tree.order) - 1, -1, -1):
            child = tree.order[slot]
            parent = tree.parent[slot]
            if parent == -1:
                continue
            if not semijoin(child, parent):
                return

        # The general path's backtracking loop, verbatim, over the
        # filtered candidate lists.  ``unify_atom`` re-derives each
        # extension from the running substitution so the yielded
        # substitutions are built through the identical call chain.
        def backtrack(
            position: int, substitution: Substitution
        ) -> Iterator[Substitution]:
            nonlocal nodes
            nodes += 1
            if checkpoint is not None:
                checkpoint()
            if position == len(ordered):
                if not injective or _is_injective(substitution, all_terms):
                    yield substitution
                return
            source_position = ordered[position]
            atom = source[source_position]
            for candidate, _ in candidates[source_position]:
                nodes += 1
                extended = unify_atom(atom, candidate, substitution)
                if extended is not None:
                    yield from backtrack(position + 1, extended)

        try:
            yield from backtrack(0, seed)
        finally:
            del backtrack  # the closure refers to itself: break the cycle
    finally:
        if record_nodes is not None and nodes:
            record_nodes(nodes)
