"""Backtracking homomorphism search between sets of atoms.

A homomorphism from a set of atoms ``S`` to a set of atoms ``T`` is a
substitution ``σ`` on the variables of ``S`` such that ``σ(a) ∈ T`` for
every ``a ∈ S``.  Constants are mapped to themselves.  This is the
computational core of the Chandra-Merlin containment test, of query
minimization, and of the tuple-core computation.

The search indexes target atoms by (predicate, arity), orders source atoms
most-constrained-first, and supports:

* a *seed* substitution (e.g. head unification for containment mappings);
* an *injective* mode in which distinct source terms must receive distinct
  images (used by Lemma 4.1 / Definition 4.1).
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator, Optional, Protocol, Sequence

from ..datalog.atoms import Atom
from ..datalog.substitution import Substitution
from ..datalog.terms import Constant, Term
from ..testing.faults import fire


class SearchObserver(Protocol):
    """Anything that wants to count homomorphism searches.

    Observers may additionally implement ``record_nodes(count)`` (called
    once per finished search with the number of work items it expanded)
    and ``record_fast_path_search()`` (called when a search is routed
    through the acyclic fast path); both are looked up with ``getattr``
    so minimal observers keep working.
    """

    def record_search(self) -> None:  # pragma: no cover - protocol
        ...


#: The active observer, if any.  A context variable (rather than a plain
#: module global) keeps counting correct under threads and asyncio.
_OBSERVER: ContextVar[Optional[SearchObserver]] = ContextVar(
    "repro_homomorphism_observer", default=None
)


@contextmanager
def observe_searches(observer: SearchObserver) -> Iterator[SearchObserver]:
    """Count every homomorphism search started within the ``with`` block.

    Used by :class:`repro.planner.context.PlannerContext` to attribute
    searches to planning stages; nesting restores the previous observer.
    """
    token = _OBSERVER.set(observer)
    try:
        yield observer
    finally:
        _OBSERVER.reset(token)


#: Cooperative-cancellation hook called on every backtracking node.  A
#: context variable, like the observer, so budgets stay attributed
#: correctly under threads and asyncio.  ``None`` (the default) keeps
#: the unbudgeted search at a single ``is not None`` test per node.
_CHECKPOINT: ContextVar[Optional[Callable[[], None]]] = ContextVar(
    "repro_homomorphism_checkpoint", default=None
)


@contextmanager
def cancellation_scope(checkpoint: Callable[[], None]) -> Iterator[None]:
    """Run *checkpoint* on every backtracking node within the block.

    The planner installs a :meth:`BudgetMeter.checkpoint
    <repro.planner.limits.BudgetMeter.checkpoint>` here so a wall-clock
    deadline can interrupt even a single adversarial search; the raise
    unwinds the backtracking cleanly (no partial state is cached).
    """
    token = _CHECKPOINT.set(checkpoint)
    try:
        yield
    finally:
        _CHECKPOINT.reset(token)


class AcyclicGuide(Protocol):
    """A router deciding per search whether to run the acyclic fast path.

    ``guide`` returns a substitution iterator implementing the whole
    search — contractually yielding **exactly** the substitutions the
    backtracker would, in the same order — or ``None`` to fall back to
    the general backtracking search (cyclic source, comparison atoms,
    trivial bodies).  The concrete implementation is
    :class:`repro.containment.join_guided.AcyclicRouter`.
    """

    def guide(
        self,
        source: Sequence[Atom],
        target: Sequence[Atom],
        seed: Substitution,
        injective: bool,
    ) -> Optional[Iterator[Substitution]]:  # pragma: no cover - protocol
        ...


#: The active acyclic router, if any.  Installed by ``plan()`` (via
#: :meth:`PlannerContext.routed_acyclic`) only when the planned query is
#: alpha-acyclic and the fast path was not disabled; a context variable
#: for the same thread/asyncio reasons as the observer.
_ACYCLIC: ContextVar[Optional[AcyclicGuide]] = ContextVar(
    "repro_homomorphism_acyclic", default=None
)


@contextmanager
def acyclic_scope(guide: AcyclicGuide) -> Iterator[None]:
    """Route eligible searches through *guide* within the block.

    Every :func:`find_homomorphisms` call inside the block offers its
    search to *guide* first; the guide declines (returns ``None``)
    whenever its preconditions do not hold, so installing a scope is
    always safe.  Nesting restores the previous guide.
    """
    token = _ACYCLIC.set(guide)
    try:
        yield
    finally:
        _ACYCLIC.reset(token)


def unify_atom(
    source: Atom, target: Atom, substitution: Substitution
) -> Optional[Substitution]:
    """Extend *substitution* so that it maps *source* onto *target*.

    Returns the extended substitution, or ``None`` if the atoms cannot be
    unified (different predicate/arity, constant mismatch, or a conflicting
    variable binding).
    """
    if source.predicate != target.predicate or source.arity != target.arity:
        return None
    current = substitution
    for source_arg, target_arg in zip(source.args, target.args):
        if isinstance(source_arg, Constant):
            if source_arg != target_arg:
                return None
            continue
        extended = current.extended(source_arg, target_arg)
        if extended is None:
            return None
        current = extended
    return current


def _target_index(target: Sequence[Atom]) -> dict[tuple[str, int], list[Atom]]:
    index: dict[tuple[str, int], list[Atom]] = {}
    for atom in target:
        index.setdefault((atom.predicate, atom.arity), []).append(atom)
    return index


def _ordered_positions(
    source: Sequence[Atom], index: dict[tuple[str, int], list[Atom]]
) -> list[int]:
    """Source atom positions ordered to fail fast.

    Atoms with fewer candidate targets and more constants/repeated
    variables are tried first; ties are broken by the original order to
    keep the search deterministic.  The acyclic fast path reuses this
    exact ordering, which is one half of its bit-identical-enumeration
    contract (the other half is preserving candidate order per atom).
    """

    def constrainedness(item: tuple[int, Atom]) -> tuple[int, int, int]:
        position, atom = item
        candidates = len(index.get((atom.predicate, atom.arity), ()))
        ground_args = sum(1 for arg in atom.args if isinstance(arg, Constant))
        return (candidates, -ground_args, position)

    return [
        position
        for position, _ in sorted(enumerate(source), key=constrainedness)
    ]


def _ordered_sources(
    source: Sequence[Atom], index: dict[tuple[str, int], list[Atom]]
) -> list[Atom]:
    """The source atoms in :func:`_ordered_positions` order."""
    return [source[position] for position in _ordered_positions(source, index)]


def _source_terms(source: Sequence[Atom]) -> set[Term]:
    terms: set[Term] = set()
    for atom in source:
        terms.update(atom.args)
    return terms


def _is_injective(substitution: Substitution, terms: set[Term]) -> bool:
    images = set()
    for term in terms:
        image = substitution.apply_term(term)
        if image in images:
            return False
        images.add(image)
    return True


def find_homomorphisms(
    source: Sequence[Atom],
    target: Sequence[Atom],
    seed: Substitution = Substitution(),
    injective: bool = False,
) -> Iterator[Substitution]:
    """Yield every homomorphism from *source* into *target* extending *seed*.

    With ``injective=True``, only substitutions under which all distinct
    terms of *source* have distinct images are yielded (constants are their
    own images, so a variable may then never map to a constant occurring in
    *source*).
    """
    # Count the search eagerly (this is a plain function returning a
    # generator, so observers see the search even if it is never consumed).
    # The fault point fires first so an injected stall is visible to the
    # budget charge the observer performs.
    fire("hom_search")
    observer = _OBSERVER.get()
    if observer is not None:
        observer.record_search()
    guide = _ACYCLIC.get()
    if guide is not None:
        guided = guide.guide(source, target, seed, injective)
        if guided is not None:
            if observer is not None:
                record = getattr(observer, "record_fast_path_search", None)
                if record is not None:
                    record()
            return guided
    return _search(source, target, seed, injective)


def _search(
    source: Sequence[Atom],
    target: Sequence[Atom],
    seed: Substitution,
    injective: bool,
) -> Iterator[Substitution]:
    index = _target_index(target)
    ordered = _ordered_sources(source, index)
    all_terms = _source_terms(source) if injective else set()
    checkpoint = _CHECKPOINT.get()
    observer = _OBSERVER.get()
    record_nodes = (
        getattr(observer, "record_nodes", None) if observer is not None else None
    )
    # Nodes count units of work, not just recursion depth: one per
    # backtracking entry plus one per candidate unification attempted.
    # The acyclic fast path reports the same units (including its
    # semijoin work), so the two engines' node counts are comparable.
    nodes = 0

    def backtrack(position: int, substitution: Substitution) -> Iterator[Substitution]:
        nonlocal nodes
        nodes += 1
        if checkpoint is not None:
            checkpoint()
        if position == len(ordered):
            if not injective or _is_injective(substitution, all_terms):
                yield substitution
            return
        atom = ordered[position]
        for candidate in index.get((atom.predicate, atom.arity), ()):
            nodes += 1
            extended = unify_atom(atom, candidate, substitution)
            if extended is not None:
                yield from backtrack(position + 1, extended)

    try:
        yield from backtrack(0, seed)
    finally:
        # Flush even on early close (e.g. ``find_homomorphism`` taking
        # only the first solution): closing the generator runs this.
        if record_nodes is not None and nodes:
            record_nodes(nodes)
        del backtrack  # the closure refers to itself: break the cycle


def find_homomorphism(
    source: Sequence[Atom],
    target: Sequence[Atom],
    seed: Substitution = Substitution(),
    injective: bool = False,
) -> Optional[Substitution]:
    """Return one homomorphism from *source* into *target*, or ``None``."""
    return next(find_homomorphisms(source, target, seed, injective), None)


def has_homomorphism(
    source: Sequence[Atom],
    target: Sequence[Atom],
    seed: Substitution = Substitution(),
) -> bool:
    """Whether any homomorphism from *source* into *target* extends *seed*."""
    return find_homomorphism(source, target, seed) is not None
