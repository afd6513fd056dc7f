"""Tuple-cores: the query subgoals covered by a view tuple (Section 4.1).

Definition 4.1: the tuple-core of a view tuple ``t_v`` for a minimal query
``Q`` is a *maximal* collection ``G`` of query subgoals admitting a
containment mapping ``φ : G → t_v^exp`` such that

1. ``φ`` is one-to-one and is the identity on arguments of ``G`` that
   appear among ``t_v``'s arguments;
2. every distinguished variable of ``Q`` occurring in ``G`` is mapped to a
   distinguished variable of ``t_v^exp`` (hence, by (1), to itself);
3. if a nondistinguished variable ``X`` of ``G`` is mapped to an
   existential variable of ``t_v``'s expansion, then ``G`` contains *all*
   query subgoals using ``X`` (the MiniCon-style closure property).

Consequences used by the implementation (see Lemma 4.1): every variable of
``G`` is mapped either to itself — possible exactly when it occurs among
``t_v``'s arguments — or, injectively, to a fresh existential variable of
the expansion.  A query variable is never mapped onto a *different*
view-tuple argument (that would break the global identity-on-``Var(P)``
property) nor onto a constant of the view body (the canonical-database
construction already aligns such constants with the query's own
constants).

Lemma 4.2 states the maximal ``G`` is unique; the search below therefore
returns the maximum-cardinality consistent ``G``, and the property-based
tests assert uniqueness on random inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

from ..datalog.atoms import Atom
from ..datalog.query import ConjunctiveQuery
from ..datalog.substitution import IDENTITY, Substitution
from ..datalog.terms import (
    Constant,
    FreshVariableFactory,
    Term,
    Variable,
    is_variable,
)
from ..engine.evaluate import SlotForm
from ..views.view import ViewForms
from .view_tuples import ViewTuple


@dataclass(frozen=True)
class TupleCore:
    """The (unique) tuple-core of a view tuple w.r.t. a minimal query.

    ``covered`` holds the indices of the covered subgoals in the minimal
    query's body; ``mapping`` is a witnessing containment mapping
    (variables of the covered subgoals to terms of the expansion).
    """

    view_tuple: ViewTuple
    covered: frozenset[int]
    mapping: Substitution

    @property
    def is_empty(self) -> bool:
        """Whether the view tuple covers no query subgoal."""
        return not self.covered

    def covered_atoms(self, query: ConjunctiveQuery) -> tuple[Atom, ...]:
        """The covered subgoals of *query*, in body order."""
        return tuple(query.body[i] for i in sorted(self.covered))

    def __str__(self) -> str:
        indices = ", ".join(str(i) for i in sorted(self.covered))
        return f"core({self.view_tuple}) = {{{indices}}}"


@dataclass(frozen=True)
class QueryFrame:
    """The per-query sets every tuple-core search of one query reads.

    They depend on the query alone, so :func:`tuple_cores` builds one
    frame and shares it across all of its view tuples' searches.
    """

    #: Names of the query's variables, reserved from fresh variables.
    variable_names: frozenset[str]
    distinguished: frozenset[Variable]
    #: Each body atom's variable set, in body order.
    atom_variables: tuple[frozenset[Variable], ...]
    #: Body atom indices per variable, for the property-(3) closure.
    atoms_of_var: Mapping[Variable, frozenset[int]]
    #: Body atom indices per ``(predicate, arity)``, in body order.
    atoms_of_signature: Mapping[tuple[str, int], tuple[int, ...]]


def query_frame(query: ConjunctiveQuery) -> QueryFrame:
    """The :class:`QueryFrame` of *query*."""
    atom_variables = tuple(atom.variable_set() for atom in query.body)
    atoms_of_var: dict[Variable, set[int]] = {}
    for index, variables in enumerate(atom_variables):
        for variable in variables:
            atoms_of_var.setdefault(variable, set()).add(index)
    atoms_of_signature: dict[tuple[str, int], list[int]] = {}
    for index, atom in enumerate(query.body):
        atoms_of_signature.setdefault((atom.predicate, atom.arity), []).append(
            index
        )
    return QueryFrame(
        variable_names=frozenset(v.name for v in query.variables()),
        distinguished=query.distinguished_variables(),
        atom_variables=atom_variables,
        atoms_of_var={
            variable: frozenset(indices)
            for variable, indices in atoms_of_var.items()
        },
        atoms_of_signature={
            signature: tuple(indices)
            for signature, indices in atoms_of_signature.items()
        },
    )


class _CoreSearch:
    """Backtracking search for the maximum consistent covered set.

    The view tuple's expansion comes from its view's compiled *form*
    (compiled here when not given): head slots take the tuple's
    arguments, existential slots fresh variables.  A query subgoal's
    candidates come only from expansion atoms with its predicate and
    arity, and the search branches only on subgoals that have one.

    ``checkpoint`` (when given) is called on every backtracking node —
    the cooperative-cancellation hook for resource budgets.  ``frame``
    is *query*'s :class:`QueryFrame`, built here when not given.
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        view_tuple: ViewTuple,
        checkpoint: Callable[[], None] | None = None,
        frame: QueryFrame | None = None,
        form: SlotForm | None = None,
    ) -> None:
        if frame is None:
            frame = query_frame(query)
        if form is None:
            form = SlotForm(view_tuple.view.definition)
        self.query = query
        self.view_tuple = view_tuple
        self.checkpoint = checkpoint
        args = view_tuple.atom.args
        if len(form.variables) > form.head_size:
            factory = FreshVariableFactory(frame.variable_names)
            factory.reserve(arg.name for arg in args if is_variable(arg))
            terms = form.slot_terms(args, factory)
        else:
            terms = args  # every slot is a head slot: no factory
        self.fresh_existentials = frozenset(terms[form.head_size:])
        self.tuple_args = frozenset(args)
        self.distinguished = frame.distinguished
        self.atom_variables = frame.atom_variables
        self.atoms_of_var = frame.atoms_of_var
        # Per query subgoal: all (exp atom, partial binding) candidates,
        # from the expansion atoms in body order.
        body = query.body
        candidates: list[list[dict[Variable, Variable]]] = [[] for _ in body]
        signature_atoms = frame.atoms_of_signature
        for predicate, target in form.instantiate(terms):
            for index in signature_atoms.get((predicate, len(target)), ()):
                binding = self._match(body[index], target)
                if binding is not None and binding not in candidates[index]:
                    candidates[index].append(binding)
        self.candidates = candidates
        #: The subgoals with a candidate, in body order: the only ones
        #: the search branches on.
        self.active = [index for index, found in enumerate(candidates) if found]

    # -- candidate generation --------------------------------------------
    def _match(
        self, atom: Atom, target_args: tuple[Term, ...]
    ) -> Optional[dict[Variable, Variable]]:
        """The ways to map *atom* onto an expansion atom's arguments.

        Returns the ``query var -> fresh existential`` bindings the
        mapping requires (identity mappings are implicit; an empty dict
        means pure identity), or ``None`` when there is no mapping.  The
        caller has matched the predicate and arity.
        """
        binding: dict[Variable, Variable] = {}
        for arg, target in zip(atom.args, target_args):
            if isinstance(arg, Constant):
                if arg != target:
                    return None
                continue
            # arg is a query variable.
            if target == arg:
                # Identity mapping; legal only when arg occurs among the
                # view tuple's arguments (then it is distinguished in the
                # expansion).  Since target equals arg and arg is a query
                # variable, arg necessarily came from the tuple's args.
                if arg in binding:
                    return None  # previously needed an existential image
                continue
            if target in self.fresh_existentials:
                if arg in self.distinguished:
                    return None  # property (2)
                if arg in self.tuple_args:
                    return None  # property (1): identity is forced
                bound = binding.get(arg)
                if bound is None:
                    binding[arg] = target
                elif bound != target:
                    return None
                continue
            # target is a different query term or a view-body constant —
            # both are rejected (see module docstring).
            return None
        return binding

    # -- search ----------------------------------------------------------------
    def run(self) -> TupleCore:
        """Find the maximum covered set and return the tuple-core."""
        checkpoint = self.checkpoint
        active = self.active
        m = len(active)
        candidates = self.candidates
        best: dict[str, object] = {"covered": frozenset(), "binding": {}}

        def consistent(
            binding: dict[Variable, Variable], addition: dict[Variable, Variable]
        ) -> Optional[dict[Variable, Variable]]:
            merged = dict(binding)
            used = set(binding.values())
            for variable, target in addition.items():
                bound = merged.get(variable)
                if bound is None:
                    if target in used:
                        return None  # injectivity among existential images
                    merged[variable] = target
                    used.add(target)
                elif bound != target:
                    return None
            return merged

        def closure_ok(covered: set[int], binding: dict[Variable, Variable]) -> bool:
            return all(
                self.atoms_of_var[variable] <= covered for variable in binding
            )

        def backtrack(
            position: int, covered: set[int], binding: dict[Variable, Variable]
        ) -> None:
            if checkpoint is not None:
                checkpoint()
            if position == m:
                if len(covered) > len(best["covered"]) and closure_ok(
                    covered, binding
                ):
                    best["covered"] = frozenset(covered)
                    best["binding"] = dict(binding)
                return
            # Upper-bound prune: even covering every active subgoal left
            # cannot beat best.
            if len(covered) + (m - position) <= len(best["covered"]):
                return
            index = active[position]
            for addition in candidates[index]:
                merged = consistent(binding, addition)
                if merged is not None:
                    covered.add(index)
                    backtrack(position + 1, covered, merged)
                    covered.remove(index)
            # Exclude this atom.  Property (3) ultimately requires that no
            # variable of an excluded atom is existentially mapped; bindings
            # only grow along a branch, so exclusion is already doomed when
            # one of the atom's variables is existentially bound now.  A
            # variable bound *later* is caught by closure_ok at the leaves,
            # as is one of a subgoal without candidates, which the search
            # always excludes without visiting.
            if self.atom_variables[index].isdisjoint(binding):
                backtrack(position + 1, covered, binding)

        try:
            backtrack(0, set(), {})
        finally:
            del backtrack  # the closure refers to itself: break the cycle
        mapping = Substitution(dict(best["binding"]))  # type: ignore[arg-type]
        return TupleCore(self.view_tuple, best["covered"], mapping)  # type: ignore[arg-type]


def enumerate_consistent_cores(
    query: ConjunctiveQuery, view_tuple: ViewTuple
) -> list[frozenset[int]]:
    """All inclusion-maximal covered sets consistent with Definition 4.1.

    Lemma 4.2 asserts this list has at most one element (the tuple-core);
    the property-based tests call this function to check the lemma on
    random inputs rather than trusting the maximum-cardinality search.
    """
    search = _CoreSearch(query, view_tuple)
    n = len(query.body)
    consistent: set[frozenset[int]] = set()

    def merge(
        binding: dict[Variable, Variable], addition: dict[Variable, Variable]
    ) -> dict[Variable, Variable] | None:
        merged = dict(binding)
        used = set(binding.values())
        for variable, target in addition.items():
            bound = merged.get(variable)
            if bound is None:
                if target in used:
                    return None
                merged[variable] = target
                used.add(target)
            elif bound != target:
                return None
        return merged

    def closure_ok(covered: set[int], binding: dict[Variable, Variable]) -> bool:
        return all(
            search.atoms_of_var[variable] <= covered for variable in binding
        )

    def backtrack(
        index: int, covered: set[int], binding: dict[Variable, Variable]
    ) -> None:
        if index == n:
            if closure_ok(covered, binding):
                consistent.add(frozenset(covered))
            return
        for addition in search.candidates[index]:
            merged = merge(binding, addition)
            if merged is not None:
                covered.add(index)
                backtrack(index + 1, covered, merged)
                covered.remove(index)
        backtrack(index + 1, covered, binding)

    backtrack(0, set(), {})
    return [
        candidate
        for candidate in consistent
        if not any(candidate < other for other in consistent)
    ]


def tuple_core(
    query: ConjunctiveQuery,
    view_tuple: ViewTuple,
    *,
    checkpoint: Callable[[], None] | None = None,
    frame: QueryFrame | None = None,
    form: SlotForm | None = None,
) -> TupleCore:
    """Compute the unique tuple-core of *view_tuple* for the minimal *query*.

    *query* must already be minimal (CoreCover minimizes first); the
    function does not re-minimize.  ``checkpoint`` is called on every
    search node so a resource budget can cancel the search cooperatively.
    ``frame`` is *query*'s :class:`QueryFrame` and ``form`` the view's
    compiled :class:`~repro.engine.evaluate.SlotForm`; the search builds
    either when it is not given.  This always searches: only
    :func:`tuple_cores` takes a core the view-tuple join already read off.
    """
    return _CoreSearch(query, view_tuple, checkpoint, frame, form).run()


def tuple_cores(
    query: ConjunctiveQuery,
    tuples: Sequence[ViewTuple],
    *,
    context: "PlannerContext | None" = None,
    forms: ViewForms | None = None,
) -> list[TupleCore]:
    """Tuple-cores for a collection of view tuples, in the given order.

    A view tuple whose :attr:`~repro.core.view_tuples.ViewTuple.join_core`
    answers for *query* (a view with no existential variable, joined over
    *query*'s own canonical database) gets that core as it is, with the
    identity mapping: Lemma 4.1 leaves no other.  Every other tuple is
    searched.  With a :class:`~repro.planner.context.PlannerContext`,
    searched cores are memoized by (query, view definition, tuple atom)
    — the search runs once per structurally distinct view tuple.  Every
    search of the call shares one :class:`QueryFrame` of *query*, built
    on the first search.  *forms* supplies the views' compiled forms (a
    catalog's :attr:`~repro.views.view.ViewCatalog.view_forms`); without
    it the call compiles throwaway ones.
    """
    if forms is None:
        forms = ViewForms()
    cores: list[TupleCore] = []
    frame: QueryFrame | None = None
    for view_tuple in tuples:
        joined = view_tuple.join_core
        if joined is not None and (joined[0] is query or joined[0] == query):
            cores.append(TupleCore(view_tuple, joined[1], IDENTITY))
            continue
        if frame is None:
            frame = query_frame(query)
        form = forms.form(view_tuple.view)
        if context is None:
            core = tuple_core(query, view_tuple, frame=frame, form=form)
        else:
            core = context.tuple_core(query, view_tuple, frame, form)
        cores.append(core)
    return cores
