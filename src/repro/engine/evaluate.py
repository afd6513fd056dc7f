"""Evaluation of conjunctive queries over in-memory databases.

A query is compiled once into a :class:`SlotForm`.  Every variable
becomes an integer argument *slot*: the head variables take slots
``0..k-1`` in head order, the existential variables the next slots in
name order.  Each body atom becomes ``(predicate, args)`` over slots and
:class:`~repro.datalog.terms.Constant` objects, and each built-in
comparison (the Section 8 extension) becomes a filter on slots.

:class:`SlotForm` runs the package's one join kernel: a pipelined
multiway hash join.  It orders the relational atoms greedily, most bound
variables first and then the smallest relation, matches each against
its relation through a hash index on the already bound positions, and
applies each filter as soon as its slots are bound.  A step plan is
compiled for each tuple of relation sizes (which fixes the join order)
and kept on the form, so a form run many times pays for its analysis
once.

The kernel is used for:

* computing view tuples ``T(Q, V)`` by running each view's form over
  canonical databases (Section 3.3); a
  :class:`~repro.views.view.ViewCatalog` keeps each view's form;
* materializing views over base data (closed-world assumption);
* checking that rewritings and the original query return identical answers
  on concrete instances (the closed-world guarantee the paper relies on).

:mod:`repro.engine.operators` is an independent implementation of the
same joins, kept as the kernel's test oracle.
"""

from __future__ import annotations

import operator
from typing import Callable, Sequence, Union

from ..datalog.atoms import Atom
from ..datalog.query import ConjunctiveQuery
from ..datalog.terms import Constant, FreshVariableFactory, Term, Variable
from .database import Database

_COMPARATORS: dict[str, Callable[[object, object], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "=": operator.eq,
    "!=": operator.ne,
}

Binding = dict[Variable, object]

#: An argument of a compiled atom: a slot number or a constant.
SlotArg = Union[int, Constant]

#: Hash indexes shared by the joins of one caller over one database,
#: keyed by ``(predicate, key positions)``.
IndexCache = dict[tuple[str, tuple[int, ...]], dict]

#: Head predicate of the rule compiled for :func:`evaluate_bindings`.
_BINDINGS_HEAD = "__bindings__"


def evaluate(query: ConjunctiveQuery, database: Database) -> frozenset[tuple[object, ...]]:
    """The answer of *query* on *database*: a set of head tuples."""
    return SlotForm(query).answers(database)


def evaluate_bindings(atoms: Sequence[Atom], database: Database) -> list[Binding]:
    """All satisfying assignments of the variables of *atoms*.

    Comparison atoms act as filters; every variable in a comparison must
    also occur in some relational atom (safety of built-in predicates).
    """
    form = SlotForm(ConjunctiveQuery(Atom(_BINDINGS_HEAD, ()), tuple(atoms)))
    joined = form._join(database, None)
    if joined is None:
        return []
    rows, plan = joined
    named = [
        (form.variables[slot], position)
        for slot, position in plan.layout.items()
    ]
    return [
        {variable: row[position] for variable, position in named}
        for row in rows
    ]


class DefinitionKey:
    """A structural key of a conjunctive query, blind to its head name.

    Two keys are equal exactly when the queries' head arguments and
    bodies are equal, so equally defined views under different names
    share one key.  The hash is computed once: planner memos look keys
    up on every view tuple.
    """

    __slots__ = ("_parts", "_hash")

    def __init__(self, query: ConjunctiveQuery) -> None:
        self._parts = (query.head.args, query.body)
        self._hash = hash(self._parts)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, DefinitionKey):
            return NotImplemented
        return self._hash == other._hash and self._parts == other._parts


class _Step:
    """One relational atom of a compiled join order."""

    __slots__ = (
        "atom", "arity", "key_positions", "key_indices", "checks", "new",
        "filters",
    )

    def __init__(
        self,
        atom: int,
        arity: int,
        key_positions: tuple[int, ...],
        key_indices: tuple[int, ...],
        checks: Callable[[tuple], bool] | None,
        new: tuple[int, ...],
        filters: tuple[Callable[[tuple], bool], ...],
    ) -> None:
        #: Index of the atom in :attr:`SlotForm.atoms`, and its arity.
        self.atom = atom
        self.arity = arity
        #: Fact positions matched against already bound slots ...
        self.key_positions = key_positions
        #: ... and those slots' positions in the partial row.
        self.key_indices = key_indices
        #: Constant and repeated-variable checks on a fact, or ``None``.
        self.checks = checks
        #: Fact positions of the slots this atom binds first, in order.
        self.new = new
        #: Filters whose slots are all bound after this step.
        self.filters = filters


class SlotForm:
    """A conjunctive query compiled to argument slots.

    Built once per query (a :class:`~repro.views.view.ViewCatalog`
    keeps one per view); compiling is pure, so two threads compiling the
    same query at once only do the work twice.
    """

    __slots__ = (
        "variables",
        "head_size",
        "head",
        "body",
        "atoms",
        "key",
        "_filters",
        "_masks",
        "_plans",
    )

    def __init__(self, query: ConjunctiveQuery) -> None:
        # Slots are keyed by variable name: equal variables share a name,
        # and a name hashes without a Python-level call.
        slot_of: dict[str, int] = {}
        variables: list[Variable] = []
        for arg in query.head.args:
            if isinstance(arg, Variable) and arg.name not in slot_of:
                slot_of[arg.name] = len(variables)
                variables.append(arg)
        #: Slots ``0..head_size-1`` hold the head variables.
        self.head_size = len(variables)
        existentials: dict[str, Variable] = {}
        for atom in query.body:
            for arg in atom.args:
                if isinstance(arg, Variable) and arg.name not in slot_of:
                    existentials[arg.name] = arg
        for name in sorted(existentials):
            slot_of[name] = len(variables)
            variables.append(existentials[name])
        #: The variable of each slot.
        self.variables: tuple[Variable, ...] = tuple(variables)

        def compile_args(atom: Atom) -> tuple[SlotArg, ...]:
            return tuple(
                [
                    slot_of[arg.name] if isinstance(arg, Variable) else arg
                    for arg in atom.args
                ]
            )

        #: The head arguments over slots and constants.
        self.head = compile_args(query.head)
        #: Every body atom, comparisons included, in body order.
        self.body: tuple[tuple[str, tuple[SlotArg, ...]], ...] = tuple(
            [(atom.predicate, compile_args(atom)) for atom in query.body]
        )
        comparison = [atom.is_comparison for atom in query.body]
        #: The relational body atoms, in body order.
        self.atoms = tuple(
            [entry for entry, skip in zip(self.body, comparison) if not skip]
        )
        self._filters = tuple(
            [entry for entry, keep in zip(self.body, comparison) if keep]
        )
        masks = []
        for _, args in self.atoms:
            mask = 0
            for arg in args:
                if type(arg) is int:
                    mask |= 1 << arg
            masks.append(mask)
        #: Per relational atom, the bit set of its slots.
        self._masks = tuple(masks)
        #: Structural key of the query (see :class:`DefinitionKey`).
        self.key = DefinitionKey(query)
        #: Relation sizes -> the compiled plan of their join order.
        self._plans: dict[tuple[int, ...], _Plan] = {}

    # -- expansion (Definition 2.2) -----------------------------------------
    def slot_terms(
        self, args: Sequence[Term], factory: FreshVariableFactory
    ) -> tuple[Term, ...]:
        """The term of each slot when a view atom with *args* is expanded.

        Head slots take the atom's arguments; existential slots take
        fresh variables drawn from *factory* in slot order, which is
        name order.  Only for forms of views, whose heads list distinct
        variables.
        """
        return tuple(args) + tuple(
            factory.fresh_like(variable)
            for variable in self.variables[self.head_size:]
        )

    def instantiate(
        self, terms: Sequence[Term]
    ) -> tuple[tuple[str, tuple[Term, ...]], ...]:
        """Each body atom as ``(predicate, args)``, slot ``i`` read as
        ``terms[i]``."""
        return tuple(
            (
                predicate,
                tuple([terms[arg] if type(arg) is int else arg for arg in args]),
            )
            for predicate, args in self.body
        )

    def expansion(
        self, args: Sequence[Term], factory: FreshVariableFactory
    ) -> tuple[tuple[Atom, ...], frozenset[Variable]]:
        """The body under :meth:`slot_terms`, and its fresh variables."""
        terms = self.slot_terms(args, factory)
        atoms = tuple(
            Atom(predicate, atom_args)
            for predicate, atom_args in self.instantiate(terms)
        )
        return atoms, frozenset(terms[self.head_size:])

    # -- the join kernel ----------------------------------------------------
    def answers(
        self, database: Database, indexes: IndexCache | None = None
    ) -> frozenset[tuple[object, ...]]:
        """The head tuples over every satisfying assignment."""
        joined = self._join(database, indexes)
        if joined is None:
            return frozenset()
        rows, plan = joined
        if plan.project is not None:
            return frozenset(map(plan.project, rows))
        head = []
        for arg in self.head:
            if type(arg) is not int:
                head.append((False, arg.value))
            elif arg in plan.layout:
                head.append((True, plan.layout[arg]))
            else:
                raise KeyError(self.variables[arg])  # unsafe head variable
        return frozenset(
            tuple(row[value] if is_slot else value for is_slot, value in head)
            for row in rows
        )

    def _join(
        self, database: Database, indexes: IndexCache | None
    ) -> tuple[list[tuple], "_Plan"] | None:
        """Every satisfying assignment of the body over *database*.

        Returns the rows and the plan that joined them: each row holds
        the values of the slots the relational atoms bind, at the
        positions the plan's ``layout`` gives.  ``None`` means no
        assignment.  *indexes* shares hash indexes across joins over the
        same database.
        """
        relations = [
            database.relation(predicate)
            if database.has_relation(predicate)
            else None
            for predicate, _ in self.atoms
        ]
        plan = self._plan(relations)
        if indexes is None:
            indexes = {}
        rows: list[tuple] = [()]
        for step in plan.steps:
            relation = relations[step.atom]
            if relation is None or relation.arity != step.arity:
                return None  # an atom no fact can match
            checks = step.checks
            new = step.new
            if step.key_positions:
                cache_key = (relation.name, step.key_positions)
                index = indexes.get(cache_key)
                if index is None:
                    index = indexes[cache_key] = relation.index_on(
                        step.key_positions
                    )
                key_indices = step.key_indices
                extended = []
                for row in rows:
                    facts = index.get(tuple([row[i] for i in key_indices]))
                    if facts:
                        for fact in facts:
                            if checks is None or checks(fact):
                                extended.append(
                                    row + tuple([fact[p] for p in new])
                                )
            else:
                tails = [
                    tuple([fact[p] for p in new])
                    for fact in relation
                    if checks is None or checks(fact)
                ]
                extended = [row + tail for row in rows for tail in tails]
            rows = extended
            for accept in step.filters:
                rows = [row for row in rows if accept(row)]
            if not rows:
                return None
        for predicate, args in plan.unbound:
            for arg in args:
                if type(arg) is int and arg not in plan.layout:
                    # A comparison over a variable no relational atom
                    # binds: there is no value to compare.
                    raise KeyError(self.variables[arg])
            accept = _filter(predicate, args, plan.layout)
            rows = [row for row in rows if accept(row)]
            if not rows:
                return None
        return rows, plan

    def _plan(self, relations: list) -> "_Plan":
        """The compiled plan for the greedy join order over *relations*.

        The order depends on the relation sizes alone, so plans are kept
        per size tuple.  A missing relation (``None``) counts as empty.
        """
        if len(relations) < 2:
            sizes: tuple[int, ...] = ()
        else:
            sizes = tuple(
                [len(r) if r is not None else 0 for r in relations]
            )
        plan = self._plans.get(sizes)
        if plan is None:
            plan = self._plans[sizes] = self._compile(self._order(sizes))
        return plan

    def _order(self, sizes: tuple[int, ...]) -> tuple[int, ...]:
        """Most bound variables first, then the smallest relation."""
        masks = self._masks
        remaining = list(range(len(masks)))
        if not sizes:
            return tuple(remaining)  # fewer than two atoms
        order = []
        bound = 0
        while remaining:
            best = min(
                remaining,
                key=lambda i: (-(masks[i] & bound).bit_count(), sizes[i]),
            )
            remaining.remove(best)
            order.append(best)
            bound |= masks[best]
        return tuple(order)

    def _compile(self, order: tuple[int, ...]) -> "_Plan":
        layout: dict[int, int] = {}
        pending = list(self._filters)
        steps = []
        for atom_index in order:
            _, args = self.atoms[atom_index]
            key_positions: list[int] = []
            key_indices: list[int] = []
            constants: list[tuple[int, object]] = []
            repeats: list[tuple[int, int]] = []
            first: dict[int, int] = {}
            for position, arg in enumerate(args):
                if type(arg) is not int:
                    constants.append((position, arg.value))
                elif arg in layout:
                    key_positions.append(position)
                    key_indices.append(layout[arg])
                elif arg in first:
                    repeats.append((first[arg], position))
                else:
                    first[arg] = position
            for slot in first:
                layout[slot] = len(layout)
            ready = []
            if pending:
                ready = [
                    entry
                    for entry in pending
                    if all(type(a) is not int or a in layout for a in entry[1])
                ]
                pending = [entry for entry in pending if entry not in ready]
            steps.append(
                _Step(
                    atom_index,
                    len(args),
                    tuple(key_positions),
                    tuple(key_indices),
                    _fact_checks(constants, repeats),
                    tuple(first.values()),
                    tuple(
                        _filter(predicate, args, layout)
                        for predicate, args in ready
                    ),
                )
            )
        project = None
        if all([type(arg) is int and arg in layout for arg in self.head]):
            project = _projection([layout[arg] for arg in self.head])
        return _Plan(tuple(steps), layout, tuple(pending), project)


class _Plan:
    """The compiled steps of one join order."""

    __slots__ = ("steps", "layout", "unbound", "project")

    def __init__(
        self,
        steps: tuple[_Step, ...],
        layout: dict[int, int],
        unbound: tuple,
        project: Callable[[tuple], tuple] | None,
    ) -> None:
        self.steps = steps
        #: Slot -> position in a row, for every slot a step binds.
        self.layout = layout
        #: Comparisons over a slot no relational atom binds.
        self.unbound = unbound
        #: Row -> head tuple, when the head is bound slots only.
        self.project = project


def _projection(positions: list[int]) -> Callable[[tuple], tuple]:
    """A function taking a row to the tuple of its values at *positions*."""
    if len(positions) == 1:
        (position,) = positions
        return lambda row: (row[position],)
    if not positions:
        return lambda row: ()
    return operator.itemgetter(*positions)


def _fact_checks(
    constants: list[tuple[int, object]], repeats: list[tuple[int, int]]
) -> Callable[[tuple], bool] | None:
    """A test for a fact's constants and repeated variables, if any."""
    if not constants and not repeats:
        return None

    def checks(fact: tuple) -> bool:
        for position, value in constants:
            if fact[position] != value:
                return False
        for left, right in repeats:
            if fact[left] != fact[right]:
                return False
        return True

    return checks


def _filter(
    predicate: str, args: tuple[SlotArg, ...], layout: dict[int, int]
) -> Callable[[tuple], bool]:
    """A comparison over bound slots, as a test on partial rows."""
    compare = _COMPARATORS[predicate]
    left, right = (
        (True, layout[arg]) if type(arg) is int else (False, arg.value)
        for arg in args
    )

    def accept(row: tuple) -> bool:
        return compare(
            row[left[1]] if left[0] else left[1],
            row[right[1]] if right[0] else right[1],
        )

    return accept


__all__ = [
    "DefinitionKey",
    "IndexCache",
    "SlotForm",
    "evaluate",
    "evaluate_bindings",
]
