"""Catalog-resident view classes equal the per-call grouping, always.

A :class:`ViewCatalog` keeps the Section 5.2 view equivalence classes
that planning calls compute (:attr:`ViewCatalog.class_memo`), and later
calls answer by lookup.  The oracle is independent of that state: a
``caching=False`` context on a fresh catalog of the same views, which
classifies every view from scratch.  The laws:

* after any add/remove/replace sequence, with the memo partly or fully
  filled by earlier calls, the memo path yields the oracle's ordered
  class lists and bit-identical ordered ``plan()`` rewritings;
* the class lists are a correct partition on their own: members are
  equivalent to their representative, representatives are pairwise
  inequivalent;
* a call whose budget runs out mid-grouping leaves a memo that a later
  unbudgeted call completes to the oracle's answer;
* threads filling one catalog at once never split a class;
* the catalog's class table answers a query's relevant views exactly as
  a walk over them would: same ordered classes, same touched count,
  same ``view_class`` hits and misses, whether the memo starts empty,
  partly or fully filled, over any pair set, after any delta script,
  and across a budget that runs out mid-labelling.

Catalogs are seeded with renamed duplicates and redundant-atom
equivalents of their views, so nontrivial classes exist in every shape,
and with head-permuted copies, which share a signature bucket with
their originals without being equivalent to them.
"""

import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro import ResourceBudget, ViewCatalog
from repro.errors import BudgetExceededError
from repro.containment import is_equivalent_to
from repro.core import group_equivalent_views
from repro.datalog import Atom, Variable
from repro.datalog.query import ConjunctiveQuery
from repro.datalog.terms import is_variable
from repro.planner import PlannerContext, PlanStatus, plan
from repro.views import View
from repro.workload import WorkloadConfig, generate_workload

#: Shape -> base-relation pool size (small, so views overlap often).
SHAPES = {"star": 7, "chain": 10, "random": 8}


def _workload(shape, seed):
    return generate_workload(
        WorkloadConfig(
            shape=shape,
            num_relations=SHAPES[shape],
            query_subgoals=4,
            num_views=10,
            seed=seed,
            require_rewritable=False,
        )
    )


def _named(definition, name, suffix=""):
    """*definition* under view name *name*, variables suffixed."""

    def term(arg):
        return Variable(f"{arg.name}{suffix}") if is_variable(arg) else arg

    return View(
        ConjunctiveQuery(
            Atom(name, tuple(term(arg) for arg in definition.head.args)),
            tuple(
                Atom(atom.predicate, tuple(term(arg) for arg in atom.args))
                for atom in definition.body
            ),
        )
    )


def _padded(definition, name):
    """An equivalent view with one redundant atom.

    The extra atom copies the first body atom with one variable replaced
    by a fresh one, so mapping that variable back folds the copy onto
    its original.
    """
    atom = definition.body[0]
    position = next(
        (i for i, arg in enumerate(atom.args) if is_variable(arg)), None
    )
    if position is None:
        return _named(definition, name, "_r")
    args = list(atom.args)
    args[position] = Variable("Pad_")
    padded = ConjunctiveQuery(
        definition.head, definition.body + (Atom(atom.predicate, args),)
    )
    return _named(padded, name)


def _swapped(definition, name):
    """The view with its head reversed: same signature bucket, and
    inequivalent unless the definition is symmetric."""
    head = Atom(name, tuple(reversed(definition.head.args)))
    return View(ConjunctiveQuery(head, definition.body))


class _Scenario:
    """Queries plus a pool of candidate definitions for one shape/seed."""

    def __init__(self, shape, seed):
        first, second = _workload(shape, seed), _workload(shape, seed + 1)
        self.queries = (first.query, second.query)
        base = [view.definition for view in (*first.views, *second.views)]
        self.base = base
        self.candidates = list(base)
        for index, definition in enumerate(base):
            self.candidates.append(
                _named(definition, "x", f"_{index}").definition
            )
            self.candidates.append(_padded(definition, "x").definition)
            self.candidates.append(_swapped(definition, "x").definition)
        self._names = 0

    def fresh_name(self):
        self._names += 1
        return f"w{self._names}"

    def catalog(self, rng, size=12):
        catalog = ViewCatalog()
        for definition in rng.sample(self.candidates, size):
            catalog.add(_named(definition, self.fresh_name()))
        # At least one renamed duplicate and one padded equivalent of a
        # view already present.
        anchor = next(iter(catalog)).definition
        catalog.add(_named(anchor, self.fresh_name(), "_d"))
        catalog.add(_padded(anchor, self.fresh_name()))
        return catalog


def _touched(query, catalog):
    return catalog.relevant_views(PlannerContext().minimize(query))


def _names(classes):
    return [[view.name for view in members] for members in classes]


def _oracle_classes(views):
    return _names(
        group_equivalent_views(views, PlannerContext(caching=False))
    )


def _neutral(view):
    return ConjunctiveQuery(Atom("cmp", view.definition.head.args),
                            view.definition.body)


def _assert_partition(classes):
    representatives = [members[0] for members in classes]
    for members in classes:
        for member in members[1:]:
            assert is_equivalent_to(_neutral(member), _neutral(members[0]))
    for i, left in enumerate(representatives):
        for right in representatives[i + 1:]:
            assert not is_equivalent_to(_neutral(left), _neutral(right))


def _assert_matches_oracle(catalog, query):
    fresh = ViewCatalog(list(catalog))
    # The grouping stage on its own: the query's relevant views, then
    # the whole catalog (the ``prune_views=False`` input).
    for views, oracle_views in (
        (_touched(query, catalog), _touched(query, fresh)),
        (list(catalog), list(fresh)),
    ):
        classes = group_equivalent_views(
            views, PlannerContext(), catalog.class_memo
        )
        assert _names(classes) == _oracle_classes(oracle_views)
        _assert_partition(classes)
    memo_path = plan(query, catalog, context=PlannerContext())
    oracle = plan(query, fresh, context=PlannerContext(caching=False))
    assert memo_path.rewritings == oracle.rewritings
    assert [str(r) for r in memo_path.rewritings] == [
        str(r) for r in oracle.rewritings
    ]
    assert (
        memo_path.details.stats.view_classes
        == oracle.details.stats.view_classes
    )


def _replace_early_slot(catalog, query):
    """Replace the first-registered view with a renamed copy of a later
    view's definition, after the memo has classified that later view.

    The first view keeps its early registration slot, so it must become
    the representative of a class whose members were registered later.
    """
    plan(query, catalog, context=PlannerContext())  # fill the memo
    first = catalog.names()[0]
    later = [view for view in _touched(query, catalog) if view.name != first]
    if not later:
        return
    target = later[-1]
    catalog.replace_view(_named(target.definition, first, "_e"))
    classes = _names(
        group_equivalent_views(
            _touched(query, catalog), PlannerContext(), catalog.class_memo
        )
    )
    assert any(
        members[0] == first and target.name in members for members in classes
    )


operations = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove", "replace", "plan"]),
        st.integers(min_value=0, max_value=2**32 - 1),
    ),
    min_size=2,
    max_size=10,
)


class TestMemoPathEqualsOracle:
    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(sorted(SHAPES)),
        st.integers(min_value=0, max_value=5_000),
        operations,
    )
    def test_mutation_sequences(self, shape, seed, script):
        scenario = _Scenario(shape, seed)
        rng = random.Random(seed)
        catalog = scenario.catalog(rng)
        query = scenario.queries[0]
        _assert_matches_oracle(catalog, query)
        _replace_early_slot(catalog, query)
        _assert_matches_oracle(catalog, query)
        for action, choice in script:
            pick = random.Random(choice)
            if action == "add":
                catalog.add(
                    _named(
                        pick.choice(scenario.candidates),
                        scenario.fresh_name(),
                    )
                )
            elif action == "remove" and len(catalog) > 1:
                catalog.remove_view(pick.choice(catalog.names()))
            elif action == "replace":
                catalog.replace_view(
                    _named(
                        pick.choice(scenario.candidates),
                        pick.choice(catalog.names()),
                    )
                )
            _assert_matches_oracle(catalog, pick.choice(scenario.queries))
        # A memo the catalog pruned per delta never holds a departed name.
        assert set(catalog.class_memo._labels) <= set(catalog.names())

    @settings(max_examples=15, deadline=None)
    @given(
        st.sampled_from(sorted(SHAPES)),
        st.integers(min_value=0, max_value=5_000),
    )
    def test_second_call_is_all_lookups(self, shape, seed):
        scenario = _Scenario(shape, seed)
        catalog = scenario.catalog(random.Random(seed))
        query = scenario.queries[0]
        first = plan(query, catalog, context=PlannerContext())
        second = plan(query, catalog, context=PlannerContext())
        touched = len(_touched(query, catalog))
        assert first.stats.cache_counts("view_class") == (0, touched)
        assert second.stats.cache_counts("view_class") == (touched, 0)
        assert second.rewritings == first.rewritings


class TestBudgetExhaustedMidGrouping:
    @settings(max_examples=15, deadline=None)
    @given(
        st.sampled_from(sorted(SHAPES)),
        st.integers(min_value=0, max_value=5_000),
    )
    def test_later_unbudgeted_call_matches_oracle(self, shape, seed):
        scenario = _Scenario(shape, seed)
        catalog = scenario.catalog(random.Random(seed))
        query = scenario.queries[0]
        touched = {view.name for view in _touched(query, catalog)}
        partial = False
        # Raise the search budget one step at a time: each call stops a
        # little further in, the memo keeping whatever grouping finished.
        for limit in range(1, 10_000):
            result = plan(
                query,
                catalog,
                context=PlannerContext(),
                budget=ResourceBudget(max_hom_searches=limit),
            )
            if result.outcome.status is PlanStatus.COMPLETE:
                break
            assert result.outcome.status is PlanStatus.BUDGET_EXHAUSTED
            labelled = touched & set(catalog.class_memo._labels)
            partial = partial or 0 < len(labelled) < len(touched)
        # Grouping a query that touches at most one view has no part-way
        # point (labelled is either empty or everything): the budget
        # loop and the oracle comparison still run for it.
        if len(touched) >= 2:
            assert partial, "no budget stopped grouping part-way"
        _assert_matches_oracle(catalog, query)


class _YieldingContext(PlannerContext):
    """Equivalence tests that release the GIL before answering, so two
    threads classifying at once interleave their scans of one bucket."""

    def is_equivalent_to(self, left, right):
        time.sleep(0.0005)
        return super().is_equivalent_to(left, right)


#: Filling threads: more than a small machine's cores, so they preempt
#: one another mid-classification.
FILLERS = 4


class TestConcurrentFill:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("seed", [3, 17])
    def test_threads_filling_one_catalog(self, shape, seed):
        scenario = _Scenario(shape, seed)
        base = scenario.base[:12]
        catalog = ViewCatalog()
        swapped = [catalog.add(_swapped(d, scenario.fresh_name())) for d in base]
        orders = [
            [
                catalog.add(_named(d, scenario.fresh_name(), f"_t{slot}"))
                for d in base
            ]
            for slot in range(FILLERS)
        ]
        # Head-permuted views anchor the signature buckets first, so every
        # later classification runs equivalence tests before it can open
        # a class.  Each thread then classifies its own renamed copy of
        # the same definitions, all in step.
        group_equivalent_views(swapped, PlannerContext(), catalog.class_memo)
        barrier = threading.Barrier(FILLERS)
        found = [None] * FILLERS

        def fill(slot):
            barrier.wait()
            found[slot] = _names(
                group_equivalent_views(
                    orders[slot], _YieldingContext(), catalog.class_memo
                )
            )

        threads = [
            threading.Thread(target=fill, args=(slot,))
            for slot in range(FILLERS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert found == [_oracle_classes(views) for views in orders]
        for query in scenario.queries:
            _assert_matches_oracle(catalog, query)

    def test_one_thread_classifies_at_a_time(self):
        """While one call classifies, another call on the same catalog
        waits: it minimizes nothing until the first call is done."""
        catalog = ViewCatalog(["v1(A) :- e(A, B)", "v2(X) :- e(X, Y)"])
        first, second = catalog
        inside, release = threading.Event(), threading.Event()
        minimized = []

        class Blocking(PlannerContext):
            def minimize(self, query):
                inside.set()
                assert release.wait(10)
                return super().minimize(query)

        class Recording(PlannerContext):
            def minimize(self, query):
                minimized.append(query)
                return super().minimize(query)

        found = {}

        def fill(name, views, context):
            found[name] = _names(
                group_equivalent_views(views, context, catalog.class_memo)
            )

        holder = threading.Thread(
            target=fill, args=("holder", [first], Blocking())
        )
        waiter = threading.Thread(
            target=fill, args=("waiter", [first, second], Recording())
        )
        holder.start()
        assert inside.wait(10)
        waiter.start()
        waiter.join(0.2)
        assert waiter.is_alive() and not minimized
        release.set()
        holder.join(10)
        waiter.join(10)
        assert not holder.is_alive() and not waiter.is_alive()
        # The waiter found v1 labelled and classified only v2, into v1's
        # class.
        assert len(minimized) == 1
        assert found == {"holder": [["v1"]], "waiter": [["v1", "v2"]]}


def _pair_query(pairs):
    """A boolean query whose relational atoms carry exactly *pairs*."""
    return ConjunctiveQuery(
        Atom("q", ()),
        tuple(
            Atom(predicate, tuple(Variable(f"X{i}_{j}") for j in range(arity)))
            for i, (predicate, arity) in enumerate(sorted(pairs))
        ),
    )


def _random_pairs(rng, catalog):
    """Pairs the catalog's views mention, sometimes none, sometimes with
    an arity or a predicate no view has."""
    mentioned = sorted(catalog.indexed_predicates())
    pairs = set(rng.sample(mentioned, rng.randint(0, min(3, len(mentioned)))))
    if mentioned and rng.random() < 0.3:
        predicate, arity = rng.choice(mentioned)
        pairs.add((predicate, arity + 1))
    if rng.random() < 0.3:
        pairs.add(("unmentioned", 2))
    return frozenset(pairs)


def _labelled(catalog, views):
    labels = catalog.class_memo._labels
    return {
        view.name
        for view in views
        if labels.get(view.name, (None,))[0] is view
    }


def _assert_table_read(catalog, query):
    """The table's answer and counts equal a walk over the relevant
    views: classes from a ``caching=False`` oracle, hits for the views
    labelled before the call, misses for the rest."""
    relevant = catalog.relevant_views(query)
    before = _labelled(catalog, relevant)
    context = PlannerContext()
    classes = group_equivalent_views(
        catalog, context, catalog.class_memo, relevant_to=query
    )
    assert _names(classes) == _oracle_classes(relevant)
    assert sum(map(len, classes)) == len(relevant)
    counter = context.counters["view_class"]
    assert (counter.hits, counter.misses) == (
        len(before), len(relevant) - len(before)
    )
    assert _labelled(catalog, relevant) == {view.name for view in relevant}


def _budgeted_read(catalog, query, limit):
    """A table read under a hom-search budget.  If the budget runs out,
    the counts are what a walk in registration order had reached: the
    views labelled before the call that precede the view it stopped
    at, and a miss for each view it classified plus that one."""
    relevant = catalog.relevant_views(query)
    before = _labelled(catalog, relevant)
    context = PlannerContext()
    try:
        with context.budgeted(ResourceBudget(max_hom_searches=limit)):
            group_equivalent_views(
                catalog, context, catalog.class_memo, relevant_to=query
            )
    except BudgetExceededError:
        after = _labelled(catalog, relevant)
        stop = next(
            index
            for index, view in enumerate(relevant)
            if view.name not in after
        )
        hits = sum(1 for view in relevant[:stop] if view.name in before)
        counter = context.counters["view_class"]
        assert (counter.hits, counter.misses) == (
            hits, len(after - before) + 1
        )
        return True
    return False


class TestClassTableEqualsWalk:
    @pytest.mark.parametrize("fill", ["empty", "partly", "fully"])
    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from(sorted(SHAPES)),
        st.integers(min_value=0, max_value=5_000),
        operations,
    )
    def test_random_pairs_and_scripts(self, fill, shape, seed, script):
        scenario = _Scenario(shape, seed)
        rng = random.Random(seed)
        catalog = scenario.catalog(rng)
        # A view with no relational atom: every query keeps it.
        catalog.add(ConjunctiveQuery(Atom(scenario.fresh_name(), ()), ()))
        if fill == "partly":
            views = list(catalog)
            group_equivalent_views(
                rng.sample(views, len(views) // 2),
                PlannerContext(),
                catalog.class_memo,
            )
        elif fill == "fully":
            group_equivalent_views(
                list(catalog), PlannerContext(), catalog.class_memo
            )
        _assert_table_read(catalog, _pair_query(frozenset()))
        for action, choice in script:
            pick = random.Random(choice)
            if action == "add":
                catalog.add(
                    _named(
                        pick.choice(scenario.candidates),
                        scenario.fresh_name(),
                    )
                )
            elif action == "remove" and len(catalog) > 1:
                catalog.remove_view(pick.choice(catalog.names()))
            elif action == "replace":
                catalog.replace_view(
                    _named(
                        pick.choice(scenario.candidates),
                        pick.choice(catalog.names()),
                    )
                )
            query = _pair_query(_random_pairs(pick, catalog))
            if pick.random() < 0.3:
                _budgeted_read(catalog, query, pick.randint(1, 12))
            _assert_table_read(catalog, query)
            _assert_table_read(catalog, pick.choice(scenario.queries))

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_budget_runs_out_mid_labelling(self, shape):
        scenario = _Scenario(shape, 11)
        catalog = scenario.catalog(random.Random(11))
        query = scenario.queries[0]
        relevant = catalog.relevant_views(query)
        # Raise the budget one search at a time until a read stops with
        # some, not all, relevant views labelled; then read unbudgeted.
        for limit in range(1, 10_000):
            assert _budgeted_read(catalog, query, limit)
            if 0 < len(_labelled(catalog, relevant)) < len(relevant):
                break
        _assert_table_read(catalog, query)
