"""Property-based tests (hypothesis) for the core invariants.

These tie the symbolic layer (Chandra-Merlin containment, minimization,
CoreCover) to the semantic layer (the relational engine): containment
proofs must agree with actual query answers on random databases, and
every rewriting CoreCover emits must be a genuine equivalent rewriting.
"""

import itertools
import random

from hypothesis import given, settings, strategies as st

from repro.containment import (
    canonical_database,
    is_contained_in,
    is_equivalent_to,
    is_minimal,
    minimize,
    thaw_atom,
)
from repro.core import core_cover, tuple_core, tuple_cores, view_tuples
from repro.core.set_cover import irredundant_covers, minimum_covers
from repro.datalog import (
    Atom,
    ConjunctiveQuery,
    Constant,
    Substitution,
    Variable,
    parse_query,
)
from repro.datalog.terms import FreshVariableFactory
from repro.engine import Database, evaluate
from repro.planner import PlannerContext
from repro.views import ViewCatalog, is_equivalent_rewriting
from repro.workload import WorkloadConfig, generate_workload

VARIABLES = [Variable(f"X{i}") for i in range(5)]
CONSTANTS = [Constant("a"), Constant("b")]
PREDICATES = [("e", 2), ("f", 2), ("g", 1)]

terms = st.one_of(st.sampled_from(VARIABLES), st.sampled_from(CONSTANTS))


@st.composite
def atoms(draw):
    predicate, arity = draw(st.sampled_from(PREDICATES))
    return Atom(predicate, tuple(draw(terms) for _ in range(arity)))


@st.composite
def queries(draw):
    body = tuple(draw(st.lists(atoms(), min_size=1, max_size=4)))
    body_vars = sorted(
        {v for atom in body for v in atom.variables()}, key=lambda v: v.name
    )
    head_vars = draw(st.permutations(body_vars)) if body_vars else []
    keep = draw(st.integers(min_value=0, max_value=len(head_vars)))
    return ConjunctiveQuery(Atom("q", tuple(head_vars[:keep])), body)


@st.composite
def databases(draw):
    db = Database()
    values = list(range(4))
    for predicate, arity in PREDICATES:
        rows = draw(
            st.lists(
                st.tuples(*(st.sampled_from(values) for _ in range(arity))),
                max_size=8,
            )
        )
        relation = db.ensure_relation(predicate, arity)
        for row in rows:
            relation.add(row)
    # Constants "a"/"b" may appear in queries; give them interpretations.
    db.relation("e").add(("a", "b"))
    db.relation("g").add(("a",))
    return db


class TestContainmentSemantics:
    @settings(max_examples=40, deadline=None)
    @given(queries())
    def test_containment_is_reflexive(self, q):
        assert is_contained_in(q, q)

    @settings(max_examples=40, deadline=None)
    @given(queries(), st.integers(min_value=0, max_value=3))
    def test_dropping_an_atom_generalizes(self, q, index):
        if len(q.body) < 2:
            return
        index %= len(q.body)
        candidate = q.without_atom(index)
        if not candidate.is_safe():
            return
        assert is_contained_in(q, candidate)

    @settings(max_examples=30, deadline=None)
    @given(queries(), queries(), databases())
    def test_containment_implies_answer_subset(self, q1, q2, db):
        """Symbolic containment must agree with the engine's semantics."""
        if q1.arity != q2.arity:
            return
        q2 = ConjunctiveQuery(Atom("q", q2.head.args), q2.body)
        if is_contained_in(q1, q2):
            assert evaluate(q1, db) <= evaluate(q2, db)

    @settings(max_examples=30, deadline=None)
    @given(queries(), databases())
    def test_equivalence_implies_equal_answers(self, q, db):
        m = minimize(q)
        assert evaluate(q, db) == evaluate(m, db)


class TestMinimization:
    @settings(max_examples=40, deadline=None)
    @given(queries())
    def test_minimize_preserves_equivalence(self, q):
        m = minimize(q)
        assert is_equivalent_to(m, q)

    @settings(max_examples=40, deadline=None)
    @given(queries())
    def test_minimize_result_is_minimal(self, q):
        assert is_minimal(minimize(q))

    @settings(max_examples=40, deadline=None)
    @given(queries())
    def test_minimize_idempotent(self, q):
        m = minimize(q)
        assert minimize(m) == m

    @settings(max_examples=40, deadline=None)
    @given(queries())
    def test_minimize_never_grows(self, q):
        assert len(minimize(q).body) <= len(q.dedup_body().body)


class TestCanonicalDatabase:
    @settings(max_examples=40, deadline=None)
    @given(queries())
    def test_freeze_thaw_round_trip(self, q):
        cdb = canonical_database(q)
        assert tuple(thaw_atom(f) for f in cdb.facts) == q.body

    @settings(max_examples=40, deadline=None)
    @given(queries())
    def test_query_satisfied_by_own_canonical_database(self, q):
        cdb = canonical_database(q)
        db = Database.from_facts(cdb.facts)
        frozen_head_tuple = tuple(
            arg.value for arg in cdb.frozen_head.args
        )
        assert frozen_head_tuple in evaluate(q, db)


class TestSubstitutions:
    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(st.sampled_from(VARIABLES), terms, max_size=4),
        st.dictionaries(st.sampled_from(VARIABLES), terms, max_size=4),
        terms,
    )
    def test_compose_agrees_with_sequential_application(self, m1, m2, t):
        s1, s2 = Substitution(m1), Substitution(m2)
        composed = s1.compose(s2)
        assert composed.apply_term(t) == s2.apply_term(s1.apply_term(t))


class TestSetCover:
    subsets = st.lists(
        st.frozensets(st.integers(min_value=0, max_value=5), max_size=4),
        min_size=1,
        max_size=7,
    )

    @settings(max_examples=60, deadline=None)
    @given(subsets)
    def test_minimum_covers_are_valid_and_tied(self, sets):
        universe = frozenset(range(4))
        covers = minimum_covers(universe, sets)
        sizes = {len(c) for c in covers}
        assert len(sizes) <= 1
        for cover in covers:
            covered = frozenset().union(*(sets[i] for i in cover)) if cover else frozenset()
            assert universe <= covered

    @settings(max_examples=60, deadline=None)
    @given(subsets)
    def test_irredundant_covers_are_irredundant(self, sets):
        universe = frozenset(range(3))
        for cover in irredundant_covers(universe, sets):
            for drop in cover:
                remaining = [i for i in cover if i != drop]
                covered = (
                    frozenset().union(*(sets[i] for i in remaining))
                    if remaining
                    else frozenset()
                )
                assert not universe <= covered

    @settings(max_examples=60, deadline=None)
    @given(subsets)
    def test_minimum_covers_subset_of_irredundant(self, sets):
        universe = frozenset(range(3))
        minimum = set(minimum_covers(universe, sets))
        irredundant = set(irredundant_covers(universe, sets))
        assert minimum <= irredundant

    @settings(max_examples=80, deadline=None)
    @given(subsets, st.permutations(range(4)))
    def test_covers_equal_brute_force_enumeration(self, sets, pivot_order):
        """Both enumerations list exactly the covers found by trying
        every index subset, whatever the pivot order."""
        universe = frozenset(range(4))

        def covers(chosen):
            return universe <= frozenset().union(*(sets[i] for i in chosen))

        every_cover = [
            chosen
            for size in range(len(sets) + 1)
            for chosen in itertools.combinations(range(len(sets)), size)
            if covers(chosen)
        ]
        smallest = min((len(c) for c in every_cover), default=None)
        minimum = [c for c in every_cover if len(c) == smallest]
        irredundant = [
            c
            for c in every_cover
            if not any(covers(c[:i] + c[i + 1:]) for i in range(len(c)))
        ]
        for order in (None, pivot_order):
            assert minimum_covers(universe, sets, pivot_order=order) == sorted(
                minimum
            )
            assert irredundant_covers(
                universe, sets, pivot_order=order
            ) == sorted(irredundant)

    @settings(max_examples=80, deadline=None)
    @given(subsets, st.integers(min_value=1, max_value=6))
    def test_capped_irredundant_covers_are_the_first_discovered(
        self, sets, cap
    ):
        """``on_cover`` reports each cover once, in the order plain pivot
        branching first reaches it, and a cap keeps the first reported."""
        universe = frozenset(range(4))

        def covers(chosen):
            return universe <= frozenset().union(*(sets[i] for i in chosen))

        # Reference: branch on the least uncovered element over every
        # set holding it, in index order, and skip covers already seen.
        reference: list[tuple[int, ...]] = []

        def branch(uncovered, chosen):
            if not uncovered:
                cover = tuple(sorted(chosen))
                redundant = any(
                    covers(cover[:i] + cover[i + 1:]) for i in range(len(cover))
                )
                if not redundant and cover not in reference:
                    reference.append(cover)
                return
            pivot = min(uncovered)
            for index, members in enumerate(sets):
                if pivot in members and index not in chosen:
                    branch(uncovered - members, chosen + (index,))

        branch(universe, ())
        discovered: list[tuple[int, ...]] = []
        irredundant_covers(universe, sets, on_cover=discovered.append)
        assert discovered == reference
        assert irredundant_covers(universe, sets, cap) == sorted(
            discovered[:cap]
        )


class TestCoreCoverSoundness:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_every_gmr_is_an_equivalent_rewriting(self, seed):
        config = WorkloadConfig(
            shape="star",
            num_relations=7,
            query_subgoals=4,
            num_views=15,
            seed=seed,
            require_rewritable=False,
        )
        workload = generate_workload(config)
        result = core_cover(workload.query, workload.views)
        for rewriting in result.rewritings:
            assert is_equivalent_rewriting(
                rewriting, workload.query, workload.views
            ), str(rewriting)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_gmr_sizes_are_minimum_over_view_tuple_space(self, seed):
        from repro.core import naive_gmr_search

        config = WorkloadConfig(
            shape="chain",
            num_relations=10,
            query_subgoals=3,
            num_views=8,
            seed=seed,
            require_rewritable=False,
        )
        workload = generate_workload(config)
        clever = core_cover(workload.query, workload.views)
        naive = naive_gmr_search(workload.query, workload.views)
        if naive:
            assert clever.has_rewriting
            assert clever.minimum_subgoals() == min(len(r.body) for r in naive)
        else:
            assert not clever.has_rewriting


def _without(query, variable, image):
    """*query* with *variable* replaced by *image* and left out of the head."""
    body = query.apply(Substitution({variable: image})).body
    head = Atom(
        query.head.predicate,
        tuple(arg for arg in query.head.args if arg != variable),
    )
    return ConjunctiveQuery(head, body)


@st.composite
def core_cases(draw):
    """A generated workload with the cases a tuple-core must survive.

    The query is not minimized: it repeats a subgoal and may hold a
    constant or a comparison.  The catalog gains variants of its views
    with a constant, a repeated variable, a duplicate body atom or a
    comparison atom, and the query's own body as a view.
    """
    workload = generate_workload(
        WorkloadConfig(
            shape=draw(st.sampled_from(["star", "chain", "random"])),
            num_relations=6,
            query_subgoals=4,
            num_views=8,
            nondistinguished=draw(st.integers(min_value=0, max_value=1)),
            seed=draw(st.integers(min_value=0, max_value=10_000)),
            require_rewritable=False,
        )
    )
    query = workload.query
    if draw(st.booleans()):
        variables = sorted(query.variables(), key=lambda v: v.name)
        query = _without(query, draw(st.sampled_from(variables)), Constant("a"))
    repeated = draw(st.integers(min_value=0, max_value=len(query.body) - 1))
    query = query.with_body(query.body + (query.body[repeated],))
    variables = sorted(query.variables(), key=lambda v: v.name)
    if draw(st.booleans()):
        pair = (draw(st.sampled_from(variables)), draw(st.sampled_from(variables)))
        query = query.with_body(query.body + (Atom("!=", pair),))
    views = list(workload.views)
    variants = [ConjunctiveQuery(Atom("own", tuple(variables)), query.body)]
    for number, view in enumerate(draw(st.lists(st.sampled_from(views), max_size=6))):
        definition = view.definition
        variables = sorted(definition.variables(), key=lambda v: v.name)
        first = draw(st.sampled_from(variables))
        second = draw(st.sampled_from(variables))
        kind = draw(
            st.sampled_from(["constant", "repeat", "duplicate", "comparison"])
        )
        if kind == "constant":
            definition = _without(definition, first, Constant("a"))
        elif kind == "repeat" and first != second:
            definition = _without(definition, second, first)
        elif kind == "duplicate":
            definition = definition.with_body(
                definition.body + (definition.body[0],)
            )
        else:
            comparison = draw(st.sampled_from(["=", "!="]))
            definition = definition.with_body(
                definition.body + (Atom(comparison, (first, second)),)
            )
        head = Atom(f"x{number}", definition.head.args)
        variants.append(ConjunctiveQuery(head, definition.body))
    return query, ViewCatalog(views + variants)


def _assert_searched_cores(query, tuples, cores):
    """Each core is ``_CoreSearch``'s on the bare view tuple, and a
    maximum one among ``enumerate_consistent_cores``' maximal sets."""
    from repro.core import ViewTuple, enumerate_consistent_cores
    from repro.core.tuple_core import _CoreSearch

    assert len(cores) == len(tuples)
    for view_tuple, core in zip(tuples, cores):
        bare = ViewTuple(view_tuple.view, view_tuple.atom)
        searched = _CoreSearch(query, bare).run()
        assert core.covered == searched.covered, str(view_tuple)
        assert core.mapping == searched.mapping, str(view_tuple)
        maximal = enumerate_consistent_cores(query, bare)
        assert core.covered in maximal, (str(view_tuple), maximal)
        assert len(core.covered) == max(map(len, maximal))


class TestTupleCoreInvariants:
    @settings(max_examples=30, deadline=None)
    @given(core_cases())
    def test_cores_read_off_the_join_equal_the_search(self, case):
        """The view-tuple join reads the cores of views without
        existential variables; each must be the search's.  CoreCover
        rejects comparison atoms, so it runs on the other views."""
        query, catalog = case
        plain = ViewCatalog(
            view
            for view in catalog
            if not any(atom.is_comparison for atom in view.definition.body)
        )
        relational = query.with_body(
            atom for atom in query.body if not atom.is_comparison
        )
        for caching in (True, False):
            context = PlannerContext(caching=caching)
            tuples = view_tuples(query, catalog, context=context)
            cores = tuple_cores(
                query, tuples, context=context, forms=catalog.view_forms
            )
            _assert_searched_cores(query, tuples, cores)
            result = core_cover(
                relational, plain, context=PlannerContext(caching=caching)
            )
            _assert_searched_cores(
                result.minimized_query, result.view_tuples, result.cores
            )

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_closure_property_holds(self, seed):
        """Property (3): existentially-mapped variables are fully covered."""
        config = WorkloadConfig(
            shape="star",
            num_relations=7,
            query_subgoals=4,
            num_views=12,
            nondistinguished=1,
            seed=seed,
            require_rewritable=False,
        )
        workload = generate_workload(config)
        minimized = minimize(workload.query)
        for vt in view_tuples(minimized, workload.views):
            core = tuple_core(minimized, vt)
            for variable in core.mapping:
                using = {
                    i
                    for i, atom in enumerate(minimized.body)
                    if variable in atom.variable_set()
                }
                assert using <= core.covered

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_mapping_images_are_injective(self, seed):
        config = WorkloadConfig(
            shape="chain",
            num_relations=10,
            query_subgoals=4,
            num_views=10,
            nondistinguished=1,
            seed=seed,
            require_rewritable=False,
        )
        workload = generate_workload(config)
        minimized = minimize(workload.query)
        for vt in view_tuples(minimized, workload.views):
            core = tuple_core(minimized, vt)
            images = list(core.mapping.values())
            assert len(images) == len(set(images))


class TestLemma42Uniqueness:
    """Lemma 4.2: the maximal consistent covered set is unique."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_unique_maximal_core_on_random_workloads(self, seed):
        from repro.core import enumerate_consistent_cores

        config = WorkloadConfig(
            shape="star",
            num_relations=6,
            query_subgoals=4,
            num_views=10,
            nondistinguished=1,
            seed=seed,
            require_rewritable=False,
        )
        workload = generate_workload(config)
        minimized = minimize(workload.query)
        tuples = view_tuples(minimized, workload.views)
        for vt in tuples:
            maximal = enumerate_consistent_cores(minimized, vt)
            assert len(maximal) <= 1, (str(vt), maximal)
            core = tuple_core(minimized, vt)
            if maximal:
                assert core.covered == maximal[0]
            else:
                assert core.is_empty
        _assert_shared_frame_cores_agree(minimized, tuples)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_unique_maximal_core_on_chains(self, seed):
        from repro.core import enumerate_consistent_cores

        config = WorkloadConfig(
            shape="chain",
            num_relations=8,
            query_subgoals=4,
            num_views=10,
            nondistinguished=1,
            seed=seed,
            require_rewritable=False,
        )
        workload = generate_workload(config)
        minimized = minimize(workload.query)
        tuples = view_tuples(minimized, workload.views)
        for vt in tuples:
            maximal = enumerate_consistent_cores(minimized, vt)
            assert len(maximal) <= 1, (str(vt), maximal)
        _assert_shared_frame_cores_agree(minimized, tuples)


def _definition_41_mapping(query, covered, targets):
    """The mapping sending each subgoal in *covered* onto its target
    atom, position by position; ``None`` when no mapping does."""
    mapping = {}
    for index, target in zip(covered, targets):
        atom = query.body[index]
        if atom.predicate != target.predicate or atom.arity != target.arity:
            return None
        for arg, image in zip(atom.args, target.args):
            if isinstance(arg, Constant):
                if arg != image:
                    return None
            elif mapping.setdefault(arg, image) != image:
                return None
    return mapping


def _satisfies_definition_41(query, covered, mapping, tuple_args, fresh):
    """Properties (1)-(3) of Definition 4.1 for ``mapping: G -> t_v^exp``.

    Read as :mod:`repro.core.tuple_core` states them: a variable maps to
    itself (exactly when it is a view-tuple argument) or, one-to-one, to
    a fresh existential variable of the expansion.
    """
    images = list(mapping.values())
    if len(images) != len(set(images)):
        return False  # (1) one-to-one
    distinguished = query.distinguished_variables()
    for variable, image in mapping.items():
        if variable in tuple_args and image != variable:
            return False  # (1) identity on the view tuple's arguments
        if image != variable and image not in fresh:
            return False  # onto another query term or a view constant
        if variable in distinguished and image != variable:
            return False  # (2)
        if image in fresh:
            using = {
                i
                for i, atom in enumerate(query.body)
                if variable in atom.variable_set()
            }
            if not using <= set(covered):
                return False  # (3) closure
    return True


def _definition_41_covered_sets(query, view_tuple):
    """Every covered set with a mapping satisfying Definition 4.1.

    Brute force, independent of the tuple-core search: the expansion is
    built here, then every subset of query subgoals is tried with every
    assignment of its subgoals to expansion atoms.
    """
    view = view_tuple.view
    images = dict(zip(view.head_variables, view_tuple.atom.args))
    fresh = {v: Variable(f"{v.name}#") for v in view.existential_variables()}
    images.update(fresh)
    expansion = [
        Atom(atom.predicate, tuple(images.get(arg, arg) for arg in atom.args))
        for atom in view.definition.body
    ]
    tuple_args = frozenset(view_tuple.atom.args)
    found = set()
    n = len(query.body)
    for size in range(n + 1):
        for covered in itertools.combinations(range(n), size):
            for targets in itertools.product(expansion, repeat=size):
                mapping = _definition_41_mapping(query, covered, targets)
                if mapping is not None and _satisfies_definition_41(
                    query, covered, mapping, tuple_args, set(fresh.values())
                ):
                    found.add(frozenset(covered))
                    break
    return found


#: Few predicates and mostly variables, so subgoals often have several
#: candidate expansion atoms and views often have existential variables.
CORE_TERMS = st.sampled_from(VARIABLES[:4] * 3 + CONSTANTS[:1])


@st.composite
def core_rules(draw, name, max_body):
    body = tuple(
        Atom(predicate, tuple(draw(CORE_TERMS) for _ in range(arity)))
        for predicate, arity in draw(
            st.lists(
                st.sampled_from(PREDICATES[:2] * 3 + PREDICATES[2:]),
                min_size=1,
                max_size=max_body,
            )
        )
    )
    body_vars = sorted(
        {v for atom in body for v in atom.variables()}, key=lambda v: v.name
    )
    head = draw(st.lists(st.sampled_from(body_vars), unique=True)) if body_vars else []
    return ConjunctiveQuery(Atom(name, tuple(head)), body)


@st.composite
def core_inputs(draw):
    query = draw(core_rules("q", 4))
    count = draw(st.integers(min_value=1, max_value=4))
    views = ViewCatalog(draw(core_rules(f"v{i}", 3)) for i in range(count))
    return query, views


class TestDefinition41Oracle:
    """The tuple-core equals the unique maximal covered set found by
    brute force over Definition 4.1, and its mapping satisfies (1)-(3).

    Views draw existential variables and constants.  The oracle never
    reads the search's candidate lists, so a candidate the search drops
    or invents shows up here.
    """

    @settings(max_examples=200, deadline=None)
    @given(core_inputs())
    def test_core_is_the_brute_force_maximum(self, drawn):
        query, catalog = drawn
        minimized = minimize(query)
        factory_names = [v.name for v in minimized.variables()]
        for vt in view_tuples(minimized, catalog):
            found = _definition_41_covered_sets(minimized, vt)
            maximal = [g for g in found if not any(g < h for h in found)]
            assert len(maximal) == 1, (str(vt), maximal)  # Lemma 4.2
            core = tuple_core(minimized, vt)
            assert core.covered == maximal[0], str(vt)
            covered = sorted(core.covered)
            variables = {
                v for i in covered for v in minimized.body[i].variables()
            }
            mapping = {v: core.mapping.get(v, v) for v in variables}
            expansion, fresh = vt.expansion(
                FreshVariableFactory(factory_names)
            )
            assert _satisfies_definition_41(
                minimized, covered, mapping, frozenset(vt.atom.args), fresh
            ), str(vt)
            for i in covered:
                image = Substitution(mapping).apply_atom(minimized.body[i])
                assert image in expansion, (str(vt), str(image))


def _assert_shared_frame_cores_agree(minimized, tuples):
    """``tuple_cores`` on a context shares one query frame across its
    searches; each core must equal a standalone ``tuple_core`` search."""
    shared = tuple_cores(minimized, tuples, context=PlannerContext())
    assert len(shared) == len(tuples)
    for vt, core in zip(tuples, shared):
        alone = tuple_core(minimized, vt)
        assert core.view_tuple == vt
        assert core.covered == alone.covered, str(vt)
        assert core.mapping == alone.mapping, str(vt)
