"""Property-based tests for the substrate extensions.

Covers the SQL round trip, the operator layer vs. the reference
evaluator, the inverse-rules soundness guarantee, and the IO simulator's
monotonicity in the buffer pool.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import certain_answers
from repro.cost import PhysicalPlan, execute_plan
from repro.cost.iomodel import IoParameters, simulate_plan_io
from repro.containment import is_equivalent_to
from repro.datalog import Atom, ConjunctiveQuery, Constant, Variable
from repro.datalog.atoms import COMPARISON_PREDICATES
from repro.datalog.sql import SqlSchema, parse_sql, to_sql
from repro.engine import (
    Database,
    Project,
    UnknownRelationError,
    build_left_deep_tree,
    evaluate,
)
from repro.engine.operators import NestedLoopJoin
from repro.views import ViewCatalog
from repro.workload import (
    WorkloadConfig,
    generate_workload,
    schema_of,
    uniform_database,
)

VARIABLES = [Variable(f"X{i}") for i in range(5)]
PREDICATES = [("e", 2), ("f", 2), ("g", 1)]
SQL_SCHEMA = SqlSchema({"e": ["a", "b"], "f": ["a", "b"], "g": ["a"]})

terms = st.one_of(
    st.sampled_from(VARIABLES), st.sampled_from([Constant("k"), Constant(3)])
)


@st.composite
def atoms(draw):
    predicate, arity = draw(st.sampled_from(PREDICATES))
    return Atom(predicate, tuple(draw(terms) for _ in range(arity)))


@st.composite
def queries(draw, min_body=1, max_body=3):
    body = tuple(draw(st.lists(atoms(), min_size=min_body, max_size=max_body)))
    body_vars = sorted(
        {v for atom in body for v in atom.variables()}, key=lambda v: v.name
    )
    keep = draw(st.integers(min_value=0, max_value=len(body_vars)))
    return ConjunctiveQuery(Atom("q", tuple(body_vars[:keep])), body)


@st.composite
def databases(draw, values=(0, 1, 2, "k", 3), missing=()):
    db = Database()
    for predicate, arity in PREDICATES:
        if predicate in missing:
            continue
        rows = draw(
            st.lists(
                st.tuples(*(st.sampled_from(values) for _ in range(arity))),
                max_size=8,
            )
        )
        relation = db.ensure_relation(predicate, arity)
        for row in rows:
            relation.add(row)
    return db


class TestSqlRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(queries())
    def test_to_sql_parse_sql_preserves_semantics(self, query):
        if query.arity == 0:
            # Boolean queries render as SELECT 1 (the EXISTS convention):
            # the round trip yields q(1), equivalent as a boolean test but
            # not as a CQ.  Checked separately below.
            return
        sql = to_sql(query, SQL_SCHEMA)
        reparsed = parse_sql(sql, SQL_SCHEMA, name=query.name)
        assert is_equivalent_to(reparsed, query)

    def test_boolean_query_renders_select_one(self):
        from repro.datalog import parse_query

        sql = to_sql(parse_query("q() :- e(X, X)"), SQL_SCHEMA)
        assert sql.startswith("SELECT DISTINCT 1 ")
        reparsed = parse_sql(sql, SQL_SCHEMA)
        assert reparsed.head.args == (Constant(1),)


class TestOperatorLayer:
    @settings(max_examples=60, deadline=None)
    @given(queries(), st.data())
    def test_left_deep_tree_matches_evaluator(self, query, data):
        """The operator layer is the join kernel's independent oracle,
        comparison filters (``Select``) and missing relations included."""
        # Order comparisons only over integer data: "k" < 3 raises, and
        # the two sides may meet such a pair at different join steps.
        integers = data.draw(st.booleans())
        missing = data.draw(
            st.lists(st.sampled_from([p for p, _ in PREDICATES]), max_size=1)
        )
        db = data.draw(
            databases(
                values=(0, 1, 2, 3) if integers else (0, 1, 2, "k", 3),
                missing=missing,
            )
        )
        operators = sorted(COMPARISON_PREDICATES) if integers else ["=", "!="]
        bound = sorted(query.body_variables(), key=lambda v: v.name)
        if bound:
            side = st.one_of(
                st.sampled_from(bound),
                st.sampled_from([Constant(1), Constant(2)]),
            )
            comparisons = data.draw(
                st.lists(
                    st.builds(
                        lambda op, left, right: Atom(op, (left, right)),
                        st.sampled_from(operators),
                        side,
                        side,
                    ),
                    max_size=2,
                )
            )
            query = query.with_body(query.body + tuple(comparisons))
        relations = query.predicates() - COMPARISON_PREDICATES
        if any(not db.has_relation(p) for p in relations):
            with pytest.raises(UnknownRelationError):
                build_left_deep_tree(query.body, db)
            assert evaluate(query, db) == frozenset()
            return
        head_vars = tuple(
            arg for arg in query.head.args if isinstance(arg, Variable)
        )
        tree = build_left_deep_tree(query.body, db)
        answer = set(Project(tree, head_vars).rows())
        expected = {
            tuple(
                row[i]
                for i, arg in enumerate(query.head.args)
                if isinstance(arg, Variable)
            )
            for row in evaluate(query, db)
        }
        assert answer == expected

    @settings(max_examples=25, deadline=None)
    @given(queries(max_body=2), databases())
    def test_join_algorithms_agree(self, query, db):
        hash_tree = build_left_deep_tree(query.body, db)
        loop_tree = build_left_deep_tree(query.body, db, NestedLoopJoin)
        assert set(hash_tree.rows()) == set(loop_tree.rows())


class TestInverseRulesSoundness:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_certain_answers_subset_of_actual(self, seed):
        workload = generate_workload(
            WorkloadConfig(
                shape="star",
                num_relations=7,
                query_subgoals=3,
                num_views=10,
                seed=seed,
                require_rewritable=False,
            )
        )
        from repro.engine import materialize_views

        schema = schema_of(workload.query, *workload.views.definitions())
        base = uniform_database(schema, 30, 5, random.Random(seed))
        view_db = materialize_views(workload.views, base)
        certain = certain_answers(workload.query, workload.views, view_db)
        assert certain <= evaluate(workload.query, base)


class TestIoSimulator:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=100))
    def test_more_memory_never_costs_more(self, memory, seed):
        rng = random.Random(seed)
        db = uniform_database({"v1": 2, "v2": 2}, 150, 9, rng)
        from repro.datalog import parse_query

        rewriting = parse_query("q(A, C) :- v1(A, B), v2(B, C)")
        execution = execute_plan(PhysicalPlan.from_rewriting(rewriting), db)
        small = simulate_plan_io(
            execution, IoParameters(tuples_per_page=20, memory_pages=memory)
        )
        big = simulate_plan_io(
            execution, IoParameters(tuples_per_page=20, memory_pages=memory * 4)
        )
        assert big.total <= small.total
