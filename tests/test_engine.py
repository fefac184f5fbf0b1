"""The memoizing query engine: differential tests against both
reference evaluators, CSE/caching behavior, plan observability, the
size rule that orders joins, and regression tests for the evaluator
bugfix batch."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.algebra import (
    Difference,
    Empty,
    Product,
    Project,
    Rel,
    Rename,
    Select,
    Union,
)
from repro.relational.database import Database, DatabaseSchema
from repro.relational.engine import (
    Interner,
    QueryEngine,
    intern_expr,
)
from repro.relational.evaluate import evaluate, infer_schema
from repro.relational.optimizer import evaluate_optimized, join_factors
from repro.relational.relation import Relation, RelationError, schema_of

from tests.test_property_translate import (
    DB_SCHEMA,
    databases,
    positive_expressions,
)


@st.composite
def engine_expressions(draw, depth=3):
    """Random expressions over E and U, extending the positive strategy
    with the cases the engine must cross barriers for: ``Empty`` leaves,
    difference, and zero-ary (boolean guard) projections."""
    kind = draw(
        st.sampled_from(
            ["positive", "positive", "empty", "difference", "guard"]
        )
    )
    if kind == "positive":
        return draw(positive_expressions(depth=depth))
    if kind == "empty":
        base = draw(positive_expressions(depth=depth - 1))
        return Union(base, Empty(infer_schema(base, DB_SCHEMA)))
    if kind == "difference":
        base = draw(positive_expressions(depth=depth - 1))
        other = draw(st.sampled_from(["self", "empty"]))
        if other == "self":
            return Difference(base, base)
        return Difference(base, Empty(infer_schema(base, DB_SCHEMA)))
    # A zero-ary guard multiplied onto a relation (Prop. 5.14 shape).
    guarded = draw(positive_expressions(depth=depth - 1))
    guard_body = draw(positive_expressions(depth=depth - 1))
    return Product(guarded, Project(guard_body, ()))


@given(engine_expressions(), databases())
@settings(max_examples=150, deadline=None)
def test_engine_matches_both_evaluators(expr, database):
    engine = QueryEngine(database)
    result = engine.evaluate(expr)
    assert result == evaluate(expr, database)
    assert result == evaluate_optimized(expr, database)
    # Evaluating again is a pure cache hit with the identical result.
    hits_before = engine.stats.cache_hits
    assert engine.evaluate(expr) == result
    assert engine.stats.cache_hits > hits_before


class TestBarriers:
    """Pushdown crosses the Rename/Project barriers correctly."""

    @pytest.fixture
    def database(self):
        e_rows = {(i, (i * 3) % 5) for i in range(5)}
        u_rows = {(i,) for i in range(3)}
        return Database(
            {
                "E": Relation(DB_SCHEMA.relation_schema("E"), e_rows),
                "U": Relation(DB_SCHEMA.relation_schema("U"), u_rows),
            }
        )

    def check(self, expr, database):
        assert QueryEngine(database).evaluate(expr) == evaluate(
            expr, database
        )

    def test_project_barrier_inside_product(self, database):
        # pi_s(E) x U: the projected-away t must be renamed apart, not
        # collide or leak into the output.
        expr = Product(Project(Rel("E"), ("s",)), Rename(Rel("U"), "u", "v"))
        self.check(expr, database)

    def test_projected_away_name_reused_by_sibling(self, database):
        # E x rho_{s->z}(pi_s(E)): the sibling's hidden t coexists with
        # E's visible t.
        expr = Product(
            Rel("E"), Rename(Project(Rel("E"), ("s",)), "s", "z")
        )
        self.check(expr, database)

    def test_rename_barrier_with_condition_above(self, database):
        # A selection above a rename must apply to the renamed column.
        inner = Project(
            Select(
                Product(
                    Rel("E"),
                    Rename(Rename(Rel("E"), "s", "s2"), "t", "t2"),
                ),
                "t",
                "s2",
                True,
            ),
            ("s",),
        )
        expr = Select(
            Product(Rename(inner, "s", "a"), Rel("U")), "a", "u", True
        )
        self.check(expr, database)

    def test_zero_ary_guard_true_and_false(self, database):
        guard_true = Project(Rel("E"), ())
        guard_false = Project(Empty(DB_SCHEMA.relation_schema("E")), ())
        self.check(Product(Rel("U"), guard_true), database)
        self.check(Product(Rel("U"), guard_false), database)

    def test_empty_relation_short_circuit(self, database):
        expr = Product(Rel("E"), Rename(Empty(DB_SCHEMA.relation_schema("U")), "u", "v"))
        engine = QueryEngine(database)
        assert engine.evaluate(expr) == evaluate(expr, database)
        assert engine.evaluate(expr).is_empty()


class TestInterning:
    def test_structurally_equal_trees_intern_to_same_object(self):
        interner = Interner()
        first = interner.intern(
            Select(Product(Rel("E"), Rel("U")), "s", "u", True)
        )
        second = interner.intern(
            Select(Product(Rel("E"), Rel("U")), "s", "u", True)
        )
        assert first is second

    def test_shared_subtree_evaluated_once(self):
        database = Database(
            {
                "E": Relation(
                    DB_SCHEMA.relation_schema("E"), {(1, 2), (2, 3)}
                ),
            }
        )
        shared = Union(Rel("E"), Rel("E"))
        expr = Union(shared, Union(Rel("E"), Rel("E")))
        engine = QueryEngine(database)
        engine.evaluate(expr)
        # The two occurrences of (E u E) are one interned node: the
        # second is a cache hit, not a second union.
        assert engine.stats.operators["union"].calls == 2  # inner + outer
        assert engine.stats.cache_hits >= 1

    def test_intern_expr_uses_process_interner(self):
        assert intern_expr(Rel("E")) is intern_expr(Rel("E"))


class TestObservability:
    @pytest.fixture
    def database(self):
        e_rows = {(i, (i + 1) % 4) for i in range(4)}
        u_rows = {(0,), (2,)}
        return Database(
            {
                "E": Relation(DB_SCHEMA.relation_schema("E"), e_rows),
                "U": Relation(DB_SCHEMA.relation_schema("U"), u_rows),
            }
        )

    @pytest.fixture
    def join_expr(self):
        second = Rename(Rename(Rel("E"), "s", "s2"), "t", "t2")
        return Project(
            Select(
                Select(
                    Product(Product(Rel("E"), second), Rel("U")),
                    "t",
                    "s2",
                    True,
                ),
                "s",
                "u",
                True,
            ),
            ("s", "t2"),
        )

    def test_explain_renders_plan(self, database, join_expr):
        engine = QueryEngine(database)
        plan = engine.explain(join_expr)
        assert "join-region" in plan
        assert "hash join" in plan
        assert "seed" in plan
        assert "rows=" in plan

    def test_explain_is_deterministic(self, database, join_expr):
        first = QueryEngine(database).explain(join_expr)
        second = QueryEngine(database).explain(join_expr)
        assert first == second

    def test_operator_counters(self, database, join_expr):
        engine = QueryEngine(database)
        engine.evaluate(join_expr)
        stats = engine.stats
        assert stats.operators["hash_join"].calls >= 1
        assert stats.operators["scan"].rows_out > 0
        assert stats.hash_build_rows > 0
        rendered = stats.render()
        assert "hash_join" in rendered
        assert "hit rate" in rendered


# ----------------------------------------------------------------------
# Regression tests for the satellite bugfixes
# ----------------------------------------------------------------------
class TestApplyParallelArityCheck:
    """apply.py: the arity-2 check must fire before any position is
    derived (and the dead first-row loop is gone)."""

    def test_non_binary_relation_raises(self):
        from repro.parallel.apply import receiver_value_positions

        ternary = Relation(
            schema_of(("self", "C"), ("a", "D"), ("b", "D")), ()
        )
        with pytest.raises(RelationError, match="must be binary"):
            receiver_value_positions(ternary)

    def test_missing_self_raises_relation_error(self):
        from repro.parallel.apply import receiver_value_positions

        no_self = Relation(schema_of(("x", "C"), ("y", "D")), ())
        with pytest.raises(RelationError):
            receiver_value_positions(no_self)

    def test_binary_relation_positions(self):
        from repro.parallel.apply import receiver_value_positions

        relation = Relation(schema_of(("a", "D"), ("self", "C")), ())
        assert receiver_value_positions(relation) == (1, 0)


class TestJoinFactorsErrors:
    """optimizer.py: leftover conditions raise RelationError (not a bare
    assert, which ``python -O`` strips)."""

    def test_unappliable_condition_raises_relation_error(self):
        relation = Relation(schema_of(("s", "D")), {(1,)})
        with pytest.raises(RelationError, match="unapplied"):
            join_factors([relation], [("nope", "nah", True)])

    def test_error_names_conditions_and_schema(self):
        relation = Relation(schema_of(("s", "D")), {(1,)})
        with pytest.raises(RelationError, match="nope") as excinfo:
            join_factors([relation], [("nope", "nah", True)])
        assert "s" in str(excinfo.value)

    def test_survives_python_O(self):
        # The check must not be an assert statement: it has to fire even
        # with assertions stripped.
        import subprocess
        import sys
        import textwrap

        code = textwrap.dedent(
            """
            from repro.relational.optimizer import join_factors
            from repro.relational.relation import (
                Relation, RelationError, schema_of,
            )
            relation = Relation(schema_of(("s", "D")), {(1,)})
            try:
                join_factors([relation], [("nope", "nah", True)])
            except RelationError:
                print("raised")
            """
        )
        result = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src"},
        )
        assert result.stdout.strip() == "raised", result.stderr


class TestDeterministicJoinChoice:
    """optimizer.py: smallest connected factor joins first, so the plan
    (and the result, trivially) is reproducible."""

    def test_smallest_connected_factor_preferred(self):
        big = Relation(
            schema_of(("s", "D"), ("t", "D")),
            {(i, i % 3) for i in range(9)},
        )
        small = Relation(schema_of(("u", "D")), {(0,), (1,)})
        tiny = Relation(schema_of(("v", "D")), {(2,)})
        # Seeded with tiny; both big and small connect to nothing yet —
        # but after the cross product step the plan must be stable.
        conditions = [("s", "u", True), ("t", "v", True)]
        first = join_factors([big, small, tiny], list(conditions))
        second = join_factors([small, tiny, big], list(conditions))
        # Same logical result regardless of factor order.
        assert frozenset(
            frozenset(zip(first.schema.names, row)) for row in first
        ) == frozenset(
            frozenset(zip(second.schema.names, row)) for row in second
        )

    def test_engine_plan_stable_across_factor_sizes(self):
        database = Database(
            {
                "E": Relation(
                    DB_SCHEMA.relation_schema("E"),
                    {(i, i % 3) for i in range(9)},
                ),
                "U": Relation(
                    DB_SCHEMA.relation_schema("U"), {(0,), (1,)}
                ),
            }
        )
        expr = Select(
            Product(Rel("E"), Rel("U")),
            "t",
            "u",
            True,
        )
        plans = {
            QueryEngine(database).explain(expr) for _ in range(3)
        }
        assert len(plans) == 1
        # The smaller factor (U) seeds the join.
        assert "seed scan U" in plans.pop()


class TestEngineWiring:
    """The engine drives M_par, the reduction replay, and the
    set-oriented statements."""

    def test_apply_parallel_still_matches_sequential(self):
        from repro.algebraic.examples import favorite_bar_algebraic
        from repro.core.receiver import Receiver
        from repro.core.sequential import apply_sequence
        from repro.graph.instance import Obj
        from repro.parallel.apply import apply_parallel
        from repro.workloads.drinkers import figure_1_instance

        method = favorite_bar_algebraic()
        instance = figure_1_instance()
        receivers = [
            Receiver([Obj("Drinker", "Mary"), Obj("Bar", "OldTavern")]),
            Receiver([Obj("Drinker", "John"), Obj("Bar", "Cheers")]),
        ]
        assert apply_parallel(method, instance, receivers) == apply_sequence(
            method, instance, receivers
        )

    def test_replay_counterexample_separates_orders(self):
        from repro.algebraic.decision import (
            decide_order_independence,
            replay_counterexample,
        )
        from repro.algebraic.examples import favorite_bar_algebraic

        result = decide_order_independence(favorite_bar_algebraic())
        assert not result.order_independent
        pair = replay_counterexample(result)
        assert pair is not None
        forward, backward = pair
        assert forward != backward

    def test_replay_counterexample_none_when_independent(self):
        from repro.algebraic.decision import (
            decide_order_independence,
            replay_counterexample,
        )
        from repro.algebraic.examples import add_bar_algebraic

        result = decide_order_independence(add_bar_algebraic())
        assert result.order_independent
        assert replay_counterexample(result) is None

    def test_set_update_from_query(self):
        from repro.sqlsim.setops import (
            set_update_from_query,
            tables_database,
        )
        from repro.sqlsim.table import Table

        employees = Table(
            "Employee",
            ["EmpId", "Salary"],
            key="EmpId",
            rows=[
                {"EmpId": 1, "Salary": 100},
                {"EmpId": 2, "Salary": 200},
                {"EmpId": 3, "Salary": 100},
            ],
        )
        newsal = Table(
            "NewSal",
            ["Old", "New"],
            rows=[{"Old": 100, "New": 110}],
        )
        database = tables_database(
            {"Employee": employees, "NewSal": newsal}
        )
        # UPDATE Employee SET Salary = New WHERE Salary = Old — as one
        # algebra expression evaluated by the engine.
        query = Project(
            Select(
                Product(Rel("Employee"), Rel("NewSal")),
                "Salary",
                "Old",
                True,
            ),
            ("EmpId", "New"),
        )
        changed = set_update_from_query(
            employees, query, database, {"Salary": "New"}
        )
        assert changed == 2
        assert employees.lookup(1)["Salary"] == 110
        assert employees.lookup(2)["Salary"] == 200
        assert employees.lookup(3)["Salary"] == 110

    def test_set_delete_from_query(self):
        from repro.sqlsim.setops import (
            set_delete_from_query,
            tables_database,
        )
        from repro.sqlsim.table import Table

        employees = Table(
            "Employee",
            ["EmpId", "Salary"],
            key="EmpId",
            rows=[
                {"EmpId": 1, "Salary": 100},
                {"EmpId": 2, "Salary": 200},
            ],
        )
        fire = Table("Fire", ["Amount"], rows=[{"Amount": 100}])
        database = tables_database({"Employee": employees, "Fire": fire})
        query = Project(
            Select(
                Product(Rel("Employee"), Rel("Fire")),
                "Salary",
                "Amount",
                True,
            ),
            ("EmpId",),
        )
        deleted = set_delete_from_query(employees, query, database)
        assert deleted == 1
        assert employees.lookup(1) is None
        assert employees.lookup(2) is not None

    def test_reduction_pairs_are_interned(self):
        from repro.algebraic.examples import favorite_bar_algebraic
        from repro.algebraic.reduction import order_independence_reduction

        first = order_independence_reduction(favorite_bar_algebraic())
        second = order_independence_reduction(favorite_bar_algebraic())
        for label in first.pairs:
            # Structurally equal builds intern to the same objects.
            assert first.pairs[label][0] is second.pairs[label][0]
            assert first.pairs[label][1] is second.pairs[label][1]


MIXED_SCHEMA = DatabaseSchema(
    {
        "S": schema_of(("a", "int"), ("n", "str")),
        "T": schema_of(("b", "int"), ("m", "str")),
    }
)


def test_string_and_int_keyed_joins_match_evaluate():
    """The same two relations joined on their string columns and on
    their int columns: the engine agrees with the reference evaluator
    on both (the random differentials above only draw int columns)."""
    database = Database(
        {
            "S": Relation(
                MIXED_SCHEMA.relation_schema("S"),
                {(i, f"name{i % 3}") for i in range(8)},
            ),
            "T": Relation(
                MIXED_SCHEMA.relation_schema("T"),
                {(i % 4, f"name{i % 5}") for i in range(8)},
            ),
        }
    )
    for left, right in (("n", "m"), ("a", "b")):
        join = Select(Product(Rel("S"), Rel("T")), left, right, True)
        engine = QueryEngine(database)
        assert engine.evaluate(join) == evaluate(join, database)
        assert engine.stats.operators["hash_join"].calls == 1


# ----------------------------------------------------------------------
# Join order: one rule, by factor size
# ----------------------------------------------------------------------
@st.composite
def candidate_regions(draw):
    """A join region seeded from a small ``rec``, with two join
    candidates connected to it: ``B``, a base relation joined on its key
    column (sometimes through a rename, sometimes on a second pair
    too), and ``M``, joined on a column of at most two values.  As
    ``rec`` and ``B`` vary in size the index-join rule picks the index
    join on some steps and the hash join on others.  Columns the output
    does not name are pruned, so ``B`` is sometimes read off its key
    column's index."""
    n_big = draw(st.integers(8, 48))
    rec_rows = draw(
        st.frozensets(
            st.tuples(st.integers(0, n_big - 1), st.integers(0, 2)),
            min_size=1,
            max_size=12,
        )
    )
    mid_rows = draw(
        st.frozensets(
            st.tuples(st.integers(0, 1), st.integers(0, 5)),
            min_size=2,
            max_size=10,
        )
    )
    database = Database(
        {
            "rec": Relation(schema_of(("s", "int"), ("t", "int")), rec_rows),
            "B": Relation(
                schema_of(("bk", "int"), ("bv", "int")),
                {(k, k % 3) for k in range(n_big)},
            ),
            "M": Relation(schema_of(("mk", "int"), ("mv", "int")), mid_rows),
        }
    )
    big, key = Rel("B"), "bk"
    if draw(st.booleans()):
        big, key = Rename(big, "bk", "key"), "key"
    region = Select(
        Select(Product(Product(Rel("rec"), big), Rel("M")), "s", key, True),
        "t",
        "mk",
        True,
    )
    if draw(st.booleans()):
        region = Select(region, "t", "bv", True)
    output = draw(st.sampled_from([("s", "mv"), ("mv", key, "s"), ("bv", "t")]))
    return Project(region, output), database


def test_size_ordered_joins_match_evaluate():
    """The engine equals the reference evaluator on generated regions.
    Over the run the index-join rule must pick both kinds of join, each
    producing rows somewhere, or the property checked nothing."""
    seen = {"index_join": 0, "hash_join": 0}

    @given(
        st.one_of(st.tuples(engine_expressions(), databases()), candidate_regions())
    )
    @settings(max_examples=150, deadline=None)
    def check(case):
        expr, database = case
        engine = QueryEngine(database)
        assert engine.evaluate(expr) == evaluate(expr, database)
        for name in seen:
            if engine.stats.op(name).rows_out:
                seen[name] += 1

    check()
    assert all(seen.values()), seen


def _join_steps(plan):
    """The ``(step, factor)`` pairs of a one-region plan, in order."""
    return re.findall(
        r"\| (seed|hash join|index join|product x) scan (\w+)", plan
    )


class TestSizeRule:
    """``explain()`` shows the one join rule: seed with the smallest
    factor, join the smallest connected factor, take the product with
    the smallest factor when none is connected, ties by position."""

    @staticmethod
    def unary(name, size):
        return Relation(schema_of((name, "int")), {(k,) for k in range(size)})

    def test_smaller_connected_factor_joins_first(self):
        # B comes before M in the region and P is smaller than both,
        # but M is the smallest factor connected to rec; P connects to
        # nothing, so it waits for the product at the end.
        database = Database(
            {
                "rec": Relation(
                    schema_of(("s", "int"), ("t", "int")), {(1, 0), (2, 1)}
                ),
                "B": Relation(
                    schema_of(("bk", "int"), ("bv", "int")),
                    {(k, k % 3) for k in range(32)},
                ),
                "M": Relation(
                    schema_of(("mk", "int"), ("mv", "int")),
                    {(k % 2, k) for k in range(5)},
                ),
                "P": self.unary("p", 3),
            }
        )
        region = Select(
            Select(
                Product(Product(Product(Rel("rec"), Rel("B")), Rel("M")), Rel("P")),
                "s",
                "bk",
                True,
            ),
            "t",
            "mk",
            True,
        )
        engine = QueryEngine(database)
        assert _join_steps(engine.explain(region)) == [
            ("seed", "rec"),
            ("hash join", "M"),
            ("index join", "B"),
            ("product x", "P"),
        ]
        assert engine.evaluate(region) == evaluate(region, database)

    def test_unconnected_seed_takes_the_product_with_the_smallest(self):
        # Nothing connects to the seed A: the product takes C, the
        # smallest of the rest, and the equality then joins D.
        database = Database(
            {
                "A": self.unary("a", 2),
                "D": self.unary("d", 6),
                "C": self.unary("c", 4),
            }
        )
        region = Select(
            Product(Product(Rel("A"), Rel("D")), Rel("C")), "c", "d", True
        )
        engine = QueryEngine(database)
        assert _join_steps(engine.explain(region)) == [
            ("seed", "A"),
            ("product x", "C"),
            ("hash join", "D"),
        ]
        assert engine.evaluate(region) == evaluate(region, database)

    def test_ties_go_by_factor_position(self):
        database = Database(
            {
                "X": self.unary("x", 3),
                "Y": self.unary("y", 3),
                "Z": self.unary("z", 3),
            }
        )
        for first, second, third in (("X", "Y", "Z"), ("Z", "Y", "X")):
            region = Select(
                Select(
                    Product(Product(Rel(first), Rel(second)), Rel(third)),
                    "x",
                    "y",
                    True,
                ),
                "y",
                "z",
                True,
            )
            engine = QueryEngine(database)
            steps = _join_steps(engine.explain(region))
            assert [name for _, name in steps] == [first, second, third]
            assert engine.evaluate(region) == evaluate(region, database)


class TestIndexJoin:
    """The region planner's index-nested-loop join and one-column
    read-off, on both sides of the ``INDEX_JOIN_RATIO`` rule."""

    @staticmethod
    def database(n_rec, n_big=64):
        return Database(
            {
                "rec": Relation(
                    schema_of(("s", "int")), {(k,) for k in range(n_rec)}
                ),
                "B": Relation(
                    schema_of(("bk", "int"), ("bv", "int")),
                    {(k, k % 5) for k in range(n_big)},
                ),
            }
        )

    JOIN = Project(
        Select(Product(Rel("rec"), Rel("B")), "s", "bk", True), ("s", "bv")
    )

    def test_small_seed_probes_the_index(self):
        database = self.database(n_rec=4)
        engine = QueryEngine(database)
        plan = engine.explain(self.JOIN)
        assert "index join scan B on (s=bk" in plan
        assert engine.evaluate(self.JOIN) == evaluate(self.JOIN, database)
        op = engine.stats.op("index_join")
        assert (op.calls, op.rows_in, op.rows_out) == (1, 8, 4)
        assert "index_join" in engine.stats.render()
        assert engine.stats.op("hash_join").calls == 0
        assert database.relation("B").indexed_columns == (0,)

    def test_rule_boundary_keeps_the_hash_join(self):
        # 4 * 16 == 64: not smaller, so the factor is scanned.
        database = self.database(n_rec=16)
        engine = QueryEngine(database)
        assert "hash join scan B" in engine.explain(self.JOIN)
        assert engine.evaluate(self.JOIN) == evaluate(self.JOIN, database)
        assert engine.stats.op("index_join").calls == 0
        assert database.relation("B").indexed_columns == ()

    def test_full_size_self_join_stays_a_hash_join(self):
        database = self.database(n_rec=1)
        second = Rename(Rename(Rel("B"), "bk", "k2"), "bv", "v2")
        expr = Select(Product(Rel("B"), second), "bv", "k2", True)
        engine = QueryEngine(database)
        assert engine.evaluate(expr) == evaluate(expr, database)
        assert engine.stats.op("index_join").calls == 0

    def test_one_column_prune_reads_index_keys(self):
        database = self.database(n_rec=1)
        expr = Project(Rel("B"), ("bv",))
        engine = QueryEngine(database)
        plan = engine.explain(expr)
        assert "prune scan B to [bv] (index keys)  rows=5" in plan
        assert engine.evaluate(expr) == evaluate(expr, database)
        assert database.relation("B").indexed_columns == (1,)

    def test_index_join_on_a_pruned_renamed_factor_with_two_pairs(self):
        database = Database(
            {
                "rec": Relation(
                    schema_of(("s", "int"), ("t", "int")),
                    {(1, 1), (2, 0), (7, 2)},
                ),
                "B": Relation(
                    schema_of(("bk", "int"), ("bv", "int"), ("bw", "int")),
                    {(k % 8, k % 3, k) for k in range(48)},
                ),
            }
        )
        big = Rename(Rel("B"), "bk", "key")
        expr = Project(
            Select(
                Select(Product(Rel("rec"), big), "s", "key", True),
                "t",
                "bv",
                True,
            ),
            ("s", "t"),
        )
        engine = QueryEngine(database)
        plan = engine.explain(expr)
        assert "prune scan B to [key__h0, bv__h1]  rows=24" in plan
        assert "index join scan B on (s=key__h0, t=bv__h1)" in plan
        assert engine.evaluate(expr) == evaluate(expr, database)
