"""Cross-state caching: fingerprint properties, fingerprint-keyed memo
reuse, differential tests for apply_sequence_incremental, and the
table-relation conversion cache."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.algebra import Project, Rel, Select
from repro.relational.database import Database
from repro.relational.delta import RelationDelta
from repro.relational.engine import EngineCache, QueryEngine
from repro.relational.evaluate import evaluate
from repro.relational.relation import Relation, schema_of

from tests.test_engine import engine_expressions
from tests.test_property_translate import DB_SCHEMA, databases

E_SCHEMA = DB_SCHEMA.relation_schema("E")
U_SCHEMA = DB_SCHEMA.relation_schema("U")

rows_e = st.sets(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=6
)


# ----------------------------------------------------------------------
# Fingerprint properties
# ----------------------------------------------------------------------
class TestFingerprints:
    @given(rows_e, st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_order_insensitive(self, rows, rng):
        """Construction order never shows in the fingerprint."""
        ordered = sorted(rows)
        shuffled = list(ordered)
        rng.shuffle(shuffled)
        assert (
            Relation(E_SCHEMA, ordered).fingerprint
            == Relation(E_SCHEMA, shuffled).fingerprint
        )

    @given(rows_e, st.tuples(st.integers(0, 3), st.integers(0, 3)))
    @settings(max_examples=100, deadline=None)
    def test_single_insert_changes_fingerprint(self, rows, row):
        relation = Relation(E_SCHEMA, rows)
        if row in relation.tuples:
            return
        assert relation.updated(insert=[row]).fingerprint != (
            relation.fingerprint
        )

    @given(rows_e)
    @settings(max_examples=100, deadline=None)
    def test_single_delete_changes_fingerprint(self, rows):
        relation = Relation(E_SCHEMA, rows)
        for row in relation.tuples:
            assert relation.updated(delete=[row]).fingerprint != (
                relation.fingerprint
            )

    @given(
        rows_e,
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
    )
    @settings(max_examples=100, deadline=None)
    def test_incremental_matches_from_scratch(self, rows, ins, dele):
        """The XOR accumulator carried through updated() yields the same
        fingerprint as rebuilding the new state from scratch."""
        relation = Relation(E_SCHEMA, rows)
        relation.fingerprint  # force the accumulator before updating
        incremental = relation.updated(insert=[ins], delete=[dele])
        scratch = Relation(E_SCHEMA, incremental.tuples)
        assert incremental.fingerprint == scratch.fingerprint

    def test_schema_is_part_of_the_fingerprint(self):
        rows = {(1, 2), (2, 3)}
        other = schema_of(("a", "D"), ("b", "D"))
        assert (
            Relation(E_SCHEMA, rows).fingerprint
            != Relation(other, rows).fingerprint
        )


# ----------------------------------------------------------------------
# Cross-state memo reuse
# ----------------------------------------------------------------------
class TestCrossStateReuse:
    def base_database(self):
        return Database(
            {
                "E": Relation(E_SCHEMA, {(0, 1), (1, 2), (2, 0)}),
                "U": Relation(U_SCHEMA, {(0,), (2,)}),
            }
        )

    def test_unrelated_change_reuses_results(self):
        """A change to U leaves an E-only query's base fingerprints
        intact: a fresh engine over the new state serves it from the
        shared cache."""
        database = self.base_database()
        expr = Project(Select(Rel("E"), "s", "t", False), ("s",))
        cache = EngineCache()
        first = QueryEngine(database, cache=cache)
        result = first.evaluate(expr)

        updated = database.apply_delta(
            {"U": RelationDelta(inserted=frozenset({(3,)}))}
        )
        second = QueryEngine(updated, cache=cache)
        assert second.evaluate(expr) == result
        assert second.stats.cross_state_hits > 0
        assert "reused" in second.explain(expr)
        assert "(cross-state cache)" in second.explain(expr)

    def test_read_set_change_is_never_served_stale(self):
        database = self.base_database()
        expr = Project(Select(Rel("E"), "s", "t", False), ("s",))
        cache = EngineCache()
        QueryEngine(database, cache=cache).evaluate(expr)

        updated = database.apply_delta(
            {"E": RelationDelta(deleted=frozenset({(1, 2)}))}
        )
        second = QueryEngine(updated, cache=cache)
        assert second.evaluate(expr) == evaluate(expr, updated)
        assert second.stats.cross_state_hits == 0

    @given(engine_expressions(), databases(), databases())
    @settings(max_examples=60, deadline=None)
    def test_shared_cache_correct_across_arbitrary_states(
        self, expr, first_db, second_db
    ):
        """Two unrelated states through one cache: both engines still
        agree with the reference evaluator (fingerprints discriminate
        every content difference)."""
        cache = EngineCache()
        for database in (first_db, second_db):
            engine = QueryEngine(database, cache=cache)
            result = engine.evaluate(expr)
            assert result == evaluate(expr, database)


# ----------------------------------------------------------------------
# Incremental receiver sequences
# ----------------------------------------------------------------------
class TestApplySequenceIncremental:
    def company(self, size=10):
        from repro.core.receiver import Receiver
        from repro.graph.instance import Obj
        from repro.sqlsim.scenarios import make_company, tables_to_instance

        employees, _, newsal = make_company(size, seed=7)
        instance = tables_to_instance(employees, newsal=newsal)
        receivers = [
            Receiver(
                [Obj("Employee", r["EmpId"]), Obj("Money", r["Salary"])]
            )
            for r in employees
        ]
        return instance, receivers

    def test_matches_sequential_fold(self):
        from repro.core.sequential import apply_sequence
        from repro.parallel.apply import apply_sequence_incremental
        from repro.sqlsim.scenarios import scenario_b_method

        method = scenario_b_method()
        instance, receivers = self.company()
        assert apply_sequence_incremental(
            method, instance, receivers
        ) == apply_sequence(method, instance, receivers)

    def test_matches_sequential_on_order_dependent_method(self):
        from repro.algebraic.examples import favorite_bar_algebraic
        from repro.core.receiver import Receiver
        from repro.core.sequential import apply_sequence
        from repro.graph.instance import Obj
        from repro.parallel.apply import apply_sequence_incremental
        from repro.workloads.drinkers import figure_1_instance

        method = favorite_bar_algebraic()
        instance = figure_1_instance()
        receivers = [
            Receiver([Obj("Drinker", "Mary"), Obj("Bar", "OldTavern")]),
            Receiver([Obj("Drinker", "John"), Obj("Bar", "Cheers")]),
        ]
        for ordering in (receivers, receivers[::-1]):
            assert apply_sequence_incremental(
                method, instance, ordering
            ) == apply_sequence(method, instance, ordering)

    def test_invalid_receiver_error_parity(self):
        from repro.core.method import MethodUndefined
        from repro.core.receiver import Receiver
        from repro.graph.instance import Obj
        from repro.parallel.apply import apply_sequence_incremental
        from repro.sqlsim.scenarios import scenario_b_method

        method = scenario_b_method()
        instance, receivers = self.company()
        bogus = Receiver(
            [Obj("Employee", 999_999), Obj("Money", 1000)]
        )
        with pytest.raises(MethodUndefined):
            apply_sequence_incremental(
                method, instance, [bogus] + receivers
            )
        with pytest.raises(MethodUndefined):
            apply_sequence_incremental(
                method, instance, receivers[:2] + [bogus]
            )

    def test_empty_and_duplicate_receivers(self):
        from repro.parallel.apply import apply_sequence_incremental
        from repro.sqlsim.scenarios import scenario_b_method

        method = scenario_b_method()
        instance, receivers = self.company(4)
        assert (
            apply_sequence_incremental(method, instance, []) == instance
        )
        with pytest.raises(ValueError, match="distinct"):
            apply_sequence_incremental(
                method, instance, [receivers[0], receivers[0]]
            )


# ----------------------------------------------------------------------
# Table-relation conversion cache
# ----------------------------------------------------------------------
class TestTableRelationCache:
    def make_table(self):
        from repro.sqlsim.table import Table

        return Table(
            "T",
            ["k", "v"],
            key="k",
            rows=[{"k": 1, "v": 10}, {"k": 2, "v": 20}],
        )

    def test_version_counts_effective_mutations(self):
        table = self.make_table()
        version = table.version
        row_id = table.insert({"k": 3, "v": 30})
        assert table.version == version + 1
        table.update_row(row_id, {"v": 31})
        assert table.version == version + 2
        table.delete_row(row_id)
        assert table.version == version + 3
        # No-ops do not bump: absent row delete, empty update, update
        # of a missing row.
        table.delete_row(row_id)
        table.update_row(1, {})
        table.update_row(999, {"v": 0})
        assert table.version == version + 3

    def test_unchanged_table_converts_once(self):
        from repro.sqlsim.setops import table_relation

        table = self.make_table()
        cache = {}
        first = table_relation(table, cache=cache)
        second = table_relation(table, cache=cache)
        assert second is first

    def test_mutation_invalidates_cache(self):
        from repro.sqlsim.setops import table_relation

        table = self.make_table()
        cache = {}
        first = table_relation(table, cache=cache)
        table.insert({"k": 3, "v": 30})
        second = table_relation(table, cache=cache)
        assert second is not first
        assert len(second) == 3
        assert table_relation(table, cache=cache) is second

    def test_tables_database_shares_cache(self):
        from repro.sqlsim.setops import table_relation, tables_database

        table = self.make_table()
        cache = {}
        database = tables_database({"T": table}, cache=cache)
        assert database.relation("T") is table_relation(
            table, cache=cache
        )
