"""Per-column relation indexes: built lazily, carried through
``updated()``, shared by ``rename``, and invisible to equality, hashing,
fingerprints, pickling and the WAL."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.database import Database
from repro.relational.relation import Relation, RelationError, schema_of
from repro.store.wal import encode_database

SCHEMA = schema_of(("k", "int"), ("v", "int"), ("w", "int"))

#: A small universe, so keys hold several rows and buckets empty.
rows = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 1)
)
row_sets = st.frozensets(rows, max_size=12)


def fresh_index(relation, position):
    """The index an unindexed copy of ``relation`` builds."""
    return Relation(relation.schema, relation.tuples).index(position)


@st.composite
def update_chains(draw):
    """A start state, the columns indexed up front, and a chain of
    updates: inserts, deletes, both, no-ops, and a column to index
    afresh at some steps."""
    start = draw(row_sets)
    indexed = draw(st.frozensets(st.integers(0, 2)))
    steps = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["insert", "delete", "both", "noop"]))
        insert = draw(row_sets) if kind in ("insert", "both") else frozenset()
        delete = draw(row_sets) if kind in ("delete", "both") else frozenset()
        build = draw(st.one_of(st.none(), st.integers(0, 2)))
        steps.append((kind, insert, delete, build))
    return start, indexed, steps


@given(update_chains())
@settings(max_examples=200, deadline=None)
def test_carried_indexes_equal_fresh_ones(chain):
    start, indexed, steps = chain
    relation = Relation(SCHEMA, start)
    for position in indexed:
        relation.index(position)
    for kind, insert, delete, build in steps:
        if kind == "noop":
            # Inserting present rows and deleting absent ones changes
            # nothing: the same relation, indexes included, comes back.
            insert = relation.tuples
            delete = frozenset(
                row for row in delete if row not in relation.tuples
            )
        before = {
            position: dict(relation.index(position))
            for position in relation.indexed_columns
        }
        result = relation.updated(insert, delete)
        if kind == "noop":
            assert result is relation
        # The parent's published indexes are never mutated.
        assert {
            position: relation._indexes[position]
            for position in relation.indexed_columns
        } == before
        assert result.indexed_columns == relation.indexed_columns
        for position in result.indexed_columns:
            assert result.index(position) == fresh_index(result, position)
        if build is not None:
            assert result.index(build) == fresh_index(result, build)
        relation = result


def test_index_maps_values_to_row_sets():
    relation = Relation(SCHEMA, {(1, 2, 0), (1, 3, 0), (2, 2, 1)})
    assert relation.indexed_columns == ()
    assert relation.index(0) == {
        1: frozenset({(1, 2, 0), (1, 3, 0)}),
        2: frozenset({(2, 2, 1)}),
    }
    assert relation.index(2) == {
        0: frozenset({(1, 2, 0), (1, 3, 0)}),
        1: frozenset({(2, 2, 1)}),
    }
    assert relation.indexed_columns == (0, 2)
    # Built once, then served.
    assert relation.index(0) is relation.index(0)
    relation.drop_indexes()
    assert relation.indexed_columns == ()


def test_a_dropped_relation_builds_indexes_without_keeping_them():
    relation = Relation(SCHEMA, {(1, 2, 0), (1, 3, 0), (2, 2, 1)})
    relation.index(0)
    relation.drop_indexes()
    assert relation.index(0) == fresh_index(relation, 0)
    assert relation.index(0) is not relation.index(0)
    assert relation.indexed_columns == ()
    # Neither a rename nor an update carries an index from it.
    renamed = relation.rename("v", "value")
    renamed.index(1)
    assert renamed.indexed_columns == ()
    result = relation.updated(insert={(3, 3, 3)})
    assert result.indexed_columns == ()
    # The updated relation is a new state: it keeps what it builds.
    assert result.index(0) is result.index(0)
    assert result.indexed_columns == (0,)


def test_index_of_a_missing_column_raises():
    relation = Relation(SCHEMA, {(1, 2, 0)})
    for position in (-1, 3):
        with pytest.raises(RelationError):
            relation.index(position)


def test_rename_shares_indexes():
    relation = Relation(SCHEMA, {(1, 2, 0), (2, 2, 1)})
    relation.index(1)
    renamed = relation.rename("v", "value")
    assert renamed.tuples is relation.tuples
    assert renamed.indexed_columns == (1,)
    assert renamed.index(1) is relation.index(1)


def test_equality_hash_fingerprint_pickle_and_wal_ignore_indexes():
    rows_ = {(k, k % 2, 0) for k in range(10)}
    plain = Relation(SCHEMA, rows_)
    indexed = Relation(SCHEMA, rows_)
    fingerprint = indexed.fingerprint
    indexed.index(0)
    indexed.index(1)
    assert indexed == plain
    assert hash(indexed) == hash(plain)
    assert indexed.fingerprint == fingerprint == plain.fingerprint

    restored = pickle.loads(pickle.dumps(indexed))
    assert restored == indexed
    assert restored.indexed_columns == ()
    assert restored.fingerprint == fingerprint
    assert len(pickle.dumps(indexed)) == len(pickle.dumps(plain))

    assert encode_database(Database({"R": indexed})) == encode_database(
        Database({"R": plain})
    )


def test_updated_fingerprint_unaffected_by_carried_indexes():
    start = {(k, k % 3, 0) for k in range(12)}
    indexed = Relation(SCHEMA, start)
    indexed.fingerprint
    indexed.index(1)
    plain = Relation(SCHEMA, start)
    plain.fingerprint
    insert, delete = {(20, 1, 1)}, {(0, 0, 0), (3, 0, 0)}
    assert (
        indexed.updated(insert, delete).fingerprint
        == plain.updated(insert, delete).fingerprint
        == Relation(SCHEMA, (start - delete) | insert).fingerprint
    )
