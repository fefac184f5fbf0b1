"""Typed relations and their operations."""

import pytest

from repro.relational.relation import (
    Attribute,
    Relation,
    RelationError,
    RelationSchema,
    boolean_relation,
    empty_relation,
    schema_of,
    unary_singleton,
)


@pytest.fixture
def ab_schema():
    return schema_of(("a", "D1"), ("b", "D2"))


@pytest.fixture
def relation(ab_schema):
    return Relation(ab_schema, [(1, "x"), (2, "y"), (3, "x")])


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(RelationError):
            RelationSchema([Attribute("a", "D"), Attribute("a", "D")])

    def test_positions_and_domains(self, ab_schema):
        assert ab_schema.position("b") == 1
        assert ab_schema.domain_of("a") == "D1"
        with pytest.raises(RelationError):
            ab_schema.position("z")

    def test_project_reorders(self, ab_schema):
        projected = ab_schema.project(["b", "a"])
        assert projected.names == ("b", "a")

    def test_rename_preserves_domain(self, ab_schema):
        renamed = ab_schema.rename("a", "z")
        assert renamed.domain_of("z") == "D1"

    def test_concat_requires_disjoint_names(self, ab_schema):
        with pytest.raises(RelationError):
            ab_schema.concat(schema_of(("a", "D3")))


class TestRelationOps:
    def test_arity_checked(self, ab_schema):
        with pytest.raises(RelationError):
            Relation(ab_schema, [(1,)])

    def test_union_difference(self, ab_schema, relation):
        other = Relation(ab_schema, [(1, "x"), (9, "z")])
        assert len(relation.union(other)) == 4
        assert relation.difference(other).tuples == {(2, "y"), (3, "x")}

    def test_union_schema_mismatch(self, relation):
        with pytest.raises(RelationError):
            relation.union(Relation(schema_of(("a", "D1")), [(1,)]))

    def test_product(self, relation):
        other = Relation(schema_of(("c", "D3")), [(10,), (20,)])
        product = relation.product(other)
        assert len(product) == 6
        assert product.schema.names == ("a", "b", "c")

    def test_select_eq_and_neq(self):
        schema = schema_of(("a", "D"), ("b", "D"))
        relation = Relation(schema, [(1, 1), (1, 2)])
        assert relation.select("a", "b", True).tuples == {(1, 1)}
        assert relation.select("a", "b", False).tuples == {(1, 2)}

    def test_select_across_domains_rejected(self, relation):
        with pytest.raises(RelationError, match="different domains"):
            relation.select("a", "b", True)

    def test_project_deduplicates(self, relation):
        assert relation.project(["b"]).tuples == {("x",), ("y",)}

    def test_zero_ary_projection(self, relation):
        assert relation.project([]).tuples == {()}
        assert empty_relation(relation.schema).project([]).tuples == set()

    def test_rename(self, relation):
        renamed = relation.rename("a", "z")
        assert renamed.schema.names == ("z", "b")
        assert renamed.tuples == relation.tuples

    def test_rename_is_zero_copy_and_fingerprints_like_a_fresh_relation(
        self, relation
    ):
        relation.fingerprint  # warm the accumulator the rename shares
        renamed = relation.rename("a", "z")
        fresh = Relation(relation.schema.rename("a", "z"), relation.tuples)
        assert renamed.tuples is relation.tuples
        assert renamed == fresh
        assert renamed.fingerprint == fresh.fingerprint
        assert renamed.fingerprint != relation.fingerprint
        # The accumulator is shared only when it exists; a cold rename
        # computes the same fingerprint on demand.
        cold = Relation(relation.schema, relation.tuples).rename("a", "z")
        assert cold.fingerprint == fresh.fingerprint

    def test_column(self, relation):
        assert relation.column("a") == {1, 2, 3}


class TestHelpers:
    def test_unary_singleton(self):
        rel = unary_singleton("self", "Drinker", 42)
        assert rel.tuples == {(42,)}
        assert rel.schema.domain_of("self") == "Drinker"

    def test_boolean_relation(self):
        assert boolean_relation(True).tuples == {()}
        assert boolean_relation(False).tuples == set()

    def test_equality_and_hash(self, ab_schema):
        first = Relation(ab_schema, [(1, "x")])
        second = Relation(ab_schema, [(1, "x")])
        assert first == second
        assert len({first, second}) == 1
