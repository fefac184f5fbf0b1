"""Update expressions and algebraic methods (Definition 5.4)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebraic.expression import (
    SELF,
    UpdateTypeError,
    arg_name,
    bind_receiver,
    check_update_expression,
    evaluate_update_expression,
    primed,
    special_relation_schemas,
    update_db_schema,
)
from repro.algebraic.method import AlgebraicUpdateMethod
from repro.algebraic.query_order import receivers_from_query
from repro.core.receiver import Receiver
from repro.core.signature import MethodSignature
from repro.graph.instance import Obj
from repro.graph.schema import Schema, SchemaError, drinker_bar_beer_schema
from repro.objrel.mapping import instance_to_database, property_relation_name
from repro.relational.algebra import Product, Project, Rel, Rename, Select
from repro.relational.evaluate import evaluate
from repro.relational.relation import RelationError
from repro.workloads.drinkers import figure_1_instance
from repro.workloads.instances import random_instance, random_receiver
from repro.workloads.methods import random_positive_method

SIG = MethodSignature(["Drinker", "Bar"])
MARY = Obj("Drinker", "Mary")
CHEERS = Obj("Bar", "Cheers")


@pytest.fixture
def schema():
    return drinker_bar_beer_schema()


@pytest.fixture
def instance(schema):
    return figure_1_instance(schema)


class TestSpecialRelations:
    def test_schemas(self):
        schemas = special_relation_schemas(SIG)
        assert set(schemas) == {"self", "arg1"}
        assert schemas["self"].domain_of("self") == "Drinker"
        assert schemas["arg1"].domain_of("arg1") == "Bar"

    def test_primed(self):
        schemas = special_relation_schemas(SIG, use_primed=True)
        assert set(schemas) == {"self'", "arg1'"}
        assert primed(arg_name(2)) == "arg2'"

    def test_bind_receiver(self, instance):
        database = bind_receiver(
            instance_to_database(instance), SIG, Receiver([MARY, CHEERS])
        )
        assert database.relation("self").tuples == {(MARY,)}
        assert database.relation("arg1").tuples == {(CHEERS,)}

    def test_bind_mismatched_receiver(self, instance):
        with pytest.raises(RelationError):
            bind_receiver(
                instance_to_database(instance), SIG, Receiver([CHEERS, MARY])
            )


class TestEvaluation:
    def test_self_expression(self, instance):
        values = evaluate_update_expression(
            Rel(SELF), instance, Receiver([MARY, CHEERS]), SIG
        )
        assert values == {MARY}

    def test_join_with_property(self, instance):
        # Bars Mary frequents.
        expr = Project(
            Select(
                Product(Rel(SELF), Rel("Drinker.frequents")),
                SELF,
                "Drinker",
                True,
            ),
            ("frequents",),
        )
        values = evaluate_update_expression(
            expr, instance, Receiver([MARY, CHEERS]), SIG
        )
        assert values == {CHEERS}

    def test_non_unary_rejected(self, instance):
        with pytest.raises(RelationError, match="unary"):
            evaluate_update_expression(
                Rel("Drinker.frequents"),
                instance,
                Receiver([MARY, CHEERS]),
                SIG,
            )


class TestTypeChecking:
    def test_check_accepts_correct_domain(self, schema):
        attr = check_update_expression(
            Rel("arg1"), schema, SIG, "Bar"
        )
        assert attr == "arg1"

    def test_check_rejects_wrong_domain(self, schema):
        with pytest.raises(UpdateTypeError):
            check_update_expression(Rel(SELF), schema, SIG, "Bar")

    def test_update_db_schema_contains_specials(self, schema):
        db_schema = update_db_schema(schema, SIG, include_primed=True)
        for name in ("self", "arg1", "self'", "arg1'"):
            assert db_schema.has_relation(name)


class TestAlgebraicMethodValidation:
    def test_statement_for_foreign_property_rejected(self, schema):
        with pytest.raises(SchemaError, match="receiving"):
            AlgebraicUpdateMethod(
                schema,
                SIG,
                {"serves": Rename(Rel("arg1"), "arg1", "serves")},
            )

    def test_empty_statement_set_rejected(self, schema):
        with pytest.raises(ValueError):
            AlgebraicUpdateMethod(schema, SIG, {})

    def test_wrong_target_domain_rejected(self, schema):
        with pytest.raises(UpdateTypeError):
            AlgebraicUpdateMethod(
                schema,
                SIG,
                {"likes": Rename(Rel("arg1"), "arg1", "likes")},
            )

    def test_updated_properties_listing(self, schema):
        method = AlgebraicUpdateMethod(
            schema,
            SIG,
            {"frequents": Rename(Rel("arg1"), "arg1", "frequents")},
        )
        assert method.updated_properties == ("frequents",)
        assert method.output_attribute("frequents") == "frequents"


class TestApplication:
    def test_assign_all_bars(self, schema, instance):
        method = AlgebraicUpdateMethod(
            schema,
            SIG,
            {"frequents": Rename(Rel("Bar"), "Bar", "frequents")},
        )
        result = method.apply(instance, Receiver([MARY, CHEERS]))
        assert result.property_values(MARY, "frequents") == instance.objects_of_class("Bar")

    def test_simultaneous_statement_semantics(self, schema, instance):
        # Two statements both read the original instance.
        swap = AlgebraicUpdateMethod(
            schema,
            MethodSignature(["Drinker"]),
            {
                "frequents": Rename(Rel("Bar"), "Bar", "frequents"),
                "likes": Rename(Rel("Beer"), "Beer", "likes"),
            },
        )
        result = swap.apply(instance, Receiver([MARY]))
        assert result.property_values(MARY, "frequents") == instance.objects_of_class("Bar")
        assert result.property_values(MARY, "likes") == instance.objects_of_class("Beer")


# ----------------------------------------------------------------------
# The evaluator of record against the reference oracle
# ----------------------------------------------------------------------
ORACLE_SCHEMA = Schema(
    ["K0", "K1"],
    [("K0", "p0", "K1"), ("K0", "p1", "K0"), ("K1", "p2", "K0")],
)


def random_receiver_query(rng, schema, signature):
    """A random receiver query of scheme ``self arg1 ...``: the product
    of the signature's classes, sometimes restricted through a property
    of the receiving class that links ``self`` (and maybe an argument)."""
    names = [SELF] + [arg_name(i + 1) for i in range(signature.arity)]
    query = None
    for name, cls in zip(names, signature):
        leaf = Rename(Rel(cls), cls, name)
        query = leaf if query is None else Product(query, leaf)
    edges = schema.properties_of(signature.receiving_class)
    if edges and rng.random() < 0.7:
        edge = rng.choice(edges)
        query = Select(
            Product(query, Rel(property_relation_name(schema, edge.label))),
            SELF,
            edge.source,
            True,
        )
        for name, cls in zip(names[1:], list(signature)[1:]):
            if cls == edge.target and rng.random() < 0.5:
                query = Select(query, name, edge.label, True)
        query = Project(query, tuple(names))
    return query


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_engine_evaluation_matches_the_oracle(seed):
    """``E(I, t)`` through the engine equals :func:`evaluate` over the
    bound database, and ``Q(I)`` equals it over the unbound one."""
    rng = random.Random(seed)
    method = random_positive_method(rng, ORACLE_SCHEMA, n_statements=2)
    if method is None:
        return
    instance = random_instance(
        rng, ORACLE_SCHEMA, objects_per_class=3, edge_probability=0.5
    )
    receiver = random_receiver(rng, instance, method.signature)
    database = instance_to_database(instance)
    bound = bind_receiver(database, method.signature, receiver)
    for label in method.updated_properties:
        expr = method.expression(label)
        assert evaluate_update_expression(
            expr, instance, receiver, method.signature
        ) == frozenset(row[0] for row in evaluate(expr, bound))
    query = random_receiver_query(rng, ORACLE_SCHEMA, method.signature)
    assert receivers_from_query(query, instance) == {
        Receiver(row) for row in evaluate(query, database)
    }
