"""Update expressions (Definition 5.4, items 1-2).

An update expression of type ``[C0, ..., Ck]`` is a unary relational
algebra expression over the relation schemes of the object-base schema
and the special unary relation schemes ``self`` (domain ``C0``) and
``arg1 ... argk`` (domains ``C1 ... Ck``).  Evaluating it on
``(I, [o0, ..., ok])`` interprets ``self`` as ``{o0}`` and ``argi`` as
``{oi}``.

The reduction of Theorem 5.6 additionally uses a *primed* copy
``self', arg1', ...`` holding a second receiver.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

from repro.core.receiver import Receiver
from repro.core.signature import MethodSignature
from repro.graph.instance import Instance, Obj
from repro.objrel.mapping import (
    instance_to_database,
    schema_to_database_schema,
)
from repro.relational.algebra import Expr
from repro.relational.database import Database, DatabaseSchema
from repro.relational.engine import QueryEngine
from repro.relational.evaluate import infer_schema
from repro.relational.relation import (
    Attribute,
    RelationError,
    RelationSchema,
    unary_singleton,
)

SELF = "self"


class UpdateTypeError(RelationError):
    """An update expression produced values outside its target class."""


def arg_name(index: int) -> str:
    """The special relation name for the ``index``-th argument (1-based)."""
    if index < 1:
        raise ValueError("argument indices are 1-based")
    return f"arg{index}"


def primed(name: str) -> str:
    """The primed (second-receiver) version of a special relation name."""
    return f"{name}'"


def special_relation_schemas(
    signature: MethodSignature, use_primed: bool = False
) -> Dict[str, RelationSchema]:
    """Schemas of the special relations for a signature.

    ``self`` has one attribute named ``self`` of the receiving class's
    domain; ``argi`` likewise.  With ``use_primed``, the primed copies.
    """
    schemas: Dict[str, RelationSchema] = {}
    names = [SELF] + [arg_name(i + 1) for i in range(signature.arity)]
    for name, cls in zip(names, signature):
        key = primed(name) if use_primed else name
        schemas[key] = RelationSchema([Attribute(key, cls)])
    return schemas


def update_db_schema(
    object_schema, signature: MethodSignature, include_primed: bool = False
) -> DatabaseSchema:
    """The database schema an update expression is typed against."""
    db_schema = schema_to_database_schema(object_schema)
    for name, schema in special_relation_schemas(signature).items():
        db_schema = db_schema.with_relation(name, schema)
    if include_primed:
        for name, schema in special_relation_schemas(
            signature, use_primed=True
        ).items():
            db_schema = db_schema.with_relation(name, schema)
    return db_schema


def bind_receiver(
    database: Database,
    signature: MethodSignature,
    receiver: Receiver,
    use_primed: bool = False,
) -> Database:
    """Extend a database with the singleton ``self``/``arg`` relations."""
    if not receiver.matches(signature):
        raise RelationError(
            f"receiver {receiver} does not match signature "
            f"{list(signature)}"
        )
    names = [SELF] + [arg_name(i + 1) for i in range(signature.arity)]
    for name, cls, obj in zip(names, signature, receiver):
        key = primed(name) if use_primed else name
        database = database.with_relation(
            key, unary_singleton(key, cls, obj)
        )
    return database


def check_update_expression(
    expr: Expr,
    object_schema,
    signature: MethodSignature,
    target_class: str,
) -> str:
    """Type-check an update expression; returns its output attribute name.

    The expression must be unary and its output domain must be the
    target class of the property being assigned.
    """
    db_schema = update_db_schema(object_schema, signature)
    out_schema = infer_schema(expr, db_schema)
    if out_schema.arity != 1:
        raise RelationError(
            f"update expressions must be unary; got {out_schema}"
        )
    attribute = out_schema.attributes[0]
    if attribute.domain != target_class:
        raise UpdateTypeError(
            f"update expression produces domain {attribute.domain}, "
            f"expected {target_class}"
        )
    return attribute.name


def receiver_engine(
    instance: Instance, receiver: Receiver, signature: MethodSignature
) -> QueryEngine:
    """An engine over ``I`` with ``self`` and the arguments bound to
    ``t``: every statement of one application ``M(I, t)`` evaluates
    through it, so ``I`` is converted and bound once per application."""
    return QueryEngine(
        bind_receiver(instance_to_database(instance), signature, receiver)
    )


def update_values(engine: QueryEngine, expr: Expr) -> FrozenSet[Obj]:
    """``E(I, t)`` as a set of objects, with ``engine`` from
    :func:`receiver_engine`."""
    relation = engine.evaluate(expr)
    if relation.schema.arity != 1:
        raise RelationError(
            f"update expressions must be unary; got {relation.schema}"
        )
    return frozenset(row[0] for row in relation)


def evaluate_update_expression(
    expr: Expr,
    instance: Instance,
    receiver: Receiver,
    signature: MethodSignature,
) -> FrozenSet[Obj]:
    """``E(I, t)`` (Definition 5.4 item 2), as a set of objects."""
    return update_values(receiver_engine(instance, receiver, signature), expr)
