"""Schema inference and evaluation of algebra expressions."""

from __future__ import annotations

from typing import Sequence

from repro.relational.algebra import (
    Difference,
    Empty,
    Expr,
    Product,
    Project,
    Rel,
    Rename,
    Select,
    Union,
    children,
)
from repro.relational.database import Database, DatabaseSchema
from repro.relational.relation import (
    Relation,
    RelationError,
    RelationSchema,
)


def infer_schema(expr: Expr, db_schema: DatabaseSchema) -> RelationSchema:
    """Compute the output schema of ``expr``, checking type rules.

    Raises :class:`RelationError` on ill-typed expressions: union or
    difference of different schemas, products with clashing attribute
    names, selections comparing attributes of different domains,
    projections onto unknown attributes.
    """
    if isinstance(expr, Rel):
        return db_schema.relation_schema(expr.name)
    if isinstance(expr, Empty):
        return expr.schema
    return node_schema(
        expr, [infer_schema(child, db_schema) for child in children(expr)]
    )


def node_schema(
    expr: Expr, child_schemas: Sequence[RelationSchema]
) -> RelationSchema:
    """The output schema of one operator node from its children's
    schemas: the type rules of :func:`infer_schema` for a single step,
    so a caller that memoizes child schemas infers bottom-up."""
    if isinstance(expr, (Union, Difference)):
        left, right = child_schemas
        if left != right:
            raise RelationError(
                f"{type(expr).__name__} of different schemas "
                f"{left} vs {right}"
            )
        return left
    if isinstance(expr, Product):
        return child_schemas[0].concat(child_schemas[1])
    if isinstance(expr, Select):
        child = child_schemas[0]
        if child.domain_of(expr.left) != child.domain_of(expr.right):
            raise RelationError(
                f"selection compares attributes of different domains: "
                f"{child.attribute(expr.left)} vs "
                f"{child.attribute(expr.right)}"
            )
        return child
    if isinstance(expr, Project):
        return child_schemas[0].project(expr.attrs)
    if isinstance(expr, Rename):
        return child_schemas[0].rename(expr.old, expr.new)
    raise TypeError(f"unknown expression node {expr!r}")


def evaluate(expr: Expr, database: Database) -> Relation:
    """Evaluate ``expr`` against ``database``."""
    if isinstance(expr, Rel):
        return database.relation(expr.name)
    if isinstance(expr, Empty):
        return Relation(expr.schema, ())
    if isinstance(expr, Union):
        return evaluate(expr.left, database).union(
            evaluate(expr.right, database)
        )
    if isinstance(expr, Difference):
        return evaluate(expr.left, database).difference(
            evaluate(expr.right, database)
        )
    if isinstance(expr, Product):
        return evaluate(expr.left, database).product(
            evaluate(expr.right, database)
        )
    if isinstance(expr, Select):
        return evaluate(expr.child, database).select(
            expr.left, expr.right, expr.equal
        )
    if isinstance(expr, Project):
        return evaluate(expr.child, database).project(expr.attrs)
    if isinstance(expr, Rename):
        return evaluate(expr.child, database).rename(expr.old, expr.new)
    raise TypeError(f"unknown expression node {expr!r}")
