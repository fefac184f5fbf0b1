"""The ``par`` transform (Definition 6.1).

``par(E)`` is obtained from an update expression ``E`` by:

* replacing each schema relation ``R`` by ``pi_self(rec) x R``,
* replacing ``self`` by ``pi_self(rec)`` and each ``argi`` by
  ``pi_{self, argi}(rec)``,
* extending each projection with the ``self`` attribute, and
* turning each Cartesian product into a natural join on ``self``.

The result scheme of ``par(E)`` is that of ``E`` with ``self`` prepended
(when ``E`` itself mentions the ``self`` attribute — i.e. its output *is*
the receiver — the two coincide, as in the paper's remark on result
schemes).

The transform tracks output schemas as it recurses, because the
natural-join expansion (rename right ``self`` apart, product, equality
selection, project the duplicate away) needs the operand attribute lists.

The renamed-apart ``self`` columns are named ``self__1``, ``self__2``,
... by a counter local to one transform, skipping every attribute name
that occurs in ``E`` or in the schemas of its base relations.  The same
expression therefore always yields a structurally equal ``par(E)`` — in
every process, shard workers included — so the engine's interner,
schema memo and plan cache recognise it from one write to the next.
"""

from __future__ import annotations

from typing import Set, Tuple

from repro.algebraic.expression import SELF, arg_name
from repro.core.signature import MethodSignature
from repro.graph.schema import Schema
from repro.objrel.mapping import schema_to_database_schema
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
    walk,
)
from repro.relational.database import DatabaseSchema
from repro.relational.relation import (
    Attribute,
    RelationError,
    RelationSchema,
)

REC = "rec"


def rec_schema(signature: MethodSignature) -> RelationSchema:
    """The scheme ``self arg1 ... argk`` of the receiver-set relation."""
    attrs = [Attribute(SELF, signature.receiving_class)]
    for index, cls in enumerate(signature.argument_classes, start=1):
        attrs.append(Attribute(arg_name(index), cls))
    return RelationSchema(attrs)


def par_db_schema(
    object_schema: Schema, signature: MethodSignature
) -> DatabaseSchema:
    """The schema ``par(E)`` is typed against: object relations + ``rec``."""
    return schema_to_database_schema(object_schema).with_relation(
        REC, rec_schema(signature)
    )


def _par_attrs(names: Tuple[str, ...]) -> Tuple[str, ...]:
    """Output attribute order of a transformed node: ``self`` first."""
    if SELF in names:
        return (SELF,) + tuple(n for n in names if n != SELF)
    return (SELF,) + tuple(names)


def _attribute_names(expr: Expr, db_schema: DatabaseSchema) -> Set[str]:
    """The attribute names a ``self__<n>`` shadow could collide with: the
    schemas of ``expr``'s base relations and of its empty relations, and
    the names it renames.  Every other attribute of ``expr`` comes from
    these, or is ``self`` or an argument."""
    names: Set[str] = set()
    for node in walk(expr):
        if isinstance(node, Rel):
            if db_schema.has_relation(node.name):
                names.update(db_schema.relation_schema(node.name).names)
        elif isinstance(node, Empty):
            names.update(node.schema.names)
        elif isinstance(node, Rename):
            names.update((node.old, node.new))
    return names


class _Transformer:
    def __init__(
        self,
        db_schema: DatabaseSchema,
        signature: MethodSignature,
        taken: Set[str],
    ) -> None:
        self._db_schema = db_schema
        self._signature = signature
        self._specials = {
            arg_name(i + 1) for i in range(signature.arity)
        }
        self._taken = taken
        self._shadows = 0

    def _shadow(self) -> str:
        """The next ``self__<n>`` that names no attribute of ``E``."""
        while True:
            self._shadows += 1
            name = f"{SELF}__{self._shadows}"
            if name not in self._taken:
                return name

    def transform(self, expr: Expr) -> Tuple[Expr, Tuple[str, ...]]:
        """Return ``(par(expr), output attribute names)``."""
        if isinstance(expr, Rel):
            if expr.name == SELF:
                return Project(Rel(REC), (SELF,)), (SELF,)
            if expr.name in self._specials:
                return (
                    Project(Rel(REC), (SELF, expr.name)),
                    (SELF, expr.name),
                )
            if expr.name == REC:
                raise RelationError(
                    "update expressions may not reference rec directly"
                )
            schema = self._db_schema.relation_schema(expr.name)
            names = schema.names
            return (
                Product(Project(Rel(REC), (SELF,)), Rel(expr.name)),
                (SELF,) + tuple(names),
            )
        if isinstance(expr, Empty):
            attrs = _par_attrs(expr.schema.names)
            schema = RelationSchema(
                [Attribute(SELF, self._signature.receiving_class)]
                + [
                    a
                    for a in expr.schema.attributes
                    if a.name != SELF
                ]
            )
            return Empty(schema), attrs
        if isinstance(expr, Union):
            left, left_attrs = self.transform(expr.left)
            right, right_attrs = self.transform(expr.right)
            right = self._align(right, right_attrs, left_attrs)
            return Union(left, right), left_attrs
        if isinstance(expr, Difference):
            left, left_attrs = self.transform(expr.left)
            right, right_attrs = self.transform(expr.right)
            right = self._align(right, right_attrs, left_attrs)
            return Difference(left, right), left_attrs
        if isinstance(expr, Product):
            return self._join_on_self(expr.left, expr.right)
        if isinstance(expr, Select):
            child, attrs = self.transform(expr.child)
            return Select(child, expr.left, expr.right, expr.equal), attrs
        if isinstance(expr, Project):
            child, _ = self.transform(expr.child)
            attrs = _par_attrs(expr.attrs)
            return Project(child, attrs), attrs
        if isinstance(expr, Rename):
            if expr.new == SELF:
                raise RelationError(
                    "cannot parallelize an expression renaming an "
                    "attribute to 'self'"
                )
            if expr.old == SELF:
                return self._duplicate_self(expr)
            child, attrs = self.transform(expr.child)
            renamed = tuple(
                expr.new if a == expr.old else a for a in attrs
            )
            return Rename(child, expr.old, expr.new), renamed
        raise TypeError(f"unknown expression node {expr!r}")

    def _align(
        self,
        expr: Expr,
        attrs: Tuple[str, ...],
        target: Tuple[str, ...],
    ) -> Expr:
        """Reorder attributes (projection) so union/difference line up."""
        if attrs == target:
            return expr
        if set(attrs) != set(target):
            raise RelationError(
                f"cannot align schemas {attrs} and {target}"
            )
        return Project(expr, target)

    def _duplicate_self(
        self, expr: Rename
    ) -> Tuple[Expr, Tuple[str, ...]]:
        """``par(rho_{self -> new}(E))``.

        In an update expression the attribute ``self`` always holds the
        receiving object (it only ever originates from the ``self``
        relation), so the tracked copy and the renamed column coincide
        in value.  A plain rename would lose the tracking copy; instead
        the column is *duplicated*: join ``par(E)`` with a renamed copy
        of ``pi_self(rec)`` on equality, yielding both ``self`` and the
        new attribute.
        """
        child, attrs = self.transform(expr.child)
        copy = Rename(Project(Rel(REC), (SELF,)), SELF, expr.new)
        joined = Select(Product(child, copy), SELF, expr.new, True)
        kept = tuple(
            expr.new if a == expr.old and a != SELF else a for a in attrs
        )
        if expr.new not in kept:
            kept = kept + (expr.new,)
        # Reorder: self first, then the original (renamed) attributes.
        ordered = (SELF,) + tuple(a for a in kept if a != SELF)
        return Project(joined, ordered), ordered

    def _join_on_self(
        self, left_expr: Expr, right_expr: Expr
    ) -> Tuple[Expr, Tuple[str, ...]]:
        left, left_attrs = self.transform(left_expr)
        right, right_attrs = self.transform(right_expr)
        shadow = self._shadow()
        renamed_right = Rename(right, SELF, shadow)
        joined = Select(Product(left, renamed_right), SELF, shadow, True)
        kept = tuple(left_attrs) + tuple(
            a for a in right_attrs if a != SELF
        )
        return Project(joined, kept), kept


def par_transform(
    expr: Expr, object_schema: Schema, signature: MethodSignature
) -> Expr:
    """``par(expr)`` over the object relations plus ``rec``."""
    db_schema = schema_to_database_schema(object_schema)
    transformer = _Transformer(
        db_schema, signature, _attribute_names(expr, db_schema)
    )
    transformed, _ = transformer.transform(expr)
    return transformed
