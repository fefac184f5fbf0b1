"""Algebraic update methods (Definition 5.4, items 3-5).

An algebraic update method is a set of statements ``a := E_a`` — at most
one per property of the receiving class.  Applying it to ``(I, t)``
replaces, for each statement, all ``a``-edges leaving the receiving
object by edges to the elements of ``E_a(I, t)``.  All right-hand sides
are evaluated against the *original* instance; the statements take effect
simultaneously.

Well-definedness — ``E_a(I, t)`` must be a subset of the target class —
is undecidable in general (Lemma 5.3); this implementation checks it at
application time and raises :class:`UpdateTypeError` on violation, on
the sequential path (:meth:`AlgebraicUpdateMethod.apply`) and in
``M_par`` alike.  The paper's "pragmatical" alternative, "use only
expressions of the form E' ∩ B", needs no flag: write the statement as
``E' − (E' − B)``, with ``B`` the target class relation renamed to the
output attribute of ``E'``, and every value it produces is in the class
by construction.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from repro.algebraic.expression import (
    UpdateTypeError,
    check_update_expression,
    receiver_engine,
    update_values,
)
from repro.core.method import UpdateMethod
from repro.core.receiver import Receiver
from repro.core.signature import MethodSignature
from repro.graph.instance import Instance
from repro.graph.schema import Schema, SchemaError
from repro.objrel.mapping import class_relation_name
from repro.relational.algebra import Expr
from repro.relational.engine import intern_expr
from repro.relational.positivity import is_positive


class AlgebraicUpdateMethod(UpdateMethod):
    """A set of algebraic update statements over one receiving class."""

    def __init__(
        self,
        object_schema: Schema,
        signature: MethodSignature,
        statements: Mapping[str, Expr],
        name: str = "algebraic",
    ) -> None:
        super().__init__(signature, name)
        signature.validate(object_schema)
        if not statements:
            raise ValueError("an algebraic method needs at least one statement")
        receiving = signature.receiving_class
        self._object_schema = object_schema
        self._output_attrs: Dict[str, str] = {}
        for label, expr in statements.items():
            edge = object_schema.edge(label)
            if edge.source != receiving:
                raise SchemaError(
                    f"property {label!r} does not belong to the receiving "
                    f"class {receiving!r}"
                )
            self._output_attrs[label] = check_update_expression(
                expr, object_schema, signature, edge.target
            )
        # Interned once here, so each application's engine finds every
        # statement, and the plans of its regions, already canonical.
        self._statements: Dict[str, Expr] = {
            label: intern_expr(expr) for label, expr in statements.items()
        }

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def object_schema(self) -> Schema:
        return self._object_schema

    @property
    def statements(self) -> Dict[str, Expr]:
        return dict(self._statements)

    @property
    def updated_properties(self) -> Tuple[str, ...]:
        return tuple(sorted(self._statements))

    def expression(self, label: str) -> Expr:
        return self._statements[label]

    def output_attribute(self, label: str) -> str:
        """The output attribute name of the statement for ``label``."""
        return self._output_attrs[label]

    def is_positive(self) -> bool:
        """Whether all statements use only the positive algebra
        (Definition 5.10)."""
        return all(is_positive(e) for e in self._statements.values())

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def _apply(self, instance: Instance, receiver: Receiver) -> Instance:
        receiving = receiver.receiving_object
        # Evaluate every right-hand side against the original instance,
        # all through one engine bound to it.
        engine = receiver_engine(instance, receiver, self.signature)
        new_values = {}
        for label, expr in self._statements.items():
            values = update_values(engine, expr)
            target_class = self._object_schema.edge(label).target
            targets = engine.database.relation(
                class_relation_name(target_class)
            ).tuples
            outside = [value for value in values if (value,) not in targets]
            if outside:
                raise UpdateTypeError(
                    f"statement {label} := ... produced objects "
                    f"outside class {target_class}: "
                    f"{sorted(map(str, outside))}"
                )
            new_values[label] = values
        result = instance
        for label, values in new_values.items():
            result = result.replace_property(receiving, label, values)
        return result
