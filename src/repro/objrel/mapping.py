"""The relational representation of object bases (Section 5.1).

Naming conventions:

* the unary relation of class ``C`` is named ``C`` with one attribute
  also named ``C`` (domain ``C``);
* the binary relation of edge ``(C, a, B)`` is named ``C.a`` ("Ca" in
  the paper, e.g. ``Df`` for Drinker.frequents) with attributes ``C``
  (domain ``C``) and ``a`` (domain ``B``).

Property names are globally unique in a schema, so ``C.a`` never clashes.
Proposition 5.1: the object-base instances of ``S`` correspond precisely
to the relational instances of the corresponding schema satisfying its
dependencies — :func:`instance_to_database` and
:func:`database_to_instance` realize the two directions.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Tuple

from repro.graph.instance import Edge, Instance, Obj
from repro.graph.schema import Schema, SchemaError
from repro.relational.database import Database, DatabaseSchema
from repro.relational.dependencies import (
    Dependency,
    DisjointnessDependency,
    InclusionDependency,
)
from repro.relational.relation import (
    Attribute,
    Relation,
    RelationSchema,
)


def class_relation_name(class_name: str) -> str:
    """The relation name for a class: the class name itself."""
    return class_name


def property_relation_name(schema: Schema, label: str) -> str:
    """The relation name ``C.a`` for a property edge ``(C, a, B)``."""
    edge = schema.edge(label)
    return f"{edge.source}.{label}"


@lru_cache(maxsize=256)  # one schema per name: conversions share it
def class_relation_schema(class_name: str) -> RelationSchema:
    return RelationSchema([Attribute(class_name, class_name)])


def property_relation_schema(schema: Schema, label: str) -> RelationSchema:
    edge = schema.edge(label)
    return _edge_relation_schema(edge.source, label, edge.target)


@lru_cache(maxsize=256)
def _edge_relation_schema(
    source: str, label: str, target: str
) -> RelationSchema:
    return RelationSchema([Attribute(source, source), Attribute(label, target)])


def schema_to_database_schema(schema: Schema) -> DatabaseSchema:
    """The relational database schema corresponding to ``schema``."""
    schemas: Dict[str, RelationSchema] = {}
    for class_name in schema.class_names:
        schemas[class_relation_name(class_name)] = class_relation_schema(
            class_name
        )
    for edge in schema.edges:
        schemas[
            property_relation_name(schema, edge.label)
        ] = property_relation_schema(schema, edge.label)
    return DatabaseSchema(schemas)


def schema_dependencies(
    schema: Schema, include_disjointness: bool = False
) -> List[Dependency]:
    """Integrity constraints of the relational representation.

    The inclusion dependencies ``C.a[C] <= C[C]`` and ``C.a[a] <= B[B]``
    for each edge ``(C, a, B)`` — full, since class relations are unary.
    Disjointness dependencies between class extents are enforced by
    typing (objects carry their class), so they are only emitted when
    ``include_disjointness`` is set.
    """
    dependencies: List[Dependency] = []
    for edge in schema.edges:
        rel = property_relation_name(schema, edge.label)
        dependencies.append(
            InclusionDependency(
                rel, (edge.source,), edge.source, (edge.source,)
            )
        )
        dependencies.append(
            InclusionDependency(
                rel, (edge.label,), edge.target, (edge.target,)
            )
        )
    if include_disjointness:
        classes = sorted(schema.class_names)
        for i, first in enumerate(classes):
            for second in classes[i + 1 :]:
                dependencies.append(
                    DisjointnessDependency(first, first, second, second)
                )
    return dependencies


def instance_to_database(instance: Instance) -> Database:
    """The relational instance representing ``instance``.

    One pass over the nodes groups them by class and one over the edges
    groups them by label.  A validated instance yields rows of the
    right arity, so the relations are built without re-validation.
    """
    schema = instance.schema
    by_class: Dict[str, List[Tuple[Obj]]] = {
        name: [] for name in schema.class_names
    }
    for obj in instance.nodes:
        by_class[obj[0]].append((obj,))
    edges = schema.edges
    by_label: Dict[str, List[Tuple[Obj, Obj]]] = {
        edge.label: [] for edge in edges
    }
    for edge in instance.edges:
        by_label[edge.label].append((edge.source, edge.target))
    relations: Dict[str, Relation] = {
        class_relation_name(name): Relation._from_rows(
            class_relation_schema(name), rows
        )
        for name, rows in by_class.items()
    }
    for edge in edges:
        relations[property_relation_name(schema, edge.label)] = Relation._from_rows(
            _edge_relation_schema(edge.source, edge.label, edge.target),
            by_label[edge.label],
        )
    return Database(relations)


def database_to_instance(database: Database, schema: Schema) -> Instance:
    """The object-base instance a relational database represents.

    Inverse of :func:`instance_to_database`; raises
    :class:`~repro.graph.schema.SchemaError` when the database violates
    the representation's dependencies (Proposition 5.1's correspondence
    is only with dependency-satisfying instances).
    """
    nodes: set = set()
    edges: set = set()
    for class_name in schema.class_names:
        relation = database.relation(class_relation_name(class_name))
        for (obj,) in relation:
            if not isinstance(obj, Obj) or obj.cls != class_name:
                raise SchemaError(
                    f"value {obj!r} is not an object of class {class_name}"
                )
            nodes.add(obj)
    for schema_edge in schema.edges:
        relation = database.relation(
            property_relation_name(schema, schema_edge.label)
        )
        for source, target in relation:
            edge = Edge(source, schema_edge.label, target)
            if source not in nodes or target not in nodes:
                raise SchemaError(
                    f"edge {edge} violates an inclusion dependency"
                )
            edges.add(edge)
    return Instance(schema, nodes, edges)
