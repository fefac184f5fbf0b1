"""Object-base instances (Definition 2.2).

An instance of a schema ``S`` is a finite, labeled, directed graph: nodes
are *objects*, each labeled by a class name of ``S``; edges are triples
``(o, e, p)`` where ``e`` is a property name of ``S`` compatible with the
types of ``o`` and ``p``.

Objects of different classes come from disjoint universes.  We realize the
universe of class ``C`` as the set of all :class:`Obj` values whose ``cls``
field is ``C``, which makes the universes disjoint by construction.

Instances are immutable; all mutating operations return new instances.
This matches the paper's functional definition of an update method as a
map from instances to instances, and makes instances hashable and
comparable by value.
"""

from __future__ import annotations

from collections import _tuplegetter  # namedtuple's C field reader
from dataclasses import dataclass
from typing import (
    AbstractSet,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.graph.schema import Schema, SchemaError


#: The last component of every :class:`Obj` tuple: private to this
#: module and to this process, so no tuple that is not an object (such
#: as the pair ``(cls, key)``) ever compares equal to one.
_OBJ_TAG = object()


def _unordered(op: str, left: object, right: object) -> TypeError:
    return TypeError(
        f"'{op}' not supported between instances of "
        f"{type(left).__name__!r} and {type(right).__name__!r}"
    )


class Obj(tuple):
    """An object: a member of the universe of class ``cls``.

    ``key`` distinguishes objects within a class; any hashable value
    works (ints and strings in practice).  Objects of different classes
    are distinct even when their keys coincide.  Ordering is total and
    deterministic even across mixed key types (keys compare by type name
    first), so instances render and iterate reproducibly.

    An object is the tuple ``(cls, key, _OBJ_TAG)``, so hashing and
    equality run in tuple's C slots wherever rows are hashed, and the
    tag keeps it unequal to every tuple that is not an object.  Per-row
    readers may read ``obj[0]`` and ``obj[1]`` for ``cls`` and ``key``.
    An object is not iterable, compares in order only with objects, and
    pickles as ``Obj(cls, key)``, so each process rebuilds it with its
    own tag.
    """

    __slots__ = ()

    def __new__(_type, cls: str, key: Hashable) -> "Obj":
        return tuple.__new__(_type, (cls, key, _OBJ_TAG))

    cls = _tuplegetter(0, "The class name labeling the object.")
    key = _tuplegetter(1, "The key distinguishing it within its class.")

    def __iter__(self) -> Iterator:
        raise TypeError(f"{type(self).__name__!r} object is not iterable")

    def __reduce__(self) -> Tuple[type, Tuple[str, Hashable]]:
        return (type(self), (self[0], self[1]))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(cls={self[0]!r}, key={self[1]!r})"

    def __str__(self) -> str:
        return f"{self[0]}#{self[1]}"

    def _sort_key(self) -> Tuple[str, str, str]:
        key = self[1]
        return (self[0], type(key).__name__, str(key))

    def __lt__(self, other: "Obj") -> bool:
        if not isinstance(other, Obj):
            raise _unordered("<", self, other)
        return self._sort_key() < other._sort_key()

    def __le__(self, other: "Obj") -> bool:
        if not isinstance(other, Obj):
            raise _unordered("<=", self, other)
        return self == other or self < other

    def __gt__(self, other: "Obj") -> bool:
        if not isinstance(other, Obj):
            raise _unordered(">", self, other)
        return other < self

    def __ge__(self, other: "Obj") -> bool:
        if not isinstance(other, Obj):
            raise _unordered(">=", self, other)
        return other <= self


@dataclass(frozen=True, order=True)
class Edge:
    """A property link ``(source, label, target)`` between two objects."""

    source: Obj
    label: str
    target: Obj

    def incident_nodes(self) -> Tuple[Obj, Obj]:
        return (self.source, self.target)

    def __str__(self) -> str:
        return f"{self.source} --{self.label}--> {self.target}"


Item = Union[Obj, Edge]
"""An item of an instance graph: a node or an edge (Definition 4.1)."""


def item_label(item: Item) -> str:
    """The schema item labeling an instance item.

    For a node this is its class name; for an edge its property name.
    """
    if isinstance(item, Obj):
        return item.cls
    if isinstance(item, Edge):
        return item.label
    raise TypeError(f"not an instance item: {item!r}")


def _check_nodes(schema: Schema, nodes: Iterable[Obj]) -> None:
    for node in nodes:
        if not schema.has_class(node.cls):
            raise SchemaError(
                f"object {node} labeled by unknown class {node.cls!r}"
            )


def _check_edges(
    schema: Schema, edges: Iterable[Edge], node_set: FrozenSet[Obj]
) -> None:
    for edge in edges:
        schema_edge = schema.edge(edge.label)
        if edge.source not in node_set or edge.target not in node_set:
            raise SchemaError(f"dangling edge {edge}")
        if (
            edge.source.cls != schema_edge.source
            or edge.target.cls != schema_edge.target
        ):
            raise SchemaError(
                f"edge {edge} incompatible with schema edge {schema_edge}"
            )


class Instance:
    """An immutable object-base instance.

    Parameters
    ----------
    schema:
        The schema this instance conforms to.
    nodes:
        The objects of the instance.
    edges:
        Property links; every edge's endpoints must be among ``nodes`` and
        its label must be schema-compatible with their classes.
    """

    __slots__ = ("_schema", "_nodes", "_edges", "_hash")

    def __init__(
        self,
        schema: Schema,
        nodes: Iterable[Obj] = (),
        edges: Iterable[Edge] = (),
    ) -> None:
        node_set: FrozenSet[Obj] = frozenset(nodes)
        edge_set: FrozenSet[Edge] = frozenset(edges)
        _check_nodes(schema, node_set)
        _check_edges(schema, edge_set, node_set)
        self._schema = schema
        self._nodes = node_set
        self._edges = edge_set
        self._hash: Optional[int] = None

    @classmethod
    def _derive(
        cls,
        schema: Schema,
        nodes: FrozenSet[Obj],
        edges: FrozenSet[Edge],
    ) -> "Instance":
        """Construct from parts carried over from an already-validated
        instance, skipping the full re-validation pass.

        The functional updates below go through here after validating
        only the *added* items: removals and carried-over items cannot
        invalidate an instance, so re-checking every node and edge on
        each delta would make a small update cost O(instance).
        """
        instance = cls.__new__(cls)
        instance._schema = schema
        instance._nodes = frozenset(nodes)
        instance._edges = frozenset(edges)
        instance._hash = None
        return instance

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def nodes(self) -> FrozenSet[Obj]:
        return self._nodes

    @property
    def edges(self) -> FrozenSet[Edge]:
        return self._edges

    def items(self) -> FrozenSet[Item]:
        """The instance viewed as the set of its items (Section 4.1)."""
        return self._nodes | self._edges

    def objects_of_class(self, class_name: str) -> FrozenSet[Obj]:
        """The class ``class_name``: all objects labeled by it."""
        if not self._schema.has_class(class_name):
            raise SchemaError(f"unknown class {class_name!r}")
        return frozenset(o for o in self._nodes if o.cls == class_name)

    def edges_labeled(self, label: str) -> FrozenSet[Edge]:
        """All edges carrying property name ``label``."""
        self._schema.edge(label)  # validate
        return frozenset(e for e in self._edges if e.label == label)

    def edges_from(self, node: Obj, label: Optional[str] = None) -> FrozenSet[Edge]:
        """Edges leaving ``node``, optionally restricted to ``label``."""
        return frozenset(
            e
            for e in self._edges
            if e.source == node and (label is None or e.label == label)
        )

    def edges_incident_to(self, node: Obj) -> FrozenSet[Edge]:
        """Edges touching ``node`` as source or target."""
        return frozenset(
            e for e in self._edges if e.source == node or e.target == node
        )

    def property_values(self, node: Obj, label: str) -> FrozenSet[Obj]:
        """The objects ``p`` with an edge ``(node, label, p)``."""
        return frozenset(e.target for e in self.edges_from(node, label))

    def has_node(self, node: Obj) -> bool:
        return node in self._nodes

    def has_edge(self, edge: Edge) -> bool:
        return edge in self._edges

    # ------------------------------------------------------------------
    # Functional updates
    # ------------------------------------------------------------------
    def with_nodes(self, nodes: Iterable[Obj]) -> "Instance":
        """A new instance with ``nodes`` added."""
        added = frozenset(nodes)
        _check_nodes(self._schema, added)
        return Instance._derive(
            self._schema, self._nodes | added, self._edges
        )

    def with_edges(self, edges: Iterable[Edge]) -> "Instance":
        """A new instance with ``edges`` added (endpoints must exist)."""
        added = frozenset(edges)
        _check_edges(self._schema, added, self._nodes)
        return Instance._derive(
            self._schema, self._nodes, self._edges | added
        )

    def without_edges(self, edges: Iterable[Edge]) -> "Instance":
        """A new instance with ``edges`` removed."""
        return Instance._derive(
            self._schema, self._nodes, self._edges - frozenset(edges)
        )

    def without_nodes(self, nodes: Iterable[Obj]) -> "Instance":
        """A new instance with ``nodes`` and all their incident edges removed."""
        doomed: Set[Obj] = set(nodes)
        kept_edges = frozenset(
            e
            for e in self._edges
            if e.source not in doomed and e.target not in doomed
        )
        return Instance._derive(
            self._schema, self._nodes - doomed, kept_edges
        )

    def replace_property(
        self, node: Obj, label: str, targets: Iterable[Obj]
    ) -> "Instance":
        """Replace all ``label``-edges leaving ``node`` by edges to ``targets``.

        This is the primitive effect of an algebraic update statement
        (Definition 5.4(5)).
        """
        old = self.edges_from(node, label)
        new = frozenset(Edge(node, label, t) for t in targets)
        _check_edges(self._schema, new, self._nodes)
        return Instance._derive(
            self._schema, self._nodes, (self._edges - old) | new
        )

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self._schema == other._schema
            and self._nodes == other._nodes
            and self._edges == other._edges
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._nodes, self._edges))
        return self._hash

    def __contains__(self, item: Item) -> bool:
        if isinstance(item, Obj):
            return item in self._nodes
        return item in self._edges

    def __iter__(self) -> Iterator[Item]:
        return iter(self.items())

    def __len__(self) -> int:
        return len(self._nodes) + len(self._edges)

    def __le__(self, other: "Instance") -> bool:
        """Item-set inclusion (used to state inflationary/deflationary)."""
        return self._nodes <= other._nodes and self._edges <= other._edges

    def __repr__(self) -> str:
        nodes = ", ".join(str(n) for n in sorted(self._nodes))
        edges = ", ".join(str(e) for e in sorted(self._edges))
        return f"Instance(nodes={{{nodes}}}, edges={{{edges}}})"


def items_of(
    nodes: AbstractSet[Obj], edges: AbstractSet[Edge]
) -> FrozenSet[Item]:
    """Bundle nodes and edges into a single item set."""
    return frozenset(nodes) | frozenset(edges)
