"""Update regions: the coloring lattice as a *partitioner* (Section 4).

A coloring ``kappa`` of a schema says which items an update method
*uses* (``u``), *creates* (``c``) and *deletes* (``d``).  Section 4
exploits it to characterize order independence; this module exploits
the same information one step further: the ``u``-colored items are the
method's **read region** and the ``c``/``d``-colored items its **write
region**, both expressed in the relational vocabulary of
:mod:`repro.objrel.mapping` (class extents and ``C.a`` property
relations).  Two receiver sub-batches whose regions are disjoint touch
provably disjoint parts of the instance — they could commit on
separate shards with zero coordination, which is the certificate the
router of :mod:`repro.store.sharding` checks.

Two region sources are provided:

* :func:`coloring_region` — from an explicit §4 :class:`Coloring`
  (e.g. one inferred by :mod:`repro.coloring.inference`), for methods
  given extensionally;
* :func:`method_region` — structurally exact for
  :class:`~repro.algebraic.method.AlgebraicUpdateMethod`: the read
  region is :func:`~repro.parallel.apply.method_read_relations` (the
  relations the statement bodies name, bar ``self`` and the arguments,
  plus the target class extents), the write region the property
  relations of the updated labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

from repro.coloring.coloring import CREATES, Coloring, DELETES, USES
from repro.graph.schema import Schema
from repro.objrel.mapping import property_relation_name


@dataclass(frozen=True)
class UpdateRegion:
    """The relations an update method reads and writes.

    Names are relational: class extents keep the class name, property
    edges become ``C.a`` (:func:`property_relation_name`).  ``writes``
    covers both creations and deletions — for region disjointness the
    direction of the change is irrelevant, only *where* it lands.
    """

    reads: FrozenSet[str]
    writes: FrozenSet[str]

    @property
    def touched(self) -> FrozenSet[str]:
        return self.reads | self.writes

    def reads_own_writes(self) -> bool:
        """Whether the method reads a relation it also writes.

        The sharding router refuses the disjoint classification for
        such methods: a shard-local evaluation would miss the rows
        other shards hold of the written relation.
        """
        return bool(self.reads & self.writes)

    def disjoint_from(self, other: "UpdateRegion") -> bool:
        """Structural commutation: neither method sees the other's writes.

        The row-granular analogue of the structural-commute commit tier
        of :mod:`repro.store.txn` — if it holds at relation granularity
        the two applications commute outright.
        """
        return not (
            self.touched & other.writes or other.touched & self.writes
        )


def _item_relation(schema: Schema, item: str) -> str:
    """The relational name of a schema item (class or property edge)."""
    if schema.has_class(item):
        return item
    return property_relation_name(schema, item)


def coloring_region(schema: Schema, coloring: Coloring) -> UpdateRegion:
    """The :class:`UpdateRegion` a §4 coloring describes.

    ``u``-colored items are reads; ``c``- or ``d``-colored items are
    writes.  Minimal colorings give the tightest region; any sound
    coloring gives a sound (possibly looser) one, because colorings
    only ever over-approximate what the method touches.
    """
    reads = set()
    writes = set()
    for item, colors in coloring:
        if USES in colors:
            reads.add(_item_relation(schema, item))
        if CREATES in colors or DELETES in colors:
            writes.add(_item_relation(schema, item))
    return UpdateRegion(frozenset(reads), frozenset(writes))


def method_region(method) -> UpdateRegion:
    """The structurally exact region of an algebraic update method.

    Reads: the relations the statement bodies name, bar ``self`` and
    the arguments — the base relations ``par(E)`` reads — plus the
    target class extents consulted by the well-typedness check
    (:func:`~repro.parallel.apply.method_read_relations`).
    Writes: the property relations of the updated labels — ``M_par``
    only ever replaces ``a``-edges of receiving objects, so every write
    row is keyed by the receiving object in the source column.
    """
    from repro.parallel.apply import method_read_relations

    schema = method.object_schema
    writes = frozenset(
        property_relation_name(schema, label)
        for label in method.updated_properties
    )
    return UpdateRegion(method_read_relations(method), writes)


__all__ = ["UpdateRegion", "coloring_region", "method_region"]
