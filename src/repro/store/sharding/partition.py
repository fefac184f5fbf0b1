"""Coloring-derived partitioning of an object base into shard regions.

A :class:`Partitioning` splits the relational representation of an
object base (its ``Database``) in two:

* **partitioned relations** — the *extents* of the partition classes
  and their ``C.a`` property relations.  Rows are keyed by the leading
  object: extent row ``(s,)`` and property row ``(s, t)`` both live on
  ``shard_of_object(s)``.  The property relations are exactly what
  ``M_par`` writes when its receiving class is a partition class —
  every write row is keyed by the receiving object, so receiver
  sub-batches with disjoint home shards write provably disjoint row
  sets.
* **replicated relations** — everything else: non-partition class
  extents and their property relations (reference data such as
  ``NewSal.old``).  Every shard holds a full, identical copy, so a
  shard-local evaluation that only *reads* replicated relations reads
  exactly what a global evaluation would.

:meth:`Partitioning.slice_database` cuts shard ``k``'s slice straight
from the coordinator's database: replicated relations are shared as
they are, partitioned ones keep the rows whose leading object ``k``
owns, and a partition-class extent also *borrows* every foreign object
a kept row points at, so the slice satisfies the representation's
inclusion dependencies (``C.a[a] <= B[B]``) and stays a valid object
base.

Object-to-shard assignment uses a content hash (CRC-32 of the object's
class and key representation), not Python's ``hash`` — the assignment
must agree across worker *processes* regardless of
``PYTHONHASHSEED``.

The partition classes are where the §4 coloring earns its keep: pick
them as the receiving classes of the workload's methods, and
:meth:`Partitioning.disjoint_reason` checks a method's
:class:`~repro.coloring.regions.UpdateRegion` against the split —
writes confined to partitioned relations, reads confined to replicated
ones — which is the precondition under which a shard-local evaluation
of a sub-batch would agree with the global one.  The store reports
that classification; it evaluates every batch on the coordinator.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from repro.coloring.regions import UpdateRegion
from repro.core.receiver import Receiver
from repro.graph.instance import Obj
from repro.graph.schema import Schema, SchemaError
from repro.objrel.mapping import class_relation_name, property_relation_name
from repro.relational.database import Database
from repro.relational.delta import RelationDelta
from repro.relational.relation import Relation
from repro.store.versioned import StoreError


class ShardingError(StoreError):
    """Raised on misuse of the sharding layer."""


class WorkerDied(ShardingError):
    """A shard worker went dark mid-conversation (pipe EOF / EPIPE).

    The supervised fleet treats this as a restartable event, not a
    caller-visible failure: :class:`~repro.store.sharding.supervisor.
    ShardSupervisor` catches it, heals the shard, and re-executes the
    in-flight command.  Subclassing :class:`ShardingError` keeps
    unsupervised callers' ``except ShardingError`` handling intact.
    """


def stable_shard_hash(obj: Obj) -> int:
    """A process-independent hash of an object.

    ``repr`` of the class name and key is deterministic for the
    hashable key types relations hold (ints, strings, tuples, objects),
    and CRC-32 of it is stable across interpreter processes — unlike
    ``hash(str)``, which varies with ``PYTHONHASHSEED`` and would
    scatter the same object to different shards in different workers.
    """
    # The text of ``repr((cls, key))``, built without the pair, from
    # positional reads of the object's fields.
    return zlib.crc32(f"({obj[0]!r}, {obj[1]!r})".encode("utf-8"))


@dataclass(frozen=True)
class Partitioning:
    """A shard layout: which relations split, and where each row lands."""

    schema: Schema
    partition_classes: FrozenSet[str]
    shards: int
    partitioned_relations: FrozenSet[str] = field(init=False)

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ShardingError(f"need >= 1 shard, got {self.shards}")
        if not self.partition_classes:
            raise ShardingError("need at least one partition class")
        for cls in self.partition_classes:
            if not self.schema.has_class(cls):
                raise SchemaError(f"unknown partition class {cls!r}")
        object.__setattr__(
            self,
            "partitioned_relations",
            frozenset(self.partition_classes)
            | frozenset(
                property_relation_name(self.schema, edge.label)
                for edge in self.schema.edges
                if edge.source in self.partition_classes
            ),
        )

    # -- placement -----------------------------------------------------
    def shard_of_object(self, obj: Obj) -> int:
        return stable_shard_hash(obj) % self.shards

    def shard_of_receiver(self, receiver: Receiver) -> int:
        return self.shard_of_object(receiver.receiving_object)

    def is_partitioned(self, relation: str) -> bool:
        return relation in self.partitioned_relations

    # -- the disjointness certificate ----------------------------------
    def disjoint_reason(self, region: UpdateRegion) -> Optional[str]:
        """Why a method with ``region`` canNOT be classified disjoint —
        ``None`` when it can.

        The certificate: every write lands in a partitioned relation
        (so sub-batch writes are disjoint row sets, keyed by the
        receiving object), and no read touches a partitioned relation
        (so each shard's local copy of everything the evaluation reads
        is bit-identical to the global state).  Together these are the
        row-granular structural-commute argument of
        :mod:`repro.store.txn`, proven *before* execution instead of
        validated after it.
        """
        stray_writes = region.writes - self.partitioned_relations
        if stray_writes:
            return (
                "writes touch replicated relation(s) "
                f"{sorted(stray_writes)}"
            )
        sharded_reads = region.reads & self.partitioned_relations
        if sharded_reads:
            return (
                "reads touch partitioned relation(s) "
                f"{sorted(sharded_reads)}"
            )
        return None

    # -- slicing -------------------------------------------------------
    def slice_database(self, database: Database, shard: int) -> Database:
        """Shard ``shard``'s slice of an object base's ``database``.

        Replicated relations are shared unchanged.  A partitioned
        property relation keeps the rows whose source the shard owns; a
        partition-class extent keeps the shard's own objects plus every
        foreign one some kept row points at (a *borrow*: present in the
        extent so the slice keeps ``C.a[a] <= B[B]``, but carrying none
        of its own partitioned rows).  The slice is ``~1/N`` of the
        partitioned rows.
        """
        owners: Dict[Obj, int] = {}

        def owned(obj: Obj) -> bool:
            owner = owners.get(obj)
            if owner is None:
                owner = owners[obj] = self.shard_of_object(obj)
            return owner == shard

        def kept(name: str, keep: Callable[[Obj], bool]) -> Relation:
            relation = database.relation(name)
            return Relation._from_rows(
                relation.schema, [row for row in relation if keep(row[0])]
            )

        relations: Dict[str, Relation] = {}
        borrowed: Dict[str, set] = {cls: set() for cls in self.partition_classes}
        for edge in self.schema.edges:
            name = property_relation_name(self.schema, edge.label)
            relations[name] = (
                kept(name, owned)
                if edge.source in self.partition_classes
                else database.relation(name)
            )
            if edge.target in self.partition_classes:
                borrowed[edge.target].update(
                    target for _, target in relations[name]
                )
        for cls in self.schema.class_names:
            name = class_relation_name(cls)
            relations[name] = (
                kept(name, lambda obj: obj in borrowed[cls] or owned(obj))
                if cls in self.partition_classes
                else database.relation(name)
            )
        return Database(relations)

    def split_receivers(
        self, receivers: Iterable[Receiver]
    ) -> Dict[int, Tuple[Receiver, ...]]:
        """Receivers grouped by home shard (insertion order kept)."""
        grouped: Dict[int, list] = {}
        for receiver in receivers:
            grouped.setdefault(
                self.shard_of_receiver(receiver), []
            ).append(receiver)
        return {
            shard: tuple(batch) for shard, batch in grouped.items()
        }

    def split_changes(
        self, changes: Mapping[str, RelationDelta]
    ) -> Tuple[Dict[int, Dict[str, RelationDelta]], Dict[str, RelationDelta]]:
        """``(per_shard, replicated)`` halves of a change set.

        Partitioned relations split row-wise by the source object;
        replicated relations are returned whole — the caller must apply
        them to *every* shard to keep the copies identical.
        """
        per_shard: Dict[int, Dict[str, RelationDelta]] = {}
        replicated: Dict[str, RelationDelta] = {}
        for name, delta in changes.items():
            if not self.is_partitioned(name):
                replicated[name] = delta
                continue
            inserted: Dict[int, set] = {}
            deleted: Dict[int, set] = {}
            for row in delta.inserted:
                inserted.setdefault(
                    self.shard_of_object(row[0]), set()
                ).add(row)
            for row in delta.deleted:
                deleted.setdefault(
                    self.shard_of_object(row[0]), set()
                ).add(row)
            for shard in inserted.keys() | deleted.keys():
                per_shard.setdefault(shard, {})[name] = RelationDelta(
                    frozenset(inserted.get(shard, ())),
                    frozenset(deleted.get(shard, ())),
                )
        return per_shard, replicated


__all__ = [
    "Partitioning",
    "ShardingError",
    "WorkerDied",
    "stable_shard_hash",
]
