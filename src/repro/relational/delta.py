"""Relation deltas: the change vocabulary of incremental evaluation.

A :class:`RelationDelta` is a pair of tuple sets — insertions and
deletions — against one named relation; a *changes* mapping
(``Mapping[str, RelationDelta]``) describes a state transition of a
whole database.  :meth:`~repro.relational.database.Database.apply_delta`
applies one, sharing unchanged relations (and their cached
fingerprints) between the states, so an engine bound to the new state
through a shared :class:`~repro.relational.engine.EngineCache`
re-serves every memoized subtree the change did not reach.  ``M_par``
(:func:`repro.parallel.apply.parallel_changes`) returns its transition
as a change set, which is how the versioned store commits and logs it.

The paper's update methods only ever move single edges of the object
base — :func:`single_row_change` builds the corresponding one-row
change set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Tuple

from repro.relational.database import Database
from repro.relational.relation import Relation


@dataclass(frozen=True)
class RelationDelta:
    """Insertions and deletions against one relation.

    Deletions apply first, so a tuple listed in both sets ends up
    present (matching :meth:`Relation.updated`).
    """

    inserted: FrozenSet[Tuple] = frozenset()
    deleted: FrozenSet[Tuple] = frozenset()

    def is_empty(self) -> bool:
        return not self.inserted and not self.deleted

    def normalized(self, relation: Relation) -> "RelationDelta":
        """The *effective* delta against ``relation``'s current state:
        insertions of tuples already present and deletions of absent
        tuples drop out, so ``inserted``/``deleted`` become exactly the
        added/removed row sets of the transition."""
        added = frozenset(self.inserted - relation.tuples)
        removed = frozenset(
            (self.deleted & relation.tuples) - self.inserted
        )
        return RelationDelta(added, removed)


def relation_delta(
    inserted: Iterable[Tuple] = (), deleted: Iterable[Tuple] = ()
) -> RelationDelta:
    """Build a delta from any iterables of rows."""
    return RelationDelta(
        frozenset(tuple(row) for row in inserted),
        frozenset(tuple(row) for row in deleted),
    )


def single_row_change(
    name: str, row: Tuple, insert: bool = True
) -> Dict[str, RelationDelta]:
    """A one-row (single-edge) change set for relation ``name``."""
    rows = frozenset({tuple(row)})
    if insert:
        return {name: RelationDelta(inserted=rows)}
    return {name: RelationDelta(deleted=rows)}


def normalize_changes(
    database: Database, changes: Mapping[str, RelationDelta]
) -> Dict[str, RelationDelta]:
    """Effective (non-empty) deltas of ``changes`` against ``database``."""
    effective: Dict[str, RelationDelta] = {}
    for name, delta in changes.items():
        normalized = delta.normalized(database.relation(name))
        if not normalized.is_empty():
            effective[name] = normalized
    return effective
