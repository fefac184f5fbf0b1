"""Coloring-partitioned sharding for the versioned store.

The §4 coloring lattice proves which receivers touch disjoint parts of
the instance; this package spends that proof as a *partitioner*:

* :mod:`repro.store.sharding.partition` — the shard layout
  (:class:`Partitioning`): partition-class property relations split
  row-wise by receiving object, everything else replicated;
* :mod:`repro.store.sharding.router` — :class:`Router` classifies a
  batch as **disjoint** (per-shard sub-batches with provably disjoint
  writes) or **cross_shard** from its
  :class:`~repro.coloring.regions.UpdateRegion`;
* :mod:`repro.store.sharding.service` — :class:`ShardedStore`, the
  front-end over one coordinator plus ``N`` shard stores, each
  optionally a persistent worker process: every batch commits on the
  coordinator, and one per-shard cursor advance stages it (or brings
  any shard up to date);
* :mod:`repro.store.sharding.supervisor` — :class:`ShardSupervisor`,
  the self-healing ladder: worker-death detection, restarts through
  the store's shared bring-up (a fresh slice of the coordinator head),
  the degrade-to-inline fallback past the restart budget, and the
  probe that re-promotes it.
"""

from repro.store.sharding.partition import (
    Partitioning,
    ShardingError,
    WorkerDied,
    stable_shard_hash,
)
from repro.store.sharding.router import (
    CROSS_SHARD,
    DISJOINT,
    Route,
    Router,
)
from repro.store.sharding.service import (
    InlineShard,
    ProcessShard,
    ShardBackend,
    ShardedStore,
)
from repro.store.sharding.supervisor import ShardSupervisor

__all__ = [
    "CROSS_SHARD",
    "DISJOINT",
    "InlineShard",
    "Partitioning",
    "ProcessShard",
    "Route",
    "Router",
    "ShardBackend",
    "ShardSupervisor",
    "ShardedStore",
    "ShardingError",
    "WorkerDied",
    "stable_shard_hash",
]
