"""Transactional versioned object-base store (``repro.store``).

The persistence and concurrency layer over the paper's update-method
machinery:

- :mod:`repro.store.versioned` — copy-on-write MVCC versions and
  pinned snapshots over :class:`~repro.relational.database.Database`
  states (the :class:`~repro.graph.instance.Instance` is a lazily
  derived view), with engine caches (PR 2 content fingerprints) shared
  across versions.
- :mod:`repro.store.wal` — append-only checksummed JSON-lines
  write-ahead log with checkpoints and compaction.
- :mod:`repro.store.recovery` — torn-tail truncation and replay to the
  last durable state, plus the fault-injection hook used by the crash
  tests.
- :mod:`repro.store.txn` — optimistic transactions whose commit-time
  conflicts are resolved with the paper's order-independence theorems
  before falling back to abort/retry.
- :mod:`repro.store.sharding` — coloring-partitioned shards with a
  per-shard process pool: every batch commits on a coordinator running
  the usual commit tiers, and each shard stages its slice of the
  committed versions; the router classifies batches by whether their
  receiver sub-batches are provably disjoint.
"""

from repro.store.recovery import (
    CrashPoint,
    FaultInjector,
    RecoveredState,
    RecoveryError,
    recover,
    replay,
    scan_wal,
)
from repro.store.txn import (
    Transaction,
    TransactionConflict,
    TransactionError,
    classify_order_independence,
    compose_changes,
    run_transaction,
)
from repro.store.versioned import (
    MethodApplication,
    Snapshot,
    StoreError,
    Version,
    VersionedStore,
    VersionSummary,
)
from repro.store.wal import (
    DURABILITY_MODES,
    FaultHook,
    WalError,
    WalRecord,
    WriteAheadLog,
)
from repro.store.sharding import (
    Partitioning,
    Route,
    Router,
    ShardedStore,
    ShardingError,
)

__all__ = [
    "CrashPoint",
    "DURABILITY_MODES",
    "FaultHook",
    "FaultInjector",
    "MethodApplication",
    "Partitioning",
    "RecoveredState",
    "RecoveryError",
    "Route",
    "Router",
    "ShardedStore",
    "ShardingError",
    "Snapshot",
    "StoreError",
    "Transaction",
    "TransactionConflict",
    "TransactionError",
    "Version",
    "VersionSummary",
    "VersionedStore",
    "WalError",
    "WalRecord",
    "WriteAheadLog",
    "classify_order_independence",
    "compose_changes",
    "recover",
    "replay",
    "run_transaction",
    "scan_wal",
]
