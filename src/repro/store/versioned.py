"""Copy-on-write MVCC store over relational ``Database`` states.

A :class:`VersionedStore` holds an immutable chain of
:class:`Version` objects, each one ``Database`` plus the change set
that produced it.  Committing never mutates anything: a new
version's database shares every unchanged relation (and its cached
content fingerprint) with its parent through
:meth:`~repro.relational.database.Database.apply_delta`, so concurrent
readers pin snapshots without blocking writers, and writers pay only
for the relations they touch.

The object-base instance of a version is a *view*, not stored state:
when the store knows its object schema, :attr:`Version.instance`
derives it with :func:`~repro.objrel.mapping.database_to_instance` on
first access and caches it (Proposition 5.1 makes the two
representations interchangeable).  Writes never need it —
:func:`~repro.parallel.apply.parallel_changes` computes ``M_par`` on
the database.

Versions are keyed two ways:

* by a **monotonically increasing version number** — the commit order,
  what the write-ahead log records and recovery replays; and
* by the **content fingerprints** of their relations (PR 2) — the
  engine-cache key.  All engines handed out by the store share one
  :class:`~repro.relational.engine.EngineCache`, so a subtree evaluated
  at version ``n`` is re-served at version ``n+k`` whenever its base
  relations kept their fingerprints: memoized query work survives
  across the whole version chain.

Only the head's relations keep column indexes
(:meth:`~repro.relational.relation.Relation.index`): a commit carries
them into the new version and drops those of every relation it
supersedes, so memory for indexes does not grow with the chain.

Durability rides on :mod:`repro.store.wal`: when the store owns a log,
every commit appends its normalized change set *before* the in-memory
chain advances (write-ahead), and :meth:`VersionedStore.checkpoint`
snapshots the head so :func:`repro.store.recovery.recover` replays a
bounded suffix.  A store is either seeded (``VersionedStore(...)``,
root version 0) or reopened from its log
(:meth:`VersionedStore.from_wal`, root at the recovered version); both
set up the same fields through one initializer.  Transactions
(:mod:`repro.store.txn`) layer optimistic concurrency control —
including the paper's commutativity machinery — on top of
:meth:`begin`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.graph.instance import Instance
from repro.graph.schema import Schema
from repro.obs import tracer as trace
from repro.obs.metrics import global_registry
from repro.objrel.mapping import database_to_instance, instance_to_database
from repro.relational.database import Database
from repro.relational.delta import RelationDelta, normalize_changes
from repro.relational.engine import EngineCache, QueryEngine
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.budget import Budget
from repro.store.wal import WriteAheadLog


class StoreError(ValueError):
    """Raised on misuse of the versioned store."""


@dataclass(frozen=True)
class MethodApplication:
    """One recorded update-method application: ``M_par(I, T)``.

    Versions carry the applications that produced them so the commit
    protocol can reason *semantically*: two transactions whose versions
    were produced by a provably order-independent method commute even
    when their read and write sets overlap.
    """

    method: Any  # AlgebraicUpdateMethod; typed loosely to avoid cycles
    receivers: Tuple

    @property
    def method_name(self) -> str:
        return self.method.name


@dataclass(frozen=True)
class Version:
    """One immutable committed state of the store."""

    version: int
    database: Database
    changes: Mapping[str, RelationDelta]
    """The normalized delta from the parent version (empty for the root)."""

    operations: Tuple[MethodApplication, ...] = ()
    """The method applications whose effects this version commits."""

    txn_id: Optional[int] = None

    schema: Optional[Schema] = field(default=None, repr=False, compare=False)
    """The object schema the database represents (``None``: none known)."""

    _instance: Optional[Instance] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def instance(self) -> Optional[Instance]:
        """The object-base view of :attr:`database`, derived on first
        access and cached; ``None`` when the store has no object schema."""
        if self._instance is None and self.schema is not None:
            object.__setattr__(
                self,
                "_instance",
                database_to_instance(self.database, self.schema),
            )
        return self._instance

    def fingerprints(self) -> Dict[str, int]:
        """Per-relation content fingerprints — the engine-cache key."""
        return self.database.fingerprints()

    @property
    def written_relations(self) -> frozenset:
        return frozenset(self.changes)


@dataclass(frozen=True)
class VersionSummary:
    """What commit validation needs from a pruned version.

    :meth:`VersionedStore.prune` may drop a version's database while a
    snapshot older than it is still pinned (e.g. by an open
    transaction).  The version's write set and operations must survive
    anyway — :meth:`VersionedStore.versions_after` has to report every
    commit between a transaction's snapshot and the head, or validation
    would miss a genuine conflict and publish a lost update.  A summary
    keeps exactly those fields, at a fraction of the state's size.
    """

    version: int
    written_relations: frozenset
    operations: Tuple[MethodApplication, ...] = ()
    txn_id: Optional[int] = None


#: What :meth:`VersionedStore.versions_after` yields: a full version,
#: or the validation-relevant summary of a pruned one.
VersionLike = Union[Version, VersionSummary]


@dataclass
class Snapshot:
    """A pinned, immutable view of one version.

    Snapshots are how readers interact with the store: everything they
    can reach is immutable, so no lock is held while one is open.
    ``release`` drops the pin (pins only matter to :meth:`VersionedStore.prune`).
    """

    store: "VersionedStore"
    at: Version
    _released: bool = field(default=False, repr=False)

    @property
    def version(self) -> int:
        return self.at.version

    @property
    def database(self) -> Database:
        return self.at.database

    @property
    def instance(self) -> Optional[Instance]:
        return self.at.instance

    def engine(self) -> QueryEngine:
        """A query engine bound to this snapshot, sharing the store cache."""
        return self.store.engine(self.at)

    def release(self) -> None:
        if not self._released:
            self._released = True
            self.store._unpin(self.at.version)

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.release()
        return False


class VersionedStore:
    """The MVCC object-base store.

    Parameters
    ----------
    instance:
        Seed the store from an object-base instance: it is converted
        once (``instance_to_database``) and only its schema is kept, so
        versions can derive their instance view on demand.
    database:
        Seed from a bare relational state (no instance view).
    wal:
        A :class:`~repro.store.wal.WriteAheadLog` (or a path string to
        open one).  When present, commits are logged write-ahead and a
        checkpoint of the seed state is appended on construction if the
        log is empty.
    cache:
        The shared :class:`EngineCache`; created when omitted.  Every
        engine the store hands out uses it, so memoized subtrees flow
        across versions by fingerprint.
    commutativity:
        Whether transactions may use the paper's order-independence
        machinery to commit through conflicts (see
        :mod:`repro.store.txn`).  Off = naive abort-on-overlap.
    decision_budget:
        Zero-arg factory producing a fresh
        :class:`~repro.resilience.budget.Budget` for each commit-time
        decision-procedure run (budgets are single-use — a deadline
        starts at construction).  ``None`` = unbudgeted decisions.
    breaker:
        The :class:`~repro.resilience.breaker.CircuitBreaker` guarding
        the semantic-commute tier; a default (threshold 3, 30 s reset)
        is created when omitted.  Pass one with a huge
        ``failure_threshold`` to effectively disable it.
    """

    def __init__(
        self,
        instance: Optional[Instance] = None,
        database: Optional[Database] = None,
        wal: Optional[WriteAheadLog] = None,
        cache: Optional[EngineCache] = None,
        commutativity: bool = True,
        durability: str = "flush",
        decision_budget: Optional[Callable[[], Budget]] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        if (instance is None) == (database is None):
            raise StoreError(
                "seed the store with exactly one of instance= or database="
            )
        schema: Optional[Schema] = None
        if instance is not None:
            database = instance_to_database(instance)
            schema = instance.schema
        if isinstance(wal, str):
            wal = WriteAheadLog(wal, durability=durability)
        self._setup(
            0,
            database,
            schema,
            wal,
            cache,
            commutativity,
            decision_budget,
            breaker,
        )
        if wal is not None and wal.next_lsn == 0:
            wal.append_checkpoint(0, database)

    # -- construction from a log ---------------------------------------
    @classmethod
    def from_wal(
        cls,
        path: str,
        schema: Optional[Schema] = None,
        cache: Optional[EngineCache] = None,
        commutativity: bool = True,
        durability: str = "flush",
        decision_budget: Optional[Callable[[], Budget]] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> "VersionedStore":
        """Recover the head state from ``path`` and attach to the log.

        The torn tail (if any) is truncated, the latest checkpoint plus
        subsequent commits replay into the head database, and the store
        resumes committing at the recovered version.  The log is read
        once: the recovery scan's last LSN and version seed the
        attached :class:`WriteAheadLog`.  Pass ``schema`` to give
        versions their (lazily derived) object-base instance view.
        """
        from repro.store.recovery import recover

        state = recover(path, truncate=True)
        if state.database is None:
            raise StoreError(f"log {path!r} holds no recoverable state")
        store = cls.__new__(cls)
        store._setup(
            state.version,
            state.database,
            schema,
            WriteAheadLog._after_recovery(
                path, durability, state.next_lsn, state.last_version
            ),
            cache,
            commutativity,
            decision_budget,
            breaker,
        )
        return store

    def _setup(
        self,
        version: int,
        database: Database,
        schema: Optional[Schema],
        wal: Optional[WriteAheadLog],
        cache: Optional[EngineCache],
        commutativity: bool,
        decision_budget: Optional[Callable[[], Budget]],
        breaker: Optional[CircuitBreaker],
    ) -> None:
        """The field setup both constructors share: a chain holding one
        root version, ``version`` over ``database``."""
        self.schema = schema
        self.wal = wal
        self.cache = cache if cache is not None else EngineCache()
        self.commutativity = commutativity
        self.decision_budget = decision_budget
        self.breaker = (
            breaker
            if breaker is not None
            else CircuitBreaker(name="store.semantic")
        )
        self._lock = threading.RLock()
        self._pins: Dict[int, int] = {}
        self._summaries: Dict[int, VersionSummary] = {}
        self._next_txn_id = 0
        root = Version(
            version=version, database=database, changes={}, schema=schema
        )
        self._versions: List[Version] = [root]
        self._by_id: Dict[int, Version] = {version: root}
        global_registry().gauge("store.versions").set_max(1)

    # -- reading -------------------------------------------------------
    @property
    def head(self) -> Version:
        with self._lock:
            return self._versions[-1]

    @property
    def versions(self) -> Tuple[Version, ...]:
        with self._lock:
            return tuple(self._versions)

    def version(self, number: int) -> Version:
        with self._lock:
            found = self._by_id.get(number)
        if found is None:
            raise StoreError(f"version {number} is unknown (pruned?)")
        return found

    def versions_after(self, number: int) -> List[VersionLike]:
        """Versions committed strictly after ``number`` (commit order).

        Pruned versions appear as :class:`VersionSummary` stand-ins, so
        commit validation sees every intervening write set even after
        :meth:`prune` dropped the full states.
        """
        with self._lock:
            found: List[VersionLike] = [
                summary
                for version, summary in self._summaries.items()
                if version > number
            ]
            found.extend(v for v in self._versions if v.version > number)
        return sorted(found, key=lambda v: v.version)

    def snapshot(self, at: Optional[int] = None) -> Snapshot:
        """Pin a version (the head by default) for reading."""
        with self._lock:
            version = (
                self._versions[-1] if at is None else self.version(at)
            )
            self._pins[version.version] = (
                self._pins.get(version.version, 0) + 1
            )
        global_registry().counter("store.snapshots").inc()
        return Snapshot(self, version)

    def _unpin(self, number: int) -> None:
        with self._lock:
            count = self._pins.get(number, 0) - 1
            if count <= 0:
                self._pins.pop(number, None)
            else:
                self._pins[number] = count

    def engine(self, at: Optional[Version] = None) -> QueryEngine:
        """A query engine over ``at`` (default head), sharing the cache."""
        version = at if at is not None else self.head
        return QueryEngine(version.database, cache=self.cache)

    def new_decision_budget(self) -> Optional[Budget]:
        """A fresh budget for one decision run (``None`` = unbudgeted)."""
        factory = self.decision_budget
        return None if factory is None else factory()

    # -- writing -------------------------------------------------------
    def _allocate_txn_id(self) -> int:
        with self._lock:
            txn_id = self._next_txn_id
            self._next_txn_id += 1
        return txn_id

    def commit_changes(
        self,
        changes: Mapping[str, RelationDelta],
        operations: Iterable[MethodApplication] = (),
        txn_id: Optional[int] = None,
        database: Optional[Database] = None,
    ) -> Version:
        """Commit a change set against the current head (low-level).

        Normalizes ``changes`` against the head database, constructs
        the new version, logs it write-ahead (when a WAL is attached),
        then publishes.  The log append is the *last* fallible step
        before publication: a failure anywhere — constructing the new
        state, or the append itself, a crash real or injected — leaves
        the log and the in-memory chain agreeing that the commit never
        happened.  The log can never durably hold a record the chain
        skipped.

        ``database``, when given, is the head's database with
        ``changes`` already applied, sharing every relation
        ``changes`` does not name (a fastpath transaction's working
        state): it becomes the new version's state instead of the
        change set being applied to the head a second time.

        Transactions go through :meth:`begin` instead, which layers
        conflict detection on top; ``commit_changes`` is the primitive
        they (and recovery tooling) share.
        """
        with self._lock:
            head = self._versions[-1]
            effective = normalize_changes(head.database, changes)
            if not effective:
                return head
            if database is None or len(effective) < len(changes):
                # A named relation that nets to no change would be
                # published as an unshared copy: build from the head.
                database = head.database.apply_delta(effective)
            number = head.version + 1
            version = Version(
                version=number,
                database=database,
                changes=effective,
                operations=tuple(operations),
                txn_id=txn_id,
                schema=self.schema,
            )
            if self.wal is not None:
                self.wal.append_commit(number, effective, txn_id=txn_id)
            self._versions.append(version)
            self._by_id[number] = version
            # Column indexes live on the head: the new state carried
            # them through Relation.updated, and the relations it
            # supersedes drop theirs (a reader of an older version
            # builds one per use and keeps none), so the chain holds one
            # set of indexes however many versions it keeps.
            for name in effective:
                head.database.relation(name).drop_indexes()
            registry = global_registry()
            registry.counter("store.commits").inc()
            registry.gauge("store.versions").set_max(len(self._versions))
        trace.event(
            "store.version_committed",
            category="store",
            version=version.version,
            relations=len(effective),
        )
        return version

    def begin(self):
        """Start an optimistic transaction pinned to the current head."""
        from repro.store.txn import Transaction

        return Transaction(self)

    # -- maintenance ---------------------------------------------------
    def checkpoint(self, compact: bool = False) -> Version:
        """Snapshot the head into the WAL; optionally drop older records."""
        if self.wal is None:
            raise StoreError("store has no write-ahead log to checkpoint")
        with self._lock:
            head = self._versions[-1]
            self.wal.append_checkpoint(head.version, head.database)
        if compact:
            self.wal.compact()
        return head

    def prune(self, keep: int = 1) -> int:
        """Drop old unpinned versions, keeping at least ``keep`` newest.

        Pinned versions (open snapshots) always survive, and a dropped
        version newer than the *oldest* pin leaves a
        :class:`VersionSummary` behind: transactions pinned before it
        must still validate against its write set, or a genuine
        conflict would pass as a structural commute and publish a lost
        update.  Returns the number of versions dropped.  The WAL is
        untouched — pruning bounds memory, checkpoint+compact bounds
        the log.
        """
        if keep < 1:
            raise StoreError("must keep at least the head version")
        with self._lock:
            if len(self._versions) <= keep:
                return 0
            cut = len(self._versions) - keep
            oldest_pin = min(self._pins) if self._pins else None
            kept: List[Version] = []
            dropped = 0
            for index, version in enumerate(self._versions):
                if index < cut and version.version not in self._pins:
                    self._by_id.pop(version.version, None)
                    if (
                        oldest_pin is not None
                        and version.version > oldest_pin
                    ):
                        self._summaries[version.version] = VersionSummary(
                            version=version.version,
                            written_relations=version.written_relations,
                            operations=version.operations,
                            txn_id=version.txn_id,
                        )
                    dropped += 1
                else:
                    kept.append(version)
            self._versions = kept
            # A summary at or below the oldest pin can never intervene
            # for any open (or future) snapshot again.
            for number in list(self._summaries):
                if oldest_pin is None or number <= oldest_pin:
                    del self._summaries[number]
        return dropped

    def close(self) -> None:
        if self.wal is not None:
            self.wal.close()

    def __enter__(self) -> "VersionedStore":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False
