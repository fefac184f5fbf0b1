"""Optimistic transactions with commutativity-based conflict resolution.

A :class:`Transaction` pins a snapshot, accumulates a **read set** (the
base relations its evaluations touched) and a **write set** (normalized
:class:`~repro.relational.delta.RelationDelta` change sets from
:func:`~repro.parallel.apply.parallel_changes` or manual staging), and
validates at commit against every version committed since its snapshot.
Validation is layered, cheapest first:

1. **Fast path** — nothing intervened: publish the staged deltas.
2. **Structural commute** — the intervening writes touch neither the
   read set nor the write set: disjoint transactions commute trivially,
   so the staged deltas rebase onto the head unchanged.
3. **Deterministic replay** — the intervening writes overlap the write
   set but *not* the read set, and the transaction consists purely of
   recorded method applications: re-executing ``M_par`` against the
   head reads exactly the values the snapshot run read (the read set is
   untouched), so replay reproduces the observed effect with deltas
   correct against the head.  (A plain delta rebase would be wrong
   here: ``M_par`` writes are *replacements* per receiving object, and
   rebasing their delta encoding over a foreign write to the same
   object silently merges states no serial order produces.)
4. **Commutativity fast path** — the read set itself was overwritten.
   A snapshot-stale transaction may still commit *if the paper says the
   orders agree*: when every transaction involved (this one and every
   intervening one) applied the same update method, and Theorem 5.12's
   decision procedure proves that method order independent (or
   key-order independent with the combined receivers forming a key
   set), then ``M(I, t̄ s̄) = M(I, s̄ t̄)`` — the state this transaction
   observed and the state it produces are the same in either commit
   order, so replaying it onto the head commits the exact effect it
   promised.  Order-*dependent* overlap aborts
   (:class:`TransactionConflict`); :func:`run_transaction` wraps the
   abort in bounded exponential-backoff retries.

Decision-procedure results are memoized per method, so the first
conflicted commit pays for the chase and every later one is a
dictionary hit.
"""

from __future__ import annotations

import random
import time
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from repro.core.receiver import Receiver, is_key_set
from repro.graph.instance import Instance
from repro.objrel.mapping import database_to_instance
from repro.obs import flight
from repro.obs import tracer as trace
from repro.obs.metrics import global_registry
from repro.parallel.apply import method_read_relations, parallel_changes
from repro.relational.database import Database
from repro.relational.delta import RelationDelta, normalize_changes
from repro.relational.engine import QueryEngine
from repro.relational.relation import Relation
from repro.resilience.budget import Budget
from repro.resilience.retry import RetryPolicy, retry_call
from repro.store.versioned import (
    MethodApplication,
    Snapshot,
    StoreError,
    Version,
    VersionedStore,
    VersionLike,
)

T = TypeVar("T")

#: Transaction lifecycle states.
ACTIVE = "active"
COMMITTED = "committed"
ABORTED = "aborted"

#: Order-independence classifications (memoized per method).  ``UNKNOWN``
#: — the budgeted decision ran out of resources — is *not* memoized: a
#: later attempt with a fresh budget (or a half-open circuit breaker
#: probe) may still reach a definite verdict.
INDEPENDENT = "independent"
KEY_INDEPENDENT = "key"
DEPENDENT = "dependent"
UNKNOWN = "unknown"

#: Memoized decision-procedure outcomes.  Keyed by ``id(method)`` with
#: the method kept alive alongside, so identities never recycle; update
#: methods are few and long-lived, so this never grows meaningfully.
_DECISIONS: Dict[int, Tuple[object, str]] = {}


class TransactionError(RuntimeError):
    """Raised on transaction misuse (commit after abort, ...)."""


class TransactionConflict(TransactionError):
    """Commit-time validation failed and commutativity could not help."""


def classify_order_independence(
    method,
    budget: Optional[Budget] = None,
    max_partitions: Optional[int] = None,
) -> str:
    """``independent`` / ``key`` / ``dependent`` / ``unknown``.

    Delegates to the budgeted Theorem 5.12 classification
    (:func:`repro.algebraic.decision.classify_method`) and memoizes
    *definite* outcomes — ``unknown`` (the budget tripped mid-decision)
    is returned but never cached, so a later call with more resources
    can still settle the method.  Non-positive methods — where order
    independence is undecidable (Corollary 5.7) — classify as
    ``dependent``: that is a *definite* "the store must not commit
    through a conflict it cannot prove safe", not a resource failure.
    """
    cached = _DECISIONS.get(id(method))
    if cached is not None:
        return cached[1]
    from repro.algebraic import decision

    with trace.span(
        "store.txn.classify", category="store", method=method.name
    ) as span:
        if not method.is_positive():
            outcome = DEPENDENT
        else:
            verdict = decision.classify_method(
                method, budget=budget, max_partitions=max_partitions
            )
            outcome = {
                decision.INDEPENDENT: INDEPENDENT,
                decision.KEY_INDEPENDENT: KEY_INDEPENDENT,
                decision.DEPENDENT: DEPENDENT,
                decision.UNKNOWN: UNKNOWN,
            }[verdict]
        span.set(outcome=outcome)
    if outcome != UNKNOWN:
        _DECISIONS[id(method)] = (method, outcome)
    return outcome


def compose_changes(
    first: Mapping[str, RelationDelta],
    second: Mapping[str, RelationDelta],
) -> Dict[str, RelationDelta]:
    """The change set of applying ``first`` then ``second``.

    Exact for deltas each normalized against the state it applies to:
    applying the composition to the base state lands on the same final
    state as applying the two in sequence.
    """
    merged: Dict[str, RelationDelta] = dict(first)
    for name, delta in second.items():
        old = merged.get(name)
        if old is None:
            merged[name] = delta
            continue
        inserted = delta.inserted | (old.inserted - delta.deleted)
        deleted = (old.deleted | delta.deleted) - inserted
        merged[name] = RelationDelta(
            frozenset(inserted), frozenset(deleted)
        )
    return merged


class Transaction:
    """One optimistic transaction over a :class:`VersionedStore`.

    Reads see the pinned snapshot plus this transaction's own staged
    writes; nothing is visible to others before :meth:`commit`
    validates.  Use :meth:`evaluate` for tracked algebra evaluation,
    :meth:`read` for tracked base-relation access, :meth:`apply_method`
    for a full ``M_par`` application, and :meth:`stage` for a raw
    change set (raw stages forfeit the replay-based conflict
    resolutions — the store cannot re-derive them).
    """

    def __init__(self, store: VersionedStore) -> None:
        self.store = store
        self.id = store._allocate_txn_id()
        self.snapshot: Snapshot = store.snapshot()
        self.status = ACTIVE
        self._reads: Set[str] = set()
        self._writes: Dict[str, RelationDelta] = {}
        self._operations: List[MethodApplication] = []
        self._replayable = True
        self._database = self.snapshot.database
        self._instance: Optional[Instance] = None
        self._engine: Optional[QueryEngine] = None
        self.attempt = 1
        self._path: Optional[str] = None
        self._commit_ms: Optional[float] = None
        self._commit_started: Optional[float] = None
        registry = global_registry()
        registry.counter("store.txn.begun").inc()
        trace.event(
            "store.txn.begin",
            category="store",
            txn=self.id,
            at_version=self.snapshot.version,
        )

    # -- working-state access ------------------------------------------
    @property
    def reads(self) -> FrozenSet[str]:
        return frozenset(self._reads)

    @property
    def writes(self) -> Dict[str, RelationDelta]:
        return dict(self._writes)

    @property
    def instance(self) -> Optional[Instance]:
        """The snapshot instance with this transaction's writes applied.

        A view of the working database, derived on first access and
        cached until the next write; ``None`` when the store has no
        object schema.
        """
        schema = self.store.schema
        if self._instance is None and schema is not None:
            self._instance = database_to_instance(self._database, schema)
        return self._instance

    def _require_active(self) -> None:
        if self.status != ACTIVE:
            raise TransactionError(
                f"transaction {self.id} is {self.status}"
            )

    def engine(self) -> QueryEngine:
        """An engine over the working state, sharing the store cache."""
        if self._engine is None:
            self._engine = QueryEngine(
                self._database, cache=self.store.cache
            )
        return self._engine

    def read(self, name: str) -> Relation:
        """The named relation of the working state (tracked)."""
        self._require_active()
        self._reads.add(name)
        return self._database.relation(name)

    def evaluate(self, expr) -> Relation:
        """Evaluate an algebra expression over the working state.

        The base relations the expression references join the read set.
        """
        self._require_active()
        engine = self.engine()
        node = engine.intern(expr)
        self._reads.update(self.store.cache.base_relations(node))
        return engine.evaluate(node)

    def derive_receivers(self, query) -> Tuple[Receiver, ...]:
        """``Q`` over the working state as sorted receivers — tracked.

        The query's base relations join the read set: receiver
        arguments are reads (update (B') bakes each employee's current
        salary into ``arg1``), so a concurrent write to a relation
        that fed the derivation must surface at validation instead of
        being silently overwritten by replaying stale arguments.
        Derive receivers inside the :func:`run_transaction` body, not
        before it, so every retry re-derives against its own snapshot.
        """
        relation = self.evaluate(query)
        return tuple(sorted(Receiver(row) for row in relation))

    # -- writing -------------------------------------------------------
    def _stage(self, changes: Mapping[str, RelationDelta]) -> None:
        effective = normalize_changes(self._database, changes)
        if not effective:
            return
        self._writes = compose_changes(self._writes, effective)
        self._database = self._database.apply_delta(effective)
        self._engine = None
        self._instance = None

    def stage(self, changes: Mapping[str, RelationDelta]) -> None:
        """Stage a raw change set (normalized against the working state).

        Raw writes have no operation the store could replay, so a
        commit-time overlap with a concurrent writer aborts instead of
        resolving through re-execution.
        """
        self._require_active()
        self._replayable = False
        self._stage(changes)

    def apply_method(
        self, method, receivers: Iterable[Receiver]
    ) -> Dict[str, RelationDelta]:
        """Apply ``M_par(I, T)`` to the working state.

        Records the application itself (method + receivers), the read
        set of its statement expressions, and the induced property-edge
        deltas as the write set; returns that normalized change set.
        """
        self._require_active()
        receivers = tuple(receivers)
        with trace.span(
            "store.txn.apply",
            category="store",
            txn=self.id,
            method=method.name,
            receivers=len(receivers),
        ):
            self._reads.update(method_read_relations(method))
            changes = parallel_changes(
                method, self._database, receivers, cache=self.store.cache
            )
            self._operations.append(
                MethodApplication(method, receivers)
            )
            self._stage(changes)
        return changes

    # -- commit protocol -----------------------------------------------
    def _interferes(
        self, intervening: Sequence[VersionLike]
    ) -> Tuple[bool, bool]:
        """``(writes_overlap, reads_overlap)`` against intervening commits."""
        written = set(self._writes)
        writes_overlap = False
        reads_overlap = False
        for version in intervening:
            foreign = version.written_relations
            if not writes_overlap and written & foreign:
                writes_overlap = True
            if not reads_overlap and self._reads & foreign:
                reads_overlap = True
            if writes_overlap and reads_overlap:
                break
        return writes_overlap, reads_overlap

    def _commutes_semantically(
        self, intervening: Sequence[VersionLike]
    ) -> bool:
        """Whether the paper's machinery proves both orders agree.

        The decision run is the most expensive tier of the commit
        escalation, so it sits behind the store's circuit breaker: an
        open breaker skips the tier outright (the commit degrades to
        abort-and-retry), ``UNKNOWN`` outcomes count as breaker
        failures, definite verdicts as successes.
        """
        if not self._replayable or not self._operations:
            return False
        operations = list(self._operations)
        for version in intervening:
            if not version.operations:
                return False  # a raw commit intervened: nothing to prove
            operations.extend(version.operations)
        methods = {id(op.method) for op in operations}
        if len(methods) != 1:
            # Cross-method commutation is out of the theorems' scope.
            return False
        method = operations[0].method
        store = self.store
        breaker = store.breaker
        if _DECISIONS.get(id(method)) is None and breaker is not None:
            # Only undecided methods pay the decision procedure; a
            # memoized verdict is a dictionary hit the breaker must
            # neither block nor score.
            if not breaker.allow():
                global_registry().counter(
                    "store.txn.breaker_skips"
                ).inc()
                return False
            try:
                outcome = classify_order_independence(
                    method, budget=store.new_decision_budget()
                )
            except BaseException:
                # The breaker now holds a single HALF_OPEN probe slot;
                # an escaping decision run must release it or the tier
                # deadlocks shut until the next reset window.
                breaker.record_failure()
                raise
            if outcome == UNKNOWN:
                breaker.record_failure()
            else:
                breaker.record_success()
        else:
            outcome = classify_order_independence(
                method, budget=store.new_decision_budget()
            )
        if outcome == INDEPENDENT:
            return True
        if outcome != KEY_INDEPENDENT:
            return False
        combined: List[Receiver] = [
            receiver
            for op in operations
            for receiver in op.receivers
        ]
        # Key-order independence speaks about permutations of a key
        # set: every receiver at most once, receiving objects distinct.
        return len(set(combined)) == len(combined) and is_key_set(
            combined
        )

    def _replay_on(self, head: Version) -> Dict[str, RelationDelta]:
        """Re-execute the recorded method applications against ``head``;
        returns their composed change set."""
        database = head.database
        staged: Dict[str, RelationDelta] = {}
        with trace.span(
            "store.txn.replay",
            category="store",
            txn=self.id,
            operations=len(self._operations),
        ):
            for op in self._operations:
                changes = parallel_changes(
                    op.method, database, op.receivers, cache=self.store.cache
                )
                staged = compose_changes(staged, changes)
                database = database.apply_delta(changes)
        return staged

    def commit(self) -> Version:
        """Validate against the head and publish, or raise
        :class:`TransactionConflict` (the transaction is then aborted).
        """
        self._require_active()
        store = self.store
        registry = global_registry()
        self._commit_started = time.perf_counter()
        with trace.span(
            "store.txn.commit", category="store", txn=self.id
        ) as span:
            with store._lock:
                head = store.head
                intervening = store.versions_after(self.snapshot.version)
                if not intervening:
                    # The head is the snapshot, so the working state is
                    # the new version's state.
                    self._path = "fastpath"
                    span.set(path="fastpath")
                    registry.counter("store.txn.fastpath").inc()
                    return self._publish(
                        self._writes, database=self._database
                    )
                writes_overlap, reads_overlap = self._interferes(
                    intervening
                )
                if not writes_overlap and not reads_overlap:
                    # Disjoint read/write sets: commutes structurally.
                    self._path = "structural"
                    span.set(path="structural")
                    registry.counter("store.txn.structural_commutes").inc()
                    return self._publish(self._writes)
                registry.counter("store.txn.conflicts").inc()
                if (
                    store.commutativity
                    and self._replayable
                    and self._operations
                    and not reads_overlap
                ):
                    # Only the write set was touched: replay reads the
                    # same values the snapshot run read, so the observed
                    # effect re-derives exactly, with deltas correct
                    # against the head.
                    self._path = "replay"
                    span.set(path="replay")
                    registry.counter("store.txn.commute_fastpaths").inc()
                    return self._publish(self._replay_on(head))
                if store.commutativity and self._commutes_semantically(
                    intervening
                ):
                    self._path = "commute"
                    span.set(path="commute")
                    registry.counter("store.txn.commute_fastpaths").inc()
                    return self._publish(self._replay_on(head))
                self._path = "abort"
                span.set(path="abort")
                overlap = sorted(
                    (self._reads | set(self._writes))
                    & {
                        name
                        for version in intervening
                        for name in version.written_relations
                    }
                )
                self._commit_ms = (
                    time.perf_counter() - self._commit_started
                ) * 1000.0
                registry.histogram("store.txn.commit_ms.abort").observe(
                    self._commit_ms
                )
                flight.record(
                    "txn.conflict",
                    txn=self.id,
                    intervening=len(intervening),
                    overlap=overlap,
                )
                self._abort()
                raise TransactionConflict(
                    f"transaction {self.id} (snapshot v{self.snapshot.version}) "
                    f"conflicts with {len(intervening)} concurrent "
                    f"commit(s) on {overlap}"
                )

    def _publish(
        self,
        changes: Mapping[str, RelationDelta],
        database: Optional[Database] = None,
    ) -> Version:
        version = self.store.commit_changes(
            changes,
            operations=self._operations,
            txn_id=self.id,
            database=database,
        )
        self.status = COMMITTED
        self.snapshot.release()
        registry = global_registry()
        registry.counter("store.txn.commits").inc()
        if self._commit_started is not None:
            self._commit_ms = (
                time.perf_counter() - self._commit_started
            ) * 1000.0
            registry.histogram(
                f"store.txn.commit_ms.{self._path or 'fastpath'}"
            ).observe(self._commit_ms)
        flight.record(
            "txn.commit",
            txn=self.id,
            path=self._path,
            ms=self._commit_ms,
            version=getattr(version, "version", None),
            attempt=self.attempt,
        )
        return version

    def _abort(self) -> None:
        self.status = ABORTED
        self.snapshot.release()
        global_registry().counter("store.txn.aborts").inc()
        trace.event(
            "store.txn.abort", category="store", txn=self.id
        )

    def abort(self) -> None:
        """Drop the transaction without publishing anything."""
        if self.status == ACTIVE:
            self._abort()

    def audit(self) -> Dict[str, object]:
        """A JSON-serializable audit record for this transaction.

        Captures what the transaction read and wrote, which commit tier
        resolved it (``fastpath`` / ``structural`` / ``replay`` /
        ``commute`` / ``abort``), the commit latency, and which retry
        attempt it was — the per-transaction trail the flight recorder
        summarizes fleet-wide.
        """
        return {
            "txn": self.id,
            "status": self.status,
            "snapshot_version": self.snapshot.version,
            "attempt": self.attempt,
            "path": self._path,
            "commit_ms": self._commit_ms,
            "reads": sorted(self._reads),
            "writes": sorted(self._writes),
            "operations": [
                {
                    "method": op.method.name,
                    "receivers": len(op.receivers),
                }
                for op in self._operations
            ],
            "replayable": self._replayable,
        }

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.status == ACTIVE:
            if exc_type is None:
                self.commit()
            else:
                self.abort()
        return False


def run_transaction(
    store: VersionedStore,
    body: Callable[[Transaction], T],
    retries: int = 5,
    backoff: float = 0.001,
    rng: Optional[random.Random] = None,
    sleep: Callable[[float], None] = time.sleep,
) -> Tuple[T, Version]:
    """Run ``body`` in a transaction, retrying conflicts with backoff.

    ``body`` receives a fresh :class:`Transaction` per attempt (each
    pinned to the then-current head) and must be safe to re-run.
    Backoff follows the unified
    :class:`~repro.resilience.retry.RetryPolicy` — exponential from
    ``backoff`` with *full jitter*, so transactions that collided once
    decorrelate instead of re-colliding in lockstep.  After ``retries``
    failed re-runs the final :class:`TransactionConflict` propagates,
    wrapped with the attempt count.  ``rng`` and ``sleep`` are
    injectable for deterministic tests.
    """
    policy = RetryPolicy(
        retries=retries, base_delay=backoff, factor=2.0, max_delay=0.25
    )
    attempts = 0

    def attempt() -> Tuple[T, Version]:
        nonlocal attempts
        attempts += 1
        txn = Transaction(store)
        txn.attempt = attempts
        try:
            result = body(txn)
            version = txn.commit()
            return result, version
        except BaseException:
            txn.abort()
            raise

    def on_retry(_attempt: int, _error: BaseException) -> None:
        global_registry().counter("store.txn.retries").inc()

    try:
        return retry_call(
            attempt,
            policy=policy,
            retryable=(TransactionConflict,),
            rng=rng,
            sleep=sleep,
            on_retry=on_retry,
            label="store.txn",
        )
    except TransactionConflict as last:
        global_registry().counter("store.txn.retries").inc()
        raise TransactionConflict(
            f"transaction failed after {retries + 1} attempts: {last}"
        ) from last


__all__ = [
    "ACTIVE",
    "ABORTED",
    "COMMITTED",
    "DEPENDENT",
    "INDEPENDENT",
    "KEY_INDEPENDENT",
    "UNKNOWN",
    "Transaction",
    "TransactionConflict",
    "TransactionError",
    "classify_order_independence",
    "compose_changes",
    "run_transaction",
    "StoreError",
]
