"""The sharded execution service: one store (and one process) per shard.

:class:`ShardedStore` fronts ``N`` shard :class:`VersionedStore`\\ s —
each with its own WAL and :class:`EngineCache` — plus a *coordinator*
store holding the full object base.  The coordinator is the logical
head: its version chain (and WAL) is the authoritative history, the
differential-test witness, and the one place a batch is evaluated.

**One write route.**  :meth:`ShardedStore.apply_batch` and
:meth:`ShardedStore.commit_transaction` both publish on the
coordinator first: a batch runs as one ``M_par`` (Def. 6.2) through the
ordinary optimistic transaction (structural-commute / replay /
semantic tiers), whose WAL record is the durable decision.  The
committed delta is then split by ownership and *staged* to every shard
(partitioned rows to their owners, replicated deltas to all).  The
router still classifies each batch (``disjoint`` or ``cross_shard``,
reported on the route); the classification no longer picks a path.
A shard therefore never holds a state the coordinator has not
committed: each slice (see
:meth:`~repro.store.sharding.partition.Partitioning.slice_database`)
is a view of the coordinator log, kept current by replaying it.

**One path brings a shard up to date.**  Each shard holds its own
position in the coordinator log: a per-shard *cursor*, the coordinator
version the shard is known to reflect, or unknown.  Every caller that
moves shards forward — the publish step behind both write entry
points, :meth:`~ShardedStore.resync_shard`, and the bring-up shared by
:meth:`~ShardedStore.from_wal_dir` and supervisor restarts — goes
through one advance.  A known cursor stages the shard's slice of each
missing version in commit order (paper Thm 6.5 / Lemma 6.7 make that
replay safe); an unknown one gets the verifying dump-diff against the
head slice; a shard already at or past the target is skipped, so
staging never walks a shard backwards.  A shard whose staging fails
drops to unknown, which the next advance heals.  When the publish
step cannot stage a committed version, it resets every cursor and
dump-diffs the fleet; the write is acknowledged either way, flagged
when even that heal fails.

Execution modes: ``inline`` backends run in-process (useful for tests
and as the degraded fallback), ``process`` backends each own a
persistent worker process fed commands over a pipe, with methods,
receivers and deltas crossing as pickles.  Dispatch is
send-to-all-then-collect, so shard work overlaps without any parent
threads.

**Self-healing** (this layer's fault story, paper Thm 5.12/6.5).
Shards are replicas of the coordinator log that must be *fencible*
and *catch-up-able*:

* Every fenced pipe command (``stage`` / ``mark`` / ``checkpoint``)
  carries the shard's monotone **epoch**; a backend rejects commands
  from an older epoch with :class:`StaleEpochError` (the zombie guard)
  and adopts newer ones.  Epochs and the highest *applied* coordinator
  version persist in the shard WAL as ``shard_meta`` records.
* A worker death surfaces as :class:`WorkerDied`; the
  :class:`~repro.store.sharding.supervisor.ShardSupervisor` restarts
  the process under its full-jitter ``RESTART_POLICY`` + a per-shard
  breaker and **brings it up**: the shard recovers its own WAL, whose
  marker seeds the cursor, and the advance stages only the missing
  tail of coordinator deltas; then the in-flight command is re-issued
  under the bumped epoch.  Past the restart budget the shard
  *degrades* to a coordinator-side :class:`InlineShard` so batches
  keep succeeding; a later breaker probe promotes it back to a real
  worker.
* :meth:`from_wal_dir` brings every shard up the same way; the full
  re-slice survives only for a missing or unrecoverable shard log.

**Fleet telemetry** (process mode).  Every request crosses the pipe as
``(command, ctx)`` where ``ctx`` is ``None`` or a trace context
``{"trace": True, "trace_id": ..., "parent_span_id": ...}`` captured
from the coordinator's active tracer at send time.  Every reply comes
back as ``(status, payload, telemetry)`` where ``telemetry`` carries
the worker's pid, its spans for this request (serialized from a
worker-local :class:`~repro.obs.tracer.Tracer`), and a
*snapshot-then-reset* delta of the worker's metrics registry.  The
coordinator stitches the spans into its own trace via
:meth:`~repro.obs.tracer.Tracer.adopt_remote` — the fork start method
shares ``perf_counter_ns``'s monotonic clock, so remote timestamps
land on the same timeline — and folds the metrics under a
``shard{N}.`` prefix with
:meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot`.  A
cross-shard commit therefore renders as one causal tree spanning the
coordinator and every worker, with per-process rows in the Chrome
export.  Workers also honour the ``shard.worker`` fault site: a kill
rule flushes the worker's flight recorder to
``<wal_dir>/flight-shard-N.json`` and drops the pipe, which the parent
surfaces as a :class:`WorkerDied` (healed when supervised, raised
otherwise with the orphaned request span marked ``aborted``).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.graph.instance import Instance
from repro.obs import flight
from repro.obs import tracer as trace
from repro.obs.metrics import global_registry
from repro.relational.database import Database
from repro.relational.delta import RelationDelta
from repro.resilience.faults import (
    SHARD_STAGE_FENCE,
    SHARD_WORKER,
    CrashPoint,
    fault_point,
)
from repro.store.sharding.partition import (
    Partitioning,
    ShardingError,
    StaleEpochError,
    WorkerDied,
)
from repro.store.sharding.router import Route, Router
from repro.store.sharding.supervisor import (
    _RESTART_FAILURES,
    ShardSupervisor,
)
from repro.store.versioned import StoreError, Version, VersionedStore
from repro.store.txn import run_transaction
from repro.store.wal import KIND_COMMIT, KIND_SHARD_META, WalError


def _delta_rows(changes: Mapping[str, RelationDelta]) -> int:
    return sum(
        len(delta.inserted) + len(delta.deleted)
        for delta in changes.values()
    )


class ShardBackend:
    """One shard's store plus its command interpreter.

    The same interpreter serves both execution modes: in-process for
    :class:`InlineShard`, inside the worker for :class:`ProcessShard`.
    Commands are ``(op, *operands)`` tuples; every payload that crosses
    a pipe is plain picklable data (deltas, row sets) — never a live
    store object.

    A shard commits only coordinator versions: a tail ``stage`` of one
    version's slice, or a dump-diff staged as the head.  Recovery
    bookkeeping rides on two fields persisted as ``shard_meta`` WAL
    records after every fenced command:

    * ``epoch`` — the fence.  Commands stamped with an older epoch are
      rejected (:class:`StaleEpochError`); newer ones are adopted.
    * ``applied`` — the highest coordinator version this shard's state
      is known to reflect, or ``None`` when unknown.  It never runs
      ahead of the log (a marker is appended *after* its stage), but it
      may lag it: a crash between a stage and its marker leaves the
      state one version past the marker.  That lag is safe, because
      re-staging a normalized delta the shard already holds normalizes
      to nothing, so a tail replay from a lagging marker lands on the
      same slice.  Over-reporting would make a tail skip a delta, the
      one unrecoverable mistake; a torn or unclean log, or one without
      a marker, therefore recovers as unknown.
    """

    def __init__(
        self,
        shard: int,
        database: Optional[Database],
        wal: Optional[str] = None,
        durability: str = "flush",
        epoch: int = 0,
        applied: int = 0,
        recover: bool = False,
    ) -> None:
        self.shard = shard
        self.epoch = int(epoch)
        self.applied: Optional[int] = int(applied)
        self.recovered = False
        if recover:
            self._recover(wal, durability)
        if not self.recovered:
            if database is None:
                raise ShardingError(
                    f"shard {shard} log {wal!r} is unrecoverable and "
                    "no slice was provided to rebuild from"
                )
            self.store = VersionedStore(
                database=database, wal=wal, durability=durability
            )
        self._persist_meta()

    def _recover(self, wal, durability) -> None:
        """Best-effort recovery from the shard's own WAL.

        Leaves :attr:`recovered` ``False`` (the caller falls back to a
        fresh slice) when the log is missing, unreadable, or holds no
        checkpointed state.  A torn or unclean tail, or a missing meta
        marker, leaves ``applied`` unknown — the conservative verdict
        that costs a dump-diff, never divergence.
        """
        if wal is None or not os.path.exists(wal):
            return
        from repro.store.recovery import RecoveryError, recover

        try:
            state = recover(wal, truncate=True)
        except (OSError, RecoveryError, WalError):
            return
        if state.database is None:
            return
        try:
            self.store = VersionedStore.from_wal(wal, durability=durability)
        except (OSError, StoreError, WalError):
            return
        self.recovered = True
        meta = state.shard_meta or {}
        self.epoch = max(self.epoch, int(meta.get("epoch", 0)))
        applied = meta.get("applied")
        self.applied = (
            int(applied) if applied is not None and state.clean else None
        )

    # -- the fence and the marker --------------------------------------
    def _fence(self, epoch: Optional[int], op: str) -> None:
        fault_point(SHARD_STAGE_FENCE)
        if epoch is None:
            return
        if epoch < self.epoch:
            global_registry().counter("store.shard.fenced").inc()
            flight.record(
                "shard.stage.fence",
                shard=self.shard,
                op=op,
                stale_epoch=epoch,
                epoch=self.epoch,
            )
            raise StaleEpochError(
                f"shard {self.shard} fenced a stale {op!r}: "
                f"epoch {epoch} < {self.epoch}"
            )
        if epoch > self.epoch:
            self.epoch = int(epoch)
            self._persist_meta()

    def _reflects(self, version: int) -> None:
        """Record that the shard's state reflects coordinator ``version``."""
        version = int(version)
        self.applied = (
            version if self.applied is None else max(self.applied, version)
        )
        self._persist_meta()

    def _persist_meta(self) -> None:
        wal = self.store.wal
        if wal is None or wal.poisoned:
            return
        wal.append(
            KIND_SHARD_META,
            self.store.head.version,
            {"epoch": self.epoch, "applied": self.applied},
        )

    def status(self) -> Dict[str, Any]:
        return {
            "shard": self.shard,
            "version": self.store.head.version,
            "epoch": self.epoch,
            "applied": self.applied,
            "recovered": self.recovered,
        }

    def handle(self, command: Tuple[Any, ...]) -> Any:
        op = command[0]
        if op == "stage":
            _, epoch, version_number, changes = command
            self._fence(epoch, op)
            result = self.store.commit_changes(changes).version
            self._reflects(version_number)
            return result
        if op == "mark":
            _, epoch, version_number = command
            self._fence(epoch, op)
            self._reflects(version_number)
            return self.applied
        if op == "status":
            return self.status()
        if op == "dump":
            database = self.store.head.database
            return {
                name: database.relation(name).tuples
                for name in database.relation_names
            }
        if op == "checkpoint":
            _, epoch, compact = command
            self._fence(epoch, op)
            if self.store.wal is not None:
                self.store.checkpoint(compact=compact)
                # compact() drops every record before the checkpoint —
                # including the last meta marker — so re-stamp it.
                self._persist_meta()
            return self.store.head.version
        if op == "close":
            self.store.close()
            return None
        raise ShardingError(f"unknown shard command {op!r}")


class InlineShard:
    """A shard executing commands synchronously in the calling process."""

    def __init__(self, backend: ShardBackend) -> None:
        self.shard = backend.shard
        self._backend = backend
        self._pending: List[Any] = []

    def send(self, command: Tuple[Any, ...]) -> None:
        self._pending.append(self._backend.handle(command))

    def recv(self) -> Any:
        return self._pending.pop(0)

    def call(self, command: Tuple[Any, ...]) -> Any:
        self.send(command)
        return self.recv()

    def close(self) -> None:
        self.call(("close",))


def _shard_worker(
    conn,
    shard: int,
    database: Optional[Database],
    wal: Optional[str],
    durability: str,
    flight_path: Optional[str] = None,
    epoch: int = 0,
    recover: bool = False,
    applied: int = 0,
) -> None:
    """Worker-process main loop: one backend, envelopes off the pipe.

    Runs until a ``close`` command (or EOF from a dying parent).
    Failures are shipped back as ``("error", message, telemetry)``
    rather than killing the worker — the shard stays serviceable and
    the parent decides whether to resync.  A fenced command rejected by
    the epoch guard ships as ``("fenced", message, telemetry)`` so the
    parent can re-raise it typed.  Every reply's telemetry carries this
    request's spans (when the envelope asked for tracing) and a delta
    snapshot of the worker's metrics registry; the registry resets
    after each reply so repeated merges at the coordinator never
    double-count.  Two sites simulate real worker death (flight ring
    flushed, pipe dropped, no reply): ``shard.worker`` at the top of
    the loop, and a :class:`CrashPoint` escaping the backend — which is
    how a ``shard.stage.fence`` kill dies *mid-staging*.
    """
    backend: Optional[ShardBackend] = None
    backend_error: Optional[str] = None
    try:
        backend = ShardBackend(
            shard,
            database,
            wal=wal,
            durability=durability,
            epoch=epoch,
            applied=applied,
            recover=recover,
        )
    except BaseException as exc:
        backend_error = f"{type(exc).__name__}: {exc}"
    registry = global_registry()
    registry.reset()  # fork inherits parent counts; deltas start clean

    def die(op: str) -> None:
        # Simulated worker death.  The flight recorder's flushed ring
        # — ending in the injected-fault event — IS the crash
        # forensics; the parent only ever sees the pipe go dark.
        flight.record("shard.worker_crash", shard=shard, op=op)
        if flight_path is not None:
            flight.flush(flight_path)
        conn.close()

    while True:
        try:
            envelope = conn.recv()
        except EOFError:
            break
        command, ctx = envelope
        try:
            fault_point(SHARD_WORKER)
        except CrashPoint:
            die(command[0])
            return
        tracer: Optional[trace.Tracer] = None
        if ctx is not None and ctx.get("trace"):
            tracer = trace.Tracer()
            tracer.trace_id = ctx.get("trace_id", tracer.trace_id)
        status = "ok"
        try:
            if backend is None:
                raise ShardingError(
                    f"shard {shard} backend failed to start: "
                    f"{backend_error}"
                )
            if tracer is not None:
                with trace.tracing(tracer):
                    with tracer.span(
                        "shard.handle",
                        category="shard",
                        shard=shard,
                        op=command[0],
                        parent_span_id=ctx.get("parent_span_id"),
                    ):
                        payload: Any = backend.handle(command)
            else:
                payload = backend.handle(command)
        except CrashPoint:
            die(command[0])
            return
        except StaleEpochError as exc:
            status = "fenced"
            payload = str(exc)
        except BaseException as exc:  # ship, don't die
            status = "error"
            payload = f"{type(exc).__name__}: {exc}"
        telemetry = {
            "pid": os.getpid(),
            "shard": shard,
            "spans": (
                tracer.serialize_spans() if tracer is not None else []
            ),
            "metrics": registry.to_dict(skip_zero=True),
        }
        registry.reset()
        conn.send((status, payload, telemetry))
        if command[0] == "close":
            break
    conn.close()


def _mp_context():
    """Prefer ``fork`` (cheap start, no re-import); fall back cleanly."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return multiprocessing.get_context("spawn")


class ProcessShard:
    """A shard owned by a persistent worker process.

    ``send`` is asynchronous — the front-end sends to *all* shards
    before collecting any reply, so stages execute concurrently in
    their workers with zero threads in the parent.

    ``send`` wraps every command in the telemetry envelope (trace
    context from the coordinator's active tracer, or ``None``);
    ``recv`` unwraps the reply, adopts the worker's spans under the
    span active *at receive time* (the per-shard collection span), and
    folds the worker's metric deltas into the coordinator registry
    under a ``shard{N}.`` prefix.  A dead worker — pipe EOF on recv,
    EPIPE on send — is recorded to the flight recorder, marks the
    orphaned collection span ``aborted``, and raises
    :class:`WorkerDied` for the supervisor to heal.
    """

    def __init__(
        self,
        shard: int,
        database: Optional[Database],
        wal: Optional[str] = None,
        durability: str = "flush",
        context=None,
        flight_path: Optional[str] = None,
        epoch: int = 0,
        recover: bool = False,
        applied: int = 0,
    ) -> None:
        ctx = context if context is not None else _mp_context()
        self.shard = shard
        self.flight_path = flight_path
        parent, child = ctx.Pipe()
        self._conn = parent
        self._process = ctx.Process(
            target=_shard_worker,
            args=(child, shard, database, wal, durability, flight_path,
                  epoch, recover, applied),
            daemon=True,
            name=f"repro-shard-{shard}",
        )
        self._process.start()
        child.close()

    def _death(self, during: str) -> WorkerDied:
        flight.record(
            "shard.worker_death", shard=self.shard, during=during
        )
        global_registry().counter("store.shard.worker_deaths").inc()
        tracer = trace.active()
        if tracer is not None:
            span = tracer.current()
            if span is not None:
                span.set(aborted=True)
        return WorkerDied(
            f"shard {self.shard} worker died (pipe {during})"
        )

    def send(self, command: Tuple[Any, ...]) -> None:
        tracer = trace.active()
        ctx = None
        if tracer is not None:
            span = tracer.current()
            ctx = {
                "trace": True,
                "trace_id": tracer.trace_id,
                "parent_span_id": (
                    span.span_id if span is not None else None
                ),
            }
        try:
            self._conn.send((command, ctx))
        except (BrokenPipeError, OSError):
            raise self._death("EPIPE") from None

    def recv(self) -> Any:
        try:
            status, payload, telemetry = self._conn.recv()
        except EOFError:
            raise self._death("EOF") from None
        self._stitch(telemetry)
        if status == "fenced":
            raise StaleEpochError(payload)
        if status == "error":
            raise ShardingError(
                f"shard {self.shard} failed: {payload}"
            )
        return payload

    def _stitch(self, telemetry: Optional[Mapping[str, Any]]) -> None:
        """Fold one reply's telemetry into the coordinator's view."""
        if not telemetry:
            return
        tracer = trace.active()
        spans = telemetry.get("spans")
        if tracer is not None and spans:
            tracer.adopt_remote(
                spans,
                parent=tracer.current(),
                pid=telemetry.get("pid"),
                process_label=f"shard{self.shard}",
            )
        metrics = telemetry.get("metrics")
        if metrics:
            global_registry().merge_snapshot(
                metrics, prefix=f"shard{self.shard}."
            )

    def call(self, command: Tuple[Any, ...]) -> Any:
        self.send(command)
        return self.recv()

    def close(self) -> None:
        try:
            self.send(("close",))
            self.recv()
        except (OSError, ShardingError):
            pass
        self._conn.close()
        self._process.join(timeout=5.0)
        if self._process.is_alive():  # pragma: no cover - hung worker
            self._process.terminate()
            self._process.join(timeout=5.0)

    def reap(self) -> None:
        """Discard a dead (or deposed) worker without the handshake."""
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if self._process.is_alive():
            self._process.terminate()
        self._process.join(timeout=5.0)


class ShardedStore:
    """Front-end over a coordinator store plus ``N`` shard stores."""

    def __init__(
        self,
        instance: Optional[Instance],
        partition_classes: Iterable[str],
        shards: int = 2,
        mode: str = "inline",
        wal_dir: Optional[str] = None,
        durability: str = "flush",
        supervised: bool = True,
        _coordinator: Optional[VersionedStore] = None,
        _bring_up_shards: bool = False,
    ) -> None:
        if mode not in ("inline", "process"):
            raise ShardingError(f"unknown execution mode {mode!r}")
        # ``instance`` seeds a new fleet; a recovered coordinator
        # (``from_wal_dir``) carries the schema instead.
        schema = (
            instance.schema if _coordinator is None else _coordinator.schema
        )
        self.partitioning = Partitioning(
            schema, frozenset(partition_classes), shards
        )
        self.router = Router(self.partitioning)
        self.mode = mode
        self.wal_dir = wal_dir
        self.durability = durability
        if wal_dir is not None:
            os.makedirs(wal_dir, exist_ok=True)
        self.coordinator = (
            _coordinator
            if _coordinator is not None
            else VersionedStore(
                instance=instance,
                wal=self._wal_path("coordinator"),
                durability=durability,
            )
        )
        self._lock = threading.Lock()
        # Per shard: the coordinator version it is known to reflect, or
        # None (unknown — the next advance dump-diffs it).
        self._cursors: List[Optional[int]] = [
            self.coordinator.head.version
        ] * shards
        self.supervisor = ShardSupervisor(self, enabled=supervised)
        self.recovery_report: Dict[int, Dict[str, Any]] = {}
        self._shards: List[Any] = []
        for k in range(shards):
            if _bring_up_shards:
                handle, mode_used, rows = self._bring_up(k)
                flight.record(
                    "shard.recovered", shard=k, mode=mode_used, rows=rows
                )
                self.recovery_report[k] = {"mode": mode_used, "rows": rows}
            else:
                handle = self._spawn_shard(k, self._slice_of_head(k))
            self._shards.append(handle)

    # -- construction helpers ------------------------------------------
    def _wal_path(self, name: str) -> Optional[str]:
        if self.wal_dir is None:
            return None
        return os.path.join(self.wal_dir, f"{name}.wal")

    def _spawn_shard(
        self,
        shard: int,
        database: Optional[Database],
        recover: bool = False,
        applied: int = 0,
    ):
        wal = self._wal_path(f"shard-{shard}")
        epoch = self.supervisor.epoch(shard)
        if self.mode == "process":
            flight_path = (
                os.path.join(self.wal_dir, f"flight-shard-{shard}.json")
                if self.wal_dir is not None
                else None
            )
            return ProcessShard(
                shard,
                database,
                wal=wal,
                durability=self.durability,
                flight_path=flight_path,
                epoch=epoch,
                recover=recover,
                applied=applied,
            )
        return InlineShard(
            ShardBackend(
                shard,
                database,
                wal=wal,
                durability=self.durability,
                epoch=epoch,
                applied=applied,
                recover=recover,
            )
        )

    def _degraded_shard(self, shard: int, epoch: int) -> InlineShard:
        """The coordinator-side fallback for a shard past its restart
        budget: an in-process backend sliced from the head (already
        caught up by construction), no WAL — the on-disk log keeps the
        dead worker's last state for the eventual real restart to
        recover and tail-catch-up from."""
        head = self.coordinator.head.version
        self._cursors[shard] = head
        return InlineShard(
            ShardBackend(
                shard,
                self._slice_of_head(shard),
                wal=None,
                durability=self.durability,
                epoch=epoch,
                applied=head,
            )
        )

    def _slice_of_head(self, shard: int) -> Database:
        return self.partitioning.slice_database(
            self.coordinator.head.database, shard
        )

    def _bring_up(self, shard: int) -> Tuple[Any, str, Optional[int]]:
        """Start a backend for ``shard`` and advance it to the head.

        Shared by :meth:`from_wal_dir` and the supervisor's restart.
        The backend recovers the shard's own WAL; its marker seeds the
        cursor (an unknown marker, or an ``applied`` claim past the
        head, leaves it unknown) and :meth:`_advance` stages only what
        is missing.  A missing or unrecoverable log falls back to a fresh
        slice of the head.  The new handle is used directly — never
        through the supervisor — so a heal in progress cannot recurse
        into another heal.  Returns ``(handle, mode, rows)``; on
        failure the handle is reaped and the error re-raises.
        """
        wal = self._wal_path(f"shard-{shard}")
        head = self.coordinator.head.version
        registry = global_registry()
        handle = None
        status = None
        if wal is not None and os.path.exists(wal):
            try:
                handle = self._spawn_shard(shard, None, recover=True)
                status = handle.call(("status",))
                if not status.get("recovered"):
                    raise ShardingError(
                        f"shard {shard} log did not recover"
                    )
            except _RESTART_FAILURES:
                if handle is not None:
                    self.supervisor.reap(handle)
                status = None
        if status is None:
            # Full re-slice: drop the stale log so the fresh store
            # seeds a clean one.
            if wal is not None and os.path.exists(wal):
                os.remove(wal)
            handle = self._spawn_shard(
                shard, self._slice_of_head(shard), applied=head
            )
            try:
                handle.call(("status",))
            except BaseException:
                self.supervisor.reap(handle)
                raise
            self._cursors[shard] = head
            registry.counter("store.shard.resyncs.full").inc()
            return handle, "full", None
        self.supervisor.adopt(shard, int(status.get("epoch", 0)))
        applied = status.get("applied")
        self._cursors[shard] = (
            applied if applied is not None and applied <= head else None
        )
        try:
            mode, rows = self._advance([shard], head, handle=handle)
        except BaseException:
            self.supervisor.reap(handle)
            raise
        if mode == "tail":
            registry.counter("store.shard.resyncs.tail").inc()
            registry.counter("store.shard.catchup_rows").inc(rows)
        return handle, mode, rows

    @classmethod
    def from_wal_dir(
        cls,
        wal_dir: str,
        schema,
        partition_classes: Iterable[str],
        shards: int = 2,
        mode: str = "inline",
        durability: str = "flush",
        supervised: bool = True,
    ) -> "ShardedStore":
        """Recover the fleet: coordinator from its log, shards from
        *theirs*.

        The coordinator log is the authoritative history (versions
        resume from the recovered head, not from zero).  Each shard is
        brought up from its own checkpoint+tail and then advanced by
        staging only the coordinator deltas past its ``applied``
        marker — the order-independence theorems make that tail replay
        safe.  An unknown marker gets the verifying dump-diff, and a
        missing or unrecoverable log the full re-slice.  Per-shard
        outcomes land in :attr:`recovery_report` as
        ``{shard: {"mode": "tail" | "full", "rows": ...}}``.
        """
        path = os.path.join(wal_dir, "coordinator.wal")
        try:
            coordinator = VersionedStore.from_wal(
                path, schema=schema, durability=durability
            )
        except (OSError, StoreError) as exc:
            raise ShardingError(
                f"coordinator log {path!r} holds no recoverable state"
                f" ({exc})"
            ) from None
        return cls(
            None,
            partition_classes,
            shards=shards,
            mode=mode,
            wal_dir=wal_dir,
            durability=durability,
            supervised=supervised,
            _coordinator=coordinator,
            _bring_up_shards=True,
        )

    # -- the batch entry point -----------------------------------------
    @property
    def shards(self) -> int:
        return self.partitioning.shards

    def apply_batch(
        self, method, receivers: Sequence[Any]
    ) -> Tuple[Version, Route, bool]:
        """Apply ``M_par(I, T)`` on the coordinator and stage it.

        The router classifies the batch (the route says which class it
        fell in, why, and whether any touched shard was degraded); every
        batch then takes the one write route: :func:`run_transaction`
        on the coordinator, then the cursor advance of every shard.
        Returns ``(version, route, staged)``, with ``staged`` as in
        :meth:`commit_transaction`: a batch that committed is always
        acknowledged, and only a batch that did not commit raises.
        """
        receivers = tuple(receivers)
        route = self.router.route(
            method,
            receivers,
            degraded=self.supervisor.degraded_shards(),
        )
        global_registry().counter(
            "store.shard.disjoint_batches"
            if route.is_disjoint
            else "store.shard.cross_shard_batches"
        ).inc()
        with self._lock, trace.span(
            "store.shard.batch",
            category="store",
            kind=route.kind,
            receivers=len(receivers),
            shards=len(route.sub_batches),
        ):
            version, staged = self._publish(
                lambda: run_transaction(
                    self.coordinator,
                    lambda txn: txn.apply_method(method, receivers),
                )[1]
            )
        return version, route, staged

    def commit_transaction(self, txn) -> Tuple[Version, bool]:
        """Commit a coordinator transaction and stage it onto the fleet.

        The store lock is held across the coordinator commit *and* the
        shard staging — exactly as :meth:`apply_batch` holds it — so no
        concurrent batch can publish and stage a later version in
        between.

        Returns ``(version, staged)``.  ``staged`` is ``False`` only
        when the commit durably published on the coordinator but shard
        redo failed *and* the automatic heal could not reach every
        shard; callers should surface that as a degraded (but
        committed) outcome, never as a failed commit.
        """
        with self._lock:
            return self._publish(txn.commit)

    def _publish(self, commit: Callable[[], Version]) -> Tuple[Version, bool]:
        """Run ``commit`` on the coordinator, then advance every shard.

        The caller holds the lock.  A failed ``commit`` raises before
        any shard is touched.  Once it returns, the version is published
        (durable, with a coordinator log) and is always returned: a
        staging failure resets every cursor and dump-diffs every shard
        against the head (each one is attempted even if an earlier one
        fails), and only when that heal fails too does ``staged`` come
        back ``False``.
        """
        version = commit()
        try:
            self._advance(range(self.shards), version.version)
        except Exception as exc:
            global_registry().counter("store.shard.stage_failures").inc()
            flight.record(
                "store.stage_failure",
                version=version.version,
                error=f"{type(exc).__name__}: {exc}",
            )
            self._cursors[:] = [None] * self.shards
            try:
                self._advance(
                    range(self.shards), self.coordinator.head.version
                )
            except Exception as exc:
                flight.record(
                    "store.resync_failure",
                    error=f"{type(exc).__name__}: {exc}",
                )
                return version, False
        return version, True

    # -- bringing shards up to date ------------------------------------
    def _advance(
        self, shards: Iterable[int], target: int, handle=None
    ) -> Tuple[str, int]:
        """Move ``shards`` to coordinator version ``target``.

        The one path that brings a shard up to date; caller holds the
        lock (or is constructing).  By each shard's cursor:

        * **at or past** ``target`` — skipped;
        * **known** — stage the shard's slice of each missing version in
          commit order, one send-to-all-then-collect broadcast per
          version, with a ``mark`` only when the last slice is empty;
        * **unknown**, or versions no longer available — the verifying
          dump-diff against the head slice.

        Failures are contained: every shard is attempted, a failed
        shard's cursor becomes unknown, and the first error re-raises
        at the end.  ``handle`` (bring-up only) is the one shard's new
        handle, called directly.  Returns ``(mode, rows)``: ``"full"``
        when any shard took the dump-diff, and the rows shipped.
        """
        cursors = self._cursors
        errors: List[Exception] = []

        def send(number: int, slices: Dict[int, Dict[str, RelationDelta]]):
            def command(shard: int) -> Tuple[Any, ...]:
                epoch = self.supervisor.epoch(shard)
                cursor = cursors[shard]
                # A heal mid-advance may already have moved the shard
                # past ``number``; the redo then only re-marks it.
                if slices[shard] and (cursor is None or cursor < number):
                    return ("stage", epoch, number, slices[shard])
                return ("mark", epoch, number)

            def landed(shard: int, _reply: Any) -> None:
                cursor = cursors[shard]
                cursors[shard] = (
                    number if cursor is None else max(cursor, number)
                )

            for shard in slices:
                cursors[shard] = None  # unknown until the reply lands
            try:
                if handle is None:
                    self.supervisor.broadcast(
                        {
                            shard: (lambda s=shard: command(s))
                            for shard in slices
                        },
                        span_name="store.shard.stage",
                        on_reply=landed,
                    )
                else:
                    for shard in slices:
                        landed(shard, handle.call(command(shard)))
            except Exception as exc:
                errors.append(exc)

        behind = [
            s for s in shards if cursors[s] is None or cursors[s] < target
        ]
        known = [s for s in behind if cursors[s] is not None]
        versions = (
            self._versions_between(min(cursors[s] for s in known), target)
            if known
            else []
        )
        if versions is None:
            known, versions = [], []
        rows = 0
        for number, changes in versions:
            per_shard, replicated = self.partitioning.split_changes(changes)
            slices = {}
            for shard in known:
                cursor = cursors[shard]
                if cursor is None or cursor >= number:
                    continue
                payload = dict(replicated)
                payload.update(per_shard.get(shard, {}))
                if payload or number == target:
                    slices[shard] = payload
                    rows += _delta_rows(payload)
            if slices:
                send(number, slices)
        head = self.coordinator.head.version
        for shard in behind:
            if shard in known:
                continue
            try:
                target_db = self._slice_of_head(shard)
                current = (
                    handle.call(("dump",))
                    if handle is not None
                    else self.supervisor.call(shard, lambda: ("dump",))
                )
            except Exception as exc:
                errors.append(exc)
                continue
            delta = {}
            for name in target_db.relation_names:
                want = target_db.relation(name).tuples
                have = current.get(name, frozenset())
                if want != have:
                    delta[name] = RelationDelta(want - have, have - want)
            rows += _delta_rows(delta)
            send(head, {shard: delta})
            if cursors[shard] is not None:
                global_registry().counter("store.shard.resyncs.full").inc()
        if errors:
            raise errors[0]
        return ("tail" if len(known) == len(behind) else "full"), rows

    def _versions_between(
        self, after: int, through: int
    ) -> Optional[List[Tuple[int, Mapping[str, RelationDelta]]]]:
        """Coordinator change sets of versions ``after+1 .. through``, in
        commit order: from the in-memory chain, else from the
        coordinator WAL (a store recovered with ``from_wal`` keeps no
        chain).  ``None`` when neither holds them all — pruned from
        memory and compacted out of the log.
        """
        wanted = list(range(after + 1, through + 1))
        chain = [
            (entry.version, entry.changes)
            for entry in self.coordinator.versions_after(after)
            # Summaries (pruned) and a recovered store's empty-changes
            # root do not carry the real delta.
            if entry.version <= through
            and isinstance(entry, Version)
            and entry.changes
        ]
        if [number for number, _ in chain] == wanted:
            return chain
        path = self._wal_path("coordinator")
        if path is None or not os.path.exists(path):
            return None
        from repro.store.recovery import scan_wal

        if self.coordinator.wal is not None:
            try:
                self.coordinator.wal.size_bytes()  # flush buffered tail
            except (OSError, ValueError):
                return None
        records, _, _ = scan_wal(path)
        commits = {
            record.version: record.changes
            for record in records
            if record.kind == KIND_COMMIT
            and after < record.version <= through
        }
        if sorted(commits) != wanted:
            return None
        return [(number, commits[number]) for number in wanted]

    # -- consistency and repair ----------------------------------------
    def resync_shard(self, shard: int, mode: str = "auto") -> str:
        """Heal one shard from the coordinator head (idempotent).

        ``mode="tail"`` demands the incremental catch-up (raises when
        unavailable); ``"full"`` forces the verifying dump-diff;
        ``"auto"`` picks the tail only when the shard's recovery marker
        is known and strictly behind the head.  Returns the mode used.
        """
        if mode not in ("auto", "tail", "full"):
            raise ShardingError(f"unknown resync mode {mode!r}")
        registry = global_registry()
        with self._lock:
            head = self.coordinator.head.version
            cursor = None
            if mode != "full":
                try:
                    status = self.supervisor.call(
                        shard, lambda: ("status",)
                    )
                except ShardingError:
                    status = None
                applied = None if status is None else status.get("applied")
                # "auto" takes the tail only when lag *explains* the
                # need to resync (marker known and behind the head); a
                # shard that claims to be current yet needs healing is
                # corrupt in a way the marker cannot see, so it gets
                # the verifying dump-diff.  A *demanded* tail still
                # requires a known marker.
                if (
                    applied is not None
                    and applied <= head
                    and (mode == "tail" or applied < head)
                ):
                    cursor = applied
                if mode == "tail" and (
                    cursor is None
                    or self._versions_between(cursor, head) is None
                ):
                    raise ShardingError(
                        f"shard {shard} tail resync unavailable "
                        "(unknown marker, divergence, or pruned history)"
                    )
            self._cursors[shard] = cursor
            used, rows = self._advance([shard], head)
        registry.counter("store.shard.resyncs").inc()
        if used == "tail":
            registry.counter("store.shard.resyncs.tail").inc()
            registry.counter("store.shard.catchup_rows").inc(rows)
        flight.record("shard.resync", shard=shard, mode=used, rows=rows)
        return used

    def heal(self, shard: Optional[int] = None) -> None:
        """Force a re-promotion probe of degraded shards (all by
        default), bypassing the restart breaker's cool-down."""
        with self._lock:
            targets = (
                range(self.shards) if shard is None else (shard,)
            )
            for k in targets:
                self.supervisor.probe(k, force=True)

    def merged_relations(self) -> Dict[str, frozenset]:
        """The global relations reassembled from the shard fleet.

        Replicated relations come from shard 0 (asserting the copies
        agree); partitioned relations are the union of every shard's
        owned rows.  Comparing this against the coordinator head is the
        differential witness that sharded execution lost nothing.
        Dumps go through the supervisor, so a dead worker is healed
        (or degraded) and re-dumped instead of hanging the caller on a
        dark pipe.
        """
        with self._lock:
            commands = {
                shard_obj.shard: (lambda: ("dump",))
                for shard_obj in self._shards
            }
            results = self.supervisor.broadcast(commands)
            dumps = [
                results[shard_obj.shard] for shard_obj in self._shards
            ]
        merged: Dict[str, frozenset] = {}
        for name in dumps[0]:
            if self.partitioning.is_partitioned(name):
                rows = frozenset().union(
                    *(dump[name] for dump in dumps)
                )
            else:
                rows = dumps[0][name]
                for shard_obj, dump in zip(self._shards[1:], dumps[1:]):
                    if dump[name] != rows:
                        raise ShardingError(
                            f"replicated relation {name!r} diverged on "
                            f"shard {shard_obj.shard}"
                        )
            merged[name] = rows
        return merged

    def verify_consistent(self) -> None:
        """Assert every shard copy agrees with the coordinator head."""
        head = self.coordinator.head.database
        merged = self.merged_relations()
        for name in head.relation_names:
            if merged.get(name) != head.relation(name).tuples:
                raise ShardingError(
                    f"shard fleet diverged from coordinator on {name!r}"
                )

    def checkpoint(self, compact: bool = False) -> None:
        """Checkpoint the coordinator and every shard WAL."""
        with self._lock:
            if self.coordinator.wal is not None:
                self.coordinator.checkpoint(compact=compact)
            commands = {
                shard_obj.shard: (
                    lambda s=shard_obj.shard: (
                        "checkpoint",
                        self.supervisor.epoch(s),
                        compact,
                    )
                )
                for shard_obj in self._shards
            }
            self.supervisor.broadcast(commands)

    def close(self) -> None:
        with self._lock:
            for shard_obj in self._shards:
                # Final marker: a shard whose cursor is known records
                # that it reflects that version, so the next open
                # recovers with a clean (tail-capable) log.  An unknown
                # cursor leaves the shard's own marker to decide.
                cursor = self._cursors[shard_obj.shard]
                if cursor is not None:
                    try:
                        shard_obj.call(
                            (
                                "mark",
                                self.supervisor.epoch(shard_obj.shard),
                                cursor,
                            )
                        )
                    except Exception:
                        pass
                shard_obj.close()
            self.coordinator.close()


__all__ = [
    "InlineShard",
    "ProcessShard",
    "ShardBackend",
    "ShardedStore",
]
