"""Append-only write-ahead log of normalized change sets.

The log is the durability half of :mod:`repro.store`: every committed
transaction appends one ``commit`` record carrying its normalized
:class:`~repro.relational.delta.RelationDelta` change set *before* the
in-memory :class:`~repro.store.versioned.VersionedStore` advances, so a
crash at any point loses at most the tail of not-yet-durable commits —
never a torn one.

Format: JSON lines.  Each record is one ``\\n``-terminated JSON object::

    {"lsn": 3, "kind": "commit", "version": 3,
     "payload": {...}, "crc": 2774712513}

``crc`` is the CRC-32 of the canonical JSON encoding of the record
*without* the ``crc`` field; :func:`~repro.store.recovery.scan_wal`
treats the first record whose line is incomplete, unparsable, or
checksum-mismatched as the torn tail and truncates there.  Relation
tuples hold opaque hashables (``Obj`` values, ints, strings, ...);
:func:`encode_value` / :func:`decode_value` give them a lossless JSON
form.

Durability modes trade safety for append latency:

* ``"lazy"``   — buffered writes, flushed on :meth:`close`/checkpoint;
* ``"flush"``  — ``flush()`` after every record (default: survives
  process death, not OS death);
* ``"fsync"``  — ``flush()`` + ``os.fsync`` after every record.

A ``checkpoint`` record carries a complete database snapshot;
:meth:`WriteAheadLog.compact` rewrites the log to start at the latest
checkpoint, bounding replay work.  Fault injection for crash tests goes
through :class:`~repro.resilience.faults.FaultInjector`, which makes
:meth:`append` write only a prefix of the encoded record and raise —
the torn tail recovery must survive — and through the generalized
:func:`repro.resilience.faults.fault_point` site ``"wal.append"``,
consulted before any byte is written.
"""

from __future__ import annotations

import json
import os
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.graph.instance import Obj
from repro.obs import tracer as trace
from repro.obs.metrics import global_registry
from repro.relational.database import Database
from repro.relational.delta import RelationDelta
from repro.relational.relation import Attribute, Relation, RelationSchema
from repro.resilience.faults import (
    WAL_APPEND,
    WAL_COMPACT_REPLACE,
    fault_point,
)

#: The allowed ``durability`` arguments of :class:`WriteAheadLog`.
DURABILITY_MODES = ("lazy", "flush", "fsync")

#: Record kinds the replay machinery understands.
KIND_COMMIT = "commit"
KIND_CHECKPOINT = "checkpoint"


class WalError(ValueError):
    """Raised on malformed records or unsupported payload values."""


# ----------------------------------------------------------------------
# Value (de)serialization
# ----------------------------------------------------------------------
def encode_value(value: Any) -> Any:
    """A lossless JSON form of one tuple component.

    Plain JSON scalars pass through; :class:`Obj` values become
    ``{"o": [cls, key]}`` and tuples ``{"t": [...]}`` — both markers are
    unambiguous because relations only hold *hashable* values, so no
    genuine dict or list can appear in a row.
    """
    if isinstance(value, Obj):
        # Positional reads of cls and key, the fastest per-row route;
        # an int or str key passes through without a call.
        key = value[1]
        if type(key) is not int and type(key) is not str:
            key = encode_value(key)
        return {"o": [value[0], key]}
    if isinstance(value, tuple):
        return {"t": [encode_value(v) for v in value]}
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    raise WalError(
        f"cannot serialize value {value!r} of type {type(value).__name__}"
    )


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, dict):
        if "o" in value:
            cls, key = value["o"]
            return Obj(cls, decode_value(key))
        if "t" in value:
            return tuple(decode_value(v) for v in value["t"])
        raise WalError(f"unknown value marker {sorted(value)!r}")
    return value


def encode_row(row: Tuple) -> list:
    return [encode_value(v) for v in row]


def decode_row(row: list) -> Tuple:
    return tuple(decode_value(v) for v in row)


def encode_changes(
    changes: Mapping[str, RelationDelta]
) -> Dict[str, Dict[str, list]]:
    """A change set as JSON: ``{name: {"ins": [...], "del": [...]}}``.

    Rows are sorted by their JSON encoding so the record bytes (and
    hence the checksum) are deterministic for a given change set.
    """
    encoded: Dict[str, Dict[str, list]] = {}
    for name in sorted(changes):
        delta = changes[name]
        encoded[name] = {
            "ins": sorted(
                (encode_row(r) for r in delta.inserted), key=repr
            ),
            "del": sorted(
                (encode_row(r) for r in delta.deleted), key=repr
            ),
        }
    return encoded


def decode_changes(payload: Mapping[str, Any]) -> Dict[str, RelationDelta]:
    """Inverse of :func:`encode_changes`."""
    return {
        name: RelationDelta(
            frozenset(decode_row(r) for r in entry.get("ins", ())),
            frozenset(decode_row(r) for r in entry.get("del", ())),
        )
        for name, entry in payload.items()
    }


def encode_schema(schema: RelationSchema) -> list:
    return [[a.name, a.domain] for a in schema.attributes]


def decode_schema(payload: list) -> RelationSchema:
    return RelationSchema(
        [Attribute(name, domain) for name, domain in payload]
    )


def encode_database(database: Database) -> Dict[str, Any]:
    """A full database snapshot (checkpoint payload body)."""
    return {
        name: {
            "schema": encode_schema(database.relation(name).schema),
            "rows": sorted(
                (encode_row(r) for r in database.relation(name)), key=repr
            ),
        }
        for name in database.relation_names
    }


def decode_database(payload: Mapping[str, Any]) -> Database:
    """Inverse of :func:`encode_database`."""
    return Database(
        {
            name: Relation(
                decode_schema(entry["schema"]),
                (decode_row(r) for r in entry["rows"]),
            )
            for name, entry in payload.items()
        }
    )


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WalRecord:
    """One decoded, checksum-validated log record."""

    lsn: int
    kind: str
    version: int
    payload: Dict[str, Any]

    @property
    def changes(self) -> Dict[str, RelationDelta]:
        """The change set of a ``commit`` record."""
        if self.kind != KIND_COMMIT:
            raise WalError(f"record {self.lsn} is a {self.kind}, not a commit")
        return decode_changes(self.payload.get("changes", {}))

    @property
    def database(self) -> Database:
        """The snapshot of a ``checkpoint`` record."""
        if self.kind != KIND_CHECKPOINT:
            raise WalError(
                f"record {self.lsn} is a {self.kind}, not a checkpoint"
            )
        return decode_database(self.payload.get("database", {}))


def _canonical(document: Mapping[str, Any]) -> bytes:
    return json.dumps(
        document, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def record_line(
    lsn: int, kind: str, version: int, payload: Mapping[str, Any]
) -> bytes:
    """The encoded (checksummed, newline-terminated) record bytes."""
    document = {
        "lsn": lsn,
        "kind": kind,
        "version": version,
        "payload": dict(payload),
    }
    document["crc"] = zlib.crc32(_canonical(document))
    return _canonical(document) + b"\n"


def parse_record(line: bytes) -> WalRecord:
    """Decode and checksum-validate one record line.

    Raises :class:`WalError` on anything a torn or corrupted append
    could produce: incomplete JSON, missing fields, checksum mismatch.
    """
    try:
        document = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as error:
        raise WalError(f"unparsable record line: {error}") from None
    if not isinstance(document, dict):
        raise WalError("record is not a JSON object")
    try:
        crc = document.pop("crc")
        lsn = document["lsn"]
        kind = document["kind"]
        version = document["version"]
        payload = document["payload"]
    except KeyError as error:
        raise WalError(f"record missing field {error}") from None
    if zlib.crc32(_canonical(document)) != crc:
        raise WalError(f"checksum mismatch on record {lsn}")
    if not isinstance(payload, dict):
        raise WalError(f"record {lsn} payload is not an object")
    return WalRecord(lsn, kind, version, payload)


# ----------------------------------------------------------------------
# The log
# ----------------------------------------------------------------------
class WriteAheadLog:
    """An append-only, checksummed JSON-lines log.

    Thread-safe: appends serialize on an internal lock (commits are
    already serialized by the store's commit lock, but the WAL does not
    rely on that).  Opening an existing file appends after its last
    *valid* record — a torn tail left by a crash is truncated away
    first, exactly as :func:`repro.store.recovery.recover` would.

    A *failed* append (disk full, EIO, injected crash) poisons the
    log: the file may now end in a torn partial record, and appending
    a valid record after those bytes would merge the two into one
    unparsable line — the scan would stop there and silently drop
    every later commit.  A poisoned log refuses further appends with
    :class:`WalError`; reopening the path truncates the torn tail and
    resumes cleanly.
    """

    def __init__(
        self,
        path: str,
        durability: str = "flush",
        fault: Optional["FaultHook"] = None,
    ) -> None:
        self._setup(path, durability, fault)
        if os.path.exists(path):
            from repro.store.recovery import scan_wal

            records, valid_bytes, _ = scan_wal(path)
            if os.path.getsize(path) != valid_bytes:
                with open(path, "r+b") as handle:
                    handle.truncate(valid_bytes)
            if records:
                self._next_lsn = records[-1].lsn + 1
                self._last_version = records[-1].version
        self._handle = open(path, "ab")

    @classmethod
    def _after_recovery(
        cls, path: str, durability: str, next_lsn: int, last_version: int
    ) -> "WriteAheadLog":
        """Attach to ``path`` right after :func:`recover` scanned and
        truncated it, resuming at its next LSN without a second scan."""
        log = cls.__new__(cls)
        log._setup(path, durability, None)
        log._next_lsn, log._last_version = next_lsn, last_version
        log._handle = open(path, "ab")
        return log

    def _setup(
        self, path: str, durability: str, fault: Optional["FaultHook"]
    ) -> None:
        if durability not in DURABILITY_MODES:
            raise WalError(
                f"unknown durability mode {durability!r}; "
                f"expected one of {DURABILITY_MODES}"
            )
        self.path = path
        self.durability = durability
        self.fault = fault
        self._lock = threading.Lock()
        self._next_lsn = 0
        self._last_version = -1
        self._poisoned: Optional[str] = None

    # -- introspection -------------------------------------------------
    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    @property
    def last_version(self) -> int:
        """The version of the last appended record (-1 when empty)."""
        return self._last_version

    @property
    def poisoned(self) -> bool:
        """Whether a failed append left the log refusing writes."""
        return self._poisoned is not None

    def size_bytes(self) -> int:
        self._handle.flush()
        return os.path.getsize(self.path)

    # -- appends -------------------------------------------------------
    def _write(self, line: bytes) -> None:
        fault_point(WAL_APPEND)
        if self.fault is not None:
            self.fault.on_append(self, line)
            if self.fault.armed():
                torn = line[: self.fault.torn_prefix(len(line))]
                if torn:
                    self._handle.write(torn)
                self._handle.flush()
                self.fault.fire()
        self._handle.write(line)
        if self.durability == "flush":
            self._handle.flush()
        elif self.durability == "fsync":
            self._handle.flush()
            started = time.perf_counter()
            os.fsync(self._handle.fileno())
            global_registry().histogram("store.wal.fsync_ms").observe(
                (time.perf_counter() - started) * 1000.0
            )

    def append(
        self, kind: str, version: int, payload: Mapping[str, Any]
    ) -> int:
        """Append one record; returns its LSN.

        Raises :class:`WalError` if a previous append failed — the
        file may end in that append's torn bytes, and writing a valid
        record after them would merge both into one unparsable line,
        losing every later commit at recovery.  Reopen the path to
        truncate the torn tail and resume.
        """
        with self._lock:
            if self._poisoned is not None:
                raise WalError(
                    f"log {self.path!r} refuses appends after a failed "
                    f"write ({self._poisoned}); reopen it to recover"
                )
            lsn = self._next_lsn
            line = record_line(lsn, kind, version, payload)
            try:
                self._write(line)
            except BaseException as error:
                self._poisoned = repr(error)
                raise
            self._next_lsn = lsn + 1
            self._last_version = version
        registry = global_registry()
        registry.counter("store.wal.records").inc()
        registry.counter("store.wal.bytes").inc(len(line))
        return lsn

    def append_commit(
        self,
        version: int,
        changes: Mapping[str, RelationDelta],
        txn_id: Optional[int] = None,
    ) -> int:
        """Log one committed transaction's normalized change set."""
        payload: Dict[str, Any] = {"changes": encode_changes(changes)}
        if txn_id is not None:
            payload["txn"] = txn_id
        return self.append(KIND_COMMIT, version, payload)

    def append_checkpoint(self, version: int, database: Database) -> int:
        """Log a complete snapshot of ``database`` at ``version``."""
        with trace.span(
            "store.checkpoint", category="store", version=version
        ):
            lsn = self.append(
                KIND_CHECKPOINT,
                version,
                {"database": encode_database(database)},
            )
            self._handle.flush()
        global_registry().counter("store.wal.checkpoints").inc()
        return lsn

    # -- maintenance ---------------------------------------------------
    def compact(self) -> int:
        """Drop every record before the latest checkpoint.

        Rewrites the file atomically (write-new + fsync + rename +
        **directory fsync**) so a crash during compaction leaves either
        the old or the new log, never a mix.  The directory fsync is
        load-bearing: ``os.replace`` updates a directory entry, and on
        a crash before the directory's own metadata reaches disk the
        rename may be lost — resurrecting the old (longer) log.  That
        is *observably* wrong the moment a post-compaction append goes
        only to the new file.  Returns the number of records dropped.
        A log with no checkpoint is left untouched.
        """
        from repro.store.recovery import scan_wal

        with self._lock:
            self._handle.flush()
            records, _, _ = scan_wal(self.path)
            checkpoint_at = None
            for index, record in enumerate(records):
                if record.kind == KIND_CHECKPOINT:
                    checkpoint_at = index
            if checkpoint_at is None or checkpoint_at == 0:
                return 0
            kept = records[checkpoint_at:]
            replacement = self.path + ".compact"
            with open(replacement, "wb") as handle:
                for record in kept:
                    handle.write(
                        record_line(
                            record.lsn,
                            record.kind,
                            record.version,
                            record.payload,
                        )
                    )
                handle.flush()
                os.fsync(handle.fileno())
            self._handle.close()
            os.replace(replacement, self.path)
            try:
                fault_point(WAL_COMPACT_REPLACE)
                dir_fd = os.open(
                    os.path.dirname(os.path.abspath(self.path)),
                    os.O_RDONLY,
                )
                try:
                    os.fsync(dir_fd)
                finally:
                    os.close(dir_fd)
                self._handle = open(self.path, "ab")
            except BaseException as error:
                # The live handle is gone; without a replacement the
                # log must refuse further appends rather than lose
                # them silently.  Recovery (reopen) heals it — both
                # the old and the new file replay to the same state.
                self._poisoned = repr(error)
                raise
            dropped = checkpoint_at
        global_registry().counter("store.wal.compactions").inc()
        return dropped

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.flush()
                self._handle.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False


class FaultHook:
    """Interface of the WAL's crash-injection hook.

    :class:`repro.resilience.faults.FaultInjector` is the concrete
    implementation (by duck typing); the indirection keeps ``wal``
    importable without ``recovery`` (which imports ``wal`` for the
    scan machinery).
    """

    def on_append(self, log: WriteAheadLog, line: bytes) -> None:
        """Called before each append with the full encoded line."""

    def armed(self) -> bool:
        """Whether the *current* append should crash."""
        return False

    def torn_prefix(self, line_length: int) -> int:
        """How many bytes of the record reach the file before the crash."""
        return 0

    def fire(self) -> None:
        """Raise the crash exception."""
        raise RuntimeError("fault fired")
