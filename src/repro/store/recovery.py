"""Crash recovery: scan, truncate the torn tail, replay to the latest state.

A crash can leave the write-ahead log with a *torn tail*: the last
record half-written (incomplete line, bad JSON, checksum mismatch).
:func:`scan_wal` reads records until the first invalid one and reports
the byte offset of the last valid record boundary; :func:`recover`
truncates there (optional), then replays — latest checkpoint snapshot
first, committed change sets after it — into a
:class:`RecoveredState`.  Because every commit is exactly one record,
the recovered database always equals the state after some *prefix* of
the committed transactions: torn commits never surface.

:class:`FaultInjector` — the test hook that kills the log mid-append,
simulating power loss at the worst possible byte — now lives in
:mod:`repro.resilience.faults` alongside the generalized site-based
injection; it is re-exported here (with :class:`CrashPoint`) for
backward compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs import tracer as trace
from repro.obs.metrics import global_registry
from repro.relational.database import Database
from repro.resilience.faults import CrashPoint, FaultInjector
from repro.store.wal import (
    KIND_CHECKPOINT,
    KIND_COMMIT,
    WalError,
    WalRecord,
    parse_record,
)


class RecoveryError(ValueError):
    """Raised when the log cannot seed a state (e.g. no checkpoint)."""


# ----------------------------------------------------------------------
# Scanning
# ----------------------------------------------------------------------
def scan_wal(path: str) -> Tuple[List[WalRecord], int, List[str]]:
    """Read ``path`` up to the first invalid record.

    Returns ``(records, valid_bytes, problems)``: the validated records,
    the byte offset of the end of the last valid record (the truncation
    point), and a description of whatever stopped the scan (empty when
    the whole file validated).  LSNs must increase by one — a gap means
    the file was corrupted in the middle, and everything from the gap on
    is dropped, because replaying across a hole could resurrect a state
    no sequence of commits ever produced.
    """
    records: List[WalRecord] = []
    problems: List[str] = []
    valid_bytes = 0
    expected_lsn: Optional[int] = None
    with open(path, "rb") as handle:
        data = handle.read()
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        if newline < 0:
            problems.append(
                f"torn tail: {len(data) - offset} trailing bytes with no "
                "record terminator"
            )
            break
        line = data[offset : newline + 1]
        try:
            record = parse_record(line)
        except WalError as error:
            problems.append(f"invalid record at byte {offset}: {error}")
            break
        if expected_lsn is not None and record.lsn != expected_lsn:
            problems.append(
                f"LSN gap at byte {offset}: expected {expected_lsn}, "
                f"found {record.lsn}"
            )
            break
        records.append(record)
        expected_lsn = record.lsn + 1
        offset = newline + 1
        valid_bytes = offset
    return records, valid_bytes, problems


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
@dataclass
class RecoveredState:
    """The outcome of :func:`recover`."""

    version: int
    """Version of the recovered head state (-1 for an empty log)."""

    database: Optional[Database]
    """The replayed head database (``None`` for an empty log)."""

    records_scanned: int
    commits_applied: int
    truncated_bytes: int
    """Bytes of torn/corrupt tail dropped from the file."""

    problems: List[str] = field(default_factory=list)

    next_lsn: int = 0
    """The LSN the next appended record takes."""

    last_version: int = -1
    """The version of the last valid record (-1 for an empty log)."""

    @property
    def clean(self) -> bool:
        """Whether the log validated end to end (nothing truncated)."""
        return self.truncated_bytes == 0 and not self.problems


def replay(records: List[WalRecord]) -> Tuple[int, Optional[Database]]:
    """Fold validated records into ``(version, database)``.

    Starts at the *latest* checkpoint (records before it need no work —
    that is what checkpoints are for) and applies each later commit's
    change set with
    :meth:`~repro.relational.database.Database.apply_delta`.
    """
    checkpoint_at = None
    for index, record in enumerate(records):
        if record.kind == KIND_CHECKPOINT:
            checkpoint_at = index
    if checkpoint_at is None:
        if records:
            raise RecoveryError(
                "log has commits but no checkpoint to seed the replay"
            )
        return -1, None
    base = records[checkpoint_at]
    database = base.database
    version = base.version
    for record in records[checkpoint_at + 1 :]:
        if record.kind != KIND_COMMIT:
            continue
        database = database.apply_delta(record.changes)
        version = record.version
    return version, database


def recover(path: str, truncate: bool = True) -> RecoveredState:
    """Scan ``path``, drop the torn tail, and replay to the head state.

    With ``truncate`` (the default) the file itself is trimmed to the
    last valid record boundary, so a subsequently attached
    :class:`~repro.store.wal.WriteAheadLog` appends cleanly after the
    recovered state.
    """
    import os

    with trace.span("store.replay", category="store") as span:
        records, valid_bytes, problems = scan_wal(path)
        file_bytes = os.path.getsize(path)
        torn = file_bytes - valid_bytes
        if torn and truncate:
            with open(path, "r+b") as handle:
                handle.truncate(valid_bytes)
        version, database = replay(records)
        commits = sum(1 for r in records if r.kind == KIND_COMMIT)
        span.set(
            records=len(records),
            commits=commits,
            version=version,
            truncated_bytes=torn,
        )
    registry = global_registry()
    registry.counter("store.recovery.runs").inc()
    if torn:
        registry.counter("store.recovery.torn_tails").inc()
        registry.counter("store.recovery.truncated_bytes").inc(torn)
    return RecoveredState(
        version=version,
        database=database,
        records_scanned=len(records),
        commits_applied=commits,
        truncated_bytes=torn,
        problems=problems,
        next_lsn=records[-1].lsn + 1 if records else 0,
        last_version=records[-1].version if records else -1,
    )


def committed_prefix_fingerprints(
    base: Database, change_sets: List[Dict]
) -> List[Dict[str, int]]:
    """Fingerprints of every prefix state of a committed sequence.

    Test helper for the crash-recovery property: recovery after a kill
    at any point must land on exactly one of these states.
    """
    states = [base.fingerprints()]
    current = base
    for changes in change_sets:
        current = current.apply_delta(changes)
        states.append(current.fingerprints())
    return states
