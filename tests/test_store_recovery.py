"""WAL format, torn-tail scanning, crash recovery, and fault injection.

The acceptance property: killing the log at *any* byte — between
records, mid-record, at any torn fraction — recovers a state equal to
the one after some prefix of the committed transactions.  Never a torn
commit, never a state no commit sequence produced."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.instance import Obj
from repro.relational.delta import RelationDelta
from repro.sqlsim.scenarios import (
    employee_object_schema,
    make_company,
    tables_to_instance,
)
from repro.store import (
    CrashPoint,
    FaultInjector,
    RecoveryError,
    VersionedStore,
    WalError,
    WalRecord,
    WriteAheadLog,
    recover,
    replay,
    scan_wal,
)
from repro.store.recovery import committed_prefix_fingerprints
from repro.store.wal import (
    KIND_CHECKPOINT,
    KIND_COMMIT,
    decode_changes,
    decode_database,
    decode_value,
    encode_changes,
    encode_database,
    encode_value,
    parse_record,
    record_line,
)


def company_instance(n=8):
    employees, fire, newsal = make_company(n)
    return tables_to_instance(employees, newsal=newsal, fire=fire)


def toggle_deltas(instance, count):
    """``count`` change sets, each a real state change (see bench_store)."""
    employee = sorted(instance.objects_of_class("Employee"))[0]
    first, second = sorted(instance.objects_of_class("Money"))[:2]
    deltas = []
    for index in range(count):
        gain = (first, second)[index % 2]
        lose = (first, second)[(index + 1) % 2]
        deltas.append(
            {
                "Employee.salary": RelationDelta(
                    frozenset({(employee, gain)}),
                    frozenset({(employee, lose)}),
                )
            }
        )
    return deltas


def build_log(path, commits=6):
    """A clean WAL of ``commits`` transactions; returns the store's
    prefix fingerprints (index i = state after i commits)."""
    instance = company_instance()
    store = VersionedStore(instance=instance, wal=str(path))
    for delta in toggle_deltas(instance, commits):
        store.commit_changes(delta)
    prefixes = committed_prefix_fingerprints(
        store.version(0).database,
        [store.version(i + 1).changes for i in range(commits)],
    )
    store.close()
    return prefixes


# ----------------------------------------------------------------------
# Record format
# ----------------------------------------------------------------------
class TestRecordFormat:
    def test_value_round_trip(self):
        values = [
            1,
            -3.5,
            "text",
            None,
            True,
            Obj("Employee", 7),
            Obj("Money", "high"),
            (Obj("A", 1), (2, "x"), None),
        ]
        for value in values:
            assert decode_value(encode_value(value)) == value

    def test_unserializable_value_raises(self):
        with pytest.raises(WalError):
            encode_value(object())

    def test_changes_round_trip(self):
        changes = {
            "Employee.salary": RelationDelta(
                frozenset({(Obj("Employee", 1), Obj("Money", 100))}),
                frozenset({(Obj("Employee", 1), Obj("Money", 90))}),
            )
        }
        assert decode_changes(encode_changes(changes)) == changes

    def test_database_round_trip(self):
        from repro.objrel.mapping import instance_to_database

        database = instance_to_database(company_instance(4))
        decoded = decode_database(encode_database(database))
        assert decoded.fingerprints() == database.fingerprints()

    def test_record_line_is_deterministic_and_parses(self):
        payload = {"changes": encode_changes({})}
        line = record_line(3, KIND_COMMIT, 3, payload)
        assert line == record_line(3, KIND_COMMIT, 3, payload)
        record = parse_record(line)
        assert record == WalRecord(3, KIND_COMMIT, 3, payload)

    def test_checksum_detects_any_single_byte_flip(self):
        line = record_line(0, KIND_COMMIT, 1, {"changes": {}})
        for offset in range(len(line) - 1):  # keep the newline
            corrupt = bytearray(line)
            corrupt[offset] ^= 0x01
            with pytest.raises(WalError):
                parse_record(bytes(corrupt))


# ----------------------------------------------------------------------
# Scanning and replay
# ----------------------------------------------------------------------
class TestScanAndReplay:
    def test_clean_log_scans_fully(self, tmp_path):
        path = tmp_path / "clean.wal"
        prefixes = build_log(path, commits=4)
        records, valid_bytes, problems = scan_wal(str(path))
        assert not problems
        assert valid_bytes == os.path.getsize(path)
        assert [r.kind for r in records] == [KIND_CHECKPOINT] + (
            [KIND_COMMIT] * 4
        )
        version, database = replay(records)
        assert version == 4
        assert database.fingerprints() == prefixes[-1]

    def test_lsn_gap_drops_the_suffix(self, tmp_path):
        path = tmp_path / "gap.wal"
        prefixes = build_log(path, commits=4)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:2] + lines[3:]))  # drop lsn 2
        records, _, problems = scan_wal(str(path))
        assert len(records) == 2
        assert any("LSN gap" in p for p in problems)
        state = recover(str(path))
        assert state.database.fingerprints() == prefixes[1]

    def test_commits_without_checkpoint_raise(self, tmp_path):
        path = tmp_path / "headless.wal"
        build_log(path, commits=2)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[1:]))  # drop the checkpoint
        with pytest.raises(RecoveryError):
            recover(str(path))

    def test_replay_starts_at_latest_checkpoint(self, tmp_path):
        path = tmp_path / "two_ckpt.wal"
        instance = company_instance()
        store = VersionedStore(instance=instance, wal=str(path))
        deltas = toggle_deltas(instance, 4)
        for delta in deltas[:2]:
            store.commit_changes(delta)
        store.checkpoint()
        for delta in deltas[2:]:
            store.commit_changes(delta)
        head = store.head.database.fingerprints()
        store.close()
        state = recover(str(path))
        assert state.database.fingerprints() == head
        # All four commit records are still in the file and scanned…
        assert state.commits_applied == 4
        # …but replay seeded itself from the mid-log checkpoint: folding
        # the *last two* change sets onto it reproduces the head, which
        # the fingerprint equality above just proved.

    def test_compaction_preserves_state_and_shrinks_log(self, tmp_path):
        path = tmp_path / "compact.wal"
        instance = company_instance()
        store = VersionedStore(instance=instance, wal=str(path))
        for delta in toggle_deltas(instance, 6):
            store.commit_changes(delta)
        head = store.head.database.fingerprints()
        before = store.wal.size_bytes()
        store.checkpoint(compact=True)
        after_commits = recover(str(path))
        assert after_commits.database.fingerprints() == head
        assert after_commits.commits_applied == 0
        assert store.wal.size_bytes() < before + 1  # old commits gone
        # The compacted log keeps accepting appends.
        store.commit_changes(toggle_deltas(instance, 1)[0])
        store.close()
        assert recover(str(path)).version == store.head.version


# ----------------------------------------------------------------------
# Torn tails at arbitrary byte offsets (hypothesis)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def reference_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("wal") / "reference.wal"
    prefixes = build_log(path, commits=6)
    return path.read_bytes(), prefixes


class TestTornTailProperty:
    @given(data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_truncation_at_any_byte_recovers_a_prefix(
        self, tmp_path_factory, reference_log, data
    ):
        content, prefixes = reference_log
        cut = data.draw(st.integers(0, len(content)))
        path = tmp_path_factory.mktemp("torn") / "torn.wal"
        path.write_bytes(content[:cut])
        state = recover(str(path))
        if state.database is None:
            # The checkpoint itself was torn: nothing durable yet.
            assert state.version == -1
            return
        assert state.database.fingerprints() in prefixes
        # Exactly the commits whose record survived whole, in order.
        assert (
            state.database.fingerprints()
            == prefixes[state.commits_applied]
        )
        # The file was truncated to a clean boundary: re-running the
        # recovery finds nothing further to drop.
        assert recover(str(path)).clean

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_byte_corruption_recovers_a_prefix(
        self, tmp_path_factory, reference_log, data
    ):
        content, prefixes = reference_log
        offset = data.draw(st.integers(0, len(content) - 1))
        flip = data.draw(st.integers(1, 255))
        corrupt = bytearray(content)
        corrupt[offset] ^= flip
        path = tmp_path_factory.mktemp("corrupt") / "corrupt.wal"
        path.write_bytes(bytes(corrupt))
        try:
            state = recover(str(path))
        except RecoveryError:
            # The corrupted byte broke the checkpoint record while
            # later commits still parse: recovery correctly refuses to
            # replay over a missing base rather than guess.
            return
        if state.database is not None:
            assert state.database.fingerprints() in prefixes


# ----------------------------------------------------------------------
# Fault injection: kill the log mid-append, at every append
# ----------------------------------------------------------------------
class TestCrashRecovery:
    COMMITS = 5

    def run_until_crash(self, path, kill_at, torn_fraction):
        """Commit through a WAL that dies on append ``kill_at``."""
        instance = company_instance()
        injector = FaultInjector(
            kill_at_append=kill_at, torn_fraction=torn_fraction
        )
        wal = WriteAheadLog(str(path), fault=injector)
        committed = []
        try:
            store = VersionedStore(instance=instance, wal=wal)
            for delta in toggle_deltas(instance, self.COMMITS):
                version = store.commit_changes(delta)
                committed.append(version.changes)
        except CrashPoint:
            pass
        finally:
            wal.close()
        base = VersionedStore(instance=instance).head.database
        return committed, committed_prefix_fingerprints(base, committed)

    @pytest.mark.parametrize("kill_at", range(1, COMMITS + 1))
    @pytest.mark.parametrize("torn_fraction", [0.0, 0.3, 0.9])
    def test_kill_at_every_commit_append(
        self, tmp_path, kill_at, torn_fraction
    ):
        path = tmp_path / f"crash_{kill_at}_{torn_fraction}.wal"
        committed, prefixes = self.run_until_crash(
            path, kill_at, torn_fraction
        )
        # The crash struck commit #kill_at: exactly kill_at - 1 commits
        # became durable AND visible in memory (write-ahead ordering —
        # the in-memory chain never advanced past the torn append).
        assert len(committed) == kill_at - 1
        state = recover(str(path))
        assert state.database.fingerprints() == prefixes[kill_at - 1]
        assert state.commits_applied == kill_at - 1
        assert state.database.fingerprints() in prefixes

    def test_kill_during_the_seed_checkpoint(self, tmp_path):
        path = tmp_path / "crash_ckpt.wal"
        injector = FaultInjector(kill_at_append=0, torn_fraction=0.5)
        wal = WriteAheadLog(str(path), fault=injector)
        with pytest.raises(CrashPoint):
            VersionedStore(instance=company_instance(), wal=wal)
        wal.close()
        state = recover(str(path))
        assert state.version == -1 and state.database is None
        assert state.truncated_bytes > 0

    def test_failed_append_poisons_the_log_until_reopened(self, tmp_path):
        """A failed append leaves torn bytes in the file; a later
        append gluing a valid record onto them would merge both into
        one unparsable line and silently drop every later commit at
        recovery.  The handle must refuse appends until reopened."""
        path = tmp_path / "poison.wal"
        injector = FaultInjector(kill_at_append=0, torn_fraction=0.5)
        wal = WriteAheadLog(str(path), fault=injector)
        with pytest.raises(CrashPoint):
            wal.append(KIND_COMMIT, 1, {"changes": {}})
        assert wal.poisoned
        with pytest.raises(WalError):
            wal.append(KIND_COMMIT, 1, {"changes": {}})
        wal.close()
        # Reopening truncates the torn tail and resumes cleanly; the
        # injector re-arms for a second crash after one good append.
        injector.rearm(kill_at_append=1)
        wal = WriteAheadLog(str(path), fault=injector)
        assert not wal.poisoned
        assert wal.append(KIND_COMMIT, 1, {"changes": {}}) == 0
        with pytest.raises(CrashPoint):
            wal.append(KIND_COMMIT, 2, {"changes": {}})
        wal.close()
        # Exactly the good record survives; the second torn tail is
        # still recognized as such.
        records, _, problems = scan_wal(str(path))
        assert [r.lsn for r in records] == [0]
        assert problems

    def test_reopened_wal_truncates_and_resumes(self, tmp_path):
        path = tmp_path / "resume.wal"
        committed, prefixes = self.run_until_crash(
            path, kill_at=3, torn_fraction=0.5
        )
        # Re-attaching truncates the torn tail and appends after it.
        store = VersionedStore.from_wal(
            str(path), schema=employee_object_schema()
        )
        assert store.head.database.fingerprints() == prefixes[2]
        assert store.head.instance is not None
        next_version = store.commit_changes(
            toggle_deltas(store.head.instance, 1)[0]
        )
        assert next_version.version == store.head.version
        store.close()
        state = recover(str(path))
        assert state.clean
        assert (
            state.database.fingerprints()
            == store.head.database.fingerprints()
        )

    def test_from_wal_scans_the_log_once(self, tmp_path, monkeypatch):
        from repro.store import recovery

        path = tmp_path / "once.wal"
        instance = company_instance()
        store = VersionedStore(instance=instance, wal=str(path))
        for delta in toggle_deltas(instance, 3):
            store.commit_changes(delta)
        store.close()
        scans = []
        real_scan = recovery.scan_wal

        def counting_scan(scanned):
            scans.append(scanned)
            return real_scan(scanned)

        monkeypatch.setattr(recovery, "scan_wal", counting_scan)
        revived = VersionedStore.from_wal(
            str(path), schema=employee_object_schema()
        )
        assert scans == [str(path)]
        # The log resumes where the scan ended: the next commit takes
        # the next LSN and version, and the whole log recovers clean.
        assert revived.wal.next_lsn == 4
        assert revived.wal.last_version == store.head.version
        committed = revived.commit_changes(toggle_deltas(instance, 4)[3])
        assert committed.version == store.head.version + 1
        revived.close()
        state = recovery.recover(str(path))
        assert state.clean and state.version == committed.version
        assert (state.next_lsn, state.last_version) == (5, committed.version)

    def test_from_wal_round_trip_matches_live_store(self, tmp_path):
        path = tmp_path / "roundtrip.wal"
        instance = company_instance()
        store = VersionedStore(instance=instance, wal=str(path))
        for delta in toggle_deltas(instance, 4):
            store.commit_changes(delta)
        store.close()
        revived = VersionedStore.from_wal(
            str(path), schema=employee_object_schema()
        )
        assert (
            revived.head.database.fingerprints()
            == store.head.database.fingerprints()
        )
        assert revived.head.version == store.head.version
        revived.close()

    def test_bad_durability_mode_rejected(self, tmp_path):
        with pytest.raises(WalError):
            WriteAheadLog(str(tmp_path / "x.wal"), durability="wrong")

    @pytest.mark.parametrize("durability", ["lazy", "flush", "fsync"])
    def test_durability_modes_all_recover(self, tmp_path, durability):
        path = tmp_path / f"dur_{durability}.wal"
        instance = company_instance()
        store = VersionedStore(
            instance=instance, wal=str(path), durability=durability
        )
        for delta in toggle_deltas(instance, 3):
            store.commit_changes(delta)
        head = store.head.database.fingerprints()
        store.close()  # lazy mode flushes here
        state = recover(str(path))
        assert state.clean
        assert state.database.fingerprints() == head


# ----------------------------------------------------------------------
# Crash-at-every-step compaction (the directory-fsync fix)
# ----------------------------------------------------------------------
class TestCompactionCrashWindows:
    """Walk a crash through every window of ``compact()`` and prove the
    committed head survives each one.

    Compaction is write-new + fsync + rename + directory-fsync; the
    windows are (1) mid-write of the replacement, (2) replacement
    complete but rename not issued, (3) rename issued and durable but
    directory fsync lost, (4) rename issued but *lost* with the old
    file resurrected — the failure the directory fsync exists to make
    impossible going forward — and (5) compaction complete.  In every
    case recovery from what is on disk must land on the committed head.
    """

    def committed_store(self, path, commits=6):
        instance = company_instance()
        store = VersionedStore(instance=instance, wal=str(path))
        for delta in toggle_deltas(instance, commits):
            store.commit_changes(delta)
        store.checkpoint()  # compaction keeps records from here on
        return store, store.head.database.fingerprints()

    def test_crash_mid_replacement_write(self, tmp_path):
        path = tmp_path / "w1.wal"
        store, head = self.committed_store(path)
        store.close()
        # A torn replacement file is all the crash leaves behind; the
        # real log was never touched.
        (tmp_path / "w1.wal.compact").write_bytes(b'{"lsn": 0, "to')
        assert recover(str(path)).database.fingerprints() == head
        # A reopened log compacts fine over the stale side file.
        reopened = VersionedStore.from_wal(
            str(path), schema=employee_object_schema()
        )
        reopened.checkpoint(compact=True)
        reopened.close()
        assert recover(str(path)).database.fingerprints() == head

    def test_crash_after_replacement_before_rename(self, tmp_path):
        path = tmp_path / "w2.wal"
        store, head = self.committed_store(path)
        store.close()
        # The replacement is complete and fsynced, the rename never
        # issued: the old log is still the log.
        (tmp_path / "w2.wal.compact").write_bytes(path.read_bytes())
        assert recover(str(path)).database.fingerprints() == head

    def test_crash_after_rename_durable(self, tmp_path):
        from repro.resilience.faults import (
            WAL_COMPACT_REPLACE,
            FaultPlan,
        )

        path = tmp_path / "w3.wal"
        store, head = self.committed_store(path)
        plan = FaultPlan(seed=1).kill_at(WAL_COMPACT_REPLACE, at=0)
        with plan.installed():
            with pytest.raises(CrashPoint):
                store.wal.compact()
        # The swap happened; the new (compacted) file recovers the head.
        assert recover(str(path)).database.fingerprints() == head
        # The live log lost its handle mid-maintenance: it must refuse
        # appends (poisoned) rather than drop them silently...
        assert store.wal.poisoned
        with pytest.raises(WalError):
            store.commit_changes(
                toggle_deltas(company_instance(), 1)[0]
            )
        store.close()
        # ...until reopened, after which commits flow again.
        reopened = VersionedStore.from_wal(
            str(path), schema=employee_object_schema()
        )
        instance = reopened.head.instance
        reopened.commit_changes(toggle_deltas(instance, 1)[0])
        after = reopened.head.database.fingerprints()
        reopened.close()
        assert recover(str(path)).database.fingerprints() == after

    def test_crash_with_rename_lost_resurrects_old_log_safely(
        self, tmp_path
    ):
        """The pre-fix disaster window: without the directory fsync the
        rename itself can be lost, resurrecting the *old* log.  Both
        files replay to the same committed head — and because a failed
        compact poisons the log, no post-compaction append can exist
        only in the new file for the resurrected old one to lose."""
        from repro.resilience.faults import (
            WAL_COMPACT_REPLACE,
            FaultPlan,
        )

        path = tmp_path / "w4.wal"
        store, head = self.committed_store(path)
        old_bytes = path.read_bytes()
        plan = FaultPlan(seed=1).kill_at(WAL_COMPACT_REPLACE, at=0)
        with plan.installed():
            with pytest.raises(CrashPoint):
                store.wal.compact()
        store.close()
        path.write_bytes(old_bytes)  # the lost rename, made flesh
        assert recover(str(path)).database.fingerprints() == head

    def test_complete_compaction_survives(self, tmp_path):
        path = tmp_path / "w5.wal"
        store, head = self.committed_store(path)
        dropped = store.wal.compact()
        assert dropped > 0
        store.close()
        assert recover(str(path)).database.fingerprints() == head
