"""The coloring-partitioned sharded store (`repro.store.sharding`).

The load-bearing check is differential: for seeded streams of mixed
disjoint / cross-shard batches, the sharded store's final state must
equal the unsharded fold of the same batches on a single store — and
the shard fleet must reassemble to exactly the coordinator head.  The
``REPRO_SHARDS`` environment variable (CI matrix) picks the default
shard count.
"""

import multiprocessing
import os
import random
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring.regions import method_region
from repro.core.receiver import Receiver
from repro.core.sequential import apply_sequence
from repro.graph.instance import Obj
from repro.graph.schema import SchemaError
from repro.objrel.mapping import database_to_instance, instance_to_database
from repro.obs import flight
from repro.obs.metrics import global_registry
from repro.parallel.apply import apply_parallel, apply_parallel_transactional
from repro.relational.delta import RelationDelta
from repro.resilience.faults import (
    SHARD_STAGE_FENCE,
    SHARD_WORKER,
    WAL_APPEND,
    FaultError,
    FaultPlan,
)
from repro.sqlsim.scenarios import (
    employee_object_schema,
    scenario_b_method,
    scenario_c_method,
)
from repro.store import ShardedStore, ShardingError, VersionedStore
from repro.store.sharding import (
    CROSS_SHARD,
    DISJOINT,
    Partitioning,
    ProcessShard,
    Router,
    WorkerDied,
    stable_shard_hash,
)
from repro.workloads.sharded import (
    mixed_batches,
    raise_batches,
    sharded_company,
)

REPRO_SHARDS = int(os.environ.get("REPRO_SHARDS", "2"))
CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "7"))

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker-kill chaos relies on fork inheritance of the plan",
)


def fingerprints(instance):
    return instance_to_database(instance).fingerprints()


def unsharded_fold(batches, instance):
    """The reference semantics: ``M_par`` per batch, batches in order."""
    for method, batch in batches:
        instance = apply_parallel(method, instance, batch)
    return instance


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
class TestPartitioning:
    def test_partitioned_relations_are_the_partition_class_properties(self):
        partitioning = Partitioning(
            employee_object_schema(), frozenset({"Employee"}), 2
        )
        assert partitioning.partitioned_relations == {
            "Employee",
            "Employee.salary",
            "Employee.manager",
        }
        assert not partitioning.is_partitioned("NewSal.old")
        assert not partitioning.is_partitioned("Money")

    def test_shard_assignment_is_stable_and_covers_all_shards(self):
        partitioning = Partitioning(
            employee_object_schema(), frozenset({"Employee"}), 4
        )
        objs = [Obj("Employee", n) for n in range(64)]
        first = [partitioning.shard_of_object(o) for o in objs]
        assert first == [partitioning.shard_of_object(o) for o in objs]
        assert set(first) == {0, 1, 2, 3}
        # Content hash, not id()/hash(): equal objects agree always.
        assert stable_shard_hash(Obj("Employee", 7)) == stable_shard_hash(
            Obj("Employee", 7)
        )

    def test_rejects_bad_configuration(self):
        schema = employee_object_schema()
        with pytest.raises(ShardingError):
            Partitioning(schema, frozenset({"Employee"}), 0)
        with pytest.raises(ShardingError):
            Partitioning(schema, frozenset(), 2)

    def test_slices_partition_the_partitioned_edges(self):
        instance, _ = sharded_company(n_employees=24, seed=5)
        partitioning = Partitioning(
            instance.schema, frozenset({"Employee"}), 3
        )
        whole = instance_to_database(instance)
        slices = [
            partitioning.slice_database(whole, k) for k in range(3)
        ]
        for name in ("Employee.salary", "Employee.manager"):
            rows = [s.relation(name).tuples for s in slices]
            # Disjoint, and their union is the global relation.
            assert sum(len(r) for r in rows) == len(
                frozenset().union(*rows)
            )
            assert frozenset().union(*rows) == whole.relation(name).tuples
        for s in slices:  # replicated relations are full copies
            assert (
                s.relation("NewSal.old").tuples
                == whole.relation("NewSal.old").tuples
            )
        # The partitioned extent reunites too (borrows are a subset of
        # other shards' owned rows), and every slice is strictly smaller
        # than the whole in each partitioned relation.
        extents = [s.relation("Employee").tuples for s in slices]
        assert frozenset().union(*extents) == whole.relation(
            "Employee"
        ).tuples
        assert all(
            len(s.relation(name)) < len(whole.relation(name))
            for s in slices
            for name in partitioning.partitioned_relations
        )
        # Borrows keep every slice a valid object base: the inclusion
        # dependencies hold, so the instance view can be derived.
        for s in slices:
            sub = database_to_instance(s, instance.schema)
            assert instance_to_database(sub) == s

    def test_split_then_merge_changes_roundtrips(self):
        partitioning = Partitioning(
            employee_object_schema(), frozenset({"Employee"}), 3
        )
        changes = {
            "Employee.salary": RelationDelta(
                inserted=frozenset(
                    (Obj("Employee", n), Obj("Money", 1000))
                    for n in range(12)
                ),
                deleted=frozenset(
                    (Obj("Employee", n), Obj("Money", 2000))
                    for n in range(12)
                ),
            ),
            "NewSal.new": RelationDelta(
                inserted=frozenset({(Obj("NewSal", 1), Obj("Money", 1))})
            ),
        }
        per_shard, replicated = partitioning.split_changes(changes)
        assert replicated == {"NewSal.new": changes["NewSal.new"]}
        for shard, part in per_shard.items():
            for delta in part.values():
                for row in delta.inserted | delta.deleted:
                    assert partitioning.shard_of_object(row[0]) == shard
        # The parts partition the partitioned change set: pairwise
        # disjoint, and their union is the whole.
        whole = changes["Employee.salary"]
        for side in ("inserted", "deleted"):
            parts = [
                getattr(part["Employee.salary"], side)
                for part in per_shard.values()
            ]
            assert sum(map(len, parts)) == len(getattr(whole, side))
            assert frozenset().union(*parts) == getattr(whole, side)


# ----------------------------------------------------------------------
# Router
# ----------------------------------------------------------------------
class TestRouter:
    def router(self, shards=REPRO_SHARDS):
        return Router(
            Partitioning(
                employee_object_schema(), frozenset({"Employee"}), shards
            )
        )

    def test_scenario_b_routes_disjoint(self):
        _, receivers = sharded_company(n_employees=16, seed=1)
        route = self.router().route(scenario_b_method(), receivers)
        assert route.kind == DISJOINT
        assert sum(map(len, route.sub_batches.values())) == len(receivers)

    def test_scenario_c_escalates_for_reading_partitioned_state(self):
        route = self.router().route(
            scenario_c_method(), [Receiver([Obj("Employee", 1)])]
        )
        assert route.kind == CROSS_SHARD
        assert "reads touch partitioned" in route.reason
        region = method_region(scenario_c_method())
        assert region.reads_own_writes()

    def test_unpartitioned_receiving_class_escalates(self):
        partitioning = Partitioning(
            employee_object_schema(), frozenset({"NewSal"}), 2
        )
        _, receivers = sharded_company(n_employees=8, seed=1)
        route = Router(partitioning).route(
            scenario_b_method(), receivers[:4]
        )
        assert route.kind == CROSS_SHARD
        assert "not partitioned" in route.reason


# ----------------------------------------------------------------------
# The sharded store: differential correctness
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", sorted({1, REPRO_SHARDS, 4}))
def test_disjoint_batches_match_the_sequential_fold(shards, tmp_path):
    """Disjoint raises: sharded result == receiver-level sequential fold
    (scenario B is order independent, so both references agree)."""
    instance, receivers = sharded_company(n_employees=32, seed=11)
    method = scenario_b_method()
    store = ShardedStore(
        instance,
        ["Employee"],
        shards=shards,
        wal_dir=str(tmp_path / f"s{shards}"),
    )
    try:
        for batch in raise_batches(receivers, batch_size=8):
            version, route, staged = store.apply_batch(method, batch)
            assert route.kind == DISJOINT and staged
        expected = apply_sequence(method, instance, receivers)
        assert store.coordinator.head.database.fingerprints() == (
            fingerprints(expected)
        )
        store.verify_consistent()
    finally:
        store.close()


@given(st.integers(0, 10_000))
@settings(max_examples=12, deadline=None)
def test_mixed_batches_match_the_unsharded_fold(seed):
    """The acceptance differential: on every generated mixed stream the
    sharded final state equals the unsharded fold of the same batches,
    and the shard fleet reassembles to the coordinator head."""
    rng = random.Random(seed)
    instance, receivers = sharded_company(n_employees=24, seed=seed % 97)
    batches = list(
        mixed_batches(
            instance, receivers, rng, rounds=5, batch_size=6
        )
    )
    store = ShardedStore(instance, ["Employee"], shards=REPRO_SHARDS)
    try:
        kinds = []
        for method, batch in batches:
            _, route, _ = store.apply_batch(method, batch)
            kinds.append(route.kind)
        reference = unsharded_fold(batches, instance)
        assert store.coordinator.head.database.fingerprints() == (
            fingerprints(reference)
        )
        store.verify_consistent()
        # The generator really exercises the router (derandomized
        # hypothesis would hide a stream that never escalates).
        assert set(kinds) <= {DISJOINT, CROSS_SHARD}
    finally:
        store.close()


def test_mixed_stream_covers_both_routes():
    rng = random.Random(1995)
    instance, receivers = sharded_company(n_employees=24, seed=7)
    kinds = set()
    store = ShardedStore(instance, ["Employee"], shards=REPRO_SHARDS)
    try:
        for method, batch in mixed_batches(
            instance, receivers, rng, rounds=10, batch_size=6
        ):
            _, route, _ = store.apply_batch(method, batch)
            kinds.add(route.kind)
    finally:
        store.close()
    assert kinds == {DISJOINT, CROSS_SHARD}


def test_process_mode_matches_inline(tmp_path):
    """The worker-process fleet computes exactly what inline does."""
    rng = random.Random(42)
    instance, receivers = sharded_company(n_employees=24, seed=3)
    batches = list(
        mixed_batches(instance, receivers, rng, rounds=4, batch_size=6)
    )
    stores = {
        mode: ShardedStore(
            instance,
            ["Employee"],
            shards=REPRO_SHARDS,
            mode=mode,
            wal_dir=str(tmp_path / mode),
        )
        for mode in ("inline", "process")
    }
    try:
        heads = {}
        for mode, store in stores.items():
            for method, batch in batches:
                store.apply_batch(method, batch)
            store.verify_consistent()
            heads[mode] = store.coordinator.head.database.fingerprints()
        assert heads["inline"] == heads["process"]
        assert heads["inline"] == fingerprints(
            unsharded_fold(batches, instance)
        )
    finally:
        for store in stores.values():
            store.close()


def test_apply_parallel_transactional_dispatches_sharded_stores():
    instance, receivers = sharded_company(n_employees=16, seed=9)
    method = scenario_b_method()
    plain = VersionedStore(instance=instance)
    sharded = ShardedStore(instance, ["Employee"], shards=REPRO_SHARDS)
    try:
        v_plain = apply_parallel_transactional(plain, method, receivers)
        v_sharded = apply_parallel_transactional(
            sharded, method, receivers
        )
        assert (
            v_plain.database.fingerprints()
            == v_sharded.database.fingerprints()
        )
    finally:
        sharded.close()


# ----------------------------------------------------------------------
# Repair and recovery
# ----------------------------------------------------------------------
def test_resync_heals_a_diverged_shard():
    instance, receivers = sharded_company(n_employees=16, seed=2)
    store = ShardedStore(instance, ["Employee"], shards=2)
    try:
        store.apply_batch(scenario_b_method(), receivers)
        store.verify_consistent()
        # Corrupt shard 0 behind the front-end's back.
        victim = next(
            iter(store._shards[0].call(("dump",))["Employee.salary"])
        )
        store._shards[0].call(
            (
                "stage",
                {
                    "Employee.salary": RelationDelta(
                        deleted=frozenset({victim})
                    )
                },
            )
        )
        with pytest.raises(ShardingError):
            store.verify_consistent()
        # The shard claims to be current yet needs healing, which lag
        # cannot explain, so the auto heal takes the verifying
        # dump-diff.
        assert store.resync_shard(0) == "full"
        store.verify_consistent()
        # Resync is idempotent: healing a healthy shard is a no-op.
        store.resync_shard(0)
        store.verify_consistent()
    finally:
        store.close()


def test_receiver_outside_the_object_base_fails_the_batch():
    """``C.a[C] <= C[C]`` on the shard path: a (B') batch naming an
    employee that is not in the object base fails as a whole — no
    dangling salary row reaches the coordinator, and no shard sees any
    of the batch."""
    instance, receivers = sharded_company(n_employees=32, seed=3)
    store = ShardedStore(instance, ["Employee"], shards=2, mode="inline")
    partitioning = store.partitioning
    ghost = Receiver(
        [Obj("Employee", 99999), receivers[0].arguments[0]]
    )
    valid = next(
        r
        for r in receivers
        if partitioning.shard_of_receiver(r)
        != partitioning.shard_of_receiver(ghost)
    )
    try:
        head = store.coordinator.head
        with pytest.raises(SchemaError, match="dangling edge"):
            store.apply_batch(scenario_b_method(), [valid, ghost])
        assert store.coordinator.head is head
        store.verify_consistent()
    finally:
        store.close()


def test_write_paths_build_no_instance(monkeypatch):
    """Writes run on the relational state alone: with every way of
    building an ``Instance`` disabled, disjoint and cross-shard
    batches, a replayed explicit transaction and a full resync all
    succeed, and the head still equals the graph fold."""
    from repro.graph.instance import Instance

    instance, receivers = sharded_company(n_employees=32, seed=6)
    store = ShardedStore(instance, ["Employee"], shards=2, mode="inline")
    method_b, method_c = scenario_b_method(), scenario_c_method()
    employees = sorted({r.receiving_object for r in receivers})
    cross = [Receiver([obj]) for obj in employees[::5]]
    batches = [(method_b, receivers[:8]), (method_c, cross)]

    def no_instance(*_args, **_kwargs):
        raise AssertionError("an Instance was built on the write path")

    try:
        with monkeypatch.context() as patch:
            patch.setattr(Instance, "__init__", no_instance)
            patch.setattr(Instance, "_derive", no_instance)
            _, route, _ = store.apply_batch(method_b, receivers[:8])
            assert route.kind == DISJOINT
            _, route, _ = store.apply_batch(method_c, cross)
            assert route.kind == CROSS_SHARD
            # An explicit transaction overtaken on its write set only
            # commits through the replay tier.
            txn = store.coordinator.begin()
            txn.apply_method(method_b, receivers[8:12])
            store.apply_batch(method_b, receivers[12:16])
            store.commit_transaction(txn)
            assert txn.audit()["path"] == "replay"
            assert store.resync_shard(0, mode="full") == "full"
            store.verify_consistent()
        batches += [
            (method_b, receivers[12:16]),
            (method_b, receivers[8:12]),
        ]
        assert store.coordinator.head.fingerprints() == fingerprints(
            unsharded_fold(batches, instance)
        )
    finally:
        store.close()


def test_commit_transaction_stages_atomically_and_heals():
    """The network front end's explicit-commit path: coordinator
    commit and shard staging under one lock hold, with automatic
    resync when staging fails after the durable commit."""
    instance, receivers = sharded_company(n_employees=16, seed=4)
    store = ShardedStore(instance, ["Employee"], shards=REPRO_SHARDS)
    method = scenario_b_method()
    # Two disjoint halves of the key set: each commit changes state
    # (re-applying the same receivers would be a no-op second time).
    first, second = receivers[:8], receivers[8:]
    try:
        # Happy path: commit + staging, fleet stays consistent.
        txn = store.coordinator.begin()
        txn.apply_method(method, first)
        version, staged = store.commit_transaction(txn)
        assert staged and version.version == 1
        store.verify_consistent()

        # Staging failure after the durable commit: the store heals
        # every shard from the coordinator head instead of leaving
        # the fleet silently stale.
        plan = FaultPlan(seed=0).error_at(SHARD_STAGE_FENCE, at=0)
        txn = store.coordinator.begin()
        txn.apply_method(method, second)
        with plan.installed():
            version, staged = store.commit_transaction(txn)
        assert plan.firings
        assert version.version == 2
        assert staged, "resync should have healed every shard"
        store.verify_consistent()

        # An empty commit publishes nothing new: the head stays put
        # and the fleet stays consistent.
        txn = store.coordinator.begin()
        version, staged = store.commit_transaction(txn)
        assert staged and version.version == 2
        store.verify_consistent()
    finally:
        store.close()


RAISE_ON_SHARD_1 = [Receiver([Obj("Employee", 2), Obj("Money", 2000)])]


def stage_to_shard_1_fails(wal_dir=None):
    """A committed (B') raise whose staging to its owner, shard 1,
    fails twice: once on the stage itself and once on the heal that
    follows — so the commit reports ``staged=False``.  Shard 0's slice
    of the version is empty, so only shard 1 is ever sent a stage: its
    tail stage is the first crossing of the site, its dump-diff stage
    the second."""
    instance, _ = sharded_company(n_employees=16, seed=4)
    store = ShardedStore(instance, ["Employee"], shards=2, wal_dir=wal_dir)
    assert store.partitioning.shard_of_receiver(RAISE_ON_SHARD_1[0]) == 1
    plan = (
        FaultPlan(seed=1)
        .error_at(SHARD_STAGE_FENCE, at=0)
        .error_at(SHARD_STAGE_FENCE, at=1)
    )
    txn = store.coordinator.begin()
    txn.apply_method(scenario_b_method(), RAISE_ON_SHARD_1)
    with plan.installed():
        version, staged = store.commit_transaction(txn)
    assert version.version == 1 and not staged
    assert [firing.hit for firing in plan.firings] == [0, 1]
    return instance, store


def test_disjoint_batch_after_a_failed_stage_is_not_lost():
    """A shard whose staging failed is healed by the next batch's
    advance: a disjoint-classified batch on its stale slice lands on
    the coordinator's state, and the fleet reassembles to it."""
    method = scenario_b_method()
    second = [Receiver([Obj("Employee", 2), Obj("Money", 2500)])]
    instance, store = stage_to_shard_1_fails()
    try:
        _, route, staged = store.apply_batch(method, second)
        assert route.kind == DISJOINT and staged
        reference = unsharded_fold(
            [(method, RAISE_ON_SHARD_1), (method, second)], instance
        )
        assert store.coordinator.head.database.fingerprints() == (
            fingerprints(reference)
        )
        store.verify_consistent()
    finally:
        store.close()


def test_close_does_not_stamp_an_unstaged_version(tmp_path):
    """A fleet closed right after a commit it could not stage reopens on
    the committed state, never on the stale slice: the reopen spawns
    every shard from the recovered coordinator head."""
    wal_dir = str(tmp_path / "fleet")
    instance, store = stage_to_shard_1_fails(wal_dir)
    store.close()
    recovered = ShardedStore.from_wal_dir(
        wal_dir, employee_object_schema(), ["Employee"], shards=2
    )
    try:
        reference = unsharded_fold(
            [(scenario_b_method(), RAISE_ON_SHARD_1)], instance
        )
        assert recovered.coordinator.head.version == 1
        assert recovered.coordinator.head.database.fingerprints() == (
            fingerprints(reference)
        )
        recovered.verify_consistent()
    finally:
        recovered.close()


def test_a_batch_that_fails_to_publish_touches_no_shard(
    tmp_path, monkeypatch
):
    """The coordinator's commit record fails to append: the batch is
    reported failed, the head has not moved, and no shard was sent a
    command — there is nothing to pull back."""
    instance, receivers = sharded_company(n_employees=16, seed=4)
    store = ShardedStore(
        instance, ["Employee"], shards=2, wal_dir=str(tmp_path / "fleet")
    )
    batch = receivers[:6]
    sent = []
    for shard in store._shards:

        def recording(command, send=shard.send):
            sent.append(command)
            send(command)

        monkeypatch.setattr(shard, "send", recording)
    try:
        route = store.router.route(scenario_b_method(), batch)
        assert route.is_disjoint and sorted(route.sub_batches) == [0, 1]
        full_before = counter_value("store.shard.resyncs.full")
        # The coordinator's commit record is the first append.
        plan = FaultPlan(seed=0).error_at(WAL_APPEND, at=0)
        with plan.installed():
            with pytest.raises(FaultError):
                store.apply_batch(scenario_b_method(), batch)
        assert plan.firings
        assert sent == []
        assert counter_value("store.shard.resyncs.full") == full_before
        assert store.coordinator.head.version == 0
        assert store.coordinator.head.database.fingerprints() == (
            fingerprints(instance)
        )
        store.verify_consistent()
    finally:
        store.close()


def test_apply_batch_acknowledges_a_commit_whose_staging_failed():
    """Staging a committed batch fails: the store heals every shard
    from the head and acknowledges the version instead of raising, and
    only when the heal fails too is the batch flagged unstaged."""
    instance, _ = sharded_company(n_employees=16, seed=4)
    store = ShardedStore(instance, ["Employee"], shards=2)
    method = scenario_c_method()
    employees = sorted(
        obj for obj in instance.nodes if obj.cls == "Employee"
    )
    first = [Receiver([obj]) for obj in employees[:6]]
    second = [Receiver([obj]) for obj in employees[6:12]]
    try:
        plan = FaultPlan(seed=0).error_at(SHARD_STAGE_FENCE, at=0)
        with plan.installed():
            version, route, staged = store.apply_batch(method, first)
        assert plan.firings
        assert route.kind == CROSS_SHARD
        assert version.version == store.coordinator.head.version == 1
        assert staged, "the heal should have reached every shard"
        store.verify_consistent()

        plan = FaultPlan(seed=0).error_at(
            SHARD_STAGE_FENCE, probability=1.0, times=None
        )
        with plan.installed():
            version, _, staged = store.apply_batch(method, second)
        assert version.version == store.coordinator.head.version == 2
        assert not staged
        for k in range(store.shards):
            store.resync_shard(k)
        store.verify_consistent()
        reference = unsharded_fold(
            [(method, first), (method, second)], instance
        )
        assert store.coordinator.head.database.fingerprints() == (
            fingerprints(reference)
        )
    finally:
        store.close()


def test_from_wal_dir_recovers_the_coordinator_history(tmp_path):
    wal_dir = str(tmp_path / "fleet")
    rng = random.Random(8)
    instance, receivers = sharded_company(n_employees=16, seed=8)
    batches = list(
        mixed_batches(instance, receivers, rng, rounds=4, batch_size=5)
    )
    store = ShardedStore(
        instance, ["Employee"], shards=2, wal_dir=wal_dir
    )
    try:
        for method, batch in batches:
            store.apply_batch(method, batch)
        head = store.coordinator.head.database.fingerprints()
    finally:
        store.close()
    recovered = ShardedStore.from_wal_dir(
        wal_dir, employee_object_schema(), ["Employee"], shards=2
    )
    try:
        assert (
            recovered.coordinator.head.database.fingerprints() == head
        )
        recovered.verify_consistent()
        # And the recovered fleet keeps working.
        _, route, staged = recovered.apply_batch(
            scenario_b_method(), receivers[:4]
        )
        assert route.kind == DISJOINT and staged
        recovered.verify_consistent()
    finally:
        recovered.close()


# ----------------------------------------------------------------------
# Self-healing fleet: chaos schedules, restarts, recovery
# ----------------------------------------------------------------------
def chaos_workload(n_employees=16, rounds=5, batch_size=5):
    """A seeded mixed stream, reproducible from ``CHAOS_SEED``."""
    instance, receivers = sharded_company(
        n_employees=n_employees, seed=CHAOS_SEED % 97
    )
    rng = random.Random(CHAOS_SEED)
    batches = list(
        mixed_batches(
            instance, receivers, rng, rounds=rounds, batch_size=batch_size
        )
    )
    return instance, receivers, batches


def settle(store):
    """``verify_consistent``, healing through residual worker deaths.

    A surviving plan-carrying worker may still die *during* the
    verifying dump; the supervisor heals it, and the retry verifies
    the healed fleet.  Real divergence re-raises unchanged.
    """
    for _ in range(3):
        try:
            store.verify_consistent()
            return
        except WorkerDied:
            continue
    store.verify_consistent()


def drive_with_faults(store, batches):
    """Apply ``batches`` under an installed plan, asserting the chaos
    contract after every one: unchanged-or-fully-applied on the
    coordinator, and a fleet healed back to exactly the head.

    Returns the batches that durably committed (the reference fold's
    input).  The commit is the decision record: a batch that raised
    must have left the head where it was.
    """
    applied = []
    for method, batch in batches:
        before = store.coordinator.head.version
        try:
            store.apply_batch(method, batch)
        except Exception:
            assert store.coordinator.head.version == before
        else:
            applied.append((method, batch))
        settle(store)
    return applied


def counter_value(name):
    return global_registry().counters().get(name, 0)


@fork_only
@pytest.mark.parametrize("at", range(4))
def test_worker_kill_at_every_pipe_command_heals_transparently(
    at, tmp_path
):
    """Kill-at-every-pipe-command schedule: for each envelope index,
    workers inherit a plan that kills them at that command.  Every
    batch is unchanged-or-fully-applied, the fleet re-verifies after
    every schedule step, and service returns to full strength once the
    fault clears."""
    instance, receivers, batches = chaos_workload()
    deaths_before = counter_value("store.shard.worker_deaths")
    plan = FaultPlan(seed=CHAOS_SEED).kill_at(SHARD_WORKER, at=at)
    with plan.installed():
        # Construct *inside* the plan so forked workers inherit it.
        store = ShardedStore(
            instance,
            ["Employee"],
            shards=REPRO_SHARDS,
            mode="process",
            wal_dir=str(tmp_path / "fleet"),
        )
        try:
            applied = drive_with_faults(store, batches)
        except BaseException:
            store.close()
            raise
    try:
        assert (
            counter_value("store.shard.worker_deaths") > deaths_before
        )
        # Return to full service: once the plan is gone, re-promotion
        # (probe or explicit heal) brings every shard back up.
        time.sleep(0.3)
        store.heal()
        assert store.supervisor.degraded_shards() == ()
        settle(store)
        employees = sorted(
            obj for obj in instance.nodes if obj.cls == "Employee"
        )
        extra = (
            scenario_c_method(),
            [Receiver([obj]) for obj in employees[:5]],
        )
        store.apply_batch(*extra)
        store.verify_consistent()
        reference = unsharded_fold(applied + [extra], instance)
        assert store.coordinator.head.database.fingerprints() == (
            fingerprints(reference)
        )
    finally:
        store.close()


@fork_only
def test_worker_kill_mid_staging_is_unchanged_or_fully_applied(tmp_path):
    """Kill-mid-staging schedule: each worker dies at the top of its
    third stage, holding a committed version's slice.  The durable
    coordinator commit decides; the replacement is spawned from the
    head slice, so no schedule can half-apply a batch."""
    instance, receivers, batches = chaos_workload()
    deaths_before = counter_value("store.shard.worker_deaths")
    plan = FaultPlan(seed=CHAOS_SEED).kill_at(SHARD_STAGE_FENCE, at=2)
    with plan.installed():
        store = ShardedStore(
            instance,
            ["Employee"],
            shards=REPRO_SHARDS,
            mode="process",
            wal_dir=str(tmp_path / "fleet"),
        )
        try:
            applied = drive_with_faults(store, batches)
        except BaseException:
            store.close()
            raise
    try:
        assert (
            counter_value("store.shard.worker_deaths") > deaths_before
        )
        time.sleep(0.3)
        store.heal()
        assert store.supervisor.degraded_shards() == ()
        settle(store)
        reference = unsharded_fold(applied, instance)
        assert store.coordinator.head.database.fingerprints() == (
            fingerprints(reference)
        )
    finally:
        store.close()


@fork_only
def test_restart_exhaustion_degrades_then_repromotes(tmp_path):
    """Past the restart budget the shard degrades to a coordinator-side
    inline backend — batches keep committing — and once the fault
    clears the breaker's probe path re-promotes it to a real worker."""
    instance, receivers, batches = chaos_workload()
    degraded_before = counter_value("store.shard.degraded")
    failures_before = counter_value("store.shard.restart_failures")
    plan = FaultPlan(seed=CHAOS_SEED).kill_at(
        SHARD_WORKER, at=0, times=None
    )
    with plan.installed():
        store = ShardedStore(
            instance,
            ["Employee"],
            shards=REPRO_SHARDS,
            mode="process",
            wal_dir=str(tmp_path / "fleet"),
        )
        try:
            routes = []
            for method, batch in batches:
                # Every fresh worker dies instantly: after the restart
                # budget the fleet must *still* take every batch.
                _, route, _ = store.apply_batch(method, batch)
                routes.append(route)
                store.verify_consistent()
            assert store.supervisor.degraded_shards() != ()
        except BaseException:
            store.close()
            raise
    try:
        assert any(route.degraded_shards for route in routes)
        assert counter_value("store.shard.degraded") > degraded_before
        assert (
            counter_value("store.shard.restart_failures")
            >= failures_before + 3
        )
        # The fault is gone: re-promotion restores real workers.
        time.sleep(0.3)
        store.heal()
        assert store.supervisor.degraded_shards() == ()
        assert all(
            store.supervisor.state(k) == "up"
            for k in range(REPRO_SHARDS)
        )
        extra = (scenario_b_method(), receivers[:4])
        store.apply_batch(*extra)
        store.verify_consistent()
        reference = unsharded_fold(batches + [extra], instance)
        assert store.coordinator.head.database.fingerprints() == (
            fingerprints(reference)
        )
    finally:
        store.close()


def test_resync_mode_is_tail_for_clean_behind_shards(tmp_path):
    """A shard with a known cursor catches up by staging only the
    missing tail of coordinator deltas, and a shard already at the head
    takes an empty tail; a demanded full resync takes the verifying
    dump-diff."""
    instance, receivers = sharded_company(n_employees=16, seed=5)
    store = ShardedStore(
        instance,
        ["Employee"],
        shards=2,
        wal_dir=str(tmp_path / "fleet"),
    )
    method = scenario_b_method()
    try:
        # Staging leaves every shard's cursor at the head.
        employees = sorted(
            obj for obj in instance.nodes if obj.cls == "Employee"
        )
        store.apply_batch(
            scenario_c_method(),
            [Receiver([obj]) for obj in employees[:6]],
        )
        store.verify_consistent()
        # Commits straight on the coordinator leave the fleet behind.
        for receiver in receivers[:4]:
            txn = store.coordinator.begin()
            txn.apply_method(method, [receiver])
            txn.commit()
        with pytest.raises(ShardingError):
            store.verify_consistent()
        tail_before = counter_value("store.shard.resyncs.tail")
        rows_before = counter_value("store.shard.catchup_rows")
        assert store.resync_shard(0) == "tail"
        assert store.resync_shard(1) == "tail"
        assert (
            counter_value("store.shard.resyncs.tail") == tail_before + 2
        )
        assert counter_value("store.shard.catchup_rows") > rows_before
        store.verify_consistent()
        # An already-at-head shard takes an empty tail.
        rows_before = counter_value("store.shard.catchup_rows")
        assert store.resync_shard(0, mode="tail") == "tail"
        assert counter_value("store.shard.catchup_rows") == rows_before

        # A disjoint-certified batch is staged like any other: its
        # touched shards end at the head, so a demanded tail moves no
        # rows.
        _, route, _ = store.apply_batch(method, receivers[4:8])
        assert route.is_disjoint
        victim = sorted(route.sub_batches)[0]
        rows_before = counter_value("store.shard.catchup_rows")
        assert store.resync_shard(victim, mode="tail") == "tail"
        assert counter_value("store.shard.catchup_rows") == rows_before
        full_before = counter_value("store.shard.resyncs.full")
        assert store.resync_shard(victim, mode="full") == "full"
        assert (
            counter_value("store.shard.resyncs.full") == full_before + 1
        )
        store.verify_consistent()
    finally:
        store.close()


@fork_only
def test_redo_after_a_mid_advance_heal_does_not_restage(
    tmp_path, monkeypatch
):
    """A worker that died is found on the first of several missing
    versions and spawned afresh from the head slice; the redone command
    then only asks the new worker for its status, and the later
    versions skip it — no delta is staged over the head state."""
    instance, receivers = sharded_company(n_employees=16, seed=5)
    store = ShardedStore(
        instance,
        ["Employee"],
        shards=2,
        mode="process",
        wal_dir=str(tmp_path / "fleet"),
    )
    method = scenario_b_method()
    owned = [
        r for r in receivers if store.partitioning.shard_of_receiver(r) == 0
    ]
    for receiver in owned[:3]:
        txn = store.coordinator.begin()
        txn.apply_method(method, [receiver])
        txn.commit()
    sent = []
    send = ProcessShard.send

    def recording(handle, command):
        sent.append((handle.shard, command[0]))
        send(handle, command)

    monkeypatch.setattr(ProcessShard, "send", recording)
    try:
        victim = store._shards[0]._process
        victim.kill()
        victim.join(timeout=5.0)
        # An empty commit publishes nothing and advances every shard.
        store.commit_transaction(store.coordinator.begin())
        assert store.supervisor.restarts[0] == 1
        # The stage of version 1 found the dead worker; the bring-up
        # and the redo each asked the replacement for its status.
        assert [op for shard, op in sent if shard == 0] == [
            "stage",
            "status",
            "status",
        ]
        head_slice = store._slice_of_head(0)
        assert store._shards[0].call(("dump",)) == {
            name: head_slice.relation(name).tuples
            for name in head_slice.relation_names
        }
        store.verify_consistent()
    finally:
        store.close()


@fork_only
def test_merged_relations_heals_a_down_shard(tmp_path):
    """Reads hit dead workers too: ``merged_relations`` (and therefore
    ``verify_consistent``) heals a down shard through the supervisor
    instead of failing the caller."""
    instance, receivers = sharded_company(n_employees=16, seed=9)
    store = ShardedStore(
        instance,
        ["Employee"],
        shards=2,
        mode="process",
        wal_dir=str(tmp_path / "fleet"),
    )
    try:
        store.apply_batch(scenario_b_method(), receivers[:8])
        victim = store._shards[0]._process
        victim.kill()
        victim.join(timeout=5.0)
        merged = store.merged_relations()
        assert store.supervisor.restarts[0] >= 1
        assert merged["Employee.salary"] == (
            store.coordinator.head.database.relation(
                "Employee.salary"
            ).tuples
        )
        store.verify_consistent()
    finally:
        store.close()

    # Unsupervised fleets keep the pre-supervision contract: the death
    # propagates to the caller unchanged.
    bare = ShardedStore(
        instance,
        ["Employee"],
        shards=2,
        mode="process",
        wal_dir=str(tmp_path / "bare"),
        supervised=False,
    )
    try:
        victim = bare._shards[0]._process
        victim.kill()
        victim.join(timeout=5.0)
        with pytest.raises(ShardingError):
            bare.merged_relations()
    finally:
        bare.close()


def test_from_wal_dir_recovery_is_per_shard_tail(tmp_path):
    """Reopening a fleet spawns every shard from a fresh slice of the
    recovered coordinator head, with its cursor at the head: the only
    log recovered is the coordinator's, a shard log left by an older
    fleet is neither read nor removed, and no shard counts as a full
    re-slice."""
    wal_dir = str(tmp_path / "fleet")
    instance, receivers, batches = chaos_workload(rounds=4)
    store = ShardedStore(
        instance, ["Employee"], shards=2, wal_dir=wal_dir
    )
    try:
        for method, batch in batches:
            store.apply_batch(method, batch)
        head = store.coordinator.head.database.fingerprints()
    finally:
        store.close()
    assert os.listdir(wal_dir) == ["coordinator.wal"]
    stale = os.path.join(wal_dir, "shard-0.wal")
    with open(stale, "wb") as handle:
        handle.write(b'{"torn')

    full_before = counter_value("store.shard.resyncs.full")
    runs_before = counter_value("store.recovery.runs")
    recovered = ShardedStore.from_wal_dir(
        wal_dir, employee_object_schema(), ["Employee"], shards=2
    )
    try:
        assert counter_value("store.recovery.runs") == runs_before + 1
        assert (
            counter_value("store.shard.resyncs.full") == full_before
        )
        version = recovered.coordinator.head.version
        assert recovered._cursors == [version, version]
        for k in range(2):
            head_slice = recovered._slice_of_head(k)
            assert recovered._shards[k].call(("dump",)) == {
                name: head_slice.relation(name).tuples
                for name in head_slice.relation_names
            }
        assert (
            recovered.coordinator.head.database.fingerprints() == head
        )
        recovered.verify_consistent()
    finally:
        recovered.close()
    assert sorted(os.listdir(wal_dir)) == ["coordinator.wal", "shard-0.wal"]
    with open(stale, "rb") as handle:
        assert handle.read() == b'{"torn'


@fork_only
def test_reopen_after_sigkill_of_every_worker_equals_the_fold(tmp_path):
    """One durable log: SIGKILL every worker of a process fleet, with no
    ``close()``, and reopen the directory.  The head is the unsharded
    fold of the acknowledged batches, the fleet reassembles to it, and
    the directory holds the coordinator log and no shard log."""
    wal_dir = str(tmp_path / "fleet")
    instance, receivers, batches = chaos_workload(rounds=4)
    store = ShardedStore(
        instance,
        ["Employee"],
        shards=REPRO_SHARDS,
        mode="process",
        wal_dir=wal_dir,
    )
    try:
        acknowledged = []
        for method, batch in batches:
            store.apply_batch(method, batch)
            acknowledged.append((method, batch))
        for shard in store._shards:
            os.kill(shard._process.pid, signal.SIGKILL)
            shard._process.join(timeout=5.0)
        recovered = ShardedStore.from_wal_dir(
            wal_dir,
            employee_object_schema(),
            ["Employee"],
            shards=REPRO_SHARDS,
            mode="process",
        )
        try:
            assert recovered.coordinator.head.database.fingerprints() == (
                fingerprints(unsharded_fold(acknowledged, instance))
            )
            recovered.verify_consistent()
            names = os.listdir(wal_dir)
            assert "coordinator.wal" in names
            assert [n for n in names if n.startswith("shard-")] == []
        finally:
            recovered.close()
    finally:
        store.close()


@fork_only
@pytest.mark.benchmark_acceptance
def test_recovery_cost_is_the_tail_not_the_slice(tmp_path, monkeypatch):
    """The recovery acceptance gate: a worker killed while its shard is
    a version behind is spawned from a fresh slice of the coordinator
    head, so healing it ships neither a dump nor a catch-up stage over
    the pipe — the fork carries the slice — and moves no catch-up rows.
    Reopening the fleet performs zero full re-slices."""
    wal_dir = str(tmp_path / "fleet")
    instance, receivers = sharded_company(n_employees=32, seed=7)
    store = ShardedStore(
        instance,
        ["Employee"],
        shards=2,
        mode="process",
        wal_dir=wal_dir,
    )
    method = scenario_b_method()
    try:
        store.apply_batch(method, receivers[:16])
        employees = sorted(
            obj for obj in instance.nodes if obj.cls == "Employee"
        )
        store.apply_batch(
            scenario_c_method(),
            [Receiver([obj]) for obj in employees[:6]],
        )
        store.verify_consistent()
        # One coordinator-only commit owned by shard 0 leaves its
        # cursor one version behind the head.
        behind = next(
            r
            for r in receivers[16:]
            if store.partitioning.shard_of_receiver(r) == 0
        )
        txn = store.coordinator.begin()
        txn.apply_method(method, [behind])
        txn.commit()

        rows_before = counter_value("store.shard.catchup_rows")
        restarts_before = len(
            flight.active().events("shard.worker_restart")
        )
        sent = []
        send = ProcessShard.send

        def recording(handle, command):
            sent.append((handle.shard, command[0]))
            send(handle, command)

        monkeypatch.setattr(ProcessShard, "send", recording)
        victim = store._shards[0]._process
        victim.kill()
        victim.join(timeout=5.0)

        # The next batch heals transparently...
        fresh = [r for r in receivers[16:] if r is not behind]
        store.apply_batch(method, fresh[:8])
        assert flight.active().events("shard.worker_restart")[
            restarts_before:
        ], "the kill must trigger a restart"
        # ...by spawning from the head: the stage that found the dead
        # worker is the only stage shard 0 is sent, and nothing is
        # dumped or caught up.
        assert [op for shard, op in sent if shard == 0] == [
            "stage",
            "status",
            "status",
        ]
        assert counter_value("store.shard.catchup_rows") == rows_before
        store.verify_consistent()
    finally:
        store.close()

    full_before = counter_value("store.shard.resyncs.full")
    recovered = ShardedStore.from_wal_dir(
        wal_dir, employee_object_schema(), ["Employee"], shards=2
    )
    try:
        assert (
            counter_value("store.shard.resyncs.full") == full_before
        )
        recovered.verify_consistent()
    finally:
        recovered.close()
