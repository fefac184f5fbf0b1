"""Experiment: the self-healing shard fleet (``repro.store.sharding``).

Three series, written to ``BENCH_fleet.json``:

* ``fleet.mttr_s`` — mean time to repair: wall time from the first
  supervised call that trips over a killed worker to the healed reply,
  covering detection (pipe EOF) and a replacement spawned from a fresh
  slice of the coordinator head.  One point per run: the best of its
  repetitions, as the resync series record.
* ``fleet.resync.tail_s`` vs ``fleet.resync.full_s`` — the healing
  ladder's two recovery rungs on a fleet holding ~10^5 partitioned
  rows: staging only the missing tail of coordinator deltas against
  the verifying full dump-diff re-slice.  Acceptance: the tail is at
  least 5x faster — recovery cost must scale with the lag, not the
  slice.
* ``fleet.overhead.*`` — steady-state cost of supervision with no
  faults: an identical (B') batch stream through a supervised and an
  unsupervised inline fleet, each batch committed on the coordinator
  and staged to both shards.  Acceptance: the median of the per-pair
  ratios over alternating pairs is within 5% — the supervisor's
  bookkeeping may not tax the fault-free path.
"""

import multiprocessing
import statistics
import time

import pytest

from benchmarks.conftest import record_timing
from repro.sqlsim.scenarios import scenario_b_method
from repro.store import ShardedStore
from repro.workloads.sharded import raise_batches, sharded_company

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process-mode shards need fork",
)

MTTR_REPS = 3
RESYNC_REPS = 3
OVERHEAD_PAIRS = 9
BEHIND_COMMITS = 4


def _leave_behind(store, receivers, method, count=BEHIND_COMMITS):
    """Commit straight on the coordinator: the fleet's cursors stay
    known but fall ``count`` versions behind the head — the lag a tail
    resync catches up."""
    for receiver in receivers[:count]:
        txn = store.coordinator.begin()
        txn.apply_method(method, [receiver])
        txn.commit()


@fork_only
def test_fleet_mttr(tmp_path):
    """Kill a worker, then time the supervised call that heals it:
    detection, a replacement spawned from a fresh slice of the
    coordinator head, and its reply.  The run records one point, the
    best of its repetitions."""
    instance, receivers = sharded_company(n_employees=256)
    method = scenario_b_method()
    best = float("inf")
    for repetition in range(MTTR_REPS):
        store = ShardedStore(
            instance,
            ["Employee"],
            shards=2,
            mode="process",
            wal_dir=str(tmp_path / f"mttr_{repetition}"),
        )
        try:
            for batch in raise_batches(receivers, 64)[:2]:
                store.apply_batch(method, batch)
            store.verify_consistent()
            victim = store._shards[0]._process
            victim.kill()
            victim.join(timeout=5.0)
            start = time.perf_counter()
            store.supervisor.call(0, lambda: ("status",))
            elapsed = time.perf_counter() - start
            assert store.supervisor.restarts[0] >= 1
            assert store.supervisor.degraded_shards() == ()
            store.verify_consistent()
            best = min(best, elapsed)
        finally:
            store.close()
    assert best < float("inf")
    record_timing("fleet.mttr_s", best)


@pytest.mark.benchmark_acceptance
def test_tail_resync_beats_full_reslice_at_1e5_rows():
    """Acceptance: incremental tail catch-up is >= 5x faster than the
    full dump-diff re-slice on a fleet holding ~10^5 partitioned rows.

    Both arms heal the same shape of damage — a shard with a known
    cursor a few coordinator commits behind the head — so the ratio
    isolates the ladder rungs themselves: the tail stages only the
    missing deltas, the full rung re-derives and diffs the entire
    slice.  Hand-timed best-of like the other acceptance gates.
    """
    instance, receivers = sharded_company(
        n_employees=30_000, salary_levels=64
    )
    method = scenario_b_method()
    store = ShardedStore(instance, ["Employee"], shards=2)
    try:
        fleet_rows = sum(
            sum(len(rows) for rows in store._shards[k].call(("dump",)).values())
            for k in range(2)
        )
        assert fleet_rows >= 100_000, fleet_rows
        on_zero = [
            r
            for r in receivers
            if store.partitioning.shard_of_receiver(r) == 0
        ]
        tail_best = full_best = float("inf")
        behind_at = 0
        for _ in range(RESYNC_REPS):
            _leave_behind(store, on_zero[behind_at:], method)
            behind_at += BEHIND_COMMITS
            start = time.perf_counter()
            assert store.resync_shard(0, mode="tail") == "tail"
            tail_best = min(tail_best, time.perf_counter() - start)

            _leave_behind(store, on_zero[behind_at:], method)
            behind_at += BEHIND_COMMITS
            start = time.perf_counter()
            assert store.resync_shard(0, mode="full") == "full"
            full_best = min(full_best, time.perf_counter() - start)
        # Shard 1 saw none of the direct commits; heal it before the
        # differential check.
        store.resync_shard(1)
        store.verify_consistent()
    finally:
        store.close()
    record_timing("fleet.resync.tail_s", tail_best)
    record_timing("fleet.resync.full_s", full_best)
    speedup = full_best / tail_best
    record_timing("fleet.resync.speedup", speedup, better="higher")
    assert speedup >= 5.0, (
        f"tail catch-up only {speedup:.2f}x faster than full re-slice"
    )


@pytest.mark.benchmark_acceptance
def test_supervision_overhead_is_negligible():
    """Acceptance: with no faults, the supervised fleet commits and
    stages an identical batch stream within 5% of an unsupervised one.

    The gate is the median of per-pair ratios over alternating pairs,
    so one slow run on a noisy host moves one ratio, not the verdict.
    """
    instance, receivers = sharded_company(n_employees=256)
    method = scenario_b_method()
    batches = raise_batches(receivers, 16)

    def run(supervised):
        store = ShardedStore(
            instance, ["Employee"], shards=2, supervised=supervised
        )
        try:
            start = time.perf_counter()
            for batch in batches:
                store.apply_batch(method, batch)
            elapsed = time.perf_counter() - start
            store.verify_consistent()
        finally:
            store.close()
        return elapsed

    supervised_runs, bare_runs, ratios = [], [], []
    for pair in range(OVERHEAD_PAIRS):
        # Alternate which arm goes first so drift hits both equally.
        if pair % 2:
            bare = run(False)
            supervised = run(True)
        else:
            supervised = run(True)
            bare = run(False)
        supervised_runs.append(supervised)
        bare_runs.append(bare)
        ratios.append(supervised / bare)
    record_timing("fleet.overhead.supervised_s", min(supervised_runs))
    record_timing("fleet.overhead.bare_s", min(bare_runs))
    ratio = statistics.median(ratios)
    record_timing("fleet.overhead.ratio", ratio)
    assert ratio <= 1.05, (
        f"supervision overhead {ratio:.3f}x (median of "
        f"{len(ratios)} pair ratios)"
    )
