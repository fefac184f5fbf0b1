"""Chaos suite: kill every registered fault site, prove atomicity.

Every :data:`repro.resilience.faults.KNOWN_SITES` entry is killed with
a :class:`CrashPoint` during a transactional workload that crosses it,
and the invariant checked is the store's whole-batch atomicity story:
the database afterwards is either **unchanged** or **fully applied** —
never a torn batch — both in memory and in what the WAL recovers.

The fault schedule is deterministic per seed; CI runs the suite under
three fixed seeds via the ``CHAOS_SEED`` environment variable (see the
``chaos`` job in ``.github/workflows/ci.yml``), which also reseeds the
company workload so each job exercises a different instance.
"""

import os

import pytest

from repro.algebraic.decision import decide_key_order_independence_budgeted
from repro.core.receiver import Receiver
from repro.core.sequential import apply_sequence
from repro.graph.instance import Obj
from repro.objrel.mapping import instance_to_database
from repro.parallel.apply import apply_parallel
from repro.relational.delta import RelationDelta
from repro.resilience.budget import Budget
from repro.resilience.faults import (
    CHASE_STEP,
    KNOWN_SITES,
    WAL_APPEND,
    WAL_COMPACT_REPLACE,
    CrashPoint,
    FaultError,
    FaultPlan,
)
from repro.sqlsim.scenarios import (
    make_company,
    scenario_b_method,
    tables_to_instance,
)
from repro.store import VersionedStore, run_transaction
from repro.store.recovery import committed_prefix_fingerprints, recover
from tests.test_resilience import two_statement_workload

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "7"))


def company_workload(n=8):
    method = scenario_b_method()
    employees, _, newsal = make_company(n, seed=CHAOS_SEED)
    instance = tables_to_instance(employees, newsal=newsal)
    receivers = [
        Receiver([Obj("Employee", r["EmpId"]), Obj("Money", r["Salary"])])
        for r in employees
    ]
    return method, instance, receivers


@pytest.mark.parametrize("site", KNOWN_SITES)
def test_kill_at_every_site_leaves_unchanged_or_fully_applied(
    site, tmp_path
):
    method, instance, receivers = company_workload()
    path = tmp_path / f"chaos-{site.replace('.', '-')}.wal"
    store = VersionedStore(instance=instance, wal=str(path))
    before = store.head.database.fingerprints()
    expected = instance_to_database(
        apply_sequence(method, instance, receivers)
    ).fingerprints()

    if site == WAL_COMPACT_REPLACE:
        # This site sits inside maintenance, not the commit path: the
        # batch commits fine, and the kill fires mid-compaction — after
        # the rename, before the directory fsync.  The swap already
        # happened, so recovery must land on the fully-applied state
        # from either file, and the log (its live handle lost to the
        # crash) must refuse further appends rather than drop them.
        run_transaction(
            store, lambda txn: txn.apply_method(method, receivers)
        )
        store.checkpoint()
        plan = FaultPlan(seed=CHAOS_SEED).kill_at(site, at=0)
        with plan.installed():
            with pytest.raises(CrashPoint):
                store.wal.compact()
        assert plan.hits.get(site, 0) > 0
        assert store.wal.poisoned
        assert store.head.database.fingerprints() == expected
        store.close()
        assert recover(str(path)).database.fingerprints() == expected
        return

    def body(txn):
        if site == CHASE_STEP:
            # The chase only runs inside the decision procedure; cross
            # it explicitly (as the semantic-commute tier would).
            decide_key_order_independence_budgeted(
                method, budget=Budget(seconds=60.0)
            )
        txn.apply_method(method, receivers)

    plan = FaultPlan(seed=CHAOS_SEED).kill_at(site, at=0)
    with plan.installed():
        with pytest.raises(CrashPoint):
            run_transaction(store, body)
    # The workload really crossed the site, and the kill really fired.
    assert plan.hits.get(site, 0) > 0
    assert [f.site for f in plan.firings] == [site]

    # In memory: the aborted transaction published nothing.
    assert store.head.database.fingerprints() == before

    if site == WAL_APPEND:
        # The poisoned log rejects further appends by design; recovery
        # lands on the pre-crash state (the kill fired before any byte).
        store.close()
        assert recover(str(path)).database.fingerprints() == before
        return
    # Re-running without the plan completes the batch in full, and the
    # WAL recovers exactly that state.
    run_transaction(
        store, lambda txn: txn.apply_method(method, receivers)
    )
    assert store.head.database.fingerprints() == expected
    store.close()
    assert recover(str(path)).database.fingerprints() == expected


@pytest.mark.parametrize("kill_at", [1, 2, 3, 4])
def test_plan_driven_wal_kill_recovers_a_clean_prefix(kill_at, tmp_path):
    """Killing the Nth append cuts the log exactly at commit N-1.

    ``fault_point(WAL_APPEND)`` fires before any byte reaches the file,
    so — unlike the torn-byte :class:`FaultInjector` — the surviving
    log is a clean prefix: recovery must land exactly on the state
    after ``kill_at`` commits (hits count from plan installation, which
    happens after the seed checkpoint; hit 0 is the first commit).
    """
    _, instance, _ = company_workload()
    path = tmp_path / "prefix.wal"
    store = VersionedStore(instance=instance, wal=str(path))
    rows = sorted(
        store.head.database.relation("Employee.salary").tuples
    )
    deltas = [
        {"Employee.salary": RelationDelta(deleted=frozenset({row}))}
        for row in rows[:6]
    ]
    prefixes = committed_prefix_fingerprints(
        store.head.database, deltas
    )
    plan = FaultPlan(seed=CHAOS_SEED).kill_at(WAL_APPEND, at=kill_at)
    committed = 0
    with plan.installed():
        for delta in deltas:
            try:
                store.commit_changes(delta)
                committed += 1
            except CrashPoint:
                break
    assert committed == kill_at
    store.close()
    state = recover(str(path))
    assert state.database.fingerprints() == prefixes[committed]


def test_probabilistic_worker_chaos_is_correct_or_fails_cleanly():
    """Seeded random statement faults: an application either reaches
    the exact clean result or propagates the fault — the input instance
    is never half-updated (applications are pure)."""
    method, instance, receivers = two_statement_workload()
    reference = apply_parallel(method, instance, receivers)
    from repro.resilience.faults import PARALLEL_WORKER

    outcomes = []
    for round_index in range(8):
        plan = FaultPlan(seed=CHAOS_SEED + round_index).error_at(
            PARALLEL_WORKER, probability=0.4, times=None
        )
        with plan.installed():
            try:
                result = apply_parallel(method, instance, receivers)
            except FaultError:
                outcomes.append("exhausted")
                continue
        assert result == reference
        outcomes.append("survived")
    # The schedule is seed-deterministic: the same loop reproduces the
    # same outcome sequence exactly.
    replay = []
    for round_index in range(8):
        plan = FaultPlan(seed=CHAOS_SEED + round_index).error_at(
            PARALLEL_WORKER, probability=0.4, times=None
        )
        with plan.installed():
            try:
                apply_parallel(method, instance, receivers)
            except FaultError:
                replay.append("exhausted")
                continue
        replay.append("survived")
    assert replay == outcomes


def test_injected_delays_change_latency_not_results():
    method, instance, receivers = company_workload()
    reference = apply_parallel(method, instance, receivers)
    sleeps = []
    from repro.resilience.faults import ENGINE_EVALUATE

    plan = FaultPlan(seed=CHAOS_SEED, sleep=sleeps.append).delay_at(
        ENGINE_EVALUATE, seconds=0.001, at=0
    )
    with plan.installed():
        result = apply_parallel(method, instance, receivers)
    assert result == reference
    assert sleeps == [0.001]
