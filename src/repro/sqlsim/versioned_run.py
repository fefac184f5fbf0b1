"""Section 7's scenarios against the transactional versioned store.

Section 7 runs its Employee / Fire / NewSal updates against mutable
in-memory tables.  This module re-runs them against
:class:`~repro.store.versioned.VersionedStore`: the company becomes an
object-base instance at version 0, each salary-update batch commits as
one optimistic transaction, and the set-oriented vs cursor-style
distinction resurfaces as a *concurrency* distinction — update (B),
provably order independent, lets concurrent batches commit through
overlaps via the commutativity fast path, while update (C)'s
order-dependent reads force serialization through abort/retry.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence, Tuple

from repro.algebraic.query_order import receivers_from_query
from repro.core.receiver import Receiver
from repro.graph.instance import Obj
from repro.sqlsim.scenarios import (
    make_company,
    scenario_b_method,
    scenario_b_receiver_query,
    scenario_c_method,
    tables_to_instance,
)
from repro.store.txn import Transaction, run_transaction
from repro.store.versioned import Version, VersionedStore


def company_store(
    n_employees: int = 8,
    seed: int = 7,
    salary_levels: int = 4,
    wal: Optional[str] = None,
    **store_kwargs,
) -> VersionedStore:
    """Section 7's deterministic company as a versioned store at v0."""
    employees, fire, newsal = make_company(
        n_employees=n_employees, seed=seed, salary_levels=salary_levels
    )
    instance = tables_to_instance(employees, newsal=newsal, fire=fire)
    return VersionedStore(instance=instance, wal=wal, **store_kwargs)


def scenario_b_receivers(store: VersionedStore) -> Tuple[Receiver, ...]:
    """Update (B')'s key set of receivers, read from the store head.

    Deterministically ordered; evaluated against the head instance, so
    each receiver carries the employee's *current* salary as ``arg1``.
    This is an *untracked* read for building explicit batches (tests,
    benchmarks); a transaction should derive its own receivers via
    :meth:`~repro.store.txn.Transaction.derive_receivers` so the
    derivation joins its read set — :func:`run_scenario_b` does.
    """
    head = store.head
    if head.instance is None:
        raise ValueError("store head has no object-base instance")
    return tuple(
        sorted(
            receivers_from_query(
                scenario_b_receiver_query(), head.instance
            )
        )
    )


def run_scenario_b(
    store: VersionedStore,
    receivers: Optional[Sequence[Receiver]] = None,
    retries: int = 5,
) -> Version:
    """Commit update (B') over ``receivers`` as one transaction.

    With no explicit ``receivers``, each attempt derives the full key
    set from its own snapshot via
    :meth:`~repro.store.txn.Transaction.derive_receivers`: the
    receiver query's relations join the read set, and a retry never
    reuses ``arg1`` salaries baked against a stale head — a foreign
    salary write conflicts instead of being silently overwritten.
    Explicit ``receivers`` (e.g. disjoint slices) are applied as
    given; the caller owns their freshness.  The batch is applied with
    ``M_par`` inside an optimistic transaction and retried on
    conflict; because (B') is provably order independent, concurrent
    callers over disjoint slices commit through each other instead of
    serializing.
    """
    method = scenario_b_method()
    query = scenario_b_receiver_query()

    def body(txn: Transaction):
        batch = (
            tuple(receivers)
            if receivers is not None
            else txn.derive_receivers(query)
        )
        return txn.apply_method(method, batch)

    _, version = run_transaction(store, body, retries=retries)
    return version


def run_scenario_c(
    store: VersionedStore,
    employee_keys: Sequence[Hashable],
    retries: int = 5,
) -> Version:
    """Commit update (C') cursor-style: one receiver at a time, in order.

    (C') reads ``Employee.salary`` through the manager edge while
    writing it, so Theorem 5.12 finds it order *dependent* — the store
    cannot commute concurrent batches, and the enumeration order below
    is part of the result, exactly as with Section 7's cursor loop.
    """
    method = scenario_c_method()

    def body(txn: Transaction):
        result = None
        for key in employee_keys:
            result = txn.apply_method(
                method, [Receiver([Obj("Employee", key)])]
            )
        return result

    _, version = run_transaction(store, body, retries=retries)
    return version


def salaries(version: Version) -> List[Tuple[Hashable, Hashable]]:
    """``(EmpId, Salary)`` pairs of a version, sorted — for comparisons."""
    if version.instance is None:
        raise ValueError("version has no object-base instance")
    pairs = []
    for obj in version.instance.objects_of_class("Employee"):
        values = version.instance.property_values(obj, "salary")
        for value in values:
            pairs.append((obj.key, value.key))
        if not values:
            pairs.append((obj.key, None))
    return sorted(pairs, key=repr)


__all__ = [
    "company_store",
    "run_scenario_b",
    "run_scenario_c",
    "salaries",
    "scenario_b_receivers",
]
