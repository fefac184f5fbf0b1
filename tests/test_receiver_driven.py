"""Receiver-driven ``M_par``: old values read through the first-column
index of ``C.a``, indexes kept only on each store's head, and
concurrent readers of a head that commits under them."""

import os
import random
import sys
import threading
import time

import pytest

from repro.algebraic.method import AlgebraicUpdateMethod
from repro.core.receiver import Receiver
from repro.core.signature import MethodSignature
from repro.graph.instance import Edge, Instance, Obj
from repro.graph.schema import SchemaError, drinker_bar_beer_schema
from repro.objrel.mapping import instance_to_database
from repro.parallel.apply import apply_parallel, parallel_changes
from repro.parallel.transform import rec_schema
from repro.relational.algebra import Product, Project, Rel, Rename, Select
from repro.relational.database import Database
from repro.relational.engine import QueryEngine
from repro.relational.evaluate import evaluate
from repro.relational.relation import Relation
from repro.sqlsim.scenarios import scenario_b_method, scenario_c_method
from repro.store import ShardedStore, VersionedStore
from repro.workloads.drinkers import figure_1_instance
from repro.workloads.sharded import sharded_company

MARY = Obj("Drinker", "Mary")
CHEERS = Obj("Bar", "Cheers")
TAVERN = Obj("Bar", "OldTavern")


def frequents_arg1() -> AlgebraicUpdateMethod:
    """``frequents := arg1`` over the set-valued ``frequents``."""
    return AlgebraicUpdateMethod(
        drinker_bar_beer_schema(),
        MethodSignature(["Drinker", "Bar"]),
        {"frequents": Rename(Rel("arg1"), "arg1", "frequents")},
    )


def unindexed(database: Database) -> Database:
    """A copy of ``database`` whose relations hold no index."""
    return Database(
        {
            name: Relation(database.relation(name).schema, database.relation(name))
            for name in database.relation_names
        }
    )


def fresh_indexes_match(database: Database) -> None:
    for name in database.relation_names:
        relation = database.relation(name)
        for position in relation.indexed_columns:
            rebuilt = Relation(relation.schema, relation).index(position)
            assert relation.index(position) == rebuilt, (name, position)


class TestOldValuesThroughTheIndex:
    """``parallel_changes`` equals ``apply_parallel`` whatever the
    receiving objects held before."""

    def check(self, instance, receivers):
        method = frequents_arg1()
        database = instance_to_database(instance)
        # Index first, so the write carries an index into the result.
        database.relation("Drinker.frequents").index(0)
        changes = parallel_changes(method, database, receivers)
        after = database.apply_delta(changes)
        assert after == instance_to_database(
            apply_parallel(method, instance, receivers)
        )
        fresh_indexes_match(after)
        return changes

    def test_receivers_with_several_old_values(self):
        base = figure_1_instance()
        instance = Instance(
            base.schema,
            base.nodes,
            set(base.edges) | {Edge(MARY, "frequents", TAVERN)},
        )
        changes = self.check(instance, [Receiver([MARY, CHEERS])])
        delta = changes["Drinker.frequents"]
        assert delta.deleted == {(MARY, TAVERN)}
        assert delta.inserted == frozenset()

    def test_receivers_with_no_old_value(self):
        base = figure_1_instance()
        newcomer = Obj("Drinker", "Newcomer")
        instance = Instance(base.schema, set(base.nodes) | {newcomer}, base.edges)
        changes = self.check(instance, [Receiver([newcomer, CHEERS])])
        delta = changes["Drinker.frequents"]
        assert delta.inserted == {(newcomer, CHEERS)}
        assert delta.deleted == frozenset()

    def test_receiving_object_outside_its_class_still_raises(self):
        instance = figure_1_instance()
        database = instance_to_database(instance)
        database.relation("Drinker.frequents").index(0)
        receivers = [Receiver([Obj("Drinker", "Ghost"), CHEERS])]
        with pytest.raises(SchemaError, match="dangling edge"):
            apply_parallel(frequents_arg1(), instance, receivers)
        with pytest.raises(SchemaError, match="dangling edge"):
            parallel_changes(frequents_arg1(), database, receivers)


def manager_batches(instance, count, size=4, seed=3):
    employees = sorted(instance.objects_of_class("Employee"))
    rng = random.Random(seed)
    return [
        [Receiver([e]) for e in rng.sample(employees, size)]
        for _ in range(count)
    ]


def superseded_holders(store: VersionedStore):
    """Relations of non-head versions that hold an index, except those
    the head shares."""
    head = store.head.database
    shared = {id(head.relation(name)) for name in head.relation_names}
    return [
        (version.version, name)
        for version in store.versions[:-1]
        for name in version.database.relation_names
        if id(version.database.relation(name)) not in shared
        and version.database.relation(name).indexed_columns
    ]


class TestHeadOnlyRetention:
    COMMITS = 6

    def test_versioned_store_keeps_indexes_on_the_head_only(self):
        instance, raises = sharded_company(n_employees=48, salary_levels=8)
        store = VersionedStore(instance=instance)
        stale = store.begin()
        batches = manager_batches(instance, self.COMMITS)
        for batch in batches:
            txn = store.begin()
            txn.apply_method(scenario_c_method(), batch)
            txn.commit()
        assert store.head.version == self.COMMITS
        assert superseded_holders(store) == []
        head_salary = store.head.database.relation("Employee.salary")
        assert head_salary.indexed_columns == (0,)
        fresh_indexes_match(store.head.database)

        # A transaction pinned before every commit reads superseded
        # relations: their indexes are built per use and not kept, and
        # its (B') raise of employees no commit touched lands as if run
        # on the head.
        touched = {r.receiving_object for batch in batches for r in batch}
        untouched = [r for r in raises if r.receiving_object not in touched][:4]
        before = store.head
        stale.apply_method(scenario_b_method(), untouched)
        stale_salary = stale.snapshot.database.relation("Employee.salary")
        assert stale_salary.indexed_columns == ()
        committed = stale.commit()
        assert committed.version == self.COMMITS + 1
        expected = instance_to_database(
            apply_parallel(scenario_b_method(), before.instance, untouched)
        )
        assert store.head.database == expected
        assert stale_salary.indexed_columns == ()
        assert superseded_holders(store) == []
        fresh_indexes_match(store.head.database)

    def test_two_shard_fleet_keeps_indexes_on_each_head_only(self):
        instance, receivers = sharded_company(n_employees=48, salary_levels=8)
        store = ShardedStore(instance, ["Employee"], shards=2, mode="inline")
        try:
            raise_method, cross_method = scenario_b_method(), scenario_c_method()
            disjoint = [receivers[i : i + 4] for i in range(0, 12, 4)]
            for batch, cross in zip(disjoint, manager_batches(instance, 3)):
                store.apply_batch(raise_method, batch)
                store.apply_batch(cross_method, cross)
            stores = [store.coordinator] + [
                shard._backend.store for shard in store._shards
            ]
            assert all(s.head.version > 0 for s in stores)
            for member in stores:
                assert superseded_holders(member) == []
                fresh_indexes_match(member.head.database)
            assert store.coordinator.head.database.relation(
                "Employee.salary"
            ).indexed_columns
            store.verify_consistent()
        finally:
            store.close()


def test_readers_race_commits_on_one_head():
    """Readers evaluate a (C') join, a one-column projection and a
    (C') ``M_par`` against whatever head they pin while a writer
    commits under them; every answer equals the reference evaluation
    of the snapshot it read.  More threads than cores and a short
    switch interval interleave index builds, carries and drops."""
    instance, raises = sharded_company(n_employees=40, salary_levels=8)
    store = VersionedStore(instance=instance)
    cross, raise_method = scenario_c_method(), scenario_b_method()
    rec = rec_schema(cross.signature)
    join = Project(
        Select(
            Select(
                Product(
                    Product(Rel("rec"), Rel("Employee.manager")),
                    Rename(Rename(Rel("Employee.salary"), "Employee", "E2"), "salary", "msal"),
                ),
                "self",
                "Employee",
                True,
            ),
            "manager",
            "E2",
            True,
        ),
        ("self", "msal"),
    )
    projection = Project(Rel("Employee.salary"), ("salary",))
    employees = sorted(instance.objects_of_class("Employee"))
    failures = []
    stop = threading.Event()
    cores = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1
    )
    # One slot per reader, written only by that reader.
    checks = [0] * (cores + 2)

    def reader(seed):
        rng = random.Random(seed)
        try:
            while not stop.is_set():
                with store.snapshot() as snap:
                    database = snap.database
                    picked = rng.sample(employees, 3)
                    bound = database.with_relation(
                        "rec", Relation(rec, [(e,) for e in picked])
                    )
                    engine = QueryEngine(bound, cache=store.cache)
                    assert engine.evaluate(join) == evaluate(join, bound)
                    assert engine.evaluate(projection) == evaluate(
                        projection, database
                    )
                    receivers = [Receiver([e]) for e in picked]
                    assert parallel_changes(
                        cross, database, receivers, cache=store.cache
                    ) == parallel_changes(cross, unindexed(database), receivers)
                checks[seed] += 1
        except Exception as error:  # pragma: no cover - reported below
            failures.append(error)
            stop.set()

    def writer():
        try:
            batches = [raises[i : i + 4] for i in range(0, len(raises), 4)]
            deadline = time.monotonic() + 1.5
            step = 0
            while time.monotonic() < deadline and not stop.is_set():
                txn = store.begin()
                if step % 2:
                    txn.apply_method(cross, [Receiver([employees[step % 40]])])
                else:
                    txn.apply_method(raise_method, batches[step // 2 % len(batches)])
                txn.commit()
                step += 1
        except Exception as error:  # pragma: no cover - reported below
            failures.append(error)
        finally:
            stop.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=reader, args=(seed,))
            for seed in range(len(checks))
        ]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[0]
    assert all(checks)
    assert store.head.version > 1
