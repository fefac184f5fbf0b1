"""The transactional versioned store: MVCC versioning, snapshot
isolation, cross-version cache reuse, and the four commit paths of the
optimistic protocol (fast path, structural commute, deterministic
replay, semantic commute via Theorem 5.12) plus the abort cases."""

import random
import threading

import pytest

from repro.algebraic.examples import (
    add_bar_algebraic,
    add_serving_bars_algebraic,
    delete_bar_algebraic,
    favorite_bar_algebraic,
)
from repro.algebraic.query_order import receivers_from_query
from repro.algebraic.specimens import (
    prop_5_14_if_direction,
    prop_5_14_only_if_direction,
    transitive_closure_method,
)
from repro.core.receiver import Receiver
from repro.core.sequential import apply_sequence
from repro.core.signature import MethodSignature
from repro.graph.instance import Obj
from repro.graph.schema import Schema, SchemaError
from repro.objrel.mapping import instance_to_database
from repro.obs.metrics import global_registry
from repro.parallel.apply import (
    apply_parallel,
    apply_parallel_transactional,
    method_read_relations,
    parallel_changes,
    parallel_statement_expression,
)
from repro.parallel.transform import REC
from repro.relational.algebra import Rel, walk
from repro.relational.delta import RelationDelta
from repro.sqlsim.scenarios import (
    make_company,
    scenario_b_method,
    scenario_b_receiver_query,
    scenario_c_method,
    tables_to_instance,
)
from repro.sqlsim.versioned_run import (
    company_store,
    run_scenario_b,
    run_scenario_c,
    salaries,
    scenario_b_receivers,
)
from repro.store import (
    StoreError,
    Transaction,
    TransactionConflict,
    TransactionError,
    VersionedStore,
    classify_order_independence,
    compose_changes,
    run_transaction,
)
from repro.store.txn import DEPENDENT, INDEPENDENT, KEY_INDEPENDENT
from repro.workloads.methods import random_positive_method


@pytest.fixture
def store():
    return company_store(n_employees=12)


@pytest.fixture
def method():
    return scenario_b_method()


def receivers_of(store):
    return scenario_b_receivers(store)


# ----------------------------------------------------------------------
# Versioning and snapshots
# ----------------------------------------------------------------------
class TestVersioning:
    def test_seed_requires_exactly_one_state(self):
        employees, fire, newsal = make_company(4)
        instance = tables_to_instance(employees, newsal=newsal)
        with pytest.raises(StoreError):
            VersionedStore()
        with pytest.raises(StoreError):
            VersionedStore(
                instance=instance,
                database=instance_to_database(instance),
            )

    def test_commits_advance_versions_immutably(self, store, method):
        receivers = receivers_of(store)
        base = store.head
        version = run_scenario_b(store, receivers[:4])
        assert version.version == base.version + 1
        assert store.head is version
        # The old version is untouched and still addressable.
        assert store.version(0) is base
        assert base.database.fingerprints() != version.fingerprints()
        assert version.changes  # the normalized delta rode along
        assert version.operations[0].method_name == "scenario_b"

    def test_empty_change_set_does_not_commit(self, store):
        head = store.head
        assert store.commit_changes({}) is head
        assert store.head.version == head.version

    def test_snapshot_isolation(self, store, method):
        receivers = receivers_of(store)
        with store.snapshot() as snap:
            before = snap.database.fingerprints()
            run_scenario_b(store, receivers)
            # The pinned snapshot still reads the pre-commit state.
            assert snap.database.fingerprints() == before
            assert store.head.database.fingerprints() != before

    def test_prune_respects_pins(self, store, method):
        receivers = receivers_of(store)
        snap = store.snapshot()  # pins version 0
        run_scenario_b(store, receivers[:3])
        run_scenario_b(store, receivers[3:6])
        dropped = store.prune(keep=1)
        assert dropped == 1  # version 1 went; version 0 is pinned
        assert store.version(0) is snap.at
        snap.release()
        assert store.prune(keep=1) == 1
        with pytest.raises(StoreError):
            store.version(0)

    def test_prune_keeps_write_sets_for_open_transactions(self, store):
        """Pruning a version newer than an open transaction's snapshot
        must not erase its write set: the transaction staged a write to
        the same relation, and validating without v1's summary would
        pass the conflict off as a structural commute (lost update)."""
        instance = store.head.instance
        employees = sorted(instance.objects_of_class("Employee"))
        money = sorted(instance.objects_of_class("Money"))[0]
        txn = store.begin()  # pins version 0
        txn.stage(
            {
                "Employee.manager": RelationDelta(
                    inserted=frozenset({(employees[0], employees[1])})
                )
            }
        )
        # v1 writes the same relation, v2 a different one.
        store.commit_changes(
            {
                "Employee.manager": RelationDelta(
                    inserted=frozenset({(employees[2], employees[3])})
                )
            }
        )
        store.commit_changes(
            {
                "Employee.salary": RelationDelta(
                    inserted=frozenset({(employees[4], money)})
                )
            }
        )
        assert store.prune(keep=1) == 1  # v1's full state may go…
        with pytest.raises(TransactionConflict):  # …its write set stays
            txn.commit()
        assert txn.status == "aborted"

    def test_cross_version_cache_reuse(self, store, method):
        """A query over relations untouched by a commit is served from
        the shared cache in the next version (PR 2 fingerprints)."""
        expr = Rel("NewSal.old")
        engine = store.engine()
        engine.evaluate(expr)
        run_scenario_b(store, receivers_of(store))  # writes salary only
        fresh = store.engine()
        result = fresh.evaluate(expr)
        assert result == engine.evaluate(expr)
        assert fresh.stats.cross_state_hits > 0


# ----------------------------------------------------------------------
# The commit protocol
# ----------------------------------------------------------------------
class TestCommitPaths:
    def test_fast_path_no_intervening(self, store, method):
        txn = store.begin()
        txn.apply_method(method, receivers_of(store)[:4])
        fastpath = global_registry().counter("store.txn.fastpath")
        before = fastpath.value
        version = txn.commit()
        assert fastpath.value == before + 1
        assert version.txn_id == txn.id
        assert txn.status == "committed"

    def test_structural_commute_disjoint_relations(self, store):
        """Raw writes to different relations commute structurally."""
        instance = store.head.instance
        employee = sorted(instance.objects_of_class("Employee"))[0]
        other = sorted(instance.objects_of_class("Employee"))[1]
        money = sorted(instance.objects_of_class("Money"))[0]

        first = store.begin()
        second = store.begin()
        first.stage(
            {
                "Employee.salary": RelationDelta(
                    inserted=frozenset({(employee, money)})
                )
            }
        )
        second.stage(
            {
                "Employee.manager": RelationDelta(
                    inserted=frozenset({(other, employee)})
                )
            }
        )
        structural = global_registry().counter(
            "store.txn.structural_commutes"
        )
        before = structural.value
        first.commit()
        second.commit()
        assert structural.value == before + 1
        head = store.head.database
        assert (employee, money) in head.relation("Employee.salary").tuples
        assert (other, employee) in head.relation("Employee.manager").tuples

    def test_replay_path_write_overlap_read_disjoint(self, store, method):
        """Both write Employee.salary; (B') never reads it, so the
        loser replays its recorded application on the head."""
        receivers = receivers_of(store)
        first = store.begin()
        second = store.begin()
        first.apply_method(method, receivers[:6])
        second.apply_method(method, receivers[6:])
        commutes = global_registry().counter("store.txn.commute_fastpaths")
        aborts = global_registry().counter("store.txn.aborts")
        before_commutes, before_aborts = commutes.value, aborts.value
        first.commit()
        second.commit()
        assert commutes.value == before_commutes + 1
        assert aborts.value == before_aborts
        # Equal to the sequential application of all receivers.
        expected = apply_sequence(
            method, store.version(0).instance, receivers
        )
        assert (
            store.head.database.fingerprints()
            == instance_to_database(expected).fingerprints()
        )

    def test_semantic_commute_key_order_independent(self, store, method):
        """Reads overlap too (the transaction read Employee.salary),
        yet Theorem 5.12 proves (B') key-order independent and the
        combined receivers form a key set: both orders agree, commit."""
        receivers = receivers_of(store)
        first = store.begin()
        second = store.begin()
        second.evaluate(Rel("Employee.salary"))  # read what (B') writes
        assert "Employee.salary" in second.reads
        first.apply_method(method, receivers[:6])
        second.apply_method(method, receivers[6:])
        first.commit()
        version = second.commit()
        assert version.version == store.head.version
        expected = apply_sequence(
            method, store.version(0).instance, receivers
        )
        assert (
            store.head.database.fingerprints()
            == instance_to_database(expected).fingerprints()
        )

    def test_duplicate_receivers_break_the_key_set_and_abort(
        self, store, method
    ):
        """Key-order independence speaks about permutations of a key
        set; a receiver applied by both transactions falls outside the
        theorem, so a read-write overlap must abort."""
        receivers = receivers_of(store)
        first = store.begin()
        second = store.begin()
        second.evaluate(Rel("Employee.salary"))
        first.apply_method(method, receivers[:6])
        second.apply_method(method, receivers[4:])  # shares 4 and 5
        first.commit()
        with pytest.raises(TransactionConflict):
            second.commit()
        assert second.status == "aborted"

    def test_derived_receivers_join_the_read_set(self, store):
        """Receiver arguments are reads: deriving receivers inside the
        transaction tracks the query's base relations."""
        txn = store.begin()
        receivers = txn.derive_receivers(scenario_b_receiver_query())
        assert receivers == scenario_b_receivers(store)
        assert "Employee.salary" in txn.reads
        txn.abort()

    def test_stale_derived_receivers_abort_instead_of_lost_update(
        self, store, method
    ):
        """A foreign commit to the relation that fed the receiver
        derivation invalidates the baked-in ``arg1`` salaries: the
        transaction must conflict, not replay stale arguments over the
        new head."""
        txn = store.begin()
        receivers = txn.derive_receivers(scenario_b_receiver_query())
        txn.apply_method(method, receivers)
        run_scenario_b(store)  # rewrites Employee.salary meanwhile
        with pytest.raises(TransactionConflict):
            txn.commit()
        assert txn.status == "aborted"

    def test_run_transaction_rederives_receivers_each_attempt(self):
        """A retry must not reuse receivers derived against the old
        head; deriving inside the body gives each attempt the then-
        current salaries as ``arg1``."""
        store = company_store(n_employees=8)
        method = scenario_b_method()
        query = scenario_b_receiver_query()
        seen = []

        def body(txn):
            batch = txn.derive_receivers(query)
            seen.append(batch)
            if len(seen) == 1:
                run_scenario_b(store)  # intervening salary rewrite
            return txn.apply_method(method, batch)

        _, version = run_transaction(store, body, retries=3)
        assert version.version == store.head.version
        assert len(seen) == 2
        assert seen[0] != seen[1]  # the retry saw the updated salaries

    def test_order_dependent_method_aborts_on_read_overlap(self, store):
        """(C') reads Employee.salary through the manager edge and is
        order dependent: overlapping commits cannot commute."""
        method_c = scenario_c_method()
        keys = sorted(
            obj.key
            for obj in store.head.instance.objects_of_class("Employee")
        )
        first = store.begin()
        second = store.begin()
        first.apply_method(method_c, [Receiver([Obj("Employee", keys[0])])])
        second.apply_method(method_c, [Receiver([Obj("Employee", keys[1])])])
        first.commit()
        with pytest.raises(TransactionConflict):
            second.commit()

    def test_naive_store_aborts_where_commutativity_commits(self):
        method = scenario_b_method()
        naive = company_store(n_employees=12, commutativity=False)
        receivers = receivers_of(naive)
        first = naive.begin()
        second = naive.begin()
        first.apply_method(method, receivers[:6])
        second.apply_method(method, receivers[6:])
        first.commit()
        with pytest.raises(TransactionConflict):
            second.commit()

    def test_raw_stage_cannot_replay_through_write_overlap(self, store):
        instance = store.head.instance
        employee = sorted(instance.objects_of_class("Employee"))[0]
        first_money, second_money = sorted(
            instance.objects_of_class("Money")
        )[:2]
        first = store.begin()
        second = store.begin()
        first.stage(
            {
                "Employee.salary": RelationDelta(
                    inserted=frozenset({(employee, first_money)})
                )
            }
        )
        second.stage(
            {
                "Employee.salary": RelationDelta(
                    inserted=frozenset({(employee, second_money)})
                )
            }
        )
        first.commit()
        with pytest.raises(TransactionConflict):
            second.commit()

    def test_run_transaction_retries_conflicts(self, store):
        """A conflicted body re-runs on a fresh snapshot and commits."""
        method_c = scenario_c_method()
        keys = sorted(
            obj.key
            for obj in store.head.instance.objects_of_class("Employee")
        )
        blocker = store.begin()
        blocker.apply_method(
            method_c, [Receiver([Obj("Employee", keys[0])])]
        )

        attempts = []

        def body(txn):
            attempts.append(txn.id)
            if len(attempts) == 1:
                # Commit the blocker mid-flight so the first attempt
                # validates against an intervening order-dependent
                # commit and conflicts.
                pass
            return txn.apply_method(
                method_c, [Receiver([Obj("Employee", keys[1])])]
            )

        first_txn = Transaction(store)
        first_txn.apply_method(
            method_c, [Receiver([Obj("Employee", keys[1])])]
        )
        blocker.commit()
        with pytest.raises(TransactionConflict):
            first_txn.commit()
        # run_transaction starts fresh each attempt, so it succeeds.
        _, version = run_transaction(store, body, retries=3)
        assert version.version == store.head.version
        assert len(attempts) == 1  # fresh snapshot saw the blocker

    def test_transaction_misuse_raises(self, store, method):
        txn = store.begin()
        txn.abort()
        with pytest.raises(TransactionError):
            txn.commit()
        with pytest.raises(TransactionError):
            txn.apply_method(method, receivers_of(store)[:1])

    def test_context_manager_commits_and_aborts(self, store, method):
        receivers = receivers_of(store)
        with store.begin() as txn:
            txn.apply_method(method, receivers[:2])
        assert txn.status == "committed"
        with pytest.raises(RuntimeError):
            with store.begin() as failing:
                failing.apply_method(method, receivers[2:4])
                raise RuntimeError("boom")
        assert failing.status == "aborted"


class TestPublishedState:
    """A fastpath commit publishes the transaction's working database;
    the other tiers build the new state from the head."""

    def test_fastpath_publishes_the_working_database(self, store, method):
        receivers = receivers_of(store)
        before = store.head
        txn = store.begin()
        first = txn.apply_method(method, receivers[:4])
        second = txn.apply_method(method, receivers[4:8])
        working = txn._database
        version = txn.commit()
        assert txn.audit()["path"] == "fastpath"
        assert store.head is version
        assert version.database is working
        assert version.database == before.database.apply_delta(
            compose_changes(first, second)
        )
        assert version.database == instance_to_database(
            apply_sequence(method, before.instance, receivers[:8])
        )
        # The WAL record is the change set normalized against the head.
        assert version.changes == compose_changes(first, second)

    def test_fastpath_shares_a_relation_whose_writes_cancel(self, store):
        before = store.head.database
        employee = sorted(before.relation("Employee.manager"))[0][0]
        row = (employee, employee)
        assert row not in before.relation("Employee.manager").tuples
        employee, money = sorted(before.relation("Employee.salary"))[0]
        txn = store.begin()
        txn.stage(
            {
                "Employee.manager": RelationDelta(
                    inserted=frozenset({row})
                ),
                "Employee.salary": RelationDelta(
                    deleted=frozenset({(employee, money)})
                ),
            }
        )
        txn.stage(
            {"Employee.manager": RelationDelta(deleted=frozenset({row}))}
        )
        version = txn.commit()
        assert txn.audit()["path"] == "fastpath"
        assert set(version.changes) == {"Employee.salary"}
        assert version.database.relation(
            "Employee.manager"
        ) is before.relation("Employee.manager")
        assert (employee, money) not in version.database.relation(
            "Employee.salary"
        ).tuples

    def test_replay_tier_builds_from_the_head(self, store, method):
        receivers = receivers_of(store)
        first = store.begin()
        second = store.begin()
        first.apply_method(method, receivers[:6])
        second.apply_method(method, receivers[6:])
        first.commit()
        working = second._database
        version = second.commit()
        assert second.audit()["path"] == "replay"
        assert version.database is not working
        expected = apply_sequence(
            method, store.version(0).instance, receivers
        )
        assert version.database == instance_to_database(expected)


# ----------------------------------------------------------------------
# Classification and helpers
# ----------------------------------------------------------------------
class TestClassification:
    def test_scenario_b_is_key_order_independent(self):
        assert (
            classify_order_independence(scenario_b_method())
            == KEY_INDEPENDENT
        )

    def test_scenario_c_is_dependent(self):
        assert (
            classify_order_independence(scenario_c_method()) == DEPENDENT
        )

    def test_classification_is_memoized(self):
        method = scenario_b_method()
        assert classify_order_independence(
            method
        ) == classify_order_independence(method)

    def test_method_read_relations_excludes_the_written_property(self):
        reads = method_read_relations(scenario_b_method())
        assert "NewSal.old" in reads and "NewSal.new" in reads
        assert "Employee.salary" not in reads
        # (C') reads what it writes — the overlap the tests above use.
        assert "Employee.salary" in method_read_relations(
            scenario_c_method()
        )

    def test_method_read_relations_is_the_set_par_reads(self):
        """The read set, collected from the statement bodies, equals the
        relations ``par(E)`` references besides ``rec`` — for every
        method defined in the package and for random positive methods
        with zero to two arguments."""

        def par_reads(method):
            names = set()
            for label in method.updated_properties:
                expr = parallel_statement_expression(method, label)
                names.update(
                    node.name for node in walk(expr) if isinstance(node, Rel)
                )
                names.add(method.object_schema.edge(label).target)
            names.discard(REC)
            return frozenset(names)

        methods = [
            scenario_b_method(),
            scenario_c_method(),
            favorite_bar_algebraic(),
            add_bar_algebraic(),
            add_serving_bars_algebraic(),
            delete_bar_algebraic(),
            transitive_closure_method(),
            prop_5_14_if_direction()[0],
            prop_5_14_only_if_direction()[0],
        ]
        schema = Schema(
            ["K0", "K1", "K2"],
            [("K0", "p0", "K1"), ("K0", "p1", "K0"), ("K1", "q", "K2")],
        )
        for seed in range(1500):
            rng = random.Random(seed)
            signature = None
            if seed % 3 == 0:
                signature = MethodSignature(
                    ["K0"] + rng.choices(["K0", "K1", "K2"], k=2)
                )
            method = random_positive_method(
                rng,
                schema,
                signature,
                n_statements=1 + seed % 2,
                depth=1 + seed % 3,
            )
            if method is not None:
                methods.append(method)
        assert len(methods) > 1000
        for method in methods:
            assert method_read_relations(method) == par_reads(method)

    def test_compose_changes_sequences_correctly(self):
        first = {
            "R": RelationDelta(
                inserted=frozenset({(1,)}), deleted=frozenset({(2,)})
            )
        }
        second = {
            "R": RelationDelta(
                inserted=frozenset({(2,)}), deleted=frozenset({(1,)})
            )
        }
        composed = compose_changes(first, second)["R"]
        # ins then del of (1,) cancels; (2,) ends inserted.
        assert composed.inserted == frozenset({(2,)})
        assert (1,) in composed.deleted


# ----------------------------------------------------------------------
# Parallel application against the store
# ----------------------------------------------------------------------
class TestParallelIntegration:
    def test_parallel_changes_matches_apply_parallel(self, method):
        employees, _, newsal = make_company(10)
        instance = tables_to_instance(employees, newsal=newsal)
        receivers = sorted(
            receivers_from_query(scenario_b_receiver_query(), instance)
        )
        direct = apply_parallel(method, instance, receivers)
        base = instance_to_database(instance)
        changes = parallel_changes(method, base, receivers)
        assert set(changes) == {"Employee.salary"}
        # The delta applied to the base database lands on the result.
        assert (
            base.apply_delta(changes).fingerprints()
            == instance_to_database(direct).fingerprints()
        )

    def test_receiver_outside_the_object_base_is_rejected(
        self, store, method
    ):
        """``C.a[C] <= C[C]``: a (B') receiver whose employee is not in
        the object base must not commit a dangling salary row."""
        head = store.head
        salary = receivers_of(store)[0].arguments[0]
        ghost = Receiver([Obj("Employee", 99999), salary])
        with pytest.raises(SchemaError, match="dangling edge"):
            run_transaction(
                store, lambda txn: txn.apply_method(method, [ghost])
            )
        assert store.head is head

    def test_apply_parallel_transactional(self, store, method):
        receivers = receivers_of(store)
        version = apply_parallel_transactional(store, method, receivers)
        assert version is store.head
        expected = apply_parallel(
            method, store.version(0).instance, receivers
        )
        assert (
            version.database.fingerprints()
            == instance_to_database(expected).fingerprints()
        )


# ----------------------------------------------------------------------
# Concurrency acceptance: >= 4 workers, zero aborts, equals sequential
# ----------------------------------------------------------------------
class TestConcurrencyAcceptance:
    def test_four_workers_commit_abort_free_and_match_sequential(self):
        store = company_store(n_employees=32)
        method = scenario_b_method()
        receivers = receivers_of(store)
        slices = [receivers[i::4] for i in range(4)]
        aborts = global_registry().counter("store.txn.aborts")
        before = aborts.value
        barrier = threading.Barrier(4)
        errors = []

        def worker(chunk):
            try:
                barrier.wait()
                run_transaction(
                    store,
                    lambda txn: txn.apply_method(method, chunk),
                    retries=8,
                )
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(chunk,))
            for chunk in slices
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Order independence: every batch committed without one abort.
        assert aborts.value == before
        assert store.head.version == 4
        expected = apply_sequence(
            method, store.version(0).instance, receivers
        )
        assert (
            store.head.database.fingerprints()
            == instance_to_database(expected).fingerprints()
        )


# ----------------------------------------------------------------------
# Section 7 scenarios on the store
# ----------------------------------------------------------------------
class TestSqlsimVersioned:
    def test_scenario_b_on_store_matches_apply_parallel(self):
        store = company_store(n_employees=10)
        receivers = scenario_b_receivers(store)
        version = run_scenario_b(store)
        expected = apply_parallel(
            scenario_b_method(), store.version(0).instance, receivers
        )
        assert salaries(version) == sorted(
            (
                (obj.key, value.key)
                for obj in expected.objects_of_class("Employee")
                for value in expected.property_values(obj, "salary")
            ),
            key=repr,
        )

    def test_scenario_c_order_shows_in_the_store(self):
        forward = company_store(n_employees=10)
        keys = sorted(
            obj.key
            for obj in forward.head.instance.objects_of_class("Employee")
        )
        backward = company_store(n_employees=10)
        forward_head = run_scenario_c(forward, keys)
        backward_head = run_scenario_c(backward, list(reversed(keys)))
        assert salaries(forward_head) != salaries(backward_head)
