"""The resilience layer: budgets, retries, circuit breaking, and the
graceful-degradation paths threaded through the expensive layers.

Covers the escalation ladder end to end (DESIGN.md): cooperative
budgets cutting off the Theorem 5.12 decision with an ``UNKNOWN``
verdict, the adaptive applicator degrading to the paper-correct
sequential fold, the worker-pool supervisor re-running crashed
statement workers, the store's transaction retries on the unified
jittered backoff, the circuit breaker guarding the semantic-commute
tier, and the ``run_traced`` partial-trace flush.  A hypothesis
property checks the budget is *sound*: capped decisions may say
``UNKNOWN``, never the wrong definite verdict.
"""

import json
import random
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebraic import decision
from repro.algebraic.decision import (
    INDEPENDENT,
    KEY_INDEPENDENT,
    UNKNOWN,
    classify_method,
    decide_key_order_independence,
    decide_order_independence,
    decide_order_independence_budgeted,
)
from repro.algebraic.expression import UpdateTypeError
from repro.algebraic.specimens import prop_5_14_only_if_direction
from repro.core.receiver import Receiver
from repro.core.sequential import apply_sequence
from repro.cq.containment import ContainmentBudgetExceeded
from repro.graph.instance import Edge, Instance, Obj
from repro.graph.schema import Schema
from repro.obs import tracer as trace
from repro.obs.cli import run_traced
from repro.obs.metrics import global_registry
from repro.parallel.apply import (
    apply_adaptive,
    apply_parallel,
    choose_apply_mode,
)
from repro.relational.algebra import Rel
from repro.relational.delta import RelationDelta
from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.resilience.budget import (
    Budget,
    BudgetExceeded,
    Cancelled,
    CancelToken,
    applied,
    current,
    tick,
)
from repro.resilience.faults import (
    PARALLEL_WORKER,
    FaultError,
    FaultPlan,
    FaultRule,
    active,
    fault_point,
)
from repro.resilience.retry import RetryPolicy, retry_call
from repro.sqlsim.scenarios import (
    make_company,
    scenario_b_method,
    scenario_c_method,
    tables_to_instance,
)
from repro.sqlsim.versioned_run import scenario_b_receivers
from repro.store import (
    TransactionConflict,
    VersionedStore,
    run_transaction,
)
from repro.workloads.methods import random_positive_method

SCHEMA = Schema(
    ["K0", "K1"],
    [("K0", "p0", "K1"), ("K0", "p1", "K0")],
)


def b_workload(size=8):
    method = scenario_b_method()
    employees, _, newsal = make_company(size)
    instance = tables_to_instance(employees, newsal=newsal)
    receivers = [
        Receiver([Obj("Employee", r["EmpId"]), Obj("Money", r["Salary"])])
        for r in employees
    ]
    return method, instance, receivers


def two_statement_workload():
    """The Prop 5.14 only-if method: two statements, so ``M_par``
    evaluates more than one ``par(E_a)``."""
    method, _ = prop_5_14_only_if_direction()
    schema = method.object_schema
    objs = [Obj("C", i) for i in range(4)]
    edges = [
        Edge(objs[0], "b", objs[1]),
        Edge(objs[1], "b", objs[2]),
        Edge(objs[2], "a", objs[3]),
    ]
    instance = Instance(schema, objs, edges)
    receivers = [
        Receiver([objs[0], objs[1], objs[2]]),
        Receiver([objs[1], objs[2], objs[3]]),
    ]
    return method, instance, receivers


class FakeClock:
    def __init__(self, start=100.0):
        self.time = start

    def now(self):
        return self.time

    def advance(self, seconds):
        self.time += seconds


# ----------------------------------------------------------------------
# Budget and cancellation
# ----------------------------------------------------------------------
class TestBudget:
    def test_step_cap_trips_on_the_excess_step(self):
        budget = Budget(max_steps=3)
        for _ in range(3):
            budget.check("loop")
        with pytest.raises(BudgetExceeded) as info:
            budget.check("loop")
        assert info.value.site == "loop"
        assert budget.exhausted
        assert budget.exhausted_at == "loop"

    def test_deadline_uses_the_injected_clock(self):
        clock = FakeClock()
        budget = Budget(seconds=5.0, clock=clock.now)
        budget.check("site")
        clock.advance(4.0)
        budget.check("site")
        assert budget.remaining_seconds() == pytest.approx(1.0)
        clock.advance(2.0)
        with pytest.raises(BudgetExceeded):
            budget.check("site")

    def test_cancel_token_raises_cancelled(self):
        token = CancelToken()
        budget = Budget(cancel=token)
        budget.check("site")
        token.cancel()
        with pytest.raises(Cancelled):
            budget.check("site")

    def test_exhausted_budget_keeps_raising(self):
        budget = Budget(max_steps=0)
        with pytest.raises(BudgetExceeded):
            budget.check("first")
        with pytest.raises(BudgetExceeded):
            budget.check("second")

    def test_site_steps_ledger(self):
        budget = Budget()
        budget.check("a")
        budget.check("a", amount=2)
        budget.check("b")
        assert budget.steps == 4
        assert budget.site_steps == {"a": 3, "b": 1}

    def test_tick_is_noop_without_installation(self):
        assert current() is None
        tick("anywhere")  # must not raise

    def test_with_statement_installs_and_restores(self):
        budget = Budget(max_steps=10)
        with budget:
            assert current() is budget
            tick("inside")
        assert current() is None
        assert budget.steps == 1

    def test_applied_none_is_noop(self):
        with applied(None):
            assert current() is None

    def test_bind_carries_budget_into_another_thread(self):
        budget = Budget(max_steps=100)
        seen = []

        def worker():
            seen.append(current())
            tick("worker")

        thread = threading.Thread(target=budget.bind(worker))
        thread.start()
        thread.join()
        assert seen == [budget]
        assert budget.site_steps == {"worker": 1}

    def test_exceeded_counter_increments_once(self):
        counter = global_registry().counter("resilience.budget.exceeded")
        before = counter.value
        budget = Budget(max_steps=0)
        for _ in range(3):
            with pytest.raises(BudgetExceeded):
                budget.check("site")
        assert counter.value == before + 1


# ----------------------------------------------------------------------
# Unified retry/backoff
# ----------------------------------------------------------------------
class TestRetry:
    def test_succeeds_after_transient_failures(self):
        calls = []
        sleeps = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise ValueError("transient")
            return "done"

        result = retry_call(
            flaky,
            policy=RetryPolicy(retries=5, jitter=False),
            rng=random.Random(0),
            sleep=sleeps.append,
        )
        assert result == "done"
        assert len(calls) == 3
        assert sleeps == [0.001, 0.002]  # deterministic schedule

    def test_full_jitter_stays_within_the_cap(self):
        policy = RetryPolicy(
            retries=5, base_delay=0.01, factor=2.0, max_delay=0.05
        )
        rng = random.Random(7)
        for attempt in range(6):
            cap = min(0.05, 0.01 * 2.0**attempt)
            for _ in range(20):
                assert 0.0 <= policy.delay(attempt, rng) <= cap

    def test_giveup_bypasses_retry(self):
        sleeps = []

        def doomed():
            raise KeyError("semantic")

        with pytest.raises(KeyError):
            retry_call(
                doomed,
                retryable=(Exception,),
                giveup=(KeyError,),
                sleep=sleeps.append,
            )
        assert sleeps == []

    def test_exhausted_retries_raise_the_last_error(self):
        calls = []

        def always_fails():
            calls.append(1)
            raise ValueError(f"attempt {len(calls)}")

        with pytest.raises(ValueError, match="attempt 3"):
            retry_call(
                always_fails,
                policy=RetryPolicy(retries=2, jitter=False),
                sleep=lambda _: None,
            )
        assert len(calls) == 3

    def test_non_retryable_propagates_immediately(self):
        calls = []

        def fails():
            calls.append(1)
            raise ValueError("nope")

        with pytest.raises(ValueError):
            retry_call(fails, retryable=(KeyError,))
        assert len(calls) == 1

    def test_on_retry_hook_fires_per_retry(self):
        seen = []
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise ValueError("again")
            return True

        retry_call(
            flaky,
            policy=RetryPolicy(retries=5, jitter=False),
            sleep=lambda _: None,
            on_retry=lambda attempt, error: seen.append(
                (attempt, type(error).__name__)
            ),
        )
        assert seen == [(0, "ValueError"), (1, "ValueError")]


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def make(self, threshold=2, reset=10.0):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=threshold,
            reset_timeout=reset,
            name="test",
            clock=clock.now,
        )
        return breaker, clock

    def test_opens_after_consecutive_failures(self):
        breaker, _ = self.make()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == CLOSED
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_success_resets_the_failure_streak(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED  # streak broken, not cumulative

    def test_half_opens_after_the_reset_timeout(self):
        breaker, clock = self.make()
        breaker.record_failure()
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(10.0)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()

    def test_half_open_probe_success_closes(self):
        breaker, clock = self.make()
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_half_open_probe_failure_reopens(self):
        breaker, clock = self.make()
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()  # one failure suffices in half-open
        assert breaker.state == OPEN
        clock.advance(5.0)
        assert not breaker.allow()  # the timer restarted

    def test_rejections_are_counted(self):
        breaker, _ = self.make(threshold=1)
        counter = global_registry().counter(
            "resilience.breaker.test.rejected"
        )
        before = counter.value
        breaker.record_failure()
        assert not breaker.allow()
        assert counter.value == before + 1

    def test_half_open_admits_exactly_one_probe(self):
        """The stampede bug: before the gate, every caller's allow()
        returned True in HALF_OPEN until someone recorded an outcome."""
        breaker, clock = self.make()
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()  # probe slot claimed
        assert not breaker.allow()  # second caller rejected
        assert not breaker.allow()
        breaker.record_success()  # probe reports back
        assert breaker.state == CLOSED
        assert breaker.allow()  # closed again: everyone admitted
        assert breaker.allow()

    def test_failed_probe_releases_the_slot_for_the_next_window(self):
        breaker, clock = self.make()
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()  # probe failed: OPEN, timer restarted
        assert not breaker.allow()
        clock.advance(10.0)  # next window gets a fresh probe slot
        assert breaker.allow()
        assert not breaker.allow()

    def test_concurrent_half_open_probes_race_to_one_winner(self):
        """Many threads hit allow() simultaneously in HALF_OPEN: exactly
        one wins the probe slot."""
        breaker, clock = self.make()
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(10.0)
        barrier = threading.Barrier(8)
        admitted = []

        def caller():
            barrier.wait()
            if breaker.allow():
                admitted.append(threading.get_ident())

        threads = [threading.Thread(target=caller) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(admitted) == 1

    def test_consecutive_failures_is_read_under_the_lock(self):
        breaker, _ = self.make(threshold=100)
        errors = []

        def hammer():
            try:
                for _ in range(200):
                    breaker.record_failure()
                    breaker.consecutive_failures
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert breaker.consecutive_failures == 800


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_error_fires_on_the_nth_hit_only(self):
        plan = FaultPlan().error_at("site", at=1)
        plan.on_site("site")  # hit 0: clean
        with pytest.raises(FaultError):
            plan.on_site("site")  # hit 1: fires
        plan.on_site("site")  # times=1: spent
        assert [f.hit for f in plan.firings] == [1]
        assert plan.hits["site"] == 3

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            FaultRule("site", "error")  # neither at nor probability
        with pytest.raises(ValueError):
            FaultRule("site", "error", at=1, probability=0.5)  # both
        with pytest.raises(ValueError):
            FaultRule("site", "frobnicate", at=1)

    def test_delay_uses_the_injected_sleeper(self):
        sleeps = []
        plan = FaultPlan(sleep=sleeps.append).delay_at(
            "site", seconds=0.25, at=0
        )
        plan.on_site("site")
        assert sleeps == [0.25]

    def test_probability_rules_are_deterministic_per_seed(self):
        def firings(seed):
            plan = FaultPlan(seed=seed).error_at(
                "site", probability=0.3, times=None
            )
            pattern = []
            for hit in range(50):
                try:
                    plan.on_site("site")
                    pattern.append(False)
                except FaultError:
                    pattern.append(True)
            return pattern

        assert firings(42) == firings(42)
        assert firings(42) != firings(43)  # and the seed matters

    def test_installed_restores_the_previous_plan(self):
        outer = FaultPlan()
        inner = FaultPlan()
        assert active() is None
        with outer.installed():
            assert active() is outer
            with inner.installed():
                assert active() is inner
            assert active() is outer
        assert active() is None

    def test_fault_point_is_noop_without_a_plan(self):
        assert active() is None
        fault_point("anywhere")  # must not raise

    def test_installed_restores_on_exception(self):
        plan = FaultPlan().error_at("site", at=0)
        with pytest.raises(FaultError):
            with plan.installed():
                fault_point("site")
        assert active() is None


# ----------------------------------------------------------------------
# Budgeted decisions (acceptance: UNKNOWN within the deadline)
# ----------------------------------------------------------------------
class TestBudgetedDecision:
    def test_tiny_step_budget_returns_unknown(self):
        outcome = decide_order_independence_budgeted(
            scenario_b_method(), budget=Budget(max_steps=1)
        )
        assert outcome.verdict == UNKNOWN
        assert not outcome.definite
        assert outcome.result is None
        assert outcome.reason

    def test_deadline_budget_returns_unknown_within_the_deadline(self):
        method = scenario_b_method()
        start = time.perf_counter()
        outcome = decide_order_independence_budgeted(
            method, budget=Budget(seconds=0.002)
        )
        elapsed = time.perf_counter() - start
        assert outcome.verdict == UNKNOWN
        # The unbudgeted decision takes much longer than 2ms; the
        # budgeted one must come back about when the deadline fires
        # (one cooperative step of slack, generous for slow machines).
        assert elapsed < 0.5

    def test_roomy_budget_matches_the_unbudgeted_verdict(self):
        method = scenario_b_method()
        reference = decide_key_order_independence(method)
        outcome = decision.decide_key_order_independence_budgeted(
            method, budget=Budget(seconds=60.0)
        )
        assert outcome.definite
        assert (
            outcome.result.order_independent
            == reference.order_independent
        )

    def test_classify_method_three_valued(self):
        assert classify_method(scenario_b_method()) in (
            INDEPENDENT,
            KEY_INDEPENDENT,
        )
        assert (
            classify_method(
                scenario_b_method(), budget=Budget(max_steps=1)
            )
            == UNKNOWN
        )

    def test_unknown_counter_increments(self):
        counter = global_registry().counter("decision.unknown")
        before = counter.value
        decide_order_independence_budgeted(
            scenario_b_method(), budget=Budget(max_steps=1)
        )
        assert counter.value == before + 1


@given(st.integers(0, 10_000), st.integers(1, 200))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_budgeted_decision_never_contradicts_unbudgeted(seed, cap):
    """UNKNOWN is always permitted; a wrong definite verdict never is."""
    rng = random.Random(seed)
    method = random_positive_method(rng, SCHEMA, depth=1)
    if method is None:
        return
    try:
        reference = decide_order_independence(
            method, max_partitions=25_000
        )
    except ContainmentBudgetExceeded:
        return
    outcome = decide_order_independence_budgeted(
        method, budget=Budget(max_steps=cap), max_partitions=25_000
    )
    assert outcome.verdict in (INDEPENDENT, decision.DEPENDENT, UNKNOWN)
    if outcome.definite:
        assert (
            outcome.verdict == INDEPENDENT
        ) == reference.order_independent


# ----------------------------------------------------------------------
# Adaptive application (acceptance: degradation preserves the state)
# ----------------------------------------------------------------------
class TestAdaptiveApply:
    def test_choose_apply_mode_table(self):
        _, _, receivers = b_workload(4)
        assert choose_apply_mode(INDEPENDENT, receivers) == "parallel"
        assert choose_apply_mode(KEY_INDEPENDENT, receivers) == "parallel"
        assert choose_apply_mode(decision.DEPENDENT, receivers) == (
            "sequential"
        )
        assert choose_apply_mode(UNKNOWN, receivers) == "sequential"
        # An exact duplicate still collapses to a key set ...
        assert choose_apply_mode(
            KEY_INDEPENDENT, receivers + receivers[:1]
        ) == "parallel"
        # ... but one receiving object with two different arguments
        # breaks functional determination: KEY_INDEPENDENT no longer
        # licenses the parallel path.
        clashing = receivers + [
            Receiver([receivers[0].objects[0], receivers[1].objects[1]])
        ]
        assert choose_apply_mode(KEY_INDEPENDENT, clashing) == (
            "sequential"
        )

    def test_unknown_degrades_to_sequential_with_identical_state(self):
        method, instance, receivers = b_workload()
        expected = apply_sequence(method, instance, receivers)
        unknown_counter = global_registry().counter(
            "parallel.adaptive.unknown"
        )
        before = unknown_counter.value
        result = apply_adaptive(
            method, instance, receivers, budget=Budget(max_steps=1)
        )
        assert result == expected
        assert unknown_counter.value == before + 1

    def test_definite_verdict_takes_the_parallel_path(self):
        method, instance, receivers = b_workload()
        expected = apply_sequence(method, instance, receivers)
        parallel_counter = global_registry().counter(
            "parallel.adaptive.parallel"
        )
        before = parallel_counter.value
        result = apply_adaptive(
            method, instance, receivers, verdict=KEY_INDEPENDENT
        )
        assert result == expected  # Theorem 6.5 on the key set
        assert parallel_counter.value == before + 1

    def test_receivers_are_treated_as_a_set(self):
        method, instance, receivers = b_workload()
        expected = apply_sequence(method, instance, receivers)
        result = apply_adaptive(
            method,
            instance,
            receivers + receivers[:2],
            verdict=UNKNOWN,
        )
        assert result == expected

    def test_method_reading_what_it_writes_falls_back_fast(self):
        # (C') reads Employee.salary, the relation it writes: Theorem
        # 5.12 finds it order dependent, so every receiver set takes
        # the sequential fold — one singleton M_par step per receiver.
        method = scenario_c_method()
        employees, _, newsal = make_company(24, seed=7)
        instance = tables_to_instance(employees, newsal=newsal)
        receivers = [
            Receiver([Obj("Employee", r["EmpId"])]) for r in employees
        ]
        assert classify_method(method) == decision.DEPENDENT
        sequential_counter = global_registry().counter(
            "parallel.adaptive.sequential"
        )
        before = sequential_counter.value
        start = time.perf_counter()
        result = apply_adaptive(method, instance, receivers)
        elapsed = time.perf_counter() - start
        assert sequential_counter.value == before + 1
        assert result == apply_sequence(method, instance, receivers)
        assert elapsed < 2.0, f"sequential fallback took {elapsed:.2f}s"

    def test_classification_happens_under_the_callers_budget(self):
        # A budget roomy enough to classify: the adaptive call reaches
        # a definite verdict and the parallel path, matching sequential.
        method, instance, receivers = b_workload()
        expected = apply_sequence(method, instance, receivers)
        result = apply_adaptive(
            method, instance, receivers, budget=Budget(seconds=60.0)
        )
        assert result == expected


# ----------------------------------------------------------------------
# Errors raised inside an M_par statement
# ----------------------------------------------------------------------
class TestSupervisedFanOut:
    """Every statement of ``M_par`` runs in the calling thread, so an
    error raised inside one reaches the caller unchanged."""

    def test_semantic_errors_are_not_retried(self):
        method, instance, receivers = two_statement_workload()
        plan = FaultPlan().error_at(
            PARALLEL_WORKER, at=0, error_type=UpdateTypeError
        )
        with plan.installed():
            with pytest.raises(UpdateTypeError):
                apply_parallel(method, instance, receivers)

    def test_exhausted_worker_retries_propagate(self):
        method, instance, receivers = two_statement_workload()
        plan = FaultPlan().error_at(
            PARALLEL_WORKER, probability=1.0, times=None
        )
        with plan.installed():
            with pytest.raises(FaultError):
                apply_parallel(method, instance, receivers)

    def test_budget_exhaustion_crosses_the_pool_boundary(self):
        method, instance, receivers = two_statement_workload()
        with pytest.raises(BudgetExceeded):
            with Budget(max_steps=1):
                apply_parallel(method, instance, receivers)


# ----------------------------------------------------------------------
# Transaction retries on the unified backoff
# ----------------------------------------------------------------------
class TestTransactionRetry:
    def conflicting_body(self, store, rows, attempts):
        """A body that conflicts on the first two attempts.

        Reads ``Employee.salary`` and stages a raw (non-replayable)
        delete while a direct store commit rewrites the relation — a
        read-write overlap no escalation tier can resolve.
        """

        def body(txn):
            attempt = len(attempts)
            attempts.append(1)
            txn.read("Employee.salary")
            txn.stage(
                {
                    "Employee.salary": RelationDelta(
                        deleted=frozenset({rows[-1]})
                    )
                }
            )
            if attempt < 2:
                store.commit_changes(
                    {
                        "Employee.salary": RelationDelta(
                            deleted=frozenset({rows[attempt]})
                        )
                    }
                )
            return attempt

        return body

    def test_conflicts_retry_with_jittered_backoff(self):
        _, instance, _ = b_workload(6)
        store = VersionedStore(instance=instance)
        rows = sorted(
            store.head.database.relation("Employee.salary").tuples
        )
        sleeps = []
        attempts = []
        retries_counter = global_registry().counter("store.txn.retries")
        before = retries_counter.value
        result, version = run_transaction(
            store,
            self.conflicting_body(store, rows, attempts),
            retries=5,
            backoff=0.001,
            rng=random.Random(0),
            sleep=sleeps.append,
        )
        assert result == 2  # succeeded on the third attempt
        assert version.version == store.head.version
        assert len(sleeps) == 2
        # Full jitter: each sleep within the attempt's exponential cap.
        assert 0.0 <= sleeps[0] <= 0.001
        assert 0.0 <= sleeps[1] <= 0.002
        assert retries_counter.value == before + 2

    def test_exhausted_retries_wrap_the_conflict(self):
        _, instance, _ = b_workload(6)
        store = VersionedStore(instance=instance)
        rows = sorted(
            store.head.database.relation("Employee.salary").tuples
        )

        attempts = []

        def body(txn):
            attempt = len(attempts)
            attempts.append(1)
            txn.read("Employee.salary")
            txn.stage(
                {
                    "Employee.salary": RelationDelta(
                        deleted=frozenset({rows[-1]})
                    )
                }
            )
            # Every attempt races a direct commit to the relation it
            # read: the conflict never resolves.
            store.commit_changes(
                {
                    "Employee.salary": RelationDelta(
                        deleted=frozenset({rows[attempt]})
                    )
                }
            )

        with pytest.raises(
            TransactionConflict, match="failed after 2 attempts"
        ):
            run_transaction(
                store,
                body,
                retries=1,
                rng=random.Random(0),
                sleep=lambda _: None,
            )


# ----------------------------------------------------------------------
# The store's semantic-commute circuit breaker
# ----------------------------------------------------------------------
class TestStoreBreaker:
    def fresh_conflict(self, breaker, budget_factory):
        """One semantic-tier conflict on a fresh store and fresh method.

        A fresh method object per round keeps the decision memo cold —
        the breaker only scores methods that actually pay the decision
        procedure.
        """
        employees, _, newsal = make_company(12)
        instance = tables_to_instance(employees, newsal=newsal)
        store = VersionedStore(
            instance=instance,
            decision_budget=budget_factory,
            breaker=breaker,
        )
        method = scenario_b_method()
        receivers = scenario_b_receivers(store)
        first = store.begin()
        second = store.begin()
        second.evaluate(Rel("Employee.salary"))  # read what (B') writes
        first.apply_method(method, receivers[:6])
        second.apply_method(method, receivers[6:])
        first.commit()
        return second

    def test_unknown_verdicts_open_the_breaker_and_skip_the_tier(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=2,
            reset_timeout=30.0,
            name="semantic.test",
            clock=clock.now,
        )
        cap = {"max_steps": 1}

        def budget_factory():
            return Budget(max_steps=cap["max_steps"])

        skips = global_registry().counter("store.txn.breaker_skips")
        # Two UNKNOWN outcomes (the tiny budget trips mid-decision)
        # open the breaker; each conflict aborts.
        for _ in range(2):
            txn = self.fresh_conflict(breaker, budget_factory)
            with pytest.raises(TransactionConflict):
                txn.commit()
        assert breaker.state == OPEN
        # Open breaker: the semantic tier is skipped outright.
        before = skips.value
        txn = self.fresh_conflict(breaker, budget_factory)
        with pytest.raises(TransactionConflict):
            txn.commit()
        assert skips.value == before + 1
        # Half-open probe with a roomy budget reaches a definite
        # verdict, closes the breaker, and the commit goes through.
        clock.advance(30.0)
        cap["max_steps"] = None
        txn = self.fresh_conflict(breaker, budget_factory)
        txn.commit()
        assert breaker.state == CLOSED

    def test_memoized_verdicts_bypass_the_breaker(self):
        """A method the memo already settled commits even through an
        open breaker — dictionary hits cost nothing to protect."""
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1,
            reset_timeout=1000.0,
            name="semantic.memo",
            clock=clock.now,
        )
        breaker.record_failure()
        assert breaker.state == OPEN
        employees, _, newsal = make_company(12)
        instance = tables_to_instance(employees, newsal=newsal)
        store = VersionedStore(instance=instance, breaker=breaker)
        method = scenario_b_method()
        from repro.store.txn import classify_order_independence

        classify_order_independence(method)  # memoize the verdict
        receivers = scenario_b_receivers(store)
        first = store.begin()
        second = store.begin()
        second.evaluate(Rel("Employee.salary"))
        first.apply_method(method, receivers[:6])
        second.apply_method(method, receivers[6:])
        first.commit()
        second.commit()  # memo hit: no breaker consultation, no abort
        assert breaker.state == OPEN  # and no state change either


# ----------------------------------------------------------------------
# run_traced flushes the partial trace (satellite)
# ----------------------------------------------------------------------
class TestRunTracedFlush:
    def test_success_path_unchanged(self, capsys):
        assert run_traced(lambda: 42, "fine", argv=[]) == 42
        assert capsys.readouterr().out == ""

    def test_exception_flushes_the_partial_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"

        def main():
            with trace.span("partial.work", category="test"):
                raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            run_traced(main, "doomed", argv=["--trace", str(out)])
        printed = capsys.readouterr().out
        assert "partial: run raised" in printed
        assert "partial.work" in printed  # the spans up to the failure
        document = json.loads(out.read_text())
        assert any(
            event.get("name") == "partial.work"
            for event in document["traceEvents"]
        )

    def test_exception_without_path_still_prints_the_tree(self, capsys):
        def main():
            with trace.span("lost.otherwise", category="test"):
                raise RuntimeError("die")

        with pytest.raises(RuntimeError):
            run_traced(main, "doomed", argv=["--trace"])
        assert "lost.otherwise" in capsys.readouterr().out
