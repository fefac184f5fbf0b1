"""Experiment: the memoizing engine on the Section 6 workload.

Paper claim (Section 6): the parallel application is "defined in terms
of one single relational algebra expression per property to be updated;
this expression can be optimized and is then executed only once".  The
engine makes "executed only once" literal: within one database state,
every structurally shared subtree — and on re-evaluation the whole
expression — is served from the memo cache.

Series:

* cold-cache vs warm-cache evaluation of the ``par(E)`` statement
  expressions of the Section 7 salary update (B'), as the company grows;
* the seq-vs-par ablation: sequential application, parallel application
  through the engine, and the parallel statements evaluated by the
  non-memoizing ``evaluate_optimized`` path (memoization off);
* cross-state reuse: after a single *written* edge changes (an
  ``Employee.salary`` edge — what the update itself writes; the
  statements' read set is untouched), a fresh engine over the new state
  with the shared :class:`EngineCache` serves every subtree from the
  fingerprint-keyed memo;
* the sequential fold ``apply_sequence_incremental``: singleton
  ``M_par`` steps through the store's write path, one shared cache,
  against the graph fold ``apply_sequence``;
* fresh-version query misses (``engine.query_fresh.<shape>[n2000]``):
  the end-to-end ``mgr3`` and ``newsal`` shapes through a store engine
  with the shared cache, on the version right after a (B') commit at
  2,000 employees (no gate).

Acceptance gates (marked ``benchmark_acceptance``, hand-timed so the
numbers survive ``--benchmark-disable``): ``test_warm_cache_speedup``
(warm ``M_par`` >= 2x ``evaluate_optimized``) and
``test_cross_state_speedup`` (warm cross-state re-evaluation after a
one-edge update >= 3x a cold engine), both with results differentially
checked against the naive and optimizing evaluators.
"""

import time

import pytest

from benchmarks.conftest import company_instance_and_receivers, record_timing
from benchmarks.harness import best_of, measure
from repro.obs import tracer as trace
from repro.core.sequential import apply_sequence
from repro.parallel.apply import (
    apply_parallel,
    apply_sequence_incremental,
    parallel_database,
    parallel_statement_expression,
)
from repro.relational.algebra import Rel
from repro.relational.delta import RelationDelta
from repro.relational.engine import EngineCache, QueryEngine
from repro.relational.evaluate import evaluate as evaluate_naive
from repro.relational.optimizer import evaluate_optimized
from repro.relational.parser import parse_expression
from repro.server.testing import company_store
from repro.sqlsim.scenarios import scenario_b_method
from repro.store import run_transaction

SIZES = [8, 32, 96]


def one_written_edge_delta(database):
    """A single-edge change to the update's *write set*.

    Deleting one ``Employee.salary`` edge models what an application of
    the salary update actually does to the object base; the ``par(E)``
    statements read only ``NewSal.new``/``NewSal.old``/``rec``, so their
    base fingerprints are unchanged and a warm shared cache can serve
    the whole battery.
    """
    row = min(database.relation("Employee.salary").tuples)
    return {"Employee.salary": RelationDelta(deleted=frozenset({row}))}


def par_workload(size):
    """Database + par(E) statement expressions for the (B') update."""
    method = scenario_b_method()
    _, _, instance, receivers = company_instance_and_receivers(size)
    database = parallel_database(method, instance, receivers)
    exprs = [
        parallel_statement_expression(method, label)
        for label in method.updated_properties
    ]
    return method, instance, receivers, database, exprs


@pytest.mark.parametrize("size", SIZES)
def test_cold_cache_engine(benchmark, size):
    _, _, _, database, exprs = par_workload(size)
    reference = [evaluate_naive(expr, database) for expr in exprs]

    def cold():
        engine = QueryEngine(database)
        return [engine.evaluate(expr) for expr in exprs]

    results = measure(benchmark, f"engine.cold_cache[{size}]", cold)
    assert results == reference


@pytest.mark.parametrize("size", SIZES)
def test_warm_cache_engine(benchmark, size):
    _, _, _, database, exprs = par_workload(size)
    engine = QueryEngine(database)
    for expr in exprs:
        engine.evaluate(expr)
    reference = [evaluate_naive(expr, database) for expr in exprs]

    results = measure(
        benchmark,
        f"engine.warm_cache[{size}]",
        lambda: [engine.evaluate(expr) for expr in exprs],
    )
    assert results == reference
    assert engine.stats.cache_hits > 0


@pytest.mark.parametrize("size", SIZES)
def test_ablation_parallel_with_engine(benchmark, size):
    method, instance, receivers, _, _ = par_workload(size)
    result = measure(
        benchmark,
        f"engine.ablation_parallel[{size}]",
        lambda: apply_parallel(method, instance, receivers),
    )
    assert result == apply_sequence(method, instance, receivers)


@pytest.mark.parametrize("size", SIZES)
def test_ablation_parallel_without_memoization(benchmark, size):
    # The same par(E) statement evaluations, through the one-shot
    # optimizing evaluator: pushdown and hash joins, but no caching.
    _, _, _, database, exprs = par_workload(size)
    reference = [evaluate_naive(expr, database) for expr in exprs]
    results = measure(
        benchmark,
        f"engine.ablation_no_memo[{size}]",
        lambda: [evaluate_optimized(expr, database) for expr in exprs],
    )
    assert results == reference


@pytest.mark.parametrize("size", SIZES)
def test_ablation_sequential(benchmark, size):
    method, instance, receivers, _, _ = par_workload(size)
    result = measure(
        benchmark,
        f"engine.ablation_sequential[{size}]",
        lambda: apply_sequence(method, instance, receivers),
    )
    assert result is not None


# ----------------------------------------------------------------------
# Cross-state reuse and the sequential fold
# ----------------------------------------------------------------------
@pytest.mark.parametrize("size", SIZES)
def test_cross_state_warm_engine(benchmark, size):
    """Fresh engine over the post-update state, shared cache warm from
    the pre-update state: every statement is a fingerprint-keyed hit."""
    _, _, _, database, exprs = par_workload(size)
    cache = EngineCache()
    engine = QueryEngine(database, cache=cache)
    for expr in exprs:
        engine.evaluate(expr)
    updated = database.apply_delta(one_written_edge_delta(database))
    reference = [evaluate_naive(expr, updated) for expr in exprs]

    def warm_cross_state():
        fresh = QueryEngine(updated, cache=cache)
        return [fresh.evaluate(expr) for expr in exprs]

    results = measure(
        benchmark, f"engine.cross_state_warm[{size}]", warm_cross_state
    )
    assert results == reference
    probe = QueryEngine(updated, cache=cache)
    for expr in exprs:
        probe.evaluate(expr)
    assert probe.stats.cross_state_hits > 0


@pytest.mark.parametrize("size", SIZES)
def test_ablation_incremental_sequence(benchmark, size):
    """End-to-end M(I, t1..tn) as a fold of singleton-M_par steps."""
    method, instance, receivers, _, _ = par_workload(size)
    result = measure(
        benchmark,
        f"engine.incremental_sequence[{size}]",
        lambda: apply_sequence_incremental(method, instance, receivers),
    )
    assert result == apply_sequence(method, instance, receivers)


#: The end-to-end query shapes whose fresh-version misses are timed.
FRESH_QUERIES = {
    "mgr3": (
        "pi[Employee, gsal]((Employee.manager"
        " * rho[Employee->M](rho[manager->G](Employee.manager))"
        " * rho[Employee->G2](rho[salary->gsal](Employee.salary)))"
        " : manager=M, G=G2)"
    ),
    "newsal": (
        "pi[Employee, new]((Employee.salary"
        " * pi[old, new]((NewSal.old * rho[NewSal->NS2](NewSal.new))"
        " : NewSal=NS2)) : salary=old)"
    ),
}
#: Timed (B') commits per fresh-query series point (the minimum counts).
FRESH_ROUNDS = 6


def mgr3_by_hash_join(database):
    """``mgr3``'s rows from a hash join of the naively evaluated
    factors: a direct evaluation would be a product of 8e9 tuples."""
    manager, salary = {}, {}
    for emp, boss in evaluate_naive(Rel("Employee.manager"), database):
        manager.setdefault(emp, []).append(boss)
    for emp, money in evaluate_naive(Rel("Employee.salary"), database):
        salary.setdefault(emp, []).append(money)
    return {
        (emp, money)
        for emp, bosses in manager.items()
        for boss in bosses
        for grand in manager.get(boss, ())
        for money in salary.get(grand, ())
    }


def test_query_fresh_series():
    """``mgr3`` and ``newsal`` on the version right after a (B') commit
    at 2,000 employees, each through a new store engine sharing the
    cache (the end-to-end miss), checked against reference evaluations."""
    store, receivers = company_store(n_employees=2000, seed=7)
    method = scenario_b_method()
    exprs = {
        shape: parse_expression(text) for shape, text in FRESH_QUERIES.items()
    }
    for expr in exprs.values():  # warm the shared cache, as served
        store.engine().evaluate(expr)
    times = {shape: [] for shape in exprs}
    for round_index in range(FRESH_ROUNDS):
        batch = receivers[8 * round_index : 8 * round_index + 8]
        _, version = run_transaction(
            store, lambda txn: txn.apply_method(method, batch)
        )
        assert "Employee.salary" in version.changes
        results = {}
        for shape, expr in exprs.items():
            engine = store.engine()
            start = time.perf_counter()
            results[shape] = engine.evaluate(expr)
            times[shape].append(time.perf_counter() - start)
        database = version.database
        assert results["mgr3"].tuples == mgr3_by_hash_join(database)
        assert results["newsal"] == evaluate_naive(exprs["newsal"], database)
    for shape, values in times.items():
        record_timing(f"engine.query_fresh.{shape}[n2000]", min(values))


# ----------------------------------------------------------------------
# Acceptance gates
# ----------------------------------------------------------------------
@pytest.mark.benchmark_acceptance
def test_warm_cache_speedup():
    """Acceptance: warm-cache M_par >= 2x faster than evaluate_optimized,
    identical results."""
    _, _, _, database, exprs = par_workload(96)
    engine = QueryEngine(database)
    for expr in exprs:
        engine.evaluate(expr)
    for expr in exprs:
        warm = engine.evaluate(expr)
        assert warm == evaluate_naive(expr, database)
        assert warm == evaluate_optimized(expr, database)

    repetitions = 5

    def optimizer_battery():
        for _ in range(repetitions):
            for expr in exprs:
                evaluate_optimized(expr, database)

    def warm_battery():
        for _ in range(repetitions):
            for expr in exprs:
                engine.evaluate(expr)

    optimizer_seconds = best_of(optimizer_battery)
    warm_seconds = best_of(warm_battery)
    record_timing("warm_cache_96.evaluate_optimized", optimizer_seconds)
    record_timing("warm_cache_96.engine_warm", warm_seconds)

    assert warm_seconds * 2 <= optimizer_seconds, (
        f"warm cache {warm_seconds:.6f}s not 2x faster than "
        f"evaluate_optimized {optimizer_seconds:.6f}s"
    )


@pytest.mark.benchmark_acceptance
def test_cross_state_speedup():
    """Acceptance: after one written-edge update, a fresh engine with the
    warm shared cache beats a cold engine >= 3x, identical results."""
    _, _, _, database, exprs = par_workload(96)
    cache = EngineCache()
    engine = QueryEngine(database, cache=cache)
    for expr in exprs:
        engine.evaluate(expr)

    updated = database.apply_delta(one_written_edge_delta(database))
    reference = [evaluate_naive(expr, updated) for expr in exprs]
    assert reference == [
        evaluate_optimized(expr, updated) for expr in exprs
    ]

    def cold_battery():
        fresh = QueryEngine(updated)
        return [fresh.evaluate(expr) for expr in exprs]

    def warm_battery():
        fresh = QueryEngine(updated, cache=cache)
        return [fresh.evaluate(expr) for expr in exprs]

    assert cold_battery() == reference
    assert warm_battery() == reference

    cold_seconds = best_of(cold_battery)
    warm_seconds = best_of(warm_battery)
    record_timing("cross_state_96.cold", cold_seconds)
    record_timing("cross_state_96.warm", warm_seconds)

    assert warm_seconds * 3 <= cold_seconds, (
        f"cross-state warm cache {warm_seconds:.6f}s not 3x faster "
        f"than cold engine {cold_seconds:.6f}s"
    )


@pytest.mark.benchmark_acceptance
def test_disabled_tracing_overhead():
    """Acceptance: disabled tracing costs < 5% of the canonical battery.

    Decomposed so the gate is robust across machines: measure the
    battery with tracing disabled, count the instrumentation call sites
    the battery actually crosses (by running it once under a live
    tracer), microbenchmark the unit cost of a disabled ``span()``
    call in situ, and assert ``unit cost x crossings`` under 5% of the
    battery.  A direct before/after diff of two wall times would be
    dominated by scheduler noise at these durations.
    """
    assert trace.active() is None, "tracing must be disabled here"
    _, _, _, database, exprs = par_workload(96)
    engine = QueryEngine(database)
    for expr in exprs:
        engine.evaluate(expr)

    repetitions = 5

    def warm_battery():
        for _ in range(repetitions):
            for expr in exprs:
                engine.evaluate(expr)

    disabled_seconds = best_of(warm_battery)

    # Every span/event the battery would emit is one disabled-path call.
    with trace.tracing() as tracer:
        enabled_seconds = best_of(warm_battery)
        crossings = len(tracer.spans) + len(tracer.events)
    assert crossings > 0, "the battery crosses no instrumentation"
    # best_of ran the battery twice; charge the per-run crossing count.
    crossings //= 2

    loops = 100_000
    start = time.perf_counter()
    for _ in range(loops):
        trace.span("overhead.probe", category="bench", size=96)
    noop_seconds = (time.perf_counter() - start) / loops

    overhead = noop_seconds * crossings
    record_timing("tracing_overhead_96.disabled_battery", disabled_seconds)
    record_timing("tracing_overhead_96.enabled_battery", enabled_seconds)
    record_timing("tracing_overhead_96.noop_call", noop_seconds)
    record_timing("tracing_overhead_96.disabled_overhead", overhead)

    assert overhead < 0.05 * disabled_seconds, (
        f"disabled tracing costs {overhead:.6f}s "
        f"({crossings} call sites x {noop_seconds * 1e9:.0f}ns) — "
        f"over 5% of the {disabled_seconds:.6f}s battery"
    )
