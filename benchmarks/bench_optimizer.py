"""Ablation: naive evaluation vs the optimizing evaluator — and the
optimizer-v2 plan-cache gate.

DESIGN.md calls out that the paper's "parallel is more efficient" claim
presumes an optimizer.  This ablation quantifies it: the same ``par(E)``
expression for the Section 7 salary update, evaluated by the reference
evaluator (Cartesian products first) and by the hash-join planner.

The optimizer-v2 half runs the skewed-join battery
(:func:`repro.workloads.skewed_join_battery`) through the
*plan-cache gate* (``benchmark_acceptance``): repeated workload
re-planning hit rate >= 90% with zero replans.
"""

import pytest

from benchmarks.conftest import company_instance_and_receivers, record_timing
from benchmarks.harness import measure
from repro.objrel.mapping import instance_to_database
from repro.parallel.apply import rec_relation
from repro.parallel.transform import REC, par_transform
from repro.relational.engine import EngineCache, QueryEngine
from repro.relational.algebra import Rename
from repro.relational.evaluate import evaluate as evaluate_naive
from repro.relational.optimizer import evaluate_optimized
from repro.sqlsim.scenarios import scenario_b_method
from repro.workloads import skewed_join_battery

SIZES = [8, 32]


def build_case(size):
    method = scenario_b_method()
    _, _, instance, receivers = company_instance_and_receivers(size)
    body = Rename(
        method.expression("salary"),
        method.output_attribute("salary"),
        "salary",
    )
    transformed = par_transform(
        body, method.object_schema, method.signature
    )
    database = instance_to_database(instance).with_relation(
        REC, rec_relation(method.signature, receivers)
    )
    return transformed, database


@pytest.mark.parametrize("size", SIZES)
def test_naive_evaluation(benchmark, size):
    expr, database = build_case(size)
    result = measure(
        benchmark,
        f"optimizer.naive[{size}]",
        lambda: evaluate_naive(expr, database),
    )
    assert len(result) > 0


@pytest.mark.parametrize("size", SIZES)
def test_optimized_evaluation(benchmark, size):
    expr, database = build_case(size)
    result = measure(
        benchmark,
        f"optimizer.optimized[{size}]",
        lambda: evaluate_optimized(expr, database),
    )
    # Same answers, different plan.
    assert result == evaluate_naive(expr, database)


# ----------------------------------------------------------------------
# Optimizer v2: plan cache
# ----------------------------------------------------------------------
@pytest.mark.benchmark_acceptance
def test_plan_cache_hit_rate_gate():
    """Acceptance: >= 90% plan-cache hit rate, zero replans, on the
    repeated skewed workload (same queries, unchanged base relations)."""
    battery = skewed_join_battery(rows=20_000)
    cache = EngineCache()
    hits = misses = replans = 0
    # Fresh engine per pass (stats are per-engine; the shared cache's
    # memoized results are dropped so every pass re-plans its regions).
    for _ in range(12):
        engine = QueryEngine(battery.database, cache=cache)
        for query in battery.queries:
            engine.evaluate(query)
        hits += engine.stats.plan_cache_hits
        misses += engine.stats.plan_cache_misses
        replans += engine.stats.replans
        cache.forget_results()

    hit_rate = hits / max(1, hits + misses + replans)
    record_timing("optimizer.plan_cache_hit_rate", hit_rate, better="higher")
    assert replans == 0
    assert hit_rate >= 0.9, (
        f"hit rate {hit_rate:.2%} ({hits} hits / {misses} misses)"
    )
