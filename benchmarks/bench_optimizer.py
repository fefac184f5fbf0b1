"""Ablation: naive evaluation vs the optimizing evaluator — and the
optimizer-v2 series (stats feedback, plan cache).

DESIGN.md calls out that the paper's "parallel is more efficient" claim
presumes an optimizer.  This ablation quantifies it: the same ``par(E)``
expression for the Section 7 salary update, evaluated by the reference
evaluator (Cartesian products first) and by the hash-join planner.

The optimizer-v2 half measures the skewed-join battery
(:func:`repro.workloads.skewed_join_battery`):

* *plan quality* — per-join ``|log2(actual/estimated)|`` error before
  and after the :class:`StatsCatalog` has learned the correlated-
  predicate correction, plus the session's replan count;
* *plan-cache gate* (``benchmark_acceptance``) — repeated workload
  re-planning hit rate >= 90% with zero replans.
"""

import math

import pytest

from benchmarks.conftest import company_instance_and_receivers, record_timing
from benchmarks.harness import measure
from repro.objrel.mapping import instance_to_database
from repro.parallel.apply import rec_relation
from repro.parallel.transform import REC, par_transform
from repro.relational.cardinality import join_signature
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
# Optimizer v2: stats feedback, plan cache
# ----------------------------------------------------------------------
def _estimate_error(observations, signature):
    """Mean ``|log2(actual/estimated)|`` of the recorded join
    observations matching one condition signature."""
    errors = [
        abs(math.log2((actual + 1.0) / (estimated + 1.0)))
        for observed, estimated, actual in observations
        if observed == signature
    ]
    return sum(errors) / len(errors) if errors else 0.0


def test_plan_quality_feedback():
    """The learned correlated-predicate correction shrinks the estimate
    error of the two-pair (correlated) join on the *next* instance.

    Two batteries with different seeds (so plans cannot be reused and
    greedy planning genuinely re-estimates): the first trains the
    catalog, the second is estimated with the learned correction.  The
    correction is keyed by condition signature, so it transfers across
    instances — exactly the System-R-independence repair the catalog
    exists for.
    """
    signature = join_signature([("fk", "dk"), ("fv", "dv")])
    cache = EngineCache()
    catalog = cache.stats_catalog

    first = skewed_join_battery(rows=20_000, seed=1995)
    engine = QueryEngine(first.database, cache=cache)
    for query in first.queries:
        engine.evaluate(query)
    cold_error = _estimate_error(catalog.recent, signature)
    trained = len(catalog.recent)

    # 2.5x the rows: outside the plan cache's size-compatibility band,
    # so the drift forces a genuine replan — which is exactly when the
    # learned correction gets consulted (and the replan counted).
    second = skewed_join_battery(rows=50_000, seed=1996)
    engine = QueryEngine(second.database, cache=cache)
    for query in second.queries:
        engine.evaluate(query)
    warm_error = _estimate_error(catalog.recent[trained:], signature)

    record_timing("optimizer.estimate_error.cold", cold_error)
    record_timing("optimizer.estimate_error.warm", warm_error)
    record_timing("optimizer.replans", float(engine.stats.replans))

    assert catalog.observations >= 4, "both batteries must train the catalog"
    assert warm_error <= cold_error + 1e-9, (
        f"correction did not improve the correlated-join estimate: "
        f"cold error {cold_error:.3f} bits, warm {warm_error:.3f} bits"
    )


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
