"""Ablation: the cost and payoff of conjunctive-query minimization.

Series: time to minimize the improver's combined expressions (a one-off
compile-time cost) and the resulting evaluation speedup (fewer joins at
run time, each evaluation through a one-shot query engine) for the
Section 7 salary update.
"""

import pytest

from benchmarks.conftest import company_instance_and_receivers
from benchmarks.harness import measure
from repro.objrel.mapping import instance_to_database, schema_dependencies
from repro.parallel.improver import improve
from repro.parallel.minimizer import minimize_positive_expression
from repro.relational.engine import QueryEngine
from repro.sqlsim.scenarios import scenario_b_method, scenario_b_receiver_query


@pytest.fixture(scope="module")
def raw_improved():
    return improve(
        scenario_b_method(),
        scenario_b_receiver_query(),
        do_minimize=False,
    )


@pytest.fixture(scope="module")
def minimized_improved():
    return improve(scenario_b_method(), scenario_b_receiver_query())


def test_minimization_cost(benchmark, raw_improved):
    method = scenario_b_method()
    from repro.objrel.mapping import schema_to_database_schema

    db_schema = schema_to_database_schema(method.object_schema)
    deps = schema_dependencies(method.object_schema)
    expr = raw_improved.expressions["salary"]
    result = measure(
        benchmark,
        "minimizer.minimization_cost",
        lambda: minimize_positive_expression(expr, db_schema, deps),
    )
    assert result is not None


@pytest.mark.parametrize("size", [32, 96])
def test_evaluate_unminimized(benchmark, raw_improved, size):
    _, _, instance, _ = company_instance_and_receivers(size)
    database = instance_to_database(instance)
    expr = raw_improved.expressions["salary"]
    result = measure(
        benchmark,
        f"minimizer.evaluate_unminimized[{size}]",
        lambda: QueryEngine(database).evaluate(expr),
    )
    assert len(result) > 0


@pytest.mark.parametrize("size", [32, 96])
def test_evaluate_minimized(benchmark, minimized_improved, size):
    _, _, instance, _ = company_instance_and_receivers(size)
    database = instance_to_database(instance)
    expr = minimized_improved.expressions["salary"]
    result = measure(
        benchmark,
        f"minimizer.evaluate_minimized[{size}]",
        lambda: QueryEngine(database).evaluate(expr),
    )
    assert len(result) > 0
