"""Ablation: naive evaluation vs the optimizing evaluator.

DESIGN.md calls out that the paper's "parallel is more efficient" claim
presumes an optimizer.  This ablation quantifies it: the same ``par(E)``
expression for the Section 7 salary update, evaluated by the reference
evaluator (Cartesian products first) and by the hash-join planner.
"""

import pytest

from benchmarks.conftest import company_instance_and_receivers
from benchmarks.harness import measure
from repro.objrel.mapping import instance_to_database
from repro.parallel.apply import rec_relation
from repro.parallel.transform import REC, par_transform
from repro.relational.algebra import Rename
from repro.relational.evaluate import evaluate as evaluate_naive
from repro.relational.optimizer import evaluate_optimized
from repro.sqlsim.scenarios import scenario_b_method

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
