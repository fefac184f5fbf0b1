"""Experiment: sequential application and order-independence testing
costs (Section 3).

Series:

* ``M(I, s)`` cost as the receiver sequence grows (linear in n — one
  expression evaluation per receiver);
* exhaustive order-independence checking over all n! enumerations vs the
  pairwise transposition check of Lemma 3.3 (n! vs n^2) — the lemma is
  what makes checking practical;
* the (C') fold ``sequential.fold_c``: update (C') of Section 7 folded
  over single-employee receivers (32 at 32 employees, 64 at 400), one
  ``E(I, t)`` through a one-shot query engine per step (no gate).
"""

import pytest

from benchmarks.harness import measure
from repro.algebraic.examples import add_bar_algebraic
from repro.core.independence import (
    is_order_independent_on,
    is_order_independent_on_pairs,
)
from repro.core.receiver import Receiver
from repro.core.sequential import apply_sequence
from repro.graph.builder import InstanceBuilder
from repro.graph.instance import Obj
from repro.graph.schema import drinker_bar_beer_schema
from repro.parallel.apply import apply_sequence_incremental
from repro.sqlsim.scenarios import (
    make_company,
    scenario_c_method,
    tables_to_instance,
)


def star_instance(n_bars):
    builder = InstanceBuilder(drinker_bar_beer_schema())
    builder.node("Drinker", 0).nodes("Bar", range(n_bars))
    return builder.build()


def receivers(n):
    return [
        Receiver([Obj("Drinker", 0), Obj("Bar", i)]) for i in range(n)
    ]


@pytest.mark.parametrize("size", [2, 8, 24])
def test_sequential_fold(benchmark, size):
    method = add_bar_algebraic()
    instance = star_instance(size)
    result = measure(
        benchmark,
        f"sequential.fold[{size}]",
        lambda: apply_sequence(method, instance, receivers(size)),
    )
    assert len(result.edges_labeled("frequents")) == size


@pytest.mark.parametrize("size", [2, 4, 5])
def test_exhaustive_order_independence(benchmark, size):
    # All size! enumerations — only feasible for tiny sets.
    method = add_bar_algebraic()
    instance = star_instance(size)
    assert measure(
        benchmark,
        f"sequential.exhaustive_independence[{size}]",
        lambda: is_order_independent_on(method, instance, receivers(size)),
    )


@pytest.mark.parametrize("size", [2, 5, 10])
def test_pairwise_order_independence(benchmark, size):
    # Lemma 3.3: transpositions suffice — quadratic, not factorial.
    method = add_bar_algebraic()
    instance = star_instance(size)
    assert measure(
        benchmark,
        f"sequential.pairwise_independence[{size}]",
        lambda: is_order_independent_on_pairs(
            method, instance, receivers(size)
        ),
    )


@pytest.mark.parametrize("employees,folded", [(32, 32), (400, 64)])
def test_sequential_fold_scenario_c(benchmark, employees, folded):
    # (C') reads the relation it writes: the order-dependent case the
    # sequential fold exists for.
    method = scenario_c_method()
    table, _, newsal = make_company(employees, seed=7)
    instance = tables_to_instance(table, newsal=newsal)
    sequence = [Receiver([Obj("Employee", row["EmpId"])]) for row in table]
    sequence = sequence[:folded]
    result = measure(
        benchmark,
        f"sequential.fold_c[n{employees}]",
        lambda: apply_sequence(method, instance, sequence),
    )
    # Lemma 6.7: the fold of singleton M_par steps reaches the same state.
    assert result == apply_sequence_incremental(method, instance, sequence)
