"""Experiment: degradation latency and overhead of the resilience layer.

The escalation ladder (DESIGN.md) trades latency for certainty: a
budgeted decision that runs out of time answers ``UNKNOWN``, and the
adaptive applicator degrades to the paper-correct sequential fold.
This suite measures both sides of that trade on the Section 7 salary
update (B'):

* ``resilience.decision_budgeted`` vs ``resilience.decision_unbudgeted``
  — the keyed decision with and without a roomy budget installed (same
  verdict; the budget's cooperative ticks are the only difference);
* ``resilience.decision_unknown[steps]`` — time-to-``UNKNOWN`` as the
  step cap shrinks, and ``resilience.decision_unknown_deadline`` for a
  wall-clock cap: the degradation-latency curve EXPERIMENTS.md records
  (cutting off earlier must *cost less*, or UNKNOWN is no refuge);
* ``resilience.adaptive_parallel[n]`` vs
  ``resilience.adaptive_degraded[n]`` — ``apply_adaptive`` under a
  definite verdict vs a forced ``UNKNOWN`` (sequential fallback),
  differentially asserted to produce the identical final state;
* ``resilience.adaptive_degraded_dependent[n]`` — the order-dependent
  update (C′), one single-object receiver per employee, which
  ``apply_adaptive`` must fold sequentially (verdict ``dependent``);
  asserted equal to ``apply_sequence``.

Series names all start with ``resilience.`` so
``conftest.pytest_sessionfinish`` routes them to ``BENCH_resilience.json``
(env ``BENCH_RESILIENCE_JSON``).

Acceptance gate (marked ``benchmark_acceptance``):
``test_disabled_resilience_overhead`` — with no budget installed and no
fault plan active, the cooperative ticks and fault points the decision
battery crosses must cost < 5% of the battery.  Crossings are counted
exactly (an unbounded :class:`Budget` counts every tick; an empty
:class:`FaultPlan` counts every fault-point hit), and the disabled unit
costs are microbenchmarked in situ — same decomposition as the tracer's
overhead gate.
"""

import time

import pytest

from benchmarks.conftest import company_instance_and_receivers, record_timing
from benchmarks.harness import best_of, measure
from repro.algebraic import decision
from repro.algebraic.decision import (
    UNKNOWN,
    decide_key_order_independence,
    decide_key_order_independence_budgeted,
)
from repro.core.receiver import Receiver
from repro.core.sequential import apply_sequence
from repro.parallel.apply import apply_adaptive
from repro.resilience import budget as resilience_budget
from repro.resilience.budget import Budget
from repro.resilience.faults import FaultPlan, fault_point
from repro.sqlsim.scenarios import scenario_b_method, scenario_c_method

SIZES = [8, 32]
DEPENDENT_SIZES = [8, 16, 24]
STEP_CAPS = [1, 8, 64]


def test_decision_unbudgeted(benchmark):
    method = scenario_b_method()
    result = measure(
        benchmark,
        "resilience.decision_unbudgeted",
        lambda: decide_key_order_independence(method),
    )
    assert result.order_independent


def test_decision_budgeted_roomy(benchmark):
    """A roomy budget must not change the verdict — only add tick cost."""
    method = scenario_b_method()
    reference = decide_key_order_independence(method)

    def budgeted():
        return decide_key_order_independence_budgeted(
            method, budget=Budget(seconds=30.0)
        )

    outcome = measure(
        benchmark, "resilience.decision_budgeted", budgeted
    )
    assert outcome.definite
    assert (
        outcome.result.order_independent == reference.order_independent
    )


@pytest.mark.parametrize("steps", STEP_CAPS)
def test_decision_unknown_latency(benchmark, steps):
    """Time-to-UNKNOWN under a shrinking step cap.

    A budget is single-use (once exhausted it keeps raising), so each
    measured call builds a fresh one — that construction is part of the
    degradation latency a caller actually pays.
    """
    method = scenario_b_method()

    def capped():
        return decide_key_order_independence_budgeted(
            method, budget=Budget(max_steps=steps)
        )

    outcome = measure(
        benchmark, f"resilience.decision_unknown[{steps}]", capped
    )
    assert outcome.verdict == UNKNOWN
    assert not outcome.definite


def test_decision_unknown_deadline(benchmark):
    """A wall-clock cap answers UNKNOWN promptly, not after the full run."""
    method = scenario_b_method()
    deadline = 0.005

    def capped():
        return decide_key_order_independence_budgeted(
            method, budget=Budget(seconds=deadline)
        )

    start = time.perf_counter()
    outcome = capped()
    elapsed = time.perf_counter() - start
    record_timing("resilience.decision_unknown_deadline", elapsed)
    assert outcome.verdict == UNKNOWN
    # Generous slack: the bound is "about the deadline", not the
    # unbudgeted runtime.  One cooperative step past the deadline plus
    # scheduler noise stays well under 50x on any machine.
    assert elapsed < deadline * 50 + 0.25
    measure(benchmark, "resilience.decision_unknown_deadline", capped)


@pytest.mark.parametrize("size", SIZES)
def test_adaptive_parallel(benchmark, size):
    """The licensed path: a definite verdict keeps M_par's fan-out."""
    method = scenario_b_method()
    _, _, instance, receivers = company_instance_and_receivers(size)
    reference = apply_sequence(method, instance, receivers)
    result = measure(
        benchmark,
        f"resilience.adaptive_parallel[{size}]",
        lambda: apply_adaptive(
            method, instance, receivers,
            verdict=decision.KEY_INDEPENDENT,
        ),
    )
    assert result == reference


@pytest.mark.parametrize("size", SIZES)
def test_adaptive_degraded(benchmark, size):
    """The degraded path: UNKNOWN falls back to the sequential fold —
    slower, but the final state is identical."""
    method = scenario_b_method()
    _, _, instance, receivers = company_instance_and_receivers(size)
    reference = apply_sequence(method, instance, receivers)
    result = measure(
        benchmark,
        f"resilience.adaptive_degraded[{size}]",
        lambda: apply_adaptive(
            method, instance, receivers, verdict=decision.UNKNOWN
        ),
    )
    assert result == reference


@pytest.mark.parametrize("size", DEPENDENT_SIZES)
def test_adaptive_degraded_dependent(benchmark, size):
    """(C′) is order dependent: the fold runs one singleton ``M_par``
    step per receiver, and must equal the reference fold."""
    method = scenario_c_method()
    _, _, instance, receivers = company_instance_and_receivers(size)
    receivers = [Receiver([r.objects[0]]) for r in receivers]
    reference = apply_sequence(method, instance, receivers)
    result = measure(
        benchmark,
        f"resilience.adaptive_degraded_dependent[{size}]",
        lambda: apply_adaptive(
            method, instance, receivers, verdict=decision.DEPENDENT
        ),
    )
    assert result == reference


# ----------------------------------------------------------------------
# Acceptance gate
# ----------------------------------------------------------------------
@pytest.mark.benchmark_acceptance
def test_disabled_resilience_overhead():
    """Acceptance: disabled ticks + fault points cost < 5% of the battery.

    Decomposed like the tracer gate so the assert is robust across
    machines: measure the keyed-decision battery with resilience fully
    disabled, count the cooperative ticks and fault-point hits the
    battery actually crosses, microbenchmark the disabled unit costs,
    and assert ``sum(unit cost x crossings)`` under 5% of the battery.
    """
    assert resilience_budget.current() is None
    method = scenario_b_method()

    def battery():
        decide_key_order_independence(method)

    disabled_seconds = best_of(battery)

    # Exact crossing counts: an unbounded budget charges every tick to
    # its step ledger; an empty plan records every fault-point hit.
    counting = Budget()
    with counting:
        battery()
    ticks = counting.steps
    plan = FaultPlan()
    with plan.installed():
        battery()
    fault_hits = sum(plan.hits.values())
    assert ticks > 0, "the battery crosses no budget ticks"
    assert fault_hits > 0, "the battery crosses no fault points"

    loops = 100_000
    start = time.perf_counter()
    for _ in range(loops):
        resilience_budget.tick("overhead.probe")
    tick_seconds = (time.perf_counter() - start) / loops
    start = time.perf_counter()
    for _ in range(loops):
        fault_point("overhead.probe")
    fault_seconds = (time.perf_counter() - start) / loops

    overhead = tick_seconds * ticks + fault_seconds * fault_hits
    record_timing("resilience.overhead.disabled_battery", disabled_seconds)
    record_timing("resilience.overhead.tick_noop", tick_seconds)
    record_timing("resilience.overhead.fault_point_noop", fault_seconds)
    record_timing("resilience.overhead.disabled_total", overhead)

    assert overhead < 0.05 * disabled_seconds, (
        f"disabled resilience costs {overhead:.6f}s "
        f"({ticks} ticks x {tick_seconds * 1e9:.0f}ns + "
        f"{fault_hits} fault points x {fault_seconds * 1e9:.0f}ns) — "
        f"over 5% of the {disabled_seconds:.6f}s battery"
    )
