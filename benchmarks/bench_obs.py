"""Observability v2 overhead: tracing, metrics, flight recorder.

The telemetry pipeline only earns its always-on defaults if the
*disabled* paths are free and the *enabled* paths are cheap.  This
suite measures both on the canonical workloads and gates the claims CI
relies on:

* an **overhead series** — the skewed-join battery
  (:func:`repro.workloads.skewed_join_battery`) under every
  combination of tracing and flight recording, recorded as
  ``obs.overhead.*`` so ``BENCH_obs.json`` accumulates the trajectory;
* the **disabled-tracing gate** — unit cost of a disabled
  ``trace.span`` call x the battery's instrumentation crossings must
  stay under 5% of the battery (the same decomposed measurement as
  ``bench_engine.test_disabled_tracing_overhead``, here on the skewed
  battery with the flight recorder in its default ON state);
* the **flight-recorder gates** — the recorder fires at commit
  granularity, so its cost on a transaction workload is
  ``events x unit cost``; both the enabled (deque append under a lock)
  and disabled (one global load) paths must stay under 5% of the
  workload.

Decomposed unit-cost x crossing-count measurement is deliberate: a
direct before/after wall-time diff at these durations is dominated by
scheduler noise and would flap in CI.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import (
    company_instance_and_receivers,
    record_timing,
)
from benchmarks.harness import best_of
from repro.obs import flight
from repro.obs import tracer as trace
from repro.relational.engine import QueryEngine
from repro.store import VersionedStore
from repro.store.txn import run_transaction
from repro.sqlsim.scenarios import scenario_b_method
from repro.workloads import skewed_join_battery

#: Battery size for the overhead runs — large enough that per-call
#: overheads are measured against real work, small enough for CI.
ROWS = 10_000


@pytest.fixture(autouse=True)
def _default_flight_state():
    """Restore the default (enabled) recorder after every test."""
    yield
    flight.enable()


def _battery_runner():
    """The skewed battery as a zero-arg callable (cold engine per run)."""
    battery = skewed_join_battery(rows=ROWS, classes=32)

    def run():
        engine = QueryEngine(battery.database)
        for query in battery.queries:
            engine.evaluate(query)

    return run


def test_overhead_series():
    """The enabled-vs-disabled overhead trajectory on the skewed battery.

    Four configurations of (tracing, flight recorder); the series land
    in ``BENCH_obs.json`` so the regression sentinel can flag an
    instrumentation path that got expensive.
    """
    assert trace.active() is None, "tracing must start disabled"
    run = _battery_runner()
    run()  # warm the shared-schema caches out of the measurement

    flight.disable()
    baseline = best_of(run)
    record_timing("obs.overhead.baseline", baseline)

    flight.enable()
    flight_on = best_of(run)
    record_timing("obs.overhead.flight_on", flight_on)

    with trace.tracing():
        tracing_on = best_of(run)
    record_timing("obs.overhead.tracing_on", tracing_on)

    flight.enable()
    with trace.tracing():
        both_on = best_of(run)
    record_timing("obs.overhead.tracing_and_flight", both_on)

    # Sanity, not a tight gate (wall-clock noise): enabling everything
    # must not blow the battery up by an order of magnitude.
    assert both_on < 10 * baseline


@pytest.mark.benchmark_acceptance
def test_disabled_tracing_overhead_with_flight_default():
    """Gate: tracing off (flight recorder at its ON default) < 5%.

    Decomposed: battery wall time, x crossings counted under a live
    tracer, x the microbenched unit cost of a disabled ``span()``.
    """
    assert trace.active() is None, "tracing must be disabled here"
    assert flight.active() is not None, "flight recorder defaults ON"
    run = _battery_runner()
    run()

    disabled_seconds = best_of(run)

    with trace.tracing() as tracer:
        run()
        crossings = len(tracer.spans) + len(tracer.events)
    assert crossings > 0, "the battery crosses no instrumentation"

    loops = 100_000
    start = time.perf_counter()
    for _ in range(loops):
        trace.span("overhead.probe", category="bench", rows=ROWS)
    noop_seconds = (time.perf_counter() - start) / loops

    overhead = noop_seconds * crossings
    record_timing("obs.tracing_gate.disabled_battery", disabled_seconds)
    record_timing("obs.tracing_gate.noop_call", noop_seconds)
    record_timing("obs.tracing_gate.disabled_overhead", overhead)

    assert overhead < 0.05 * disabled_seconds, (
        f"disabled tracing costs {overhead:.6f}s "
        f"({crossings} call sites x {noop_seconds * 1e9:.0f}ns) — "
        f"over 5% of the {disabled_seconds:.6f}s battery"
    )


@pytest.mark.benchmark_acceptance
def test_flight_recorder_overhead():
    """Gate: the flight recorder < 5% of a commit workload, ON or OFF.

    The recorder fires at commit/transition granularity, so the honest
    measure is events-per-workload x unit cost.  Both states gate: the
    enabled path (deque append under a lock) justifies the always-on
    default, the disabled path (one global load + ``is None``) matches
    the tracing discipline.
    """
    _, _, instance, receivers = company_instance_and_receivers(64)
    method = scenario_b_method()

    def commit_workload():
        store = VersionedStore(instance=instance)
        for start in range(0, len(receivers), 8):
            batch = receivers[start : start + 8]
            run_transaction(
                store, lambda txn: txn.apply_method(method, batch)
            )

    # Count the flight events one workload run generates.
    recorder = flight.enable(flight.FlightRecorder())
    commit_workload()
    events = len(recorder) + recorder.dropped
    assert events > 0, "the commit workload records no flight events"

    workload_seconds = best_of(commit_workload)

    loops = 50_000
    probe = flight.enable(flight.FlightRecorder())
    start = time.perf_counter()
    for _ in range(loops):
        flight.record("overhead.probe", site="bench", value=1)
    enabled_unit = (time.perf_counter() - start) / loops
    assert len(probe) + probe.dropped == loops

    flight.disable()
    start = time.perf_counter()
    for _ in range(loops):
        flight.record("overhead.probe", site="bench", value=1)
    disabled_unit = (time.perf_counter() - start) / loops

    enabled_overhead = enabled_unit * events
    disabled_overhead = disabled_unit * events
    record_timing("obs.flight_gate.workload", workload_seconds)
    record_timing("obs.flight_gate.enabled_unit", enabled_unit)
    record_timing("obs.flight_gate.disabled_unit", disabled_unit)
    record_timing("obs.flight_gate.enabled_overhead", enabled_overhead)
    record_timing("obs.flight_gate.disabled_overhead", disabled_overhead)

    assert enabled_overhead < 0.05 * workload_seconds, (
        f"flight recording costs {enabled_overhead:.6f}s "
        f"({events} events x {enabled_unit * 1e9:.0f}ns) — over 5% of "
        f"the {workload_seconds:.6f}s commit workload"
    )
    assert disabled_overhead < 0.05 * workload_seconds, (
        f"disabled flight path costs {disabled_overhead:.6f}s — over "
        f"5% of the {workload_seconds:.6f}s commit workload"
    )
