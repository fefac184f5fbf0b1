"""Experiment: the network front end under load, shedding on vs off.

Two kinds of measurement:

* **Closed-loop costs** — round-trip latency of a pipelined ``ping``
  train and of ``apply_batch`` carrying the Section 7 (B') raise over
  the wire (``server.rtt.*``, ``server.apply_batch``): what one
  request costs when the server is idle.  ``server.query.scan2000.*``
  times a 2,000-row ``Employee.salary`` reply: ``fresh`` right after a
  write (the engine evaluates and the rows are encoded), ``repeat``
  the same query again (the engine's memo and the connection's reply
  memo both hit).  ``server.preencode_rows[n2000]`` times the encoder
  of such a reply in process, with no server (no gate).

* **Open-loop overload** (``server.load.*``) — a seeded open-loop
  generator issues requests at a fixed arrival rate ~4x the server's
  service capacity (one handler slot, deterministic ``delay_ms``
  service time), *without* waiting for responses — the arrival process
  does not slow down when the server does, which is what makes
  overload overload.  Run twice: admission control **on** (queue
  high-water bounds the backlog; excess arrivals shed typed
  ``OVERLOADED``) and **off** (every arrival queues).  Per-request
  latency is measured client-side from submit to response, split into
  admitted (completed) vs shed.

Series names all start with ``server.`` so ``conftest``'s session hook
routes them to ``BENCH_server.json`` (env ``BENCH_SERVER_JSON``).
Latency-like values are recorded in seconds; throughput is recorded as
*seconds per completed transaction* (``server.load.txn_cost.*``) so
"lower is better" holds for every series ``regress.py`` watches.

Acceptance gate (``benchmark_acceptance``):
``test_admission_ablation_gate`` — with shedding on, p99 latency of
*admitted* requests must beat the shedding-off p99 by >= 2x, while
completed-transaction throughput stays within 10% of the unshedded
arm, both compared on the median of three alternating runs per arm.  That is the whole point of the ladder: the server gives up
capacity it never had, and the requests it does accept keep their
latency.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import time
from typing import Dict, List

import pytest

from benchmarks.conftest import record_timing
from benchmarks.harness import best_of
from repro.relational.parser import parse_expression
from repro.server import protocol
from repro.server.admission import AdmissionController
from repro.server.client import ServerError, connect
from repro.server.server import ReproServer
from repro.server.testing import company_store, standard_methods

# Open-loop shape: one handler slot with SERVICE_MS deterministic
# service time gives capacity 1000/SERVICE_MS req/s; arrivals come at
# OVERDRIVE times that.  REQUESTS is sized so the unshedded backlog
# grows well past the shed arm's high-water bound.
SERVICE_MS = 2.0
OVERDRIVE = 4.0
REQUESTS = 240
QUEUE_HIGH_WATER = 8
#: Runs per arm of the ablation gate, alternating on/off.
ABLATION_RUNS = 3


def percentile(values: List[float], fraction: float) -> float:
    ordered = sorted(values)
    index = min(
        len(ordered) - 1, int(round(fraction * (len(ordered) - 1)))
    )
    return ordered[index]


def open_loop_run(enabled: bool) -> Dict[str, float]:
    """One overload run; returns latency and throughput aggregates."""
    store, _ = company_store(n_employees=4, seed=7)
    admission = AdmissionController(
        queue_high_water=QUEUE_HIGH_WATER,
        retry_after_ms=5.0,
        enabled=enabled,
    )
    interval = SERVICE_MS / 1000.0 / OVERDRIVE

    async def run() -> Dict[str, float]:
        async with ReproServer(
            store,
            standard_methods(),
            port=0,
            admission=admission,
            handler_threads=1,
        ) as server:
            client = await connect("127.0.0.1", server.port)
            loop = asyncio.get_running_loop()

            async def timed(future: "asyncio.Future", start: float):
                """(submit-to-response latency, None) on success,
                (None, error) on a shed."""
                try:
                    await future
                except ServerError as exc:
                    return None, exc
                return loop.time() - start, None

            try:
                tasks = []
                first = loop.time()
                for i in range(REQUESTS):
                    # Open loop: issue on the arrival schedule no
                    # matter how far behind the server is.
                    target = first + i * interval
                    delay = target - loop.time()
                    if delay > 0:
                        await asyncio.sleep(delay)
                    start = loop.time()
                    tasks.append(
                        asyncio.ensure_future(
                            timed(
                                client.submit(
                                    "ping",
                                    {
                                        "payload": i,
                                        "delay_ms": SERVICE_MS,
                                    },
                                ),
                                start,
                            )
                        )
                    )
                outcomes = await asyncio.gather(*tasks)
                finished = loop.time()
            finally:
                await client.close()
        latencies = [lat for lat, err in outcomes if lat is not None]
        shed = [err for lat, err in outcomes if err is not None]
        elapsed = finished - first
        return {
            "p50": percentile(latencies, 0.50),
            "p95": percentile(latencies, 0.95),
            "p99": percentile(latencies, 0.99),
            "completed": float(len(latencies)),
            "shed": float(len(shed)),
            "txn_per_s": len(latencies) / elapsed,
            "txn_cost": elapsed / len(latencies),
        }

    try:
        return asyncio.run(run())
    finally:
        store.close()


def test_rtt_ping():
    """Idle round-trip of a 32-deep pipelined ping train."""
    store, _ = company_store(n_employees=4, seed=7)

    async def run() -> None:
        async with ReproServer(
            store, standard_methods(), port=0
        ) as server:
            client = await connect("127.0.0.1", server.port)
            try:
                futures = [
                    client.submit("ping", {"payload": i})
                    for i in range(32)
                ]
                results = await asyncio.gather(*futures)
                assert [r["payload"] for r in results] == list(
                    range(32)
                )
            finally:
                await client.close()

    try:
        record_timing(
            "server.rtt.pipelined_ping32", best_of(lambda: asyncio.run(run()))
        )
    finally:
        store.close()


def test_apply_batch_over_the_wire():
    """The (B') raise as a wire transaction, against fresh stores."""

    def run_once() -> None:
        store, receivers = company_store(n_employees=32, seed=7)

        async def run() -> None:
            async with ReproServer(
                store, standard_methods(), port=0
            ) as server:
                client = await connect("127.0.0.1", server.port)
                try:
                    result = await client.apply_batch(
                        "raise_salary", receivers
                    )
                    assert result["version"] == 1
                finally:
                    await client.close()

        try:
            asyncio.run(run())
        finally:
            store.close()

    record_timing("server.apply_batch.32", best_of(run_once))


def test_query_scan_reply():
    """A 2,000-row reply on a new version, then repeated; every reply
    is checked against a direct evaluation."""
    store, receivers = company_store(n_employees=2000, seed=7)
    expr = "Employee.salary"
    fresh: List[float] = []
    repeat: List[float] = []

    async def timed_query(client, expected, into: List[float]) -> None:
        start = time.perf_counter()
        result = await client.query(expr)
        into.append(time.perf_counter() - start)
        assert result["rows"] == expected

    async def run() -> None:
        async with ReproServer(
            store, standard_methods(), port=0
        ) as server:
            client = await connect("127.0.0.1", server.port)
            try:
                for round_index in range(5):
                    batch = receivers[8 * round_index : 8 * round_index + 8]
                    await client.apply_batch("raise_salary", batch)
                    relation = store.engine().evaluate(parse_expression(expr))
                    expected = protocol.encode_rows(relation.tuples)
                    assert len(expected) == 2000
                    await timed_query(client, expected, fresh)
                    await timed_query(client, expected, repeat)
            finally:
                await client.close()

    try:
        asyncio.run(run())
    finally:
        store.close()
    record_timing("server.query.scan2000.fresh", min(fresh))
    record_timing("server.query.scan2000.repeat", min(repeat))


def test_preencode_rows():
    """``protocol.preencode_rows`` of the 2,000-row ``Employee.salary``
    relation, checked against ``protocol.encode_rows`` and decoded back
    to the relation's rows."""
    store, _ = company_store(n_employees=2000, seed=7)
    rows = store.head.database.relation("Employee.salary").tuples
    decoded = json.loads(protocol.preencode_rows(rows).data)
    assert decoded == protocol.encode_rows(rows)
    assert {
        tuple(protocol.decode_value(cell) for cell in row) for row in decoded
    } == rows
    record_timing(
        "server.preencode_rows[n2000]",
        best_of(lambda: protocol.preencode_rows(rows), repetitions=20),
    )


@pytest.mark.benchmark_acceptance
def test_admission_ablation_gate():
    """Shedding on: admitted p99 >= 2x better; txn/s within 10%.

    The arms run alternately, :data:`ABLATION_RUNS` times each, and the
    gate compares per-arm medians (the recorded series are those
    medians): one slow run on a loaded host no longer decides it.
    """
    runs: Dict[bool, List[Dict[str, float]]] = {True: [], False: []}
    for _ in range(ABLATION_RUNS):
        for enabled in (True, False):
            runs[enabled].append(open_loop_run(enabled=enabled))
    on, off = (
        {
            key: statistics.median(run[key] for run in runs[enabled])
            for key in runs[enabled][0]
        }
        for enabled in (True, False)
    )

    for arm, label in ((on, "shed_on"), (off, "shed_off")):
        record_timing(f"server.load.p50.{label}", arm["p50"])
        record_timing(f"server.load.p95.{label}", arm["p95"])
        record_timing(f"server.load.p99.{label}", arm["p99"])
        record_timing(f"server.load.txn_cost.{label}", arm["txn_cost"])

    # The ablation really sheds on one arm and not the other.
    assert all(run["shed"] > 0 for run in runs[True]), (
        "overload never tripped the ladder"
    )
    assert all(run["shed"] == 0 for run in runs[False]), (
        "the disabled arm must admit everything"
    )
    # The gate: bounded queues buy admitted-request latency...
    assert off["p99"] >= 2.0 * on["p99"], (
        f"admission bought only {off['p99'] / on['p99']:.2f}x at p99 "
        f"(on={on['p99'] * 1000:.2f}ms off={off['p99'] * 1000:.2f}ms)"
    )
    # ...without giving up meaningful throughput: both arms keep the
    # single handler slot saturated.
    ratio = on["txn_per_s"] / off["txn_per_s"]
    assert 0.9 <= ratio, (
        f"shedding cost {1 - ratio:.1%} of completed-txn throughput "
        f"(on={on['txn_per_s']:.0f}/s off={off['txn_per_s']:.0f}/s)"
    )
