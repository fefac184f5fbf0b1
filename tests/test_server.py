"""The network front end: framing, admission, pipelining, transactions.

The suite follows the harness pattern of
:mod:`repro.server.testing` — a real server on an ephemeral port, the
real client, no protocol mocks — plus pure-function tests for the
framing and value codecs and the admission ladder.

The semantic oracle is the library itself: whatever a batch does over
the wire must fingerprint-match ``apply_sequence`` applied directly
(both for a single :class:`VersionedStore` and a two-shard fleet).
"""

import asyncio
import json
import multiprocessing
import os
import random

import pytest

from repro.core.sequential import apply_sequence
from repro.obs import tracer as trace
from repro.obs.export import chrome_trace, validate_chrome_trace
from repro.objrel.mapping import instance_to_database
from repro.relational.parser import parse_expression
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.budget import Budget, BudgetExceeded
from repro.resilience.faults import SHARD_STAGE_FENCE, FaultPlan
from repro.resilience.retry import RetryPolicy
from repro.server import protocol
from repro.server.admission import AdmissionController
from repro.server.client import ConnectionClosed, ServerError, connect
from repro.server.testing import (
    company_store,
    run_server_test,
    sharded_store,
    standard_methods,
)
from repro.sqlsim.scenarios import scenario_b_method
from repro.workloads.sharded import sharded_company

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process-mode fleet relies on fork inheritance",
)

# Fleet width for the sharded-backend tests; the CI matrix sets
# REPRO_SHARDS so the same assertions run against other widths.
REPRO_SHARDS = int(os.environ.get("REPRO_SHARDS", "2"))


def fingerprints(instance):
    return instance_to_database(instance).fingerprints()


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def test_frame_roundtrip_and_fragmentation():
    """Any fragmentation of the byte stream reassembles every frame."""
    messages = [
        protocol.request(i, "ping", {"payload": "x" * i})
        for i in range(1, 6)
    ]
    stream = b"".join(protocol.encode_frame(m) for m in messages)
    # Worst case: one byte at a time.
    decoder = protocol.FrameDecoder()
    out = []
    for i in range(len(stream)):
        out.extend(decoder.feed(stream[i : i + 1]))
    assert out == messages
    assert decoder.pending_bytes == 0
    # Best case: the whole stream at once.
    assert protocol.FrameDecoder().feed(stream) == messages


def test_oversize_and_garbage_frames_are_typed_errors():
    decoder = protocol.FrameDecoder(max_frame=16)
    huge = protocol.HEADER.pack(17)
    with pytest.raises(protocol.ProtocolError, match="exceeds"):
        decoder.feed(huge)
    decoder = protocol.FrameDecoder()
    bad = protocol.HEADER.pack(3) + b"\xff\xfe\x00"
    with pytest.raises(protocol.ProtocolError, match="undecodable"):
        decoder.feed(bad)
    # A JSON body that is not an object is also malformed.
    arr = json.dumps([1, 2]).encode()
    with pytest.raises(protocol.ProtocolError, match="object"):
        protocol.FrameDecoder().feed(
            protocol.HEADER.pack(len(arr)) + arr
        )


def test_receiver_wire_roundtrip():
    _, receivers = sharded_company(n_employees=4, seed=7)
    encoded = protocol.encode_receivers(receivers)
    assert json.loads(json.dumps(encoded)) == encoded
    assert protocol.decode_receivers(encoded) == tuple(receivers)
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_receivers([["not-a-pair"]])
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_receivers("nope")


def test_validate_request_shapes():
    assert protocol.validate_request({"id": 3, "op": "ping"}) == (
        3,
        "ping",
    )
    with pytest.raises(protocol.ProtocolError, match="id"):
        protocol.validate_request({"op": "ping"})
    with pytest.raises(protocol.ProtocolError, match="op"):
        protocol.validate_request({"id": 1, "op": 7})


# ----------------------------------------------------------------------
# The admission ladder (unit)
# ----------------------------------------------------------------------
def test_admission_ladder_rungs():
    clock = [0.0]
    breaker = CircuitBreaker(
        failure_threshold=1,
        reset_timeout=5.0,
        clock=lambda: clock[0],
    )
    controller = AdmissionController(
        queue_high_water=2, breaker=breaker, retry_after_ms=10.0
    )
    # Rung 1: an already-dead deadline sheds as DEADLINE_EXCEEDED.
    dead = controller.admit("ping", remaining_ms=0.0)
    assert dead.shed and dead.code == protocol.DEADLINE_EXCEEDED
    # Rung 2: an OPEN breaker sheds OVERLOADED with a hint that at
    # least covers the breaker's reset timeout.
    breaker.record_failure()
    assert breaker.state == "open"
    shed = controller.admit("apply_batch")
    assert shed.shed and shed.code == protocol.OVERLOADED
    assert shed.reason == "breaker"
    assert shed.retry_after_ms >= 5000.0
    clock[0] += 10.0
    breaker.record_success()
    # Rung 3: global queue high water, hint scaled by backlog.
    controller.enter()
    controller.enter()
    shed = controller.admit("ping")
    assert shed.shed and shed.reason == "queue"
    assert shed.retry_after_ms >= 10.0
    controller.exit()
    # Rung 4: one connection's FIFO depth.
    shed = controller.admit("ping", connection_depth=2)
    assert shed.shed and shed.reason == "connection"
    assert controller.admit("ping").admitted
    controller.exit()
    stats = controller.stats()
    assert stats["shed_total"] == 4 and stats["in_flight"] == 0


def test_admission_disabled_is_a_pass_through():
    controller = AdmissionController(queue_high_water=1, enabled=False)
    for _ in range(50):
        controller.enter()
    assert controller.admit("ping", remaining_ms=0.0).admitted
    assert controller.admit("ping", connection_depth=999).admitted


# ----------------------------------------------------------------------
# Wire semantics against the library oracle
# ----------------------------------------------------------------------
def test_apply_batch_over_the_wire_matches_apply_sequence():
    instance, receivers = sharded_company(n_employees=8, seed=7)
    store, _ = company_store(n_employees=8, seed=7)
    method = scenario_b_method()

    async def scenario(server, client):
        result = await client.apply_batch("raise_salary", receivers)
        assert result["route"] == "local"
        assert result["receivers"] == len(receivers)
        return result

    try:
        run_server_test(store, scenario)
        expected = apply_sequence(method, instance, receivers)
        assert store.head.database.fingerprints() == fingerprints(
            expected
        )
    finally:
        store.close()


def test_apply_batch_on_two_shard_fleet_matches_oracle(tmp_path):
    instance, receivers = sharded_company(n_employees=16, seed=11)
    store, _ = sharded_store(
        n_employees=16,
        seed=11,
        shards=REPRO_SHARDS,
        wal_dir=str(tmp_path / "fleet"),
    )
    method = scenario_b_method()

    async def scenario(server, client):
        result = await client.apply_batch("raise_salary", receivers)
        assert result["route"] == "disjoint"
        stats = await client.stats()
        assert stats["shards"] == REPRO_SHARDS
        return result

    try:
        run_server_test(store, scenario)
        expected = apply_sequence(method, instance, receivers)
        assert store.coordinator.head.database.fingerprints() == (
            fingerprints(expected)
        )
        store.verify_consistent()
    finally:
        store.close()


def test_query_over_the_wire_matches_direct_evaluation():
    store, receivers = company_store(n_employees=6, seed=3)

    async def scenario(server, client):
        await client.apply_batch("raise_salary", receivers)
        return await client.query("Employee.salary")

    try:
        result = run_server_test(store, scenario)
        engine = store.engine()
        relation = engine.evaluate(
            parse_expression("Employee.salary")
        )
        assert result["columns"] == list(relation.schema.names)
        assert result["rows"] == protocol.encode_rows(
            relation.tuples
        )
        assert len(result["rows"]) == 6
    finally:
        store.close()


def test_typed_errors_for_bad_requests():
    store, _ = company_store(n_employees=4)

    async def scenario(server, client):
        with pytest.raises(ServerError) as err:
            await client.request("no_such_op")
        assert err.value.code == protocol.UNKNOWN_OP
        with pytest.raises(ServerError) as err:
            await client.apply_batch("no_such_method", [])
        assert err.value.code == protocol.UNKNOWN_METHOD
        with pytest.raises(ServerError) as err:
            await client.query(7)  # not a string
        assert err.value.code == protocol.BAD_REQUEST
        with pytest.raises(ServerError) as err:
            await client.query("pi[nope](")
        assert err.value.code == protocol.BAD_REQUEST
        # The connection survives typed errors.
        pong = await client.ping(payload="still-alive")
        assert pong["payload"] == "still-alive"

    try:
        run_server_test(store, scenario)
    finally:
        store.close()


def test_oversize_reply_is_a_typed_error_and_the_connection_lives(
    monkeypatch,
):
    """A reply over the frame cap answers its request with a typed,
    non-retryable error naming the size and the cap; the connection
    keeps serving the requests after it."""
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 2048)
    store, _ = company_store(n_employees=64)

    async def scenario(server, client):
        with pytest.raises(ServerError) as err:
            await asyncio.wait_for(client.query("Employee.salary"), 3.0)
        assert err.value.code == protocol.BAD_REQUEST
        assert not err.value.retryable
        assert "2048-byte cap" in str(err.value)
        pong = await asyncio.wait_for(client.ping(payload="after"), 3.0)
        assert pong["payload"] == "after"

    try:
        run_server_test(store, scenario)
    finally:
        store.close()


# ----------------------------------------------------------------------
# Pipelining
# ----------------------------------------------------------------------
def test_pipelined_requests_match_responses_by_id():
    """N requests on the wire before the first await; every future
    resolves to its own request's payload regardless of await order."""
    store, _ = company_store(n_employees=4)

    async def scenario(server, client):
        n = 24
        futures = [
            client.submit("ping", {"payload": i}) for i in range(n)
        ]
        # Await them in a shuffled order: matching is by id, so the
        # order the caller collects results must not matter.
        order = list(range(n))
        random.Random(7).shuffle(order)
        results = {}
        for i in order:
            results[i] = await futures[i]
        assert [results[i]["payload"] for i in range(n)] == list(
            range(n)
        )
        # All of them rode one connection.
        assert all(
            results[i]["session"] == results[0]["session"]
            for i in range(n)
        )

    try:
        run_server_test(store, scenario)
    finally:
        store.close()


def test_pipelined_mixed_ops_preserve_connection_order():
    """Writes and reads pipelined on one connection execute FIFO: a
    query issued after a batch sees the batch's effect."""
    store, receivers = company_store(n_employees=5, seed=9)

    async def scenario(server, client):
        before = client.submit("query", {"expr": "Employee.salary"})
        applied = client.submit(
            "apply_batch",
            {
                "method": "raise_salary",
                "receivers": protocol.encode_receivers(receivers),
            },
        )
        after = client.submit("query", {"expr": "Employee.salary"})
        first, result, second = (
            await before,
            await applied,
            await after,
        )
        assert result["version"] == 1
        # The raise changed at least one salary edge.
        assert first["rows"] != second["rows"]

    try:
        run_server_test(store, scenario)
    finally:
        store.close()


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------
def test_overload_sheds_typed_and_never_hangs():
    """Flood a one-slot server: every request gets exactly one frame
    back — admitted ones succeed, the rest shed OVERLOADED with a
    retry hint — and nothing hangs or tears."""
    store, _ = company_store(n_employees=4)
    admission = AdmissionController(
        queue_high_water=2, retry_after_ms=5.0
    )

    async def scenario(server, client):
        n = 30
        futures = [
            client.submit("ping", {"payload": i, "delay_ms": 5})
            for i in range(n)
        ]
        outcomes = await asyncio.gather(
            *futures, return_exceptions=True
        )
        ok = [r for r in outcomes if isinstance(r, dict)]
        shed = [r for r in outcomes if isinstance(r, ServerError)]
        assert len(ok) + len(shed) == n, "a request got no answer"
        assert ok, "admission admitted nothing"
        assert shed, "a 2-deep queue cannot hold 30 requests"
        assert all(e.code == protocol.OVERLOADED for e in shed)
        assert all(e.retry_after_ms is not None for e in shed)
        assert all(e.retryable for e in shed)
        # Each admitted ping still echoes its own payload: no frame
        # tearing between interleaved shed and success responses.
        payloads = {r["payload"] for r in ok}
        assert payloads <= set(range(n))
        stats = await client.stats()
        assert stats["server"]["admission"]["shed_total"] >= len(shed)

    try:
        run_server_test(
            store, scenario, admission=admission, handler_threads=1
        )
    finally:
        store.close()


def test_disconnect_with_queued_requests_releases_admission():
    """A connection dying mid-pipeline must return every admitted
    slot.  ``_in_flight`` is server-global and never resets, so a leak
    here would permanently shrink effective capacity until the queue
    rung sheds all traffic as OVERLOADED."""
    store, _ = company_store(n_employees=4)
    admission = AdmissionController(queue_high_water=16)

    async def scenario(server, doomed, survivor):
        # A slow request pins the only handler thread; the rest are
        # admitted but still queued when the connection dies.
        futures = [doomed.submit("ping", {"delay_ms": 60})]
        futures.extend(
            doomed.submit("ping", {"payload": i}) for i in range(8)
        )
        await asyncio.sleep(0.01)
        assert server.admission.in_flight >= 2
        await doomed.close()
        await asyncio.gather(*futures, return_exceptions=True)
        # Teardown must drain the abandoned queue entries.
        for _ in range(200):
            if server.admission.in_flight == 0:
                break
            await asyncio.sleep(0.01)
        assert server.admission.in_flight == 0
        # The surviving connection still gets full capacity.
        pong = await survivor.ping(payload="alive")
        assert pong["payload"] == "alive"

    try:
        run_server_test(
            store,
            scenario,
            clients=2,
            admission=admission,
            handler_threads=1,
        )
    finally:
        store.close()


def test_client_retry_honors_the_shed_hint():
    """request_with_retry turns a shed into a delayed success."""
    store, _ = company_store(n_employees=4)
    admission = AdmissionController(
        queue_high_water=1, retry_after_ms=1.0
    )

    async def scenario(server, client, other):
        # Occupy the only queue slot with slow work from another
        # connection, then retry through the shed window.
        slow = other.submit("ping", {"delay_ms": 40})
        await asyncio.sleep(0.005)
        result = await client.request_with_retry(
            "ping",
            {"payload": "eventually"},
            policy=RetryPolicy(retries=50, base_delay=0.002),
        )
        assert result["payload"] == "eventually"
        await slow
        assert server.admission.shed_total >= 1

    try:
        run_server_test(
            store,
            scenario,
            clients=2,
            admission=admission,
            handler_threads=1,
        )
    finally:
        store.close()


# ----------------------------------------------------------------------
# Explicit transactions
# ----------------------------------------------------------------------
def test_explicit_transaction_lifecycle():
    store, receivers = company_store(n_employees=6, seed=5)

    async def scenario(server, client):
        begun = await client.begin()
        assert begun["snapshot_version"] == 0
        await client.apply("raise_salary", receivers)
        # Inside the transaction the working state is visible...
        inside = await client.query("Employee.salary")
        committed = await client.commit()
        assert committed["version"] == 1
        after = await client.query("Employee.salary")
        assert after["rows"] == inside["rows"]
        # ...and the audit trail survives the commit.
        audit = await client.audit()
        assert audit["last_txn"]["status"] == "committed"

    try:
        run_server_test(store, scenario)
        assert store.head.version == 1
    finally:
        store.close()


def test_abort_discards_and_txn_state_is_typed():
    store, receivers = company_store(n_employees=4, seed=2)

    async def scenario(server, client):
        with pytest.raises(ServerError) as err:
            await client.commit()
        assert err.value.code == protocol.TXN_STATE
        await client.begin()
        with pytest.raises(ServerError) as err:
            await client.begin()
        assert err.value.code == protocol.TXN_STATE
        # apply_batch is autocommit: refused while a txn is open.
        with pytest.raises(ServerError) as err:
            await client.apply_batch("raise_salary", receivers)
        assert err.value.code == protocol.TXN_STATE
        await client.apply("raise_salary", receivers)
        aborted = await client.abort()
        assert aborted["aborted"]

    try:
        run_server_test(store, scenario)
        assert store.head.version == 0, "abort must discard the writes"
    finally:
        store.close()


def test_explicit_transaction_on_sharded_backend_stages_down(tmp_path):
    """A commit through the wire lands on the coordinator *and* the
    shard fleet (commit_transaction), so verify_consistent holds."""
    instance, receivers = sharded_company(n_employees=12, seed=13)
    store, _ = sharded_store(
        n_employees=12,
        seed=13,
        shards=REPRO_SHARDS,
        wal_dir=str(tmp_path / "fleet"),
    )

    async def scenario(server, client):
        await client.begin()
        await client.apply("raise_salary", receivers)
        committed = await client.commit()
        assert committed["version"] == 1

    try:
        run_server_test(store, scenario)
        expected = apply_sequence(
            scenario_b_method(), instance, receivers
        )
        assert store.coordinator.head.database.fingerprints() == (
            fingerprints(expected)
        )
        store.verify_consistent()
    finally:
        store.close()


def test_commit_reports_success_when_staging_fails(tmp_path):
    """A staging failure *after* the durable coordinator commit must
    not surface as INTERNAL: the commit happened.  The store heals the
    shards by resync, so the client sees a plain success and the fleet
    stays consistent."""
    instance, receivers = sharded_company(n_employees=8, seed=5)
    store, _ = sharded_store(
        n_employees=8,
        seed=5,
        shards=REPRO_SHARDS,
        wal_dir=str(tmp_path / "fleet"),
    )

    plan = FaultPlan(seed=0).error_at(SHARD_STAGE_FENCE, at=0)

    async def scenario(server, client):
        await client.begin()
        await client.apply("raise_salary", receivers)
        committed = await client.commit()
        assert committed["version"] == 1
        # Resync healed every shard, so the commit is not degraded.
        assert "staging" not in committed
        after = await client.query("Employee.salary")
        assert after["rows"]

    try:
        with plan.installed():
            run_server_test(store, scenario)
        assert plan.firings
        expected = apply_sequence(
            scenario_b_method(), instance, receivers
        )
        assert store.coordinator.head.database.fingerprints() == (
            fingerprints(expected)
        )
        store.verify_consistent()
    finally:
        store.close()


def test_commit_is_degraded_when_staging_and_resync_fail():
    """When the fleet is unreachable, the commit still succeeded on
    the coordinator: the client gets a success response flagged
    degraded, never a non-retryable INTERNAL for a durable commit."""
    instance, receivers = sharded_company(n_employees=8, seed=5)
    store, _ = sharded_store(
        n_employees=8, seed=5, shards=REPRO_SHARDS
    )

    plan = FaultPlan(seed=0).error_at(
        SHARD_STAGE_FENCE, probability=1.0, times=None
    )

    async def scenario(server, client):
        await client.begin()
        await client.apply("raise_salary", receivers)
        committed = await client.commit()
        assert committed["version"] == 1
        assert committed["staging"] == "degraded"

    try:
        with plan.installed():
            run_server_test(store, scenario)
        assert plan.firings
        # The commit is durable on the coordinator; once the fleet is
        # reachable again, resync heals it.
        for k in range(store.shards):
            store.resync_shard(k)
        store.verify_consistent()
        expected = apply_sequence(
            scenario_b_method(), instance, receivers
        )
        assert store.coordinator.head.database.fingerprints() == (
            fingerprints(expected)
        )
    finally:
        store.close()


def test_apply_batch_acknowledges_a_write_whose_staging_fails():
    """An autocommit batch answers like ``commit``: a staging failure
    after the durable coordinator commit is healed and the reply is a
    plain success; when the heal fails too, the reply is still a
    success, flagged degraded, with its version, route and receivers."""
    instance, receivers = sharded_company(n_employees=8, seed=5)
    store, _ = sharded_store(n_employees=8, seed=5, shards=REPRO_SHARDS)
    first, second = receivers[:4], receivers[4:]
    healed = FaultPlan(seed=0).error_at(SHARD_STAGE_FENCE, at=0)
    unreachable = FaultPlan(seed=0).error_at(
        SHARD_STAGE_FENCE, probability=1.0, times=None
    )

    async def scenario(server, client):
        with healed.installed():
            result = await client.apply_batch("raise_salary", first)
        assert healed.firings
        assert result["version"] == 1 and "staging" not in result
        with unreachable.installed():
            result = await client.apply_batch("raise_salary", second)
        assert result["version"] == 2
        assert result["staging"] == "degraded"
        assert result["route"] == "disjoint"
        assert result["receivers"] == len(second)

    try:
        run_server_test(store, scenario)
        for k in range(store.shards):
            store.resync_shard(k)
        store.verify_consistent()
        expected = apply_sequence(
            scenario_b_method(), instance, receivers
        )
        assert store.coordinator.head.database.fingerprints() == (
            fingerprints(expected)
        )
    finally:
        store.close()


def test_dropped_connection_aborts_its_open_transaction():
    store, receivers = company_store(n_employees=4, seed=4)

    async def scenario(server, first, second):
        await first.begin()
        await first.apply("raise_salary", receivers)
        await first.close()
        # Give the server's connection teardown a beat to run.
        for _ in range(50):
            if not server.stats()["connections"] == 2:
                break
            await asyncio.sleep(0.01)
        # The second connection can begin: the orphan was aborted.
        begun = await second.begin()
        await second.abort()
        assert begun["snapshot_version"] == 0

    try:
        run_server_test(store, scenario, clients=2)
        assert store.head.version == 0
    finally:
        store.close()


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------
def test_deadline_shed_is_typed_not_a_hang():
    store, _ = company_store(n_employees=4)

    async def scenario(server, client):
        # Deadline far smaller than the simulated service time: the
        # request dies with a typed error, wherever the ladder or the
        # budget catches it.
        with pytest.raises(ServerError) as err:
            await client.request(
                "ping",
                {"delay_ms": 50},
                deadline_ms=0.0,
            )
        assert err.value.code == protocol.DEADLINE_EXCEEDED
        # A generous deadline sails through.
        result = await client.request(
            "ping", {"payload": 1}, deadline_ms=5000.0
        )
        assert result["payload"] == 1

    try:
        run_server_test(store, scenario)
    finally:
        store.close()


def test_queue_wait_consumes_the_deadline():
    """A request admitted in time but starved in the queue past its
    deadline is rejected late rather than executed dead."""
    store, _ = company_store(n_employees=4)

    async def scenario(server, client):
        slow = client.submit("ping", {"delay_ms": 80})
        doomed = client.submit(
            "ping", {"payload": "late"}, deadline_ms=10.0
        )
        await slow
        with pytest.raises(ServerError) as err:
            await doomed
        assert err.value.code == protocol.DEADLINE_EXCEEDED

    try:
        run_server_test(store, scenario, handler_threads=1)
    finally:
        store.close()


# ----------------------------------------------------------------------
# The engine budget parameter (satellite)
# ----------------------------------------------------------------------
def test_engine_evaluate_accepts_an_explicit_budget():
    store, receivers = company_store(n_employees=8, seed=7)
    try:
        expr = parse_expression("Employee.salary")
        engine = store.engine()
        ambient_free = engine.evaluate(expr)
        # A generous explicit budget changes nothing.
        assert (
            engine.evaluate(expr, budget=Budget(max_steps=100_000))
            == ambient_free
        )
        # A starved one is enforced per engine node (node visits tick
        # even on cache hits, so memoization cannot mask exhaustion).
        with pytest.raises(BudgetExceeded) as err:
            engine.evaluate(expr, budget=Budget(max_steps=0))
        assert err.value.site == "engine.node"
    finally:
        store.close()


def test_query_deadline_reaches_the_engine_budget():
    """The per-request budget rides into engine evaluation: a complex
    query with an elapsed deadline dies as DEADLINE_EXCEEDED."""
    store, receivers = company_store(n_employees=8, seed=7)

    async def scenario(server, client):
        with pytest.raises(ServerError) as err:
            await client.query(
                "Employee.salary * NewSal : Employee.salary=NewSal",
                deadline_ms=0.0,
            )
        assert err.value.code == protocol.DEADLINE_EXCEEDED

    try:
        run_server_test(store, scenario)
    finally:
        store.close()


# ----------------------------------------------------------------------
# Stitched tracing
# ----------------------------------------------------------------------
@fork_only
def test_request_renders_as_one_stitched_trace_tree(tmp_path):
    """The acceptance trace: client request span → server.handle →
    store spans → adopted ``repro shard{N}`` process rows, in one
    Chrome export."""
    store, receivers = sharded_store(
        n_employees=16,
        seed=7,
        shards=REPRO_SHARDS,
        mode="process",
        wal_dir=str(tmp_path / "fleet"),
    )

    async def scenario(server, client):
        result = await client.apply_batch("raise_salary", receivers)
        assert result["route"] == "disjoint"

    try:
        with trace.tracing() as tracer:
            run_server_test(store, scenario)
        store.verify_consistent()
    finally:
        store.close()

    requests = [
        s for s in tracer.spans if s.name == "client.request"
    ]
    handles = [s for s in tracer.spans if s.name == "server.handle"]
    batch = [
        s
        for s in handles
        if s.args.get("op") == "apply_batch"
    ]
    assert batch, "no server.handle span for the batch"
    # The server span adopted the client's request span as parent.
    assert all(
        s.parent is not None and s.parent.name == "client.request"
        for s in batch
    )
    assert requests
    # The shard workers' remote spans joined the same tree.
    remote = [s for s in tracer.spans if s.pid is not None]
    assert len({s.pid for s in remote}) == REPRO_SHARDS
    assert all(root.pid is None for root in tracer.roots)
    document = chrome_trace(tracer)
    assert validate_chrome_trace(document) == []
    labels = {
        event["args"]["name"]
        for event in document["traceEvents"]
        if event["ph"] == "M"
    }
    assert {
        f"repro shard{i}" for i in range(REPRO_SHARDS)
    } <= labels


def test_client_survives_corrupt_frame_from_server():
    """A corrupt/oversize frame from the server kills the connection
    cleanly: pending futures fail with ConnectionClosed, the reader
    task finishes without an unretrieved exception, and close() does
    not propagate the protocol error."""

    async def main():
        async def handler(reader, writer):
            await reader.read(256)
            # A header claiming a frame bigger than the cap.
            writer.write(
                protocol.HEADER.pack(protocol.MAX_FRAME_BYTES + 1)
            )
            await writer.drain()

        server = await asyncio.start_server(handler, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        client = await connect("127.0.0.1", port)
        try:
            future = client.submit("ping", {})
            with pytest.raises(ConnectionClosed):
                await future
            # The connection is marked dead: later submits fail fast.
            with pytest.raises(ConnectionClosed):
                client.submit("ping", {})
        finally:
            await client.close()
            server.close()
            await server.wait_closed()

    asyncio.run(main())


def test_audit_limit_is_validated():
    store, _ = company_store(n_employees=4)

    async def scenario(server, client):
        for bad in ("nope", -1, True, 1.5):
            with pytest.raises(ServerError) as err:
                await client.request("audit", {"limit": bad})
            assert err.value.code == protocol.BAD_REQUEST
        empty = await client.request("audit", {"limit": 0})
        assert empty["flight"] == []
        # The connection survives the typed errors.
        ok = await client.audit(limit=8)
        assert "flight" in ok

    try:
        run_server_test(store, scenario)
    finally:
        store.close()


def test_stats_and_audit_expose_the_flight_ring():
    store, receivers = company_store(n_employees=4, seed=6)
    admission = AdmissionController(queue_high_water=1)

    async def scenario(server, client, other):
        slow = other.submit("ping", {"delay_ms": 30})
        await asyncio.sleep(0.005)
        with pytest.raises(ServerError):
            await client.ping()
        await slow
        audit = await client.audit(limit=64)
        kinds = {e["kind"] for e in audit["flight"]}
        assert "server.shed" in kinds
        stats = await client.stats()
        assert stats["server"]["admission"]["shed_total"] >= 1
        assert "server.shed" in stats["counters"]

    try:
        run_server_test(
            store,
            scenario,
            clients=2,
            admission=admission,
            handler_threads=1,
        )
    finally:
        store.close()
