"""Fleet-wide telemetry: trace stitching, metric merging, forensics.

The acceptance surface of the observability-v2 tentpole:

* a transaction batch on a **2-process** :class:`ShardedStore` yields
  ONE stitched trace tree — coordinator spans plus both workers'
  spans, adopted with their origin pids — whose Chrome export
  validates and renders each worker process as its own labelled row;
* per-shard metric snapshots (delta semantics) merge into the
  coordinator registry under ``shard{N}.`` prefixes, with latency
  histograms reporting p50/p95/p99 into the metrics-JSON document;
* killing a shard worker under a :class:`FaultPlan` leaves a flushed
  flight-recorder dump containing the fault-site event, and the
  coordinator marks the orphaned collection span ``aborted``;
* :meth:`Transaction.audit` records the commit tier, latency and
  retry attempt per transaction.

Process-mode tests rely on the ``fork`` start method (the installed
fault plan and the monotonic clock are inherited); they skip on
platforms without it.
"""

import json
import multiprocessing
import os
import random

import pytest

from repro.obs import flight
from repro.obs import tracer as trace
from repro.obs.export import (
    chrome_trace,
    metrics_dump,
    validate_chrome_trace,
)
from repro.obs.metrics import global_registry
from repro.resilience.faults import KNOWN_SITES, SHARD_WORKER, FaultPlan
from repro.sqlsim.scenarios import scenario_b_method
from repro.store import ShardedStore, VersionedStore
from repro.store.sharding import CROSS_SHARD, DISJOINT
from repro.store.txn import Transaction, run_transaction
from repro.workloads.sharded import (
    mixed_batches,
    raise_batches,
    sharded_company,
)

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="process-mode telemetry relies on fork inheritance",
)


def make_store(tmp_path, shards=2):
    instance, receivers = sharded_company(n_employees=24, seed=3)
    store = ShardedStore(
        instance,
        ["Employee"],
        shards=shards,
        mode="process",
        wal_dir=str(tmp_path / "fleet"),
    )
    return store, instance, receivers


# ----------------------------------------------------------------------
# Trace stitching
# ----------------------------------------------------------------------
@fork_only
def test_batch_on_two_process_store_stitches_one_trace_tree(tmp_path):
    """The headline acceptance: coordinator + both worker spans in one
    causal tree, with two distinct worker pids, and a valid Chrome
    export carrying one labelled process row per worker."""
    store, instance, receivers = make_store(tmp_path)
    rng = random.Random(42)
    try:
        with trace.tracing() as tracer:
            kinds = set()
            for method, batch in mixed_batches(
                instance, receivers, rng, rounds=4, batch_size=6
            ):
                _, route, _ = store.apply_batch(method, batch)
                kinds.add(route.kind)
        store.verify_consistent()
    finally:
        store.close()
    assert kinds == {DISJOINT, CROSS_SHARD}

    # One tree: every adopted worker span hangs under a coordinator
    # span, so the forest's roots are all local.
    remote = [s for s in tracer.spans if s.pid is not None]
    assert remote, "no worker spans were adopted"
    assert all(root.pid is None for root in tracer.roots)
    worker_pids = {s.pid for s in remote}
    assert len(worker_pids) == 2
    assert os.getpid() not in worker_pids
    # Worker-side request spans carry the wire context and real work:
    # shards only stage committed versions.
    handles = [s for s in remote if s.name == "shard.handle"]
    assert handles and all(s.args["op"] == "stage" for s in handles)
    # The propagated trace id reached the workers' root spans.
    assert all(
        s.parent is not None and s.parent.pid is None
        for s in handles
    )

    document = chrome_trace(tracer)
    assert validate_chrome_trace(document) == []
    export_pids = {
        event["pid"]
        for event in document["traceEvents"]
        if event["ph"] != "M"
    }
    assert worker_pids < export_pids and os.getpid() in export_pids
    labels = {
        event["args"]["name"]
        for event in document["traceEvents"]
        if event["ph"] == "M"
    }
    assert {"repro coordinator", "repro shard0", "repro shard1"} <= labels
    # The export survives a JSON round-trip (what CI uploads).
    assert validate_chrome_trace(json.loads(json.dumps(document))) == []


@fork_only
def test_worker_spans_share_the_coordinator_timeline(tmp_path):
    """Fork + one monotonic clock: every adopted span must lie within
    its coordinator parent's interval (the property that makes the
    single-timeline rendering honest)."""
    store, instance, receivers = make_store(tmp_path)
    try:
        with trace.tracing() as tracer:
            for batch in raise_batches(receivers, batch_size=8):
                store.apply_batch(scenario_b_method(), batch)
    finally:
        store.close()
    batch_spans = [s for s in tracer.spans if s.name == "store.shard.batch"]
    assert batch_spans
    for batch_span in batch_spans:
        for child in batch_span.children:
            if child.pid is None:
                continue
            assert child.start_ns >= batch_span.start_ns
            assert child.end_ns <= batch_span.end_ns


# ----------------------------------------------------------------------
# Metric aggregation
# ----------------------------------------------------------------------
@fork_only
def test_shard_metrics_merge_under_prefixes_with_percentiles(tmp_path):
    instance, receivers = sharded_company(n_employees=24, seed=3)
    store = ShardedStore(
        instance,
        ["Employee"],
        shards=2,
        mode="process",
        wal_dir=str(tmp_path / "fleet"),
    )
    registry = global_registry()
    before = registry.counters().get("shard0.store.commits", 0)
    try:
        for batch in raise_batches(receivers, batch_size=6):
            _, route, staged = store.apply_batch(scenario_b_method(), batch)
            assert route.kind == DISJOINT and staged
        store.verify_consistent()
    finally:
        store.close()
    counters = registry.counters()
    assert counters["shard0.store.commits"] > before
    assert "shard1.store.commits" in counters
    histograms = registry.histograms()
    # Every worker's stages feed its stage-latency histogram.
    for shard in (0, 1):
        summary = histograms[f"shard{shard}.store.shard.stage_ms"]
        assert summary["count"] > 0
        percentiles = summary["percentiles"]
        assert percentiles["p50"] is not None
        assert percentiles["p99"] >= percentiles["p50"] > 0
    # The merged registry lands in the metrics-JSON document CI ships.
    document = metrics_dump({"fleet.run": 1.0}, registry=registry)
    exported = document["metrics"]["histograms"]
    assert "shard0.store.shard.stage_ms" in exported
    assert "shard1.store.shard.stage_ms" in exported


@fork_only
def test_successive_fleets_never_compound_shard_prefixes(tmp_path):
    """A worker forked from a process that already merged shard
    telemetry inherits those ``shard{N}.`` keys; its delta snapshots
    must not echo them back as ``shard0.shard0.…`` aggregates."""
    for generation in ("a", "b"):
        store, instance, receivers = make_store(tmp_path / generation)
        try:
            for batch in raise_batches(receivers, batch_size=8):
                store.apply_batch(scenario_b_method(), batch)
        finally:
            store.close()
    registry = global_registry()
    merged = list(registry.counters()) + list(registry.histograms())
    doubled = [n for n in merged if "shard0.shard" in n or "shard1.shard" in n]
    assert doubled == []


# ----------------------------------------------------------------------
# Crash forensics
# ----------------------------------------------------------------------
@fork_only
def test_worker_kill_flushes_flight_dump_and_marks_span_aborted(tmp_path):
    """The crash-forensics satellite: under a kill plan the dead
    worker's flushed ring ends at the fault site, the coordinator's
    flight recorder sees the death, and the orphaned collection span
    is marked aborted."""
    assert SHARD_WORKER not in KNOWN_SITES  # chaos suite must skip it
    instance, receivers = sharded_company(n_employees=24, seed=3)
    plan = FaultPlan(seed=7).kill_at(SHARD_WORKER, at=2)
    coordinator_flight = flight.enable(flight.FlightRecorder())
    with plan.installed():
        store = ShardedStore(
            instance,
            ["Employee"],
            shards=2,
            mode="process",
            wal_dir=str(tmp_path / "fleet"),
            # Unsupervised on purpose: this test is about the *raw*
            # death forensics, not the healing ladder on top of them.
            supervised=False,
        )
        try:
            with trace.tracing() as tracer:
                # The death surfaces while staging a committed batch:
                # the write is acknowledged, flagged unstaged.
                staged = [
                    store.apply_batch(scenario_b_method(), batch)[2]
                    for batch in raise_batches(receivers, batch_size=6)
                ]
        finally:
            store.close()
    assert False in staged
    # The kill fires inside the forked worker, so the coordinator-side
    # plan object records nothing — the worker's flushed flight dump is
    # the authoritative evidence below.
    dumps = sorted((tmp_path / "fleet").glob("flight-shard-*.json"))
    assert dumps, "no worker flushed a flight dump"
    document = json.loads(dumps[0].read_text())
    kinds = [event["kind"] for event in document["events"]]
    assert "fault.injected" in kinds and "shard.worker_crash" in kinds
    fault_event = next(
        event
        for event in document["events"]
        if event["kind"] == "fault.injected"
    )
    assert fault_event["data"]["site"] == SHARD_WORKER
    assert document["pid"] != os.getpid()

    # Coordinator-side observability of the same death.
    deaths = coordinator_flight.events("shard.worker_death")
    assert deaths and deaths[0].data["shard"] in (0, 1)
    aborted = [s for s in tracer.spans if s.args.get("aborted")]
    assert any(s.name == "store.shard.stage" for s in aborted)


# ----------------------------------------------------------------------
# Per-transaction audit
# ----------------------------------------------------------------------
def test_transaction_audit_records_tier_latency_and_attempt():
    instance, receivers = sharded_company(n_employees=8, seed=1)
    store = VersionedStore(instance=instance)
    method = scenario_b_method()

    txn = Transaction(store)
    txn.apply_method(method, receivers)
    txn.commit()
    audit = txn.audit()
    assert audit["status"] == "committed"
    assert audit["path"] == "fastpath"
    assert audit["attempt"] == 1
    assert audit["commit_ms"] > 0
    assert audit["operations"] == [
        {"method": method.name, "receivers": len(receivers)}
    ]
    assert audit["writes"] and audit["reads"]
    json.dumps(audit)  # the record must be JSON-serializable

    # run_transaction numbers the attempts it hands out.
    audits = []
    run_transaction(
        store, lambda t: audits.append(t) or t.apply_method(method, receivers)
    )
    assert audits[-1].audit()["attempt"] == 1


def test_commit_paths_feed_the_tier_histograms():
    instance, receivers = sharded_company(n_employees=8, seed=1)
    registry = global_registry()
    histogram = registry.histogram("store.txn.commit_ms.fastpath")
    before = histogram.count
    store = VersionedStore(instance=instance)
    run_transaction(
        store,
        lambda txn: txn.apply_method(scenario_b_method(), receivers),
    )
    assert histogram.count > before
    assert histogram.percentiles()["p50"] is not None


def test_flight_records_commit_outcomes():
    instance, receivers = sharded_company(n_employees=8, seed=1)
    recorder = flight.enable(flight.FlightRecorder())
    store = VersionedStore(instance=instance)
    run_transaction(
        store,
        lambda txn: txn.apply_method(scenario_b_method(), receivers),
    )
    commits = recorder.events("txn.commit")
    assert commits and commits[-1].data["path"] == "fastpath"
    assert commits[-1].data["ms"] > 0


# ----------------------------------------------------------------------
# Wire-format unit coverage (no processes involved)
# ----------------------------------------------------------------------
def test_tracer_context_carries_trace_id_and_parent_span():
    tracer = trace.Tracer()
    assert tracer.context()["parent_span_id"] is None
    with tracer.span("outer", category="t") as outer:
        context = tracer.context()
        assert context["trace_id"] == tracer.trace_id
        assert context["parent_span_id"] == outer.span_id


def test_serialize_and_adopt_round_trip_preserves_structure():
    remote = trace.Tracer()
    with remote.span("root", category="r", shard=1):
        with remote.span("child", category="r"):
            remote.event("tick", category="r", n=1)
    payload = remote.serialize_spans()
    assert {entry["name"] for entry in payload} == {"root", "child"}

    local = trace.Tracer()
    with local.span("request", category="l") as request:
        adopted = local.adopt_remote(
            payload, parent=request, pid=4242, process_label="shard1"
        )
    by_name = {span.name: span for span in adopted}
    assert by_name["root"].parent is request
    assert by_name["child"].parent is by_name["root"]
    assert all(span.pid == 4242 for span in adopted)
    assert local.process_labels == {4242: "shard1"}
    assert by_name["child"].events[0].args == {"n": 1}
    # Chrome export gives the adopted spans their own process row.
    document = chrome_trace(local, pid=1)
    rows = {e["pid"] for e in document["traceEvents"] if e["ph"] == "X"}
    assert rows == {1, 4242}
    assert validate_chrome_trace(document) == []
