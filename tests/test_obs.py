"""The observability layer: tracer, metrics, exporters, and the wiring.

Covers the PR's acceptance surface:

* span nesting/ordering invariants, including property-based threaded
  nesting (every ``wrap``-carried worker span must land under the batch
  span, and per-thread open intervals must nest properly);
* exporter round-trips (the Chrome ``trace_event`` dump survives JSON
  serialization and validates; the metrics dump merges by key and
  upgrades legacy flat files);
* the disabled fast path (module helpers return the shared no-op handle
  and record nothing);
* :class:`EngineStats` as a registry view — attribute API, ``render``
  and ``explain`` unchanged, numbers shared with the registry;
* threaded ``apply_parallel`` equals the sequential semantics.
"""

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.receiver import Receiver
from repro.core.sequential import apply_sequence
from repro.graph.instance import Obj
from repro.obs import (
    NOOP_SPAN,
    MetricsRegistry,
    Tracer,
    chrome_trace,
    merge_metrics,
    metrics_dump,
    render_tree,
    validate_chrome_trace,
)
from repro.obs import tracer as trace
from repro.obs.export import (
    METRICS_SCHEMA,
    self_time_rollup,
    write_metrics,
)
from repro.parallel.apply import apply_parallel
from repro.relational.engine import QueryEngine
from repro.sqlsim.scenarios import (
    make_company,
    scenario_b_method,
    tables_to_instance,
)


# ----------------------------------------------------------------------
# Tracer basics
# ----------------------------------------------------------------------
def test_span_nesting_single_thread():
    tracer = Tracer()
    with tracer.span("outer", category="t") as outer:
        with tracer.span("inner", category="t") as inner:
            tracer.event("tick", category="t")
    assert inner.parent is outer
    assert outer.parent is None
    assert tracer.roots == [outer]
    assert tracer.spans == [outer, inner]
    assert inner.start_ns >= outer.start_ns
    assert inner.end_ns <= outer.end_ns
    assert tracer.events[0].parent is inner
    assert inner.events == [tracer.events[0]]


def test_span_set_attributes_and_repr():
    tracer = Tracer()
    with tracer.span("s", category="t", a=1) as span:
        span.set(b=2)
    assert span.args == {"a": 1, "b": 2}
    assert span.duration_ns >= 0
    assert "s" in repr(span)


def test_out_of_order_exit_raises():
    tracer = Tracer()
    outer = tracer.span("outer")
    inner = tracer.span("inner")
    outer.__enter__()
    inner.__enter__()
    with pytest.raises(ValueError):
        outer.__exit__(None, None, None)


def test_module_helpers_disabled_are_noops():
    assert trace.active() is None
    assert trace.span("anything", category="t", key=1) is NOOP_SPAN
    trace.event("anything", category="t")  # must not raise
    with trace.span("nested") as handle:
        assert handle is NOOP_SPAN
        assert handle.set(x=1) is NOOP_SPAN


def test_tracing_context_restores_previous():
    assert trace.active() is None
    with trace.tracing() as tracer:
        assert trace.active() is tracer
        with trace.tracing() as inner:
            assert trace.active() is inner
        assert trace.active() is tracer
    assert trace.active() is None


def test_traced_decorator():
    @trace.traced("decorated.fn", category="t")
    def fn(x):
        return x + 1

    assert fn(1) == 2  # disabled: plain call
    with trace.tracing() as tracer:
        assert fn(2) == 3
    assert [s.name for s in tracer.spans] == ["decorated.fn"]


# ----------------------------------------------------------------------
# Threaded nesting (property-based)
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.integers(min_value=1, max_value=4), min_size=1, max_size=6
    )
)
def test_threaded_worker_spans_nest_under_batch(depths):
    """Each worker opens a chain of ``depth`` nested spans in its own
    thread; wrapped workers must hang off the batch span, with proper
    per-chain interval containment and no cross-thread corruption."""
    tracer = Tracer()

    def worker(depth):
        def run():
            spans = []
            for level in range(depth):
                span = tracer.span(f"w{level}", category="t")
                span.__enter__()
                spans.append(span)
            for span in reversed(spans):
                span.__exit__(None, None, None)

        return run

    with tracer.span("batch", category="t") as batch:
        threads = [
            threading.Thread(target=tracer.wrap(worker(depth)))
            for depth in depths
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    # One root; every worker's outermost span is a child of the batch.
    assert tracer.roots == [batch]
    assert len(batch.children) == len(depths)
    assert sorted(
        len_of_chain(child) for child in batch.children
    ) == sorted(depths)
    for span in tracer.spans:
        assert span.finished
        if span.parent is not None:
            assert span.start_ns >= span.parent.start_ns
            assert span.end_ns <= span.parent.end_ns
            # Nesting never crosses threads except batch -> worker root.
            if span.parent is not batch:
                assert span.thread_id == span.parent.thread_id


def len_of_chain(span):
    length = 1
    while span.children:
        assert len(span.children) == 1
        span = span.children[0]
        length += 1
    return length


def test_wrap_restores_previous_adoption():
    tracer = Tracer()
    with tracer.span("outer"):
        bound = tracer.wrap(lambda: tracer.current())
    assert bound() is tracer.roots[0]
    # After the bound call, this thread adopts nothing.
    assert tracer.current() is None


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
def test_counter_gauge_histogram():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    registry.counter("c").inc(4)
    registry.gauge("g").set(3.0)
    registry.gauge("g").set_max(2.0)  # keeps the high-water mark
    hist = registry.histogram("h", bounds=(1.0, 10.0))
    for value in (0.5, 5.0, 50.0):
        hist.observe(value)
    assert registry.counter("c").value == 5
    assert registry.gauge("g").value == 3.0
    assert hist.count == 3
    assert hist.counts == [1, 1, 1]  # <=1, <=10, overflow
    assert hist.min == 0.5 and hist.max == 50.0
    snapshot = registry.to_dict()
    assert snapshot["counters"]["c"] == 5
    assert snapshot["gauges"]["g"] == 3.0
    assert snapshot["histograms"]["h"]["count"] == 3


def test_registry_get_or_create_is_stable():
    registry = MetricsRegistry()
    assert registry.counter("x") is registry.counter("x")
    with pytest.raises(ValueError):
        registry.histogram("h", bounds=(2.0, 1.0))


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def _sample_tracer():
    tracer = Tracer()
    with tracer.span("root", category="t", size=3):
        tracer.event("mark", category="t", detail="x")
        with tracer.span("child", category="t"):
            pass
    return tracer


def test_chrome_trace_round_trip():
    tracer = _sample_tracer()
    dumped = json.dumps(chrome_trace(tracer, pid=42))
    loaded = json.loads(dumped)
    assert validate_chrome_trace(loaded) == []
    events = loaded["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    assert {e["name"] for e in complete} == {"root", "child"}
    assert [e["name"] for e in instants] == ["mark"]
    root = next(e for e in complete if e["name"] == "root")
    child = next(e for e in complete if e["name"] == "child")
    assert root["ts"] <= child["ts"]
    assert child["ts"] + child["dur"] <= root["ts"] + root["dur"] + 1e-9
    assert root["args"] == {"size": 3}


def test_validate_chrome_trace_flags_problems():
    assert validate_chrome_trace([]) != []
    assert validate_chrome_trace({"traceEvents": [{"ph": "X"}]}) != []
    bad_duration = {
        "traceEvents": [
            {"name": "s", "ph": "X", "ts": 1, "pid": 1, "tid": 1, "dur": -5}
        ]
    }
    assert any("dur" in p for p in validate_chrome_trace(bad_duration))


def test_render_tree_shows_nesting_and_events():
    text = render_tree(_sample_tracer())
    lines = text.splitlines()
    assert lines[0].startswith("root [t]")
    assert any(line.lstrip().startswith("* mark") for line in lines)
    assert any(line.startswith("  child [t]") for line in lines)


def test_metrics_dump_and_merge_by_key():
    fresh = metrics_dump({"a": 1.0, "b": [2.0, 3.0]}, suite="s")
    assert fresh["schema"] == METRICS_SCHEMA
    merged = merge_metrics(fresh, metrics_dump({"a": 4.0}, suite="s"))
    assert merged["series"]["a"]["values"] == [1.0, 4.0]
    assert merged["series"]["b"]["values"] == [2.0, 3.0]


def test_merge_metrics_upgrades_legacy_flat_files():
    legacy = {"warm": 0.25, "cold": 1.5}
    merged = merge_metrics(legacy, metrics_dump({"warm": 0.75}))
    assert merged["series"]["warm"]["values"] == [0.25, 0.75]
    assert merged["series"]["cold"]["values"] == [1.5]
    assert merged["schema"] == METRICS_SCHEMA


def test_write_metrics_accumulates_across_runs(tmp_path):
    path = str(tmp_path / "BENCH_test.json")
    write_metrics(path, metrics_dump({"series.x": 1.0}))
    document = write_metrics(path, metrics_dump({"series.x": 2.0}))
    assert document["series"]["series.x"]["values"] == [1.0, 2.0]
    on_disk = json.loads(open(path).read())
    assert on_disk == document


# ----------------------------------------------------------------------
# EngineStats as a registry view
# ----------------------------------------------------------------------
def _b_workload(size=8):
    method = scenario_b_method()
    employees, _, newsal = make_company(size)
    instance = tables_to_instance(employees, newsal=newsal)
    receivers = [
        Receiver([Obj("Employee", r["EmpId"]), Obj("Money", r["Salary"])])
        for r in employees
    ]
    return method, instance, receivers


def test_engine_stats_is_registry_view():
    from repro.parallel.apply import (
        parallel_database,
        parallel_statement_expression,
    )

    method, instance, receivers = _b_workload()
    database = parallel_database(method, instance, receivers)
    registry = MetricsRegistry()
    engine = QueryEngine(database, registry=registry)
    expr = parallel_statement_expression(method, "salary")
    engine.evaluate(expr)
    engine.evaluate(expr)

    stats = engine.stats
    assert stats.registry is registry
    assert stats.cache_hits == registry.counter("engine.cache_hits").value
    assert stats.cache_hits > 0
    assert (
        stats.cache_misses
        == registry.counter("engine.cache_misses").value
    )
    # Writes through the attribute API land in the registry too.
    stats.cache_hits += 10
    assert registry.counter("engine.cache_hits").value == stats.cache_hits
    # Operator counters live under engine.op.<name>.*
    op_names = [
        name
        for name in registry.counters()
        if name.startswith("engine.op.")
    ]
    assert op_names
    # The PR 2 surface is intact.
    rendered = stats.render()
    assert "cache:" in rendered
    assert engine.explain(expr)  # non-timing explain still works


def test_explain_timings_labels_cached_nodes():
    from repro.parallel.apply import (
        parallel_database,
        parallel_statement_expression,
    )

    method, instance, receivers = _b_workload()
    database = parallel_database(method, instance, receivers)
    engine = QueryEngine(database)
    expr = parallel_statement_expression(method, "salary")
    engine.evaluate(expr)
    timed = engine.explain(expr, timings=True)
    assert "[cached]" in timed
    # Without timings the near-zero wall times are not printed at all,
    # so the cached label only appears on the shared-subtree marker.
    plain = engine.explain(expr)
    assert "ms]" not in plain


# ----------------------------------------------------------------------
# Wiring: spans cover the four layers; traced apply is equivalent
# ----------------------------------------------------------------------
def test_apply_parallel_threaded_equals_sequential():
    method, instance, receivers = _b_workload(12)
    sequential = apply_sequence(method, instance, receivers)
    assert apply_parallel(method, instance, receivers) == sequential
    with trace.tracing() as tracer:
        apply_parallel(method, instance, receivers)
    names = [s.name for s in tracer.spans]
    assert "parallel.apply" in names
    statements = [
        s for s in tracer.spans if s.name == "parallel.statement"
    ]
    batch = next(s for s in tracer.spans if s.name == "parallel.apply")
    assert statements
    for span in statements:
        assert span.parent is batch


def test_layers_emit_spans_under_one_trace():
    from repro.algebraic.decision import decide_key_order_independence
    from repro.sqlsim.scenarios import (
        fire_by_manager_set,
        salary_update_cursor,
    )

    method, instance, receivers = _b_workload(6)
    with trace.tracing() as tracer:
        employees, fire, newsal = make_company(6)
        fire_by_manager_set(employees, fire)
        salary_update_cursor(employees, newsal)
        apply_parallel(method, instance, receivers)
        decide_key_order_independence(scenario_b_method())
    categories = {s.category for s in tracer.spans}
    assert {"sqlsim", "parallel", "engine", "decision", "chase"} <= (
        categories
    )
    assert validate_chrome_trace(chrome_trace(tracer)) == []


# ----------------------------------------------------------------------
# Self-time rollups (exclusive span time)
# ----------------------------------------------------------------------
def _layered_tracer():
    tracer = Tracer()
    with tracer.span("outer", category="t"):
        with tracer.span("inner", category="t"):
            pass
        with tracer.span("inner", category="t"):
            pass
    return tracer


def test_self_time_subtracts_finished_children():
    tracer = _layered_tracer()
    outer = tracer.roots[0]
    children_ns = sum(child.duration_ns for child in outer.children)
    assert outer.self_time_ns == outer.duration_ns - children_ns
    assert outer.self_time_ns >= 0
    for child in outer.children:
        # Leaves own their entire duration.
        assert child.self_time_ns == child.duration_ns
        assert child.self_time_ms == pytest.approx(child.duration_ms)


def test_self_time_of_running_span_raises_like_duration():
    tracer = Tracer()
    with tracer.span("outer", category="t") as outer:
        with tracer.span("inner", category="t"):
            pass
        # Same contract as duration_ns: defined only once finished.
        with pytest.raises(ValueError):
            outer.self_time_ns


def test_self_time_rollup_aggregates_by_name():
    rows = self_time_rollup(_layered_tracer())
    by_name = {row["name"]: row for row in rows}
    assert by_name["inner"]["count"] == 2
    assert by_name["outer"]["count"] == 1
    for row in rows:
        assert row["self_ms"] <= row["total_ms"] + 1e-9
    # Heaviest self time first.
    assert [row["self_ms"] for row in rows] == sorted(
        (row["self_ms"] for row in rows), reverse=True
    )


def test_rollup_self_times_partition_the_root_duration():
    tracer = _layered_tracer()
    rows = self_time_rollup(tracer)
    total_self = sum(row["self_ms"] for row in rows)
    assert total_self == pytest.approx(tracer.roots[0].duration_ms)


def test_render_tree_self_time_annotations_and_table():
    text = render_tree(_layered_tracer(), self_time=True)
    # Parents show exclusive time inline; leaves do not.
    outer_line = next(
        line for line in text.splitlines() if line.startswith("outer")
    )
    assert "(self " in outer_line and outer_line.rstrip().endswith("ms)")
    inner_line = next(
        line
        for line in text.splitlines()
        if line.lstrip().startswith("inner")
    )
    assert "(self" not in inner_line
    assert "self time by span:" in text
    # Without the flag the tree stays as before.
    plain = render_tree(_layered_tracer())
    assert "(self" not in plain and "self time by span:" not in plain


# ----------------------------------------------------------------------
# write_metrics survives corrupt result files
# ----------------------------------------------------------------------
def test_write_metrics_quarantines_unparsable_json(tmp_path):
    path = str(tmp_path / "BENCH_bad.json")
    with open(path, "w") as handle:
        handle.write('{"series": {truncated...')
    document = write_metrics(path, metrics_dump({"x": 1.0}))
    assert document["series"]["x"]["values"] == [1.0]
    assert json.loads(open(path).read()) == document
    backup = open(path + ".corrupt").read()
    assert backup.startswith('{"series": {truncated')


def test_write_metrics_quarantines_structurally_bad_json(tmp_path):
    path = str(tmp_path / "BENCH_shape.json")
    with open(path, "w") as handle:
        json.dump([1, 2, 3], handle)  # parsable, but not a document
    document = write_metrics(path, metrics_dump({"x": 2.0}))
    assert document["series"]["x"]["values"] == [2.0]
    assert json.loads(open(path + ".corrupt").read()) == [1, 2, 3]


def test_write_metrics_quarantines_unmergeable_document(tmp_path):
    path = str(tmp_path / "BENCH_merge.json")
    with open(path, "w") as handle:
        # A dict, so it survives parsing — but its series table is not
        # a mapping, so merging raises inside merge_metrics.
        json.dump({"schema": METRICS_SCHEMA, "series": 5}, handle)
    document = write_metrics(path, metrics_dump({"x": 3.0}))
    assert document["series"]["x"]["values"] == [3.0]
    assert json.loads(open(path).read()) == document


def test_write_metrics_still_merges_healthy_files(tmp_path):
    path = str(tmp_path / "BENCH_ok.json")
    write_metrics(path, metrics_dump({"x": 1.0}))
    document = write_metrics(path, metrics_dump({"x": 2.0}))
    assert document["series"]["x"]["values"] == [1.0, 2.0]
    import os

    assert not os.path.exists(path + ".corrupt")


# ----------------------------------------------------------------------
# run_traced (the examples' --trace flag)
# ----------------------------------------------------------------------
def test_run_traced_without_flag_is_passthrough(capsys):
    from repro.obs.cli import run_traced

    calls = []
    result = run_traced(lambda: calls.append(1) or 42, "t", argv=[])
    assert result == 42 and calls == [1]
    assert "=== trace" not in capsys.readouterr().out


def test_run_traced_prints_tree_with_self_time(capsys):
    from repro.obs.cli import run_traced

    def body():
        with trace.span("work", category="t"):
            pass
        return "done"

    result = run_traced(body, "example.t", argv=["--trace"])
    out = capsys.readouterr().out
    assert result == "done"
    assert "=== trace: example.t ===" in out
    assert "example.t [example]" in out
    assert "work [t]" in out
    assert "self time by span:" in out


def test_run_traced_writes_chrome_trace(tmp_path, capsys):
    from repro.obs.cli import run_traced

    path = str(tmp_path / "trace.json")
    run_traced(lambda: None, "example.t", argv=["--trace", path])
    trace_doc = json.loads(open(path).read())
    assert validate_chrome_trace(trace_doc) == []
    assert any(
        event["name"] == "example.t"
        for event in trace_doc["traceEvents"]
    )
    assert f"chrome trace written to {path}" in capsys.readouterr().out


def test_run_traced_leaves_unknown_arguments_alone():
    from repro.obs.cli import run_traced

    seen = []
    run_traced(lambda: seen.append(1), "t", argv=["--other", "--trace"])
    assert seen == [1]


# ----------------------------------------------------------------------
# Observability v2: reservoir quantiles, snapshot merging, flight
# ----------------------------------------------------------------------
def test_histogram_reservoir_bounds_memory_on_a_million_observations():
    """The satellite regression: 10^6 observations cost O(k) memory,
    keep the mean/count exact, and estimate quantiles within a few
    percent (the reservoir RNG is name-seeded, so this is
    deterministic, not flaky)."""
    from repro.obs.metrics import RESERVOIR_SIZE, Histogram

    histogram = Histogram("obs.test.million", bounds=(10.0, 1000.0))
    n = 1_000_000
    for value in range(n):
        histogram.observe(value)
    # Exact aggregates survive the sketching.
    assert histogram.count == n
    assert histogram.mean == (n - 1) / 2
    assert histogram.min == 0 and histogram.max == n - 1
    # Bounded memory: the reservoir never outgrows its cap.
    assert len(histogram.reservoir) == RESERVOIR_SIZE
    # Quantile estimates land within 5% of the true rank.
    for q in (0.5, 0.95, 0.99):
        estimate = histogram.quantile(q)
        assert abs(estimate / n - q) < 0.05, (q, estimate)
    percentiles = histogram.percentiles()
    assert set(percentiles) == {"p50", "p95", "p99"}
    assert all(v is not None for v in percentiles.values())


def test_histogram_quantiles_exact_while_stream_fits_reservoir():
    from repro.obs.metrics import Histogram

    histogram = Histogram("obs.test.small", bounds=(50.0,))
    for value in range(1, 101):
        histogram.observe(value)
    assert histogram.quantile(0.0) == 1
    assert histogram.quantile(1.0) == 100
    assert histogram.quantile(0.5) == 51  # round(0.5 * 99) = 50th index
    assert Histogram("obs.test.empty", bounds=(1.0,)).quantile(0.5) is None
    with pytest.raises(ValueError):
        histogram.quantile(1.5)


def test_histogram_merge_combines_streams_and_rejects_bad_bounds():
    from repro.obs.metrics import Histogram

    bounds = (10.0, 100.0)
    low, high = Histogram("obs.m.low", bounds), Histogram("obs.m.high", bounds)
    for value in range(10):
        low.observe(value)
    for value in range(101, 201):
        high.observe(value)
    dump = {
        "bounds": list(high.bounds),
        "counts": list(high.counts),
        "sum": high.sum,
        "count": high.count,
        "min": high.min,
        "max": high.max,
        "reservoir": list(high.reservoir),
    }
    low.merge(dump)
    assert low.count == 110
    assert low.sum == sum(range(10)) + sum(range(101, 201))
    assert low.min == 0 and low.max == 200
    assert low.counts[-1] == 100  # the high stream overflowed both bounds
    assert any(value > 100 for value in low.reservoir)
    with pytest.raises(ValueError):
        low.merge({"bounds": [1.0], "counts": [0, 0], "sum": 0, "count": 0})


def test_registry_merge_snapshot_prefixes_and_adds_deltas():
    """The coordinator-side fold: worker snapshots land under a
    ``shard{N}.`` prefix, and because workers snapshot-then-reset,
    repeated merges accumulate instead of double-counting."""
    worker = MetricsRegistry()
    worker.counter("store.txn.commits").inc(3)
    worker.gauge("parallel.fanout").set_max(4)
    worker.histogram("store.txn.commit_ms.fastpath", bounds=(1.0, 10.0)).observe(2.5)
    snapshot = worker.to_dict()

    coordinator = MetricsRegistry()
    coordinator.merge_snapshot(snapshot, prefix="shard0.")
    coordinator.merge_snapshot(snapshot, prefix="shard0.")  # next delta
    coordinator.merge_snapshot(snapshot, prefix="shard1.")

    counters = coordinator.counters()
    assert counters["shard0.store.txn.commits"] == 6
    assert counters["shard1.store.txn.commits"] == 3
    assert coordinator.gauges()["shard0.parallel.fanout"] == 4
    merged = coordinator.histograms()["shard0.store.txn.commit_ms.fastpath"]
    assert merged["count"] == 2
    assert merged["percentiles"]["p50"] == 2.5


def test_to_dict_skip_zero_omits_reset_instruments():
    """A forked worker inherits the parent's full key set (including
    already-prefixed ``shard{N}.`` aggregates); after its birth reset
    the skip_zero snapshot must be empty, or every fleet generation
    would echo the keys back re-prefixed (``shard0.shard0.…``)."""
    registry = MetricsRegistry()
    registry.counter("store.txn.commits").inc(3)
    registry.gauge("parallel.fanout").set_max(4)
    registry.histogram("shard0.store.txn.commit_ms.fastpath").observe(2.5)

    full = registry.to_dict()
    assert set(full["histograms"]) == {"shard0.store.txn.commit_ms.fastpath"}

    registry.reset()  # instruments survive, values zero
    assert set(registry.to_dict()["counters"]) == {"store.txn.commits"}
    empty = registry.to_dict(skip_zero=True)
    assert empty == {"counters": {}, "gauges": {}, "histograms": {}}

    registry.counter("store.txn.commits").inc()
    delta = registry.to_dict(skip_zero=True)
    assert delta["counters"] == {"store.txn.commits": 1}
    assert delta["histograms"] == {}


def test_flight_recorder_ring_drops_oldest_and_dumps(tmp_path):
    from repro.obs.flight import FLIGHT_SCHEMA, FlightRecorder

    recorder = FlightRecorder(capacity=4)
    for index in range(6):
        recorder.record("txn.commit", txn=index)
    assert len(recorder) == 4
    assert recorder.dropped == 2
    assert [e.data["txn"] for e in recorder.events("txn.commit")] == [2, 3, 4, 5]
    document = recorder.flush(str(tmp_path / "flight.json"))
    assert document["schema"] == FLIGHT_SCHEMA
    assert document["dropped"] == 2
    reloaded = json.loads((tmp_path / "flight.json").read_text())
    assert [e["kind"] for e in reloaded["events"]] == ["txn.commit"] * 4
    # Non-JSON payload values degrade to repr, not a crash.
    recorder.record("odd", payload={1, 2})
    assert isinstance(recorder.dump()["events"][-1]["data"]["payload"], str)


def test_flight_module_disabled_is_a_noop():
    from repro.obs import flight

    previous = flight.disable()
    try:
        flight.record("ignored.event", x=1)  # must not raise, must not record
        assert flight.active() is None
        assert flight.flush("/nonexistent/path.json") is None
        recorder = flight.enable()
        flight.record("kept.event")
        assert len(recorder.events("kept.event")) == 1
    finally:
        flight.enable(previous)


def test_run_traced_flight_flag_flushes_even_on_crash(tmp_path, capsys):
    from repro.obs import flight
    from repro.obs.cli import run_traced

    flight.enable()
    flight.record("before.crash", step=1)
    path = str(tmp_path / "flight.json")

    def crashing():
        flight.record("at.crash", step=2)
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        run_traced(crashing, "example.crash", argv=["--flight", path])
    document = json.loads(open(path).read())
    kinds = [event["kind"] for event in document["events"]]
    assert "before.crash" in kinds and "at.crash" in kinds
    assert f"flight recorder dump written to {path}" in capsys.readouterr().out


def test_metrics_dump_carries_the_flight_audit_trail():
    from repro.obs.flight import FlightRecorder

    recorder = FlightRecorder(capacity=8)
    recorder.record("txn.commit", txn=1, path="fastpath")
    document = metrics_dump({"x": 1.0}, flight=recorder)
    assert document["flight"]["events"][0]["data"]["path"] == "fastpath"
