"""Tests of the benchmark's own logic (no server is started).

    PYTHONPATH=src python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src"))

import extract  # noqa: E402
import hosttime  # noqa: E402
import ops  # noqa: E402
import oracle  # noqa: E402


def test_one_seed_always_generates_the_same_ops():
    for workload in ops.WORKLOADS:
        first = ops.generate(workload, 7, 0)
        assert first == ops.generate(workload, 7, 0)
        assert first != ops.generate(workload, 8, 0)
        assert first != ops.generate(workload, 7, 1)


def test_every_write_changes_every_salary_it_names():
    # Replay the writes in commit order (a txn's interleaved op commits
    # first) through the paper's fold: each must change 2 rows (one
    # deleted, one inserted) per receiver.
    for workload in ops.WORKLOADS:
        writes = []
        for op in ops.generate(workload, 3, 0, blocks=2):
            if op.interleave is not None:
                writes.append((op.interleave.method, op.interleave.receivers))
            if op.kind != "query":
                writes.append((op.method, op.receivers))
        spec = ops.WORKLOADS[workload]
        company = ops.company(spec.employees, ops.company_seed(workload, 3, 0))
        _, changed, failures = oracle.Oracle(company).check(writes, [])
        assert failures == []
        assert changed == [2 * ops.BATCH] * len(writes)


def test_host_correction_is_identity_at_the_reference_probe():
    ref = hosttime.PROBE_REF_MS
    assert hosttime.corrected(12.5, ref) == 12.5
    samples = [(3.0, 0), (7.25, 1), (1.5, 2)]
    assert hosttime.correct_all(samples, [ref, ref, ref]) == [3.0, 7.25, 1.5]
    # A probe twice as slow halves the corrected latency.
    assert hosttime.corrected(10.0, 2 * ref) == 5.0


def test_nearest_probe_and_level_ignore_a_lone_outlier():
    probes = [1.0] * 4 + [9.0] + [1.0] * 5
    assert hosttime.nearest_probe(probes, 4) == 1.0
    assert hosttime.level(probes) == 1.0


def _span(key, start, end, parent=None, name="x", source="server"):
    return extract.Span(key, name, source, start, end, parent)


def test_self_time_matches_a_hand_built_tree():
    spans = [
        _span("a", 10, 60),
        _span("b", 20, 30, "a"),
        _span("c", 25, 40, "a"),  # overlaps its sibling b
        _span("d", 55, 70, "a"),  # escapes its parent: clipped to 55..60
        _span("e", 70, 90),
        _span("f", 80, 95, "e"),  # clipped to 80..90
        _span("g", 92, 95, "gone"),  # parent outside the set: under root
    ]
    selfs, unaccounted = extract.self_times((0, 100), spans)
    assert selfs == {"a": 25, "b": 10, "c": 15, "d": 5, "e": 10, "f": 10, "g": 3}
    assert unaccounted == 100 - (50 + 20 + 3)


def test_layer_shares_and_unaccounted_add_up_to_the_request():
    acc = extract.Accumulator()
    request = {"start_ns": 0, "end_ns": 100, "request": "apply_batch", "kind": "write", "shape": ""}
    spans = [
        _span("h", 10, 90, name="server.handle"),
        _span("p", 20, 70, "h", name="bench.parallel_changes"),
        _span("o", 30, 40, "p", name="bench.instance_to_database"),
        _span("w", 75, 85, "h", name="bench.wal_append"),
    ]
    acc.add_request(request, spans)
    metrics = acc.metrics(1)
    shares = {n: v for n, (v, _) in metrics.items() if n.startswith("layer.")}
    assert shares["layer.server.session.share"] == 0.2
    assert shares["layer.parallel.share"] == 0.4
    assert shares["layer.objrel.share"] == 0.1
    assert shares["layer.store.wal.share"] == 0.1
    assert metrics["trace.unaccounted_share"][0] == 0.2
    assert abs(sum(shares.values()) + 0.2 - 1.0) < 1e-12
