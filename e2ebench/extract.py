"""Traced-run extractor: per-layer metrics from spans and registry snapshots.

Inputs per traced round: the launcher's span dump (a Chrome trace whose
``X`` events carry ``id``/``parent`` in ``args``; shard-worker spans are
stitched in by the program with their own ``pid``), the client's span
dump, the client's request records (send to reply), and registry
snapshots taken at the edges of the measured window and after reopen.

Only one request is outstanding at a time, so every span that starts
inside a request's interval belongs to that request.  A span's self
time is its duration, clipped to its parent's, minus the time its
children cover; time in a request that no span covers is
``trace.unaccounted_share``.  Two server gaps get synthetic spans of
the ``server`` layer: decoded frame to handler start (queue wait) and
handler end to reply encode.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from instrument import ENGINE_COUNTERS

LAYERS = (
    "client",
    "server.protocol",
    "server",
    "server.session",
    "sharding.router",
    "sharding.service",
    "parallel",
    "objrel",
    "store.versioned",
    "store.txn",
    "store.wal",
    "relational.engine",
    "algebraic.decision",
    "other",
)
TIERS = ("fastpath", "structural", "replay", "commute", "abort")
SHAPES = ("small", "scan", "mgr3", "newsal")


@dataclass
class Span:
    key: Hashable
    name: str
    source: str
    start: int
    end: int
    parent: Optional[Hashable] = None
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def dur(self) -> int:
        return self.end - self.start


def layer_of(span: Span) -> str:
    name = span.name
    if span.source == "client":
        return "client"
    if name in ("bench.classify", "store.txn.classify") or name.startswith(
        ("decision.", "chase.", "containment.")
    ):
        return "algebraic.decision"
    if name in (
        "bench.feed",
        "bench.encode_frame",
        "bench.encode_rows",
        "bench.decode_receivers",
    ):
        return "server.protocol"
    if name in ("server.queue", "server.reply"):
        return "server"
    if name == "server.handle":
        return "server.session"
    if name == "bench.route":
        return "sharding.router"
    if name.startswith(("bench.shard.", "store.shard.")) or name == "shard.handle":
        return "sharding.service"
    if name == "bench.parallel_changes" or name.startswith("parallel."):
        return "parallel"
    if name == "bench.instance_to_database":
        return "objrel"
    if name in ("bench.commit_changes", "store.checkpoint"):
        return "store.versioned"
    if name == "bench.txn_commit" or name.startswith("store.txn."):
        return "store.txn"
    if name == "bench.wal_append":
        return "store.wal"
    if name == "bench.engine_evaluate" or name.startswith("engine."):
        return "relational.engine"
    return "other"


def parse_spans(events: Iterable[Dict[str, Any]], source: str) -> List[Span]:
    """Chrome ``X`` events (with ``args.id``/``args.parent``) as spans."""
    spans = []
    for event in events:
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args", {}))
        key = (source, args.pop("id"))
        parent = args.pop("parent")
        start = int(round(event["ts"] * 1000))
        spans.append(
            Span(
                key,
                event["name"],
                source,
                start,
                start + int(round(event["dur"] * 1000)),
                (source, parent) if parent is not None else None,
                args,
            )
        )
    return spans


def union_length(intervals: List[Tuple[int, int]]) -> int:
    total = 0
    reach = None
    for lo, hi in sorted(intervals):
        if reach is None or lo > reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total


def self_times(
    root: Tuple[int, int], spans: List[Span]
) -> Tuple[Dict[Hashable, int], int]:
    """Self time of every span under ``root`` and root's uncovered time.

    A span whose parent is not in ``spans`` hangs under the root.  Each
    span is clipped to its parent's clipped interval first.
    """
    inside = {span.key for span in spans}
    children: Dict[Optional[Hashable], List[Span]] = defaultdict(list)
    for span in spans:
        children[span.parent if span.parent in inside else None].append(span)
    result: Dict[Hashable, int] = {}

    def visit(key: Optional[Hashable], lo: int, hi: int) -> int:
        clipped = []
        for child in children.get(key, ()):
            a = max(child.start, lo)
            b = max(a, min(child.end, hi))
            covered = visit(child.key, a, b)
            result[child.key] = (b - a) - covered
            if b > a:
                clipped.append((a, b))
        return union_length(clipped)

    covered = visit(None, root[0], root[1])
    return result, (root[1] - root[0]) - covered


def _within(span: Span, name: str, parents: Dict[Hashable, Span]) -> Optional[Span]:
    """The nearest ancestor of ``span`` called ``name``, if any."""
    node = parents.get(span.parent)
    while node is not None and node.name != name:
        node = parents.get(node.parent)
    return node


def _synthetic_gaps(spans: List[Span]) -> List[Span]:
    """Queue wait and reply hand-off of the server, as spans."""
    top = [s for s in spans if s.source == "server" and s.parent is None]
    feed = [s for s in top if s.name == "bench.feed" and s.args.get("messages")]
    handle = [s for s in top if s.name == "server.handle"]
    encode = [s for s in top if s.name == "bench.encode_frame"]
    gaps = []
    if feed and handle and feed[0].end < handle[0].start:
        gaps.append(Span(("gap", "queue", feed[0].end), "server.queue", "server",
                         feed[0].end, handle[0].start))
    if handle and encode and handle[-1].end < encode[-1].start:
        gaps.append(Span(("gap", "reply", handle[-1].end), "server.reply", "server",
                         handle[-1].end, encode[-1].start))
    return gaps


class Accumulator:
    """Sums over every measured request of every traced round."""

    def __init__(self) -> None:
        self.total_ns = 0
        self.unaccounted_ns = 0
        self.layer_ns: Dict[str, int] = defaultdict(int)
        self.sums: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.unknown: Dict[str, int] = defaultdict(int)

    def add(self, name: str, value: float, count: int = 1) -> None:
        self.sums[name] += value
        self.counts[name] += count

    def mean(self, name: str) -> float:
        return self.sums[name] / self.counts[name] if self.counts[name] else 0.0

    def add_window(self, requests: List[Dict[str, Any]], spans: List[Span]) -> None:
        spans = sorted(spans, key=lambda s: s.start)
        starts = [s.start for s in spans]
        for request in requests:
            lo, hi = request["start_ns"], request["end_ns"]
            mine = spans[bisect.bisect_left(starts, lo) : bisect.bisect_left(starts, hi)]
            self.add_request(request, mine + _synthetic_gaps(mine))

    def add_request(self, request: Dict[str, Any], spans: List[Span]) -> None:
        lo, hi = request["start_ns"], request["end_ns"]
        selfs, uncovered = self_times((lo, hi), spans)
        self.total_ns += hi - lo
        self.unaccounted_ns += uncovered
        for span in spans:
            layer = layer_of(span)
            self.layer_ns[layer] += selfs[span.key]
            if layer == "other":
                self.unknown[span.name] += 1
        by_name: Dict[Tuple[str, str], List[Span]] = defaultdict(list)
        for span in spans:
            by_name[(span.source, span.name)].append(span)
        parents = {span.key: span for span in spans}
        ms = 1e-6
        total = lambda src, name: sum(s.dur for s in by_name[(src, name)]) * ms  # noqa: E731
        self.add("client.encode_ms", total("client", "bench.encode_frame"))
        self.add("client.decode_ms", total("client", "bench.feed"))
        self.add(
            "server.decode_ms",
            total("server", "bench.feed") + total("server", "bench.decode_receivers"),
        )
        self.add(
            "server.encode_ms",
            total("server", "bench.encode_frame") + total("server", "bench.encode_rows"),
        )
        self.add(
            "server.reply_bytes",
            sum(s.args.get("bytes", 0) for s in by_name[("server", "bench.encode_frame")]),
        )
        self.add("server.queue_wait_ms", total("server", "server.queue"))
        for span in by_name[("server", "server.handle")]:
            self.add("server.session_ms", selfs[span.key] * ms)
            self.add(f"server.session_ms.{request['request']}", selfs[span.key] * ms)
        for span in by_name[("server", "bench.route")]:
            self.add("sharding.route_ms", span.dur * ms)
            self.add("sharding.cross_share", span.args.get("kind") == "cross_shard")
        self._shard_calls(by_name, parents)
        for span in by_name[("server", "bench.parallel_changes")]:
            self.add("parallel.apply_ms", span.dur * ms)
            self.add(
                "parallel.apply_ms_per_receiver",
                span.dur * ms,
                span.args.get("receivers", 0),
            )
        calls = by_name[("server", "bench.instance_to_database")]
        for span in calls:
            self.add("objrel.to_database_ms", span.dur * ms)
        if request["request"] in ("apply_batch", "apply"):
            self.add("objrel.to_database_calls", len(calls))
        for span in by_name[("server", "bench.commit_changes")]:
            self.add("store.commit_ms", span.dur * ms)
        for span in by_name[("server", "store.txn.commit")]:
            if _within(span, "shard.handle", parents) is not None:
                continue  # a shard's local commit of its sub-batch
            tier = span.args.get("path", "fastpath")
            self.add(f"txn.commit_ms.{tier}", span.dur * ms)
            self.add("txn.commits", 0 if tier == "abort" else 1)
            self.add("txn.attempts", 1)
        self.add("decision.runs", len(by_name[("server", "store.txn.classify")]), 0)
        for span in by_name[("server", "bench.classify")]:
            self.add("decision.ms", span.dur * ms)
        for span in by_name[("server", "bench.wal_append")]:
            self.add("wal.append_ms", span.dur * ms)
        for span in by_name[("server", "bench.engine_evaluate")]:
            for counter in ENGINE_COUNTERS:
                self.add(f"engine.{counter}", span.args.get(counter, 0), 0)
        if request["kind"] == "query":
            for span in by_name[("server", "bench.engine_evaluate")]:
                self.add(f"engine.evaluate_ms.{request['shape']}", span.dur * ms, 0)
                self.add("engine.rows_out", span.args.get("rows", 0))
            self.add(f"engine.evaluate_ms.{request['shape']}", 0.0)

    def _shard_calls(self, by_name, parents) -> None:
        """Pipe time, fan-out skew and staging from shard round trips."""
        sends: Dict[int, List[Span]] = defaultdict(list)
        for span in by_name[("server", "bench.shard.send")]:
            sends[span.args.get("shard")].append(span)
        handles: Dict[Hashable, Span] = {}
        for span in by_name[("server", "shard.handle")]:
            handles[span.parent] = span
        stage_windows = []
        apply_busy = []
        ms = 1e-6
        for recv in by_name[("server", "bench.shard.recv")]:
            queue = sends.get(recv.args.get("shard"))
            if not queue:
                continue
            send = queue.pop(0)
            handle = handles.get(recv.key)
            if handle is None:
                continue
            pipe = (handle.start - send.start) + (recv.end - max(handle.end, recv.start))
            self.add("sharding.pipe_ms", pipe * ms)
            op = send.args.get("op")
            if op in ("stage", "mark"):
                stage_windows.append((send.start, recv.end))
            if op == "apply":
                apply_busy.append(handle.dur)
        if len(apply_busy) >= 2:
            self.add("sharding.fanout_skew_ms", (max(apply_busy) - min(apply_busy)) * ms)
        if stage_windows:
            self.add("sharding.stage_ms", union_length(stage_windows) * ms)
        for span in by_name[("server", "bench.commit_changes")]:
            node = _within(span, "shard.handle", parents)
            if node is not None and node.args.get("op") == "stage":
                self.add("sharding.stage_rows", span.args.get("rows", 0))

    def add_registry(self, start: Dict[str, Any], end: Dict[str, Any]) -> None:
        def delta(kind: str, suffix: str, prefixed: bool = True) -> float:
            total = 0.0
            for name, value in end[kind].items():
                if name == suffix or (prefixed and name.endswith("." + suffix)):
                    before = start[kind].get(name, 0)
                    if kind == "histograms":
                        before = before or {"sum": 0.0, "count": 0}
                        total += value["sum"] - before["sum"]
                    else:
                        total += value - before
            return total

        def hist_count(suffix: str, prefixed: bool) -> float:
            total = 0
            for name, value in end["histograms"].items():
                if name == suffix or (prefixed and name.endswith("." + suffix)):
                    total += value["count"] - start["histograms"].get(name, {"count": 0})["count"]
            return total

        self.add("wal.fsync_ms", delta("histograms", "store.wal.fsync_ms"),
                 int(hist_count("store.wal.fsync_ms", True)))
        self.add("wal.bytes_per_record", delta("counters", "store.wal.bytes"),
                 int(delta("counters", "store.wal.records")))
        self.add("sharding.restarts", delta("counters", "store.shard.restarts"), 0)
        self.add("engine.columnar_regions",
                 hist_count("engine.region.columnar_ms", False), 0)
        self.add("engine.tuple_regions", hist_count("engine.region.tuple_ms", False), 0)

    def add_reopen(self, report: Dict[str, Any]) -> None:
        spans = parse_spans(report.get("spans", []), "server")
        for span in spans:
            if span.name == "bench.from_wal_dir":
                self.add("wal.recover_ms", span.dur * 1e-6)
            if span.name == "bench.recover":
                self.add("wal.records_replayed", span.args.get("commits", 0), 0)
        counters = report["registry"]["counters"]
        self.add("sharding.catchup_rows", counters.get("store.shard.catchup_rows", 0), 0)
        self.add("sharding.resyncs_full", counters.get("store.shard.resyncs.full", 0), 0)

    def metrics(self, rounds: int) -> Dict[str, Tuple[float, str]]:
        out: Dict[str, Tuple[float, str]] = {}
        ms = "ms"
        for name in ("client.encode_ms", "client.decode_ms", "server.decode_ms",
                     "server.encode_ms", "server.queue_wait_ms", "server.session_ms",
                     "sharding.route_ms", "sharding.pipe_ms", "sharding.fanout_skew_ms",
                     "sharding.stage_ms", "parallel.apply_ms",
                     "parallel.apply_ms_per_receiver", "objrel.to_database_ms",
                     "store.commit_ms", "decision.ms", "wal.append_ms", "wal.fsync_ms",
                     "wal.recover_ms"):
            out[name] = (self.mean(name), ms)
        out["server.reply_bytes"] = (self.mean("server.reply_bytes"), "B")
        out["sharding.cross_share"] = (self.mean("sharding.cross_share"), "ratio")
        out["sharding.stage_rows"] = (self.mean("sharding.stage_rows"), "rows")
        out["sharding.restarts"] = (self.sums["sharding.restarts"], "count")
        out["objrel.to_database_calls"] = (self.mean("objrel.to_database_calls"), "count")
        out["store.versions"] = (self.sums["store.versions"] / max(rounds, 1), "count")
        attempts = self.counts["txn.attempts"]
        for tier in TIERS:
            out[f"txn.commit_ms.{tier}"] = (self.mean(f"txn.commit_ms.{tier}"), ms)
            share = self.counts[f"txn.commit_ms.{tier}"] / attempts if attempts else 0.0
            out[f"txn.tier.{tier}"] = (share, "ratio")
        commits = self.sums["txn.commits"]
        out["txn.attempts_per_commit"] = (attempts / commits if commits else 0.0, "ratio")
        out["decision.runs"] = (self.sums["decision.runs"], "count")
        out["wal.bytes_per_record"] = (self.mean("wal.bytes_per_record"), "B")
        out["wal.records_replayed"] = (self.sums["wal.records_replayed"] / max(rounds, 1), "count")
        out["sharding.catchup_rows"] = (self.sums["sharding.catchup_rows"] / max(rounds, 1), "rows")
        out["sharding.resyncs_full"] = (self.sums["sharding.resyncs_full"], "count")
        for shape in SHAPES:
            out[f"engine.evaluate_ms.{shape}"] = (self.mean(f"engine.evaluate_ms.{shape}"), ms)
        s = self.sums
        out["engine.cache_hit_ratio"] = (_ratio(s["engine.cache_hits"], s["engine.cache_misses"]), "ratio")
        out["engine.cross_state_hits"] = (s["engine.cross_state_hits"] / max(rounds, 1), "count")
        out["engine.plan_cache_hit_ratio"] = (
            _ratio(s["engine.plan_cache_hits"], s["engine.plan_cache_misses"]), "ratio")
        out["engine.columnar_share"] = (
            _ratio(s["engine.columnar_regions"], s["engine.tuple_regions"]), "ratio")
        out["engine.rows_out"] = (self.mean("engine.rows_out"), "rows")
        total = self.total_ns or 1
        for layer in LAYERS:
            out[f"layer.{layer}.share"] = (self.layer_ns[layer] / total, "ratio")
        out["trace.unaccounted_share"] = (self.unaccounted_ns / total, "ratio")
        return out


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(traced_rounds, log: Callable[[str], None]) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric over ``traced_rounds``."""
    acc = Accumulator()
    for rnd in traced_rounds:
        server = parse_spans(rnd.reports["end"]["spans"], "server")
        client = parse_spans(rnd.client_spans, "client")
        acc.add_window(rnd.requests, server + client)
        acc.add_registry(rnd.reports["start"]["registry"], rnd.reports["end"]["registry"])
        acc.add("store.versions", rnd.reports["end"]["head_version"], 0)
        acc.add_reopen(rnd.reports["reopen"])
    metrics = acc.metrics(len(traced_rounds))
    accounted = sum(
        value for name, (value, _) in metrics.items() if name.startswith("layer.")
    ) + metrics["trace.unaccounted_share"][0]
    log(
        f"trace: {acc.total_ns / 1e6:.1f} ms of client-observed latency; layer "
        f"self shares + unaccounted = {accounted:.4f}"
    )
    for name in sorted(acc.sums):
        if name.startswith("server.session_ms."):
            log(f"{name}: {acc.mean(name):.3f} ms (self, per request)")
    if acc.unknown:
        log(f"spans in layer 'other': {dict(acc.unknown)}")
    return metrics
