"""Spans around layer entry points, installed from the benchmark's side.

The traced run wraps public calls that emit no span of their own (and a
few that do, for uniform names) so that every end-to-end latency splits
by layer.  :func:`install_server` runs in the launcher *before* the
fleet forks, so shard workers inherit the wrappers and ship their spans
back through the program's own trace stitching.  :func:`install_client`
wraps the client's frame encode and decode.  Nothing here changes what
a wrapped call does or returns.
"""

from __future__ import annotations

import functools
import importlib
import sys
from typing import Any, Callable, Dict, List, Optional

from repro.obs import tracer as trace


ENGINE_COUNTERS = (
    "cache_hits",
    "cache_misses",
    "cross_state_hits",
    "plan_cache_hits",
    "plan_cache_misses",
)


def _engine_counts(engine) -> Dict[str, int]:
    # Each QueryEngine keeps its counters in a private registry.
    return {name: getattr(engine.stats, name) for name in ENGINE_COUNTERS}


def _attrs_of(name: str, args, kwargs, result, before) -> Dict[str, Any]:
    """Span attributes worth keeping for the extractor."""
    if name == "bench.encode_frame":
        return {"bytes": len(result)}
    if name == "bench.feed":
        return {"messages": len(result), "bytes": len(args[1])}
    if name == "bench.encode_rows":
        return {"rows": len(result)}
    if name == "bench.route":
        return {"kind": result.kind, "receivers": len(args[2])}
    if name == "bench.parallel_changes":
        receivers = args[2] if len(args) > 2 else kwargs.get("receivers", ())
        return {"receivers": len(tuple(receivers))}
    if name == "bench.commit_changes":
        changes = args[1] if len(args) > 1 else kwargs.get("changes", {})
        return {
            "rows": sum(
                len(d.inserted) + len(d.deleted) for d in changes.values()
            )
        }
    if name == "bench.shard.send":
        return {"shard": args[0].shard, "op": args[1][0]}
    if name == "bench.shard.recv":
        return {"shard": args[0].shard}
    if name == "bench.engine_evaluate":
        after = _engine_counts(args[0])
        attrs = {key: after[key] - before[key] for key in ENGINE_COUNTERS}
        attrs["rows"] = len(result)
        return attrs
    if name == "bench.recover":
        return {"commits": result.commits_applied}
    return {}


def _wrap(fn: Callable, name: str) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer = trace.active()
        if tracer is None:
            return fn(*args, **kwargs)
        before = _engine_counts(args[0]) if name == "bench.engine_evaluate" else None
        with tracer.span(name, category="bench") as span:
            result = fn(*args, **kwargs)
            span.set(**_attrs_of(name, args, kwargs, result, before))
        return result

    wrapper.__e2ebench_wrapped__ = True
    return wrapper


def _patch_function(module_name: str, attr: str, name: str) -> None:
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    if getattr(original, "__e2ebench_wrapped__", False):
        return
    wrapped = _wrap(original, name)
    # Rebind every ``from module import attr`` copy as well.
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("repro") and (
            getattr(loaded, attr, None) is original
        ):
            setattr(loaded, attr, wrapped)


def _patch_method(module_name: str, qualname: str, name: str) -> None:
    module = importlib.import_module(module_name)
    cls_name, attr = qualname.split(".")
    cls = getattr(module, cls_name)
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        if getattr(raw.__func__, "__e2ebench_wrapped__", False):
            return
        setattr(cls, attr, classmethod(_wrap(raw.__func__, name)))
    else:
        if getattr(raw, "__e2ebench_wrapped__", False):
            return
        setattr(cls, attr, _wrap(raw, name))


#: (module, function or Class.method, span name), server process side.
SERVER_TARGETS = (
    ("repro.server.protocol", "encode_frame", "bench.encode_frame"),
    ("repro.server.protocol", "FrameDecoder.feed", "bench.feed"),
    ("repro.server.protocol", "encode_rows", "bench.encode_rows"),
    ("repro.server.protocol", "decode_receivers", "bench.decode_receivers"),
    ("repro.store.sharding.router", "Router.route", "bench.route"),
    ("repro.parallel.apply", "parallel_changes", "bench.parallel_changes"),
    ("repro.objrel.mapping", "instance_to_database", "bench.instance_to_database"),
    ("repro.store.versioned", "VersionedStore.commit_changes", "bench.commit_changes"),
    ("repro.store.txn", "Transaction.commit", "bench.txn_commit"),
    ("repro.store.wal", "WriteAheadLog.append_commit", "bench.wal_append"),
    ("repro.relational.engine", "QueryEngine.evaluate", "bench.engine_evaluate"),
    ("repro.store.txn", "classify_order_independence", "bench.classify"),
    ("repro.store.sharding.service", "ShardedStore.from_wal_dir", "bench.from_wal_dir"),
    ("repro.store.sharding.service", "ProcessShard.send", "bench.shard.send"),
    ("repro.store.sharding.service", "ProcessShard.recv", "bench.shard.recv"),
    ("repro.store.recovery", "recover", "bench.recover"),
)

CLIENT_TARGETS = (
    ("repro.server.protocol", "encode_frame", "bench.encode_frame"),
    ("repro.server.protocol", "FrameDecoder.feed", "bench.feed"),
)


def _install(targets) -> None:
    # Import every module first so copies bound by ``from x import y``
    # exist when the rebinding pass looks for them.
    for module_name in (
        "repro.server.server",
        "repro.server.session",
        "repro.server.client",
        "repro.store.sharding",
        "repro.store.txn",
        "repro.store.versioned",
        "repro.store.recovery",
    ):
        importlib.import_module(module_name)
    for module_name, target, name in targets:
        if "." in target:
            _patch_method(module_name, target, name)
        else:
            _patch_function(module_name, target, name)


def install_server() -> None:
    _install(SERVER_TARGETS)


def install_client() -> None:
    _install(CLIENT_TARGETS)


def dump_spans(tracer: trace.Tracer, pid: int, since_ns: int = 0) -> List[Dict[str, Any]]:
    """Finished spans as Chrome ``X`` events, with ``id``/``parent`` in
    ``args`` so the extractor can rebuild the tree across threads and
    processes."""
    events: List[Dict[str, Any]] = []
    with tracer._lock:
        spans = list(tracer.spans)
    for span in spans:
        if not span.finished or span.end_ns < since_ns:
            continue
        parent: Optional[int] = (
            span.parent.span_id if span.parent is not None else None
        )
        args = {
            key: value
            for key, value in span.args.items()
            if isinstance(value, (str, int, float, bool)) or value is None
        }
        args["id"] = span.span_id
        args["parent"] = parent
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": span.start_ns / 1e3,
                "dur": (span.end_ns - span.start_ns) / 1e3,
                "pid": span.pid if span.pid is not None else pid,
                "tid": span.thread_id,
                "args": args,
            }
        )
    return events
