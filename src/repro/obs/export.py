"""Exporters: text trees, Chrome ``trace_event`` JSON, metrics dumps.

Three views over the same observations:

* :func:`render_tree` — a human-readable span tree (durations,
  attributes, instant events), for terminals and docstrings;
* :func:`chrome_trace` — the Chrome JSON trace-event format (the
  ``traceEvents`` array of complete ``"X"`` and instant ``"i"``
  events), loadable in ``about://tracing`` and Perfetto;
  :func:`validate_chrome_trace` checks a dump against the format's
  required fields so tests and the demo can round-trip it;
* :func:`metrics_dump` / :func:`merge_metrics` — the flat metrics-JSON
  schema (:data:`METRICS_SCHEMA`) shared by every ``BENCH_*.json``
  artifact: named series of measured values plus a registry snapshot.
  ``merge_metrics`` appends series point-wise by key, so a benchmark
  file accumulates a perf trajectory across runs instead of being
  overwritten.
"""

from __future__ import annotations

import json
import os
import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Event, Span, Tracer

#: Identifier of the shared benchmark/metrics JSON schema.
METRICS_SCHEMA = "repro.obs/metrics-v1"


# ----------------------------------------------------------------------
# Text tree
# ----------------------------------------------------------------------
def _format_args(args: Mapping[str, Any]) -> str:
    if not args:
        return ""
    body = ", ".join(f"{k}={v!r}" for k, v in sorted(args.items()))
    return f"  {{{body}}}"


def _render_span(
    span: Span,
    indent: int,
    lines: List[str],
    max_events: int,
    self_time: bool,
) -> None:
    pad = "  " * indent
    duration = (
        f"{span.duration_ms:.3f} ms" if span.finished else "open"
    )
    if self_time and span.finished and span.children:
        duration += f" (self {span.self_time_ms:.3f} ms)"
    lines.append(
        f"{pad}{span.name} [{span.category}]  {duration}"
        f"{_format_args(span.args)}"
    )
    shown = span.events[:max_events]
    for event in shown:
        lines.append(f"{pad}  * {event.name}{_format_args(event.args)}")
    hidden = len(span.events) - len(shown)
    if hidden > 0:
        lines.append(f"{pad}  * ... {hidden} more event(s)")
    for child in span.children:
        _render_span(child, indent + 1, lines, max_events, self_time)


def self_time_rollup(tracer: Tracer) -> List[Dict[str, Any]]:
    """Aggregate self time per span name, heaviest first.

    Self time is each span's duration minus its finished children —
    where the program *itself* spent the wall clock, as opposed to
    inclusive durations, which double-count nested work.  Rows carry
    ``name``, ``category``, ``count``, ``self_ms`` and ``total_ms``.
    """
    table: Dict[tuple, Dict[str, Any]] = {}
    for span in tracer.spans:
        if not span.finished:
            continue
        row = table.setdefault(
            (span.name, span.category),
            {
                "name": span.name,
                "category": span.category,
                "count": 0,
                "self_ms": 0.0,
                "total_ms": 0.0,
            },
        )
        row["count"] += 1
        row["self_ms"] += span.self_time_ms
        row["total_ms"] += span.duration_ms
    return sorted(
        table.values(), key=lambda row: -row["self_ms"]
    )


def render_tree(
    tracer: Tracer, max_events: int = 8, self_time: bool = False
) -> str:
    """The tracer's span forest as an indented text tree.

    With ``self_time``, spans that have children also show their own
    (exclusive) time, and a per-name rollup table — the flat profile of
    where the wall clock actually went — is appended below the tree.
    """
    lines: List[str] = []
    for root in tracer.roots:
        _render_span(root, 0, lines, max_events, self_time)
    if self_time:
        rollup = self_time_rollup(tracer)
        if rollup:
            lines.append("")
            lines.append("self time by span:")
            width = max(len(row["name"]) for row in rollup)
            for row in rollup:
                lines.append(
                    f"  {row['name']:<{width}}  "
                    f"x{row['count']:<5d} "
                    f"self {row['self_ms']:10.3f} ms   "
                    f"total {row['total_ms']:10.3f} ms"
                )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Chrome trace_event JSON
# ----------------------------------------------------------------------
def _json_safe(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _safe_args(args: Mapping[str, Any]) -> Dict[str, Any]:
    return {key: _json_safe(value) for key, value in args.items()}


def chrome_trace(tracer: Tracer, pid: Optional[int] = None) -> Dict[str, Any]:
    """The trace as a Chrome/Perfetto ``trace_event`` JSON object.

    Finished spans become complete (``"X"``) events with microsecond
    ``ts``/``dur``; instant events become ``"i"`` events with thread
    scope.  Timestamps come straight off the tracer's monotonic clock,
    so concurrent spans land on their own ``tid`` rows.

    Spans adopted from shard workers (:meth:`Tracer.adopt_remote`)
    carry their origin ``pid``, so a stitched fleet trace renders each
    worker process as its own labelled row group — the coordinator and
    every shard on one timeline.
    """
    if pid is None:
        pid = os.getpid()
    trace_events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "repro coordinator"},
        }
    ]
    for remote_pid, label in sorted(tracer.process_labels.items()):
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": remote_pid,
                "tid": 0,
                "args": {"name": f"repro {label}"},
            }
        )
    for span in tracer.spans:
        if not span.finished:
            continue
        trace_events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": span.start_ns / 1e3,
                "dur": span.duration_ns / 1e3,
                "pid": span.pid if span.pid is not None else pid,
                "tid": span.thread_id,
                "args": _safe_args(span.args),
            }
        )
    for event in tracer.events:
        owner = event.parent
        event_pid = (
            owner.pid
            if owner is not None and owner.pid is not None
            else pid
        )
        trace_events.append(
            {
                "name": event.name,
                "cat": event.category,
                "ph": "i",
                "ts": event.ts_ns / 1e3,
                "s": "t",
                "pid": event_pid,
                "tid": event.thread_id,
                "args": _safe_args(event.args),
            }
        )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    tracer: Tracer, path: str, pid: Optional[int] = None
) -> Dict[str, Any]:
    """Dump :func:`chrome_trace` to ``path``; returns the object."""
    trace = chrome_trace(tracer, pid=pid)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, indent=1)
        handle.write("\n")
    return trace


def validate_chrome_trace(trace: Any) -> List[str]:
    """Problems that would make ``trace`` unloadable as a trace-event
    dump (empty list = valid).

    Checks the JSON-object container, the ``traceEvents`` array, and
    per event the fields the format requires: ``name``/``ph`` strings,
    numeric ``ts``/``pid``/``tid``, a numeric ``dur`` on complete
    (``"X"``) events, and ``ts + dur`` consistency (non-negative
    durations).
    """
    problems: List[str] = []
    if not isinstance(trace, dict):
        return [f"trace must be a JSON object, got {type(trace).__name__}"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a JSON array"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not a JSON object")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing string 'name'")
        phase = event.get("ph")
        if not isinstance(phase, str) or not phase:
            problems.append(f"{where}: missing string 'ph'")
            continue
        if phase == "M":
            continue  # metadata events carry no timestamp
        for field in ("ts", "pid", "tid"):
            if not isinstance(event.get(field), (int, float)):
                problems.append(f"{where}: missing numeric {field!r}")
        if phase == "X":
            duration = event.get("dur")
            if not isinstance(duration, (int, float)):
                problems.append(f"{where}: complete event without 'dur'")
            elif duration < 0:
                problems.append(f"{where}: negative 'dur' {duration}")
        if phase == "i" and event.get("s") not in (None, "t", "p", "g"):
            problems.append(f"{where}: bad instant scope {event.get('s')!r}")
        args = event.get("args")
        if args is not None and not isinstance(args, dict):
            problems.append(f"{where}: 'args' must be an object")
    return problems


# ----------------------------------------------------------------------
# The shared metrics-JSON schema
# ----------------------------------------------------------------------
def metrics_dump(
    series: Mapping[str, Union[float, Sequence[float]]],
    registry: Optional[MetricsRegistry] = None,
    suite: str = "repro",
    flight: Optional[Any] = None,
    better: Optional[Mapping[str, str]] = None,
) -> Dict[str, Any]:
    """A :data:`METRICS_SCHEMA` document.

    ``series`` maps measurement names to a value (one run) or a value
    list (a trajectory); a registry snapshot rides along when given,
    as does a :class:`~repro.obs.flight.FlightRecorder` dump (the
    per-transaction audit trail — commit tiers, retries, breaker
    transitions — next to the numbers they explain).  ``better`` maps
    a series name to ``"higher"`` for series where a larger value is an
    improvement (speedups, hit rates); every other series is
    ``"lower"``-is-better.
    """
    better = better or {}
    normalized = {
        name: {
            "unit": "seconds",
            "better": better.get(name, "lower"),
            "values": (
                [float(v) for v in value]
                if isinstance(value, (list, tuple))
                else [float(value)]
            ),
        }
        for name, value in sorted(series.items())
    }
    document: Dict[str, Any] = {
        "schema": METRICS_SCHEMA,
        "suite": suite,
        "series": normalized,
    }
    if registry is not None:
        document["metrics"] = registry.to_dict()
    if flight is not None:
        document["flight"] = flight.dump()
    return document


def _as_series(document: Mapping[str, Any]) -> Dict[str, Dict[str, Any]]:
    """The series table of ``document``, upgrading the legacy flat
    ``{name: seconds}`` layout of pre-schema ``BENCH_*.json`` files."""
    if document.get("schema") == METRICS_SCHEMA:
        series = document.get("series", {})
        return {
            name: {
                "unit": entry.get("unit", "seconds"),
                "better": entry.get("better", "lower"),
                "values": list(entry.get("values", [])),
            }
            for name, entry in series.items()
        }
    return {
        name: {"unit": "seconds", "values": [float(value)]}
        for name, value in document.items()
        if isinstance(value, (int, float))
    }


def merge_metrics(
    existing: Optional[Mapping[str, Any]], fresh: Mapping[str, Any]
) -> Dict[str, Any]:
    """Merge two metrics documents, appending series values by key.

    Series present in both keep the existing history and gain the fresh
    run's values, and take their direction (``better``) from the fresh
    run; series present in only one side are kept as they are.
    Non-series payloads (registry snapshot, suite name) come from the
    fresh document — counters are cumulative per run, so only the
    latest snapshot is meaningful.
    """
    merged_series = _as_series(existing) if existing else {}
    for name, entry in _as_series(fresh).items():
        if name in merged_series:
            merged_series[name]["values"].extend(entry["values"])
            merged_series[name]["better"] = entry["better"]
        else:
            merged_series[name] = entry
    document = dict(fresh)
    document["schema"] = METRICS_SCHEMA
    document["series"] = merged_series
    return document


_IO_LOCK = threading.Lock()


def _quarantine(path: str) -> None:
    """Move a corrupt metrics file aside (``<path>.corrupt``), best-effort.

    A benchmark run must never die because a previous run (or a partial
    CI upload) left garbage behind — the history is an accumulator, not
    a dependency.  The bad bytes are preserved next door for forensics.
    """
    try:
        os.replace(path, path + ".corrupt")
    except OSError:
        pass


def write_metrics(path: str, document: Mapping[str, Any]) -> Dict[str, Any]:
    """Merge ``document`` into the file at ``path`` and rewrite it.

    Reads any existing dump first (schema'd or legacy flat) and merges
    series by key, so the file accumulates values across runs.  An
    existing file that is truncated, unparsable, or structurally not a
    metrics document is backed up to ``<path>.corrupt`` and the history
    restarts from this run instead of raising.
    """
    with _IO_LOCK:
        existing: Optional[Dict[str, Any]] = None
        if os.path.exists(path):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    existing = json.load(handle)
                if not isinstance(existing, dict):
                    raise ValueError(
                        f"metrics file holds {type(existing).__name__}, "
                        "expected an object"
                    )
            except (OSError, ValueError):
                existing = None
                _quarantine(path)
        try:
            merged = merge_metrics(existing, document)
        except (AttributeError, KeyError, TypeError, ValueError):
            # Parsable JSON object, but not shaped like a metrics dump
            # (e.g. series entries that are not objects).
            _quarantine(path)
            merged = merge_metrics(None, document)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(merged, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return merged
