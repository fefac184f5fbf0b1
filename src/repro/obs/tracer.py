"""Hierarchical tracing with a near-zero-cost disabled path.

The tracer records *spans* — named, timed, attributed intervals that
nest into a tree — and *instant events* attached to the span open at
the moment they fire.  Instrumented code goes through the module-level
helpers :func:`span`, :func:`event` and :func:`traced`, which consult a
single module global: while no tracer is installed they return a shared
no-op handle (``span``) or return immediately (``event``), so the hot
paths of the engine, the chase and the sqlsim loops pay one global load
and one ``is None`` test per call site.  The benchmark suite asserts
this disabled-path overhead stays below 5% of the instrumented
workloads (``bench_engine.test_disabled_tracing_overhead``).

Thread model: each thread keeps its own open-span stack, so concurrent
workers never corrupt each other's nesting.  A worker thread initially
has an *empty* stack; to nest its spans under the span that spawned it
(a batch span over its pool workers), wrap the worker callable with
:meth:`Tracer.wrap`, which captures the current span at wrap time and
installs it as the worker thread's parent for the duration of the
call.  All cross-thread structure mutations (root list, child lists,
event list) happen under one lock.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence


class Span:
    """One timed interval in a trace tree.

    A span is its own context manager: entering starts the clock and
    pushes it on the owning tracer's per-thread stack, exiting stops the
    clock and pops it.  ``set(**args)`` attaches attributes at any point
    while the span is open (or after — attributes are plain data).
    """

    __slots__ = (
        "name",
        "category",
        "args",
        "start_ns",
        "end_ns",
        "parent",
        "children",
        "thread_id",
        "events",
        "span_id",
        "pid",
        "_tracer",
    )

    def __init__(
        self, tracer: "Tracer", name: str, category: str, args: Dict[str, Any]
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.category = category
        self.args = args
        self.start_ns: Optional[int] = None
        self.end_ns: Optional[int] = None
        self.parent: Optional[Span] = None
        self.children: List[Span] = []
        self.events: List["Event"] = []
        self.thread_id: Optional[int] = None
        self.span_id: Optional[int] = None
        self.pid: Optional[int] = None
        """Origin process of an adopted remote span (``None`` = local)."""

    def set(self, **args: Any) -> "Span":
        """Attach (or overwrite) attributes; returns the span."""
        self.args.update(args)
        return self

    @property
    def duration_ns(self) -> int:
        if self.start_ns is None or self.end_ns is None:
            raise ValueError(f"span {self.name!r} has not finished")
        return self.end_ns - self.start_ns

    @property
    def duration_ms(self) -> float:
        return self.duration_ns / 1e6

    @property
    def self_time_ns(self) -> int:
        """Time spent in this span minus its finished children.

        Children running on *other* threads (via :meth:`Tracer.wrap`)
        overlap their parent's wall clock, so concurrent batches can
        push the naive subtraction below zero — clamped to 0, meaning
        "fully accounted for by children".
        """
        child_ns = sum(
            child.duration_ns for child in self.children if child.finished
        )
        return max(0, self.duration_ns - child_ns)

    @property
    def self_time_ms(self) -> float:
        return self.self_time_ns / 1e6

    @property
    def finished(self) -> bool:
        return self.end_ns is not None

    def __enter__(self) -> "Span":
        self._tracer._enter(self)
        return self

    def __exit__(self, *exc: object) -> bool:
        self._tracer._exit(self)
        return False

    def __repr__(self) -> str:
        timing = (
            f"{self.duration_ms:.3f}ms" if self.finished else "open"
        )
        return f"Span({self.name!r}, {self.category!r}, {timing})"


class Event:
    """An instant (zero-duration) trace point."""

    __slots__ = ("name", "category", "args", "ts_ns", "thread_id", "parent")

    def __init__(
        self,
        name: str,
        category: str,
        args: Dict[str, Any],
        ts_ns: int,
        thread_id: int,
        parent: Optional[Span],
    ) -> None:
        self.name = name
        self.category = category
        self.args = args
        self.ts_ns = ts_ns
        self.thread_id = thread_id
        self.parent = parent

    def __repr__(self) -> str:
        return f"Event({self.name!r}, {self.category!r})"


class _NoopSpan:
    """The shared handle the module helpers return while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **args: Any) -> "_NoopSpan":
        return self


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Collects a forest of spans plus instant events, thread-safely.

    ``spans`` lists every span in start order (across threads);
    ``roots`` lists the top-level spans; ``events`` the instant events.
    One tracer instance can be used concurrently from any number of
    threads — per-thread open-span stacks keep nesting correct, and
    :meth:`wrap` carries parentage into worker threads.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._span_ids = itertools.count(1)
        self.trace_id = f"{os.getpid():x}-{time.time_ns():x}"
        self.roots: List[Span] = []
        self.spans: List[Span] = []
        self.events: List[Event] = []
        #: Labels for the Chrome export's per-process rows, keyed by
        #: pid — filled by :meth:`adopt_remote` (``shard 0``, ...).
        self.process_labels: Dict[int, str] = {}

    # -- span construction --------------------------------------------
    def span(self, name: str, category: str = "app", **args: Any) -> Span:
        """A new (not yet started) span; use as a context manager."""
        return Span(self, name, category, args)

    def event(self, name: str, category: str = "app", **args: Any) -> Event:
        """Record an instant event under the current span (if any)."""
        parent = self.current()
        evt = Event(
            name,
            category,
            args,
            self._clock(),
            threading.get_ident(),
            parent,
        )
        with self._lock:
            self.events.append(evt)
            if parent is not None:
                parent.events.append(evt)
        return evt

    def current(self) -> Optional[Span]:
        """The innermost open span of the calling thread."""
        stack = getattr(self._local, "stack", None)
        if stack:
            return stack[-1]
        return getattr(self._local, "adopted", None)

    def wrap(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Bind ``fn`` to the *current* span for cross-thread nesting.

        The returned callable, run in any thread, opens its spans as
        children of the span that was current when ``wrap`` was called —
        how worker spans of a thread pool nest under their batch span.
        """
        parent = self.current()

        @functools.wraps(fn)
        def bound(*args: Any, **kwargs: Any) -> Any:
            previous = getattr(self._local, "adopted", None)
            self._local.adopted = parent
            try:
                return fn(*args, **kwargs)
            finally:
                self._local.adopted = previous

        return bound

    @contextmanager
    def adopting(self, parent: Optional["Span"]) -> Iterator[None]:
        """Adopt ``parent`` for the calling thread for one block.

        The context-manager form of :meth:`wrap`, for callers that hold
        a parent *span object* rather than a callable to bind — the
        network server's handler threads look the request's originating
        span up by id (:meth:`span_by_id`) and nest their work under it,
        so an in-process round trip renders as one causal tree.
        ``parent=None`` is a no-op block.
        """
        if parent is None:
            yield
            return
        previous = getattr(self._local, "adopted", None)
        self._local.adopted = parent
        try:
            yield
        finally:
            self._local.adopted = previous

    def span_by_id(self, span_id: Optional[int]) -> Optional["Span"]:
        """The recorded span with ``span_id``, or ``None``.

        Newest-first scan: the ids being looked up are almost always
        the request spans opened moments ago (the trace-context
        ``parent_span_id`` of an in-process peer).
        """
        if span_id is None:
            return None
        with self._lock:
            for span in reversed(self.spans):
                if span.span_id == span_id:
                    return span
        return None

    # -- span lifecycle (called by Span.__enter__/__exit__) ------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, span: Span) -> None:
        if span.start_ns is not None:
            raise ValueError(f"span {span.name!r} entered twice")
        stack = self._stack()
        parent = stack[-1] if stack else getattr(
            self._local, "adopted", None
        )
        span.parent = parent
        span.thread_id = threading.get_ident()
        with self._lock:
            span.span_id = next(self._span_ids)
            if parent is None:
                self.roots.append(span)
            else:
                parent.children.append(span)
            self.spans.append(span)
        stack.append(span)
        span.start_ns = self._clock()

    def _exit(self, span: Span) -> None:
        span.end_ns = self._clock()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise ValueError(
                f"span {span.name!r} exited out of order (the open-span "
                "stack of this thread ends elsewhere)"
            )
        stack.pop()

    def clear(self) -> None:
        with self._lock:
            self.roots.clear()
            self.spans.clear()
            self.events.clear()

    # -- cross-process propagation and stitching -----------------------
    def context(self) -> Dict[str, Any]:
        """The trace context to attach to an outbound request.

        ``(trace_id, parent_span_id)`` is the whole wire contract: the
        receiver runs its own local tracer, tags its serialized spans
        with the trace id, and the caller stitches them back in under
        the span that was current when the request went out.
        """
        current = self.current()
        return {
            "trace_id": self.trace_id,
            "parent_span_id": (
                current.span_id if current is not None else None
            ),
        }

    def serialize_spans(self) -> List[Dict[str, Any]]:
        """Every finished span as plain picklable/JSON-able data.

        The payload a shard worker ships back in its response:
        ``parent_id`` references ``span_id`` within the same payload
        (``None`` for the worker's own roots, which the stitcher hangs
        under the request span).  Instant events ride along on their
        owning span.
        """
        with self._lock:
            spans = list(self.spans)
        payload: List[Dict[str, Any]] = []
        for span in spans:
            if not span.finished:
                continue
            payload.append(
                {
                    "span_id": span.span_id,
                    "parent_id": (
                        span.parent.span_id
                        if span.parent is not None
                        else None
                    ),
                    "name": span.name,
                    "category": span.category,
                    "args": dict(span.args),
                    "start_ns": span.start_ns,
                    "end_ns": span.end_ns,
                    "thread_id": span.thread_id,
                    "events": [
                        {
                            "name": event.name,
                            "category": event.category,
                            "args": dict(event.args),
                            "ts_ns": event.ts_ns,
                        }
                        for event in span.events
                    ],
                }
            )
        return payload

    def adopt_remote(
        self,
        payload: Sequence[Mapping[str, Any]],
        parent: Optional[Span] = None,
        pid: Optional[int] = None,
        process_label: Optional[str] = None,
    ) -> List[Span]:
        """Stitch a :meth:`serialize_spans` payload into this trace.

        Rebuilds the remote spans (tagged with ``pid`` so the Chrome
        export gives each worker process its own row), re-links their
        parent/child structure, and hangs the payload's roots under
        ``parent`` — the coordinator span that issued the request — so
        a cross-shard commit renders as one causal tree.  Timestamps
        are adopted verbatim: ``perf_counter_ns`` reads the shared
        system monotonic clock on the platforms the fleet runs on (and
        workers are forked, not re-imported), so coordinator and
        worker spans land on one comparable timeline.
        """
        rebuilt: Dict[int, Span] = {}
        adopted: List[Span] = []
        for entry in payload:
            span = Span(
                self,
                entry["name"],
                entry["category"],
                dict(entry["args"]),
            )
            span.start_ns = entry["start_ns"]
            span.end_ns = entry["end_ns"]
            span.thread_id = entry.get("thread_id")
            span.pid = pid
            rebuilt[entry["span_id"]] = span
            adopted.append(span)
        with self._lock:
            if pid is not None and process_label is not None:
                self.process_labels[pid] = process_label
            for entry, span in zip(payload, adopted):
                span.span_id = next(self._span_ids)
                remote_parent = rebuilt.get(entry.get("parent_id"))
                owner = remote_parent if remote_parent is not None else parent
                span.parent = owner
                if owner is None:
                    self.roots.append(span)
                else:
                    owner.children.append(span)
                self.spans.append(span)
                for event_entry in entry.get("events", ()):
                    event = Event(
                        event_entry["name"],
                        event_entry["category"],
                        dict(event_entry["args"]),
                        event_entry["ts_ns"],
                        span.thread_id or 0,
                        span,
                    )
                    span.events.append(event)
                    self.events.append(event)
        return adopted


# ----------------------------------------------------------------------
# The module-level fast path
# ----------------------------------------------------------------------
_active: Optional[Tracer] = None


def active() -> Optional[Tracer]:
    """The installed tracer, or ``None`` while tracing is disabled."""
    return _active


def enable(tracer: Optional[Tracer] = None) -> Tracer:
    """Install (and return) the process-wide tracer."""
    global _active
    if tracer is None:
        tracer = Tracer()
    _active = tracer
    return tracer


def disable() -> Optional[Tracer]:
    """Uninstall the process-wide tracer; returns the one removed."""
    global _active
    tracer, _active = _active, None
    return tracer


@contextmanager
def tracing(tracer: Optional[Tracer] = None) -> Iterator[Tracer]:
    """``with tracing() as t:`` — enable for a block, restore after."""
    global _active
    previous = _active
    installed = enable(tracer)
    try:
        yield installed
    finally:
        _active = previous


def span(name: str, category: str = "app", **args: Any):
    """A span under the installed tracer, or the shared no-op handle.

    The disabled path is one global load, one ``is None`` test, and the
    (empty) kwargs dict — keep attribute computation out of the call
    and attach via ``.set()`` inside the block instead when it costs.
    """
    tracer = _active
    if tracer is None:
        return NOOP_SPAN
    return tracer.span(name, category, **args)


def event(name: str, category: str = "app", **args: Any) -> None:
    """An instant event under the installed tracer (no-op if disabled)."""
    tracer = _active
    if tracer is not None:
        tracer.event(name, category, **args)


def traced(
    name: Optional[str] = None, category: str = "app"
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator: run the function under a span when tracing is enabled.

    While disabled the wrapper adds a single global check per call.
    """

    def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
        label = name if name is not None else fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tracer = _active
            if tracer is None:
                return fn(*args, **kwargs)
            with tracer.span(label, category):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
