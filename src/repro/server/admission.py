"""Admission control: shed load fast instead of letting queues build.

The server's capacity is a fixed pool of handler threads; every
admitted request either runs immediately or waits in its connection's
FIFO.  Under overload a naive server lets those queues grow without
bound: every queued request eventually *runs* — burning a handler slot
on work whose client has long given up — and p99 latency for everyone
degrades linearly with backlog.  The
:class:`AdmissionController` applies the classic ladder at the moment a
request is decoded, before it costs anything:

1. **budget** — a request whose ``deadline_ms`` has already elapsed
   (or will certainly elapse while queued) is dead on arrival: shed
   with :data:`~repro.server.protocol.DEADLINE_EXCEEDED`.
2. **breaker** — when the store's semantic-commute
   :class:`~repro.resilience.breaker.CircuitBreaker` is OPEN, the
   conflict-resolution tier is out: optimistic batches are aborting and
   retrying, effective capacity has collapsed, and admitting more
   writes only deepens the hole.  Shed with
   :data:`~repro.server.protocol.OVERLOADED` until the breaker
   half-opens.
3. **queue high-water** — total admitted-but-unfinished requests past
   ``queue_high_water`` (or one connection's FIFO past
   ``connection_high_water``): shed :data:`OVERLOADED` with a
   ``retry_after_ms`` hint sized to the backlog.

A shed costs one frame write; the typed response tells the client
*why* and when to retry, which
:meth:`repro.server.client.ReproClient.request` feeds into the unified
:class:`~repro.resilience.retry.RetryPolicy`.  Every shed is a
``server.shed`` counter, trace event, and flight-ring entry — load
shedding is an *operational decision* and must show up in forensics.

``enabled=False`` turns the controller into a pass-through (everything
admits, queues grow unboundedly): the ablation arm of
``benchmarks/bench_server.py``, which measures exactly the latency
collapse this module exists to prevent.

The ladder is static: its caps and the backoff hint are fixed at
construction.  :meth:`AdmissionController.stats` reports the in-flight
count, the high-water marks and the admitted and shed totals.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional

from repro.obs import flight
from repro.obs import tracer as trace
from repro.obs.metrics import global_registry
from repro.resilience.breaker import OPEN, CircuitBreaker
from repro.server import protocol


@dataclass(frozen=True)
class Decision:
    """The controller's verdict on one request."""

    admitted: bool
    code: Optional[str] = None
    reason: Optional[str] = None
    retry_after_ms: Optional[float] = None

    @property
    def shed(self) -> bool:
        return not self.admitted


ADMIT = Decision(admitted=True)


class AdmissionController:
    """Budget-, breaker-, and queue-aware request admission.

    Parameters
    ----------
    queue_high_water:
        Cap on total admitted-but-unfinished requests across the
        server.  The semaphore of handler threads bounds *concurrency*;
        this bounds *queueing* — the p99 a just-admitted request can
        experience is roughly ``queue_high_water x service_time``.
    connection_high_water:
        Per-connection FIFO cap (``None`` = the global cap).  Keeps one
        pipelining-happy client from monopolizing the global allowance.
    breaker:
        The store's semantic-tier breaker (``None`` = no breaker rung).
    retry_after_ms:
        Base backoff hint on shed responses; the queue rung scales it
        by how far past high water the backlog is.
    enabled:
        ``False`` = admit everything (the benchmark ablation arm).
    """

    def __init__(
        self,
        queue_high_water: int = 64,
        connection_high_water: Optional[int] = None,
        breaker: Optional[CircuitBreaker] = None,
        retry_after_ms: float = 50.0,
        enabled: bool = True,
    ) -> None:
        if queue_high_water < 1:
            raise ValueError(
                f"queue_high_water must be >= 1, got {queue_high_water}"
            )
        self.queue_high_water = queue_high_water
        self.connection_high_water = (
            connection_high_water
            if connection_high_water is not None
            else queue_high_water
        )
        self.breaker = breaker
        self.retry_after_ms = retry_after_ms
        self.enabled = enabled
        self._lock = threading.Lock()
        self._in_flight = 0
        self.admitted_total = 0
        self.shed_total = 0

    # -- bookkeeping ---------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Admitted requests not yet responded to (queued + running)."""
        with self._lock:
            return self._in_flight

    def enter(self) -> None:
        with self._lock:
            self._in_flight += 1
            self.admitted_total += 1
        global_registry().counter("server.admitted").inc()

    def exit(self) -> None:
        with self._lock:
            self._in_flight -= 1

    # -- the ladder ----------------------------------------------------
    def admit(
        self,
        op: str,
        remaining_ms: Optional[float] = None,
        connection_depth: int = 0,
    ) -> Decision:
        """Run the ladder for one decoded request.

        ``remaining_ms`` is the request deadline's remaining allowance
        at decode time (``None`` = no deadline);
        ``connection_depth`` the issuing connection's current FIFO
        length.
        """
        if not self.enabled:
            return ADMIT
        if remaining_ms is not None and remaining_ms <= 0.0:
            return self._shed(
                op,
                protocol.DEADLINE_EXCEEDED,
                "deadline",
                retry_after_ms=None,
            )
        if self.breaker is not None and self.breaker.state == OPEN:
            return self._shed(
                op,
                protocol.OVERLOADED,
                "breaker",
                retry_after_ms=max(
                    self.retry_after_ms,
                    self.breaker.reset_timeout * 1000.0,
                ),
            )
        with self._lock:
            depth = self._in_flight
        if depth >= self.queue_high_water:
            # Hint proportional to backlog: a client arriving at 2x
            # high water should stay away roughly twice as long.
            scale = depth / self.queue_high_water
            return self._shed(
                op,
                protocol.OVERLOADED,
                "queue",
                retry_after_ms=self.retry_after_ms * scale,
            )
        if connection_depth >= self.connection_high_water:
            return self._shed(
                op,
                protocol.OVERLOADED,
                "connection",
                retry_after_ms=self.retry_after_ms,
            )
        return ADMIT

    def _shed(
        self,
        op: str,
        code: str,
        reason: str,
        retry_after_ms: Optional[float],
    ) -> Decision:
        with self._lock:
            self.shed_total += 1
        registry = global_registry()
        registry.counter("server.shed").inc()
        registry.counter(f"server.shed.{reason}").inc()
        trace.event(
            "server.shed", category="server", op=op, reason=reason
        )
        flight.record("server.shed", op=op, reason=reason, code=code)
        return Decision(
            admitted=False,
            code=code,
            reason=reason,
            retry_after_ms=retry_after_ms,
        )

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "enabled": self.enabled,
                "in_flight": self._in_flight,
                "queue_high_water": self.queue_high_water,
                "connection_high_water": self.connection_high_water,
                "admitted_total": self.admitted_total,
                "shed_total": self.shed_total,
                "breaker": (
                    self.breaker.state
                    if self.breaker is not None
                    else None
                ),
            }


__all__ = ["ADMIT", "AdmissionController", "Decision"]
