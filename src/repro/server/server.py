"""The asyncio network front end.

:class:`ReproServer` listens on a TCP port and speaks the
length-prefixed JSON protocol of :mod:`repro.server.protocol`.  The
architecture is the classic two-lane split:

* the **event loop** owns all sockets — it reads bytes, decodes frames,
  runs the :class:`~repro.server.admission.AdmissionController` ladder
  the moment each request is decoded (a shed costs one frame write and
  never touches a handler thread), and enqueues admitted requests onto
  the connection's FIFO;
* a **handler pool** (:class:`~concurrent.futures.ThreadPoolExecutor`)
  runs the store work.  Requests from one connection execute strictly
  in arrival order — explicit transactions are pinned to their
  connection, so a session's transaction is never touched by two
  threads — while different connections proceed concurrently.

Pipelining falls out of the framing: a client may write any number of
requests before reading a reply; each connection's responses come back
in FIFO order carrying the request's ``id``.

A request with ``deadline_ms`` gets a
:class:`~repro.resilience.budget.Budget` covering queue wait *and*
execution, installed ambiently around the handler (so engine node
ticks, WAL fsyncs, and replay steps all observe it) and passed
explicitly to ``engine.evaluate`` for queries.  Budget exhaustion is a
typed :data:`~repro.server.protocol.DEADLINE_EXCEEDED` response, not a
hang.

Fault sites: :data:`~repro.resilience.faults.SERVER_ACCEPT` fires at
the top of each new connection (a kill drops that connection cleanly;
the server lives on), and :data:`~repro.resilience.faults.SERVER_HANDLER`
fires at the top of each handler-thread execution.  A
:class:`~repro.resilience.faults.CrashPoint` anywhere under the handler
is treated as the handler dying: the client gets a typed
:data:`~repro.server.protocol.HANDLER_DEATH` error (retryable — the
store's commit protocol guarantees the batch is unchanged-or-fully-
applied), and a ``server.handler_death`` event lands in the flight
ring.

Tracing: when the incoming request's trace context names *this
process's* trace, the handler span adopts the client's request span as
its parent (:meth:`~repro.obs.tracer.Tracer.adopting`), so an
``apply_batch`` through the server renders as one stitched tree —
client request → ``server.handle`` → store spans → ``repro shard{N}``
process rows from the fleet's own remote-span adoption.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Mapping, Optional

from repro.obs import flight
from repro.obs import tracer as trace
from repro.obs.metrics import global_registry
from repro.resilience.budget import Budget, BudgetExceeded, applied
from repro.resilience.faults import (
    SERVER_ACCEPT,
    SERVER_HANDLER,
    CrashPoint,
    FaultError,
    fault_point,
)
from repro.server import protocol
from repro.server.admission import AdmissionController
from repro.server.protocol import ProtocolError
from repro.server.session import Session, classify_error


class _Connection:
    """Per-connection state: session, FIFO, and serialized writes."""

    def __init__(
        self, server: "ReproServer", session: Session,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.server = server
        self.session = session
        self.writer = writer
        self.queue: asyncio.Queue = asyncio.Queue()
        self.write_lock = asyncio.Lock()
        self.worker: Optional[asyncio.Task] = None
        self.closed = False

    async def send(self, message: Mapping[str, Any]) -> None:
        if self.closed:
            return
        try:
            frame = protocol.encode_frame(message)
        except ProtocolError as exc:
            # A reply over the frame cap: answer its request with a
            # typed error and keep serving the connection.
            frame = protocol.encode_frame(
                protocol.error_response(
                    message.get("id"),
                    protocol.BAD_REQUEST,
                    f"reply not sent: {exc}",
                )
            )
        async with self.write_lock:
            try:
                self.writer.write(frame)
                await self.writer.drain()
            except (ConnectionError, RuntimeError):
                self.closed = True


class ReproServer:
    """Serve a store over TCP.

    Parameters
    ----------
    store:
        A :class:`~repro.store.versioned.VersionedStore` or
        :class:`~repro.store.sharding.ShardedStore`.
    methods:
        Wire-name → update-method registry; the server applies only
        methods it was explicitly given.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` — the test-harness pattern).
    admission:
        The :class:`AdmissionController`; defaults to one wired to the
        store's breaker (when the store has one).
    handler_threads:
        Size of the store-work thread pool.
    """

    def __init__(
        self,
        store,
        methods: Mapping[str, Any],
        host: str = "127.0.0.1",
        port: int = 0,
        admission: Optional[AdmissionController] = None,
        handler_threads: int = 4,
    ) -> None:
        self.store = store
        self.methods = dict(methods)
        self.host = host
        self._requested_port = port
        if admission is None:
            breaker = getattr(store, "breaker", None)
            if breaker is None:
                coordinator = getattr(store, "coordinator", None)
                breaker = getattr(coordinator, "breaker", None)
            admission = AdmissionController(breaker=breaker)
        self.admission = admission
        self.handler_threads = handler_threads
        self._server: Optional[asyncio.base_events.Server] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._connections: Dict[int, _Connection] = {}
        self._next_session = 0
        self.requests_total = 0

    # -- lifecycle -----------------------------------------------------
    @property
    def port(self) -> int:
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._executor = ThreadPoolExecutor(
            max_workers=self.handler_threads,
            thread_name_prefix="repro-handler",
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        trace.event(
            "server.start", category="server", port=self.port
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for connection in list(self._connections.values()):
            connection.closed = True
            if connection.worker is not None:
                connection.worker.cancel()
            self._abandon_queue(connection)
            connection.session.close()
            try:
                connection.writer.close()
            except RuntimeError:
                pass
        self._connections.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    async def __aenter__(self) -> "ReproServer":
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    def stats(self) -> Dict[str, Any]:
        return {
            "connections": len(self._connections),
            "handler_threads": self.handler_threads,
            "requests_total": self.requests_total,
            "admission": self.admission.stats(),
        }

    # -- connection handling -------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            fault_point(SERVER_ACCEPT)
        except (CrashPoint, FaultError):
            # The accept path died: this connection is lost, the
            # server is not.
            global_registry().counter("server.accept_failures").inc()
            writer.close()
            return
        self._next_session += 1
        session = Session(
            self.store,
            self.methods,
            session_id=self._next_session,
            server_stats=self.stats,
        )
        connection = _Connection(self, session, writer)
        self._connections[session.session_id] = connection
        connection.worker = asyncio.ensure_future(
            self._drain_queue(connection)
        )
        global_registry().counter("server.connections").inc()
        decoder = protocol.FrameDecoder()
        try:
            while True:
                data = await reader.read(64 * 1024)
                if not data:
                    break
                try:
                    messages = decoder.feed(data)
                except ProtocolError as exc:
                    # Framing state is lost; tell the client and drop.
                    await connection.send(
                        protocol.error_response(
                            None, protocol.BAD_REQUEST, str(exc)
                        )
                    )
                    break
                for message in messages:
                    await self._dispatch(connection, message)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            connection.closed = True
            if connection.worker is not None:
                connection.worker.cancel()
            self._abandon_queue(connection)
            session.close()
            self._connections.pop(session.session_id, None)
            try:
                writer.close()
            except RuntimeError:
                pass

    async def _dispatch(
        self, connection: _Connection, message: Dict[str, Any]
    ) -> None:
        """Admit-or-shed one decoded request; enqueue if admitted."""
        try:
            request_id, op = protocol.validate_request(message)
        except ProtocolError as exc:
            await connection.send(
                protocol.error_response(
                    message.get("id")
                    if isinstance(message.get("id"), int)
                    else None,
                    protocol.BAD_REQUEST,
                    str(exc),
                )
            )
            return
        self.requests_total += 1
        deadline: Optional[float] = None
        remaining_ms: Optional[float] = None
        deadline_ms = message.get("deadline_ms")
        if deadline_ms is not None:
            deadline = time.monotonic() + float(deadline_ms) / 1000.0
            remaining_ms = float(deadline_ms)
        decision = self.admission.admit(
            op,
            remaining_ms=remaining_ms,
            connection_depth=connection.queue.qsize(),
        )
        if decision.shed:
            await connection.send(
                protocol.error_response(
                    request_id,
                    decision.code,
                    f"shed at admission ({decision.reason})",
                    retry_after_ms=decision.retry_after_ms,
                )
            )
            return
        self.admission.enter()
        connection.queue.put_nowait(
            (
                request_id,
                op,
                message.get("params") or {},
                deadline,
                message.get("trace"),
            )
        )

    async def _drain_queue(self, connection: _Connection) -> None:
        """The per-connection worker: strict FIFO execution.

        Every dequeued request exits admission exactly once — the
        ``finally`` covers cancellation while executing *and* while
        awaiting the response write, so a connection dying mid-pipeline
        cannot leak ``_in_flight`` slots.  Entries still sitting in the
        FIFO when the worker is cancelled are released by
        :meth:`_abandon_queue` during teardown.
        """
        loop = asyncio.get_running_loop()
        while True:
            request_id, op, params, deadline, ctx = (
                await connection.queue.get()
            )
            try:
                try:
                    response = await loop.run_in_executor(
                        self._executor,
                        self._execute,
                        connection.session,
                        request_id,
                        op,
                        params,
                        deadline,
                        ctx,
                    )
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # pragma: no cover - last resort
                    code, text = classify_error(exc)
                    response = protocol.error_response(
                        request_id, code, text
                    )
                await connection.send(response)
            finally:
                self.admission.exit()

    def _abandon_queue(self, connection: _Connection) -> None:
        """Release admission slots held by never-executed queue entries.

        Runs on the event loop after the connection's worker has been
        cancelled, so no entry can be concurrently dequeued; each entry
        entered admission exactly once at dispatch, so each gets exactly
        one ``exit()`` here.
        """
        abandoned = 0
        while True:
            try:
                connection.queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            self.admission.exit()
            abandoned += 1
        if abandoned:
            global_registry().counter("server.abandoned").inc(abandoned)

    # -- handler-thread execution --------------------------------------
    def _execute(
        self,
        session: Session,
        request_id: int,
        op: str,
        params: Mapping[str, Any],
        deadline: Optional[float],
        ctx: Optional[Mapping[str, Any]],
    ) -> Dict[str, Any]:
        """Run one admitted request on a handler thread."""
        budget: Optional[Budget] = None
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0.0:
                # Admitted in time, but the queue wait ate the
                # deadline: shed late rather than execute dead work.
                return protocol.error_response(
                    request_id,
                    protocol.DEADLINE_EXCEEDED,
                    f"deadline elapsed after {op} spent its "
                    "allowance queued",
                )
            budget = Budget(seconds=remaining)
        try:
            fault_point(SERVER_HANDLER)
            tracer = trace.active()
            if tracer is None:
                with applied(budget):
                    result = session.handle(op, params, budget)
            else:
                parent = None
                if (
                    ctx is not None
                    and ctx.get("trace_id") == tracer.trace_id
                ):
                    parent = tracer.span_by_id(
                        ctx.get("parent_span_id")
                    )
                with tracer.adopting(parent):
                    with tracer.span(
                        "server.handle",
                        category="server",
                        op=op,
                        request=request_id,
                        session=session.session_id,
                    ):
                        with applied(budget):
                            result = session.handle(op, params, budget)
            return protocol.ok_response(request_id, result)
        except CrashPoint as exc:
            # The handler "died" mid-request.  The store's commit
            # protocol leaves the batch unchanged-or-fully-applied, so
            # the client may retry the same request verbatim.
            flight.record(
                "server.handler_death",
                op=op,
                request=request_id,
                session=session.session_id,
                site=getattr(exc, "site", None) or SERVER_HANDLER,
            )
            global_registry().counter("server.handler_deaths").inc()
            session.close()
            return protocol.error_response(
                request_id,
                protocol.HANDLER_DEATH,
                f"handler died executing {op}: {exc}",
            )
        except BudgetExceeded as exc:
            return protocol.error_response(
                request_id,
                protocol.DEADLINE_EXCEEDED,
                f"budget exhausted at {exc.site}",
            )
        except Exception as exc:
            code, text = classify_error(exc)
            return protocol.error_response(request_id, code, text)


async def serve(
    store,
    methods: Mapping[str, Any],
    host: str = "127.0.0.1",
    port: int = 0,
    **kwargs: Any,
) -> ReproServer:
    """Start a server and return it (the caller owns ``stop()``)."""
    server = ReproServer(store, methods, host=host, port=port, **kwargs)
    await server.start()
    return server


__all__ = ["ReproServer", "serve"]
