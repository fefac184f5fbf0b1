"""One connection's session: requests mapped onto store transactions.

A :class:`Session` owns the server-side state of one client
connection: the named-method registry view, the explicit transaction
the connection may hold open between ``begin`` and ``commit``, and the
last transaction's audit record.  :meth:`Session.handle` is the single
synchronous dispatch point — the server runs it on a handler thread,
with the request's :class:`~repro.resilience.budget.Budget` installed
ambiently, so everything the session touches (engine evaluation, the
chase inside a conflicted commit) observes the request deadline.

The session is backend-polymorphic over the two store shapes:

* a :class:`~repro.store.versioned.VersionedStore` — ``apply_batch``
  runs :func:`~repro.store.txn.run_transaction` (full commit-tier
  escalation, retries on conflict);
* a :class:`~repro.store.sharding.ShardedStore` — ``apply_batch``
  commits on the coordinator and stages onto the fleet, exactly as the
  library call does, and replies with the router's classification;
  queries read the coordinator head, and explicit transactions commit
  the same way via
  :meth:`~repro.store.sharding.ShardedStore.commit_transaction`.  Both
  hold the store lock across the commit and the staging, so neither
  can interleave a later version between them, and both acknowledge a
  committed write with ``"staging": "degraded"`` when the fleet could
  not be brought up to it.

Requests inside an explicit transaction execute in connection order
(the server's per-connection FIFO guarantees it), so a session's
transaction is never touched by two handler threads at once.

A query reply's rows are encoded once per result: the session keeps
its last reply as ``(relation, pre-encoded rows)`` and reuses the rows
when the next query evaluates to that very relation object.  The
engine's memo and its cross-state cache hand back the same immutable
:class:`~repro.relational.relation.Relation` for an unchanged result,
so a repeated read skips encoding; a write in between yields a new
relation and a fresh encoding.  The memo holds one entry and needs no
lock, for the same FIFO reason.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.obs import flight
from repro.obs.metrics import global_registry
from repro.relational.parser import ParseError, parse_expression
from repro.relational.relation import Relation
from repro.resilience.budget import Budget
from repro.server import protocol
from repro.server.protocol import ProtocolError
from repro.store.sharding import ShardedStore
from repro.store.txn import (
    TransactionConflict,
    TransactionError,
    run_transaction,
)
from repro.store.versioned import StoreError, VersionedStore


class SessionError(RuntimeError):
    """A request-level failure with a typed protocol code."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


class Session:
    """Server-side state and dispatch for one connection.

    ``methods`` maps wire names to
    :class:`~repro.algebraic.method.AlgebraicUpdateMethod` objects —
    the update method *is* the interface, so the server exposes only
    what it was explicitly given.  ``server_stats`` is the server's
    stats contribution to the ``stats`` op (admission ladder state,
    connection counts).
    """

    def __init__(
        self,
        store,
        methods: Mapping[str, Any],
        session_id: int = 0,
        server_stats: Optional[Callable[[], Dict[str, Any]]] = None,
    ) -> None:
        self.store = store
        self.methods = dict(methods)
        self.session_id = session_id
        self.server_stats = server_stats
        self.txn = None
        self.last_audit: Optional[Dict[str, Any]] = None
        self.requests_handled = 0
        # The last query reply: (relation, its pre-encoded rows).
        self._reply: Optional[Tuple[Relation, protocol.EncodedRows]] = None

    # -- backend polymorphism ------------------------------------------
    @property
    def sharded(self) -> bool:
        return isinstance(self.store, ShardedStore)

    def _head_store(self) -> VersionedStore:
        return (
            self.store.coordinator if self.sharded else self.store
        )

    def _method(self, name: Any):
        if not isinstance(name, str) or name not in self.methods:
            raise SessionError(
                protocol.UNKNOWN_METHOD,
                f"unknown method {name!r}; this server serves "
                f"{sorted(self.methods)}",
            )
        return self.methods[name]

    # -- dispatch ------------------------------------------------------
    def handle(
        self,
        op: str,
        params: Mapping[str, Any],
        budget: Optional[Budget] = None,
    ) -> Dict[str, Any]:
        """Execute one request; returns the ``result`` payload.

        Raises :class:`SessionError` for typed failures; anything else
        escaping is the server's :data:`~repro.server.protocol.INTERNAL`
        case.
        """
        handler = self._HANDLERS.get(op)
        if handler is None:
            raise SessionError(
                protocol.UNKNOWN_OP,
                f"unknown op {op!r}; supported: {list(protocol.OPS)}",
            )
        self.requests_handled += 1
        return handler(self, params, budget)

    # -- ops -----------------------------------------------------------
    def _op_ping(self, params, budget) -> Dict[str, Any]:
        delay_ms = params.get("delay_ms")
        if delay_ms:
            # Deterministic simulated work: the load generator's knob
            # for service time (and the overload tests' slow handler).
            time.sleep(float(delay_ms) / 1000.0)
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "payload": params.get("payload"),
            "session": self.session_id,
        }

    def _op_query(self, params, budget) -> Dict[str, Any]:
        text = params.get("expr")
        if not isinstance(text, str):
            raise SessionError(
                protocol.BAD_REQUEST,
                f"query needs a string 'expr', got {text!r}",
            )
        try:
            expr = parse_expression(text)
        except ParseError as exc:
            raise SessionError(
                protocol.BAD_REQUEST, f"unparsable expr: {exc}"
            )
        if self.txn is not None:
            # Inside an explicit transaction: read the working state
            # (and join the read set — the query is part of the txn).
            relation = self.txn.evaluate(expr)
        else:
            store = self._head_store()
            with store.snapshot() as snapshot:
                # The per-request budget rides explicitly on the new
                # engine API — no ambient state needed even though the
                # server installs it ambiently as well (same object:
                # ticks charge it once per node either way).
                relation = snapshot.engine().evaluate(
                    expr, budget=budget
                )
        reply = self._reply
        if reply is None or reply[0] is not relation:
            reply = (relation, protocol.preencode_rows(relation.tuples))
            self._reply = reply
        return {"columns": list(relation.schema.names), "rows": reply[1]}

    def _op_apply_batch(self, params, budget) -> Dict[str, Any]:
        if self.txn is not None:
            raise SessionError(
                protocol.TXN_STATE,
                "apply_batch is autocommit; the connection holds an "
                "explicit transaction (use 'apply', or commit first)",
            )
        method = self._method(params.get("method"))
        receivers = protocol.decode_receivers(
            params.get("receivers", [])
        )
        if self.sharded:
            version, route, staged = self.store.apply_batch(
                method, receivers
            )
            result = {
                "version": version.version,
                "route": route.kind,
                "receivers": len(receivers),
            }
            if not staged:
                result["staging"] = "degraded"
        else:

            def body(txn):
                txn.apply_method(method, receivers)
                return txn

            txn, version = run_transaction(self.store, body)
            self.last_audit = txn.audit()
            result = {
                "version": version.version,
                "route": "local",
                "receivers": len(receivers),
                "tier": self.last_audit.get("path"),
            }
        global_registry().counter("server.batches_applied").inc()
        return result

    # -- explicit transactions -----------------------------------------
    def _op_begin(self, params, budget) -> Dict[str, Any]:
        if self.txn is not None:
            raise SessionError(
                protocol.TXN_STATE,
                "the connection already holds an open transaction",
            )
        self.txn = self._head_store().begin()
        return {
            "txn": self.txn.id,
            "snapshot_version": self.txn.snapshot.version,
        }

    def _require_txn(self):
        if self.txn is None:
            raise SessionError(
                protocol.TXN_STATE,
                "no open transaction on this connection (begin first)",
            )
        return self.txn

    def _op_apply(self, params, budget) -> Dict[str, Any]:
        txn = self._require_txn()
        method = self._method(params.get("method"))
        receivers = protocol.decode_receivers(
            params.get("receivers", [])
        )
        txn.apply_method(method, receivers)
        return {
            "txn": txn.id,
            "staged_relations": sorted(txn.writes),
            "receivers": len(receivers),
        }

    def _op_commit(self, params, budget) -> Dict[str, Any]:
        txn = self._require_txn()
        staged = True
        try:
            if self.sharded:
                # Commit and shard staging under the store lock — a
                # concurrent apply_batch cannot publish and stage a
                # later version in between (which would let our older
                # deltas walk the shards backwards).  A staging failure
                # after the durable coordinator commit comes back as
                # staged=False (the store already attempted resync): the
                # commit *succeeded* and must be reported as such, only
                # degraded.
                version, staged = self.store.commit_transaction(txn)
            else:
                version = txn.commit()
        finally:
            self.last_audit = txn.audit()
            self.txn = None
        result = {
            "version": version.version,
            "tier": self.last_audit.get("path"),
            "txn": self.last_audit.get("txn"),
        }
        if not staged:
            result["staging"] = "degraded"
        return result

    def _op_abort(self, params, budget) -> Dict[str, Any]:
        txn = self._require_txn()
        txn.abort()
        self.last_audit = txn.audit()
        self.txn = None
        return {"txn": self.last_audit.get("txn"), "aborted": True}

    # -- introspection -------------------------------------------------
    def _op_stats(self, params, budget) -> Dict[str, Any]:
        head = self._head_store().head
        counters = global_registry().counters()
        prefix = params.get("prefix", "server.")
        result: Dict[str, Any] = {
            "head_version": head.version,
            "relations": len(head.database.relation_names),
            "methods": sorted(self.methods),
            "counters": {
                name: value
                for name, value in sorted(counters.items())
                if name.startswith(prefix)
            },
        }
        if self.sharded:
            result["shards"] = self.store.shards
            result["mode"] = self.store.mode
        if self.server_stats is not None:
            result["server"] = self.server_stats()
        return result

    def _op_audit(self, params, budget) -> Dict[str, Any]:
        limit = params.get("limit", 32)
        if (
            isinstance(limit, bool)
            or not isinstance(limit, int)
            or limit < 0
        ):
            raise SessionError(
                protocol.BAD_REQUEST,
                f"audit 'limit' must be a non-negative integer, "
                f"got {limit!r}",
            )
        recorder = flight.active()
        events = (
            [event.to_dict() for event in recorder.events()[-limit:]]
            if recorder is not None and limit > 0
            else []
        )
        return {"last_txn": self.last_audit, "flight": events}

    _HANDLERS: Dict[str, Callable] = {
        "ping": _op_ping,
        "query": _op_query,
        "apply_batch": _op_apply_batch,
        "begin": _op_begin,
        "apply": _op_apply,
        "commit": _op_commit,
        "abort": _op_abort,
        "stats": _op_stats,
        "audit": _op_audit,
    }

    def close(self) -> None:
        """Abort any transaction left open by a dying connection."""
        if self.txn is not None:
            try:
                self.txn.abort()
            except TransactionError:
                pass
            self.txn = None


def classify_error(exc: BaseException) -> Tuple[str, str]:
    """``(code, message)`` for an exception escaping a handler."""
    if isinstance(exc, SessionError):
        return exc.code, str(exc)
    if isinstance(exc, TransactionConflict):
        return protocol.CONFLICT, str(exc)
    if isinstance(exc, (ProtocolError, ParseError)):
        return protocol.BAD_REQUEST, str(exc)
    if isinstance(exc, (TransactionError, StoreError)):
        return protocol.INTERNAL, f"{type(exc).__name__}: {exc}"
    return protocol.INTERNAL, f"{type(exc).__name__}: {exc}"


__all__ = ["Session", "SessionError", "classify_error"]
