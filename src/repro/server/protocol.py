"""The wire protocol: length-prefixed JSON frames with request ids.

One frame is a 4-byte big-endian unsigned length followed by exactly
that many bytes of UTF-8 JSON.  The length prefix makes the stream
self-delimiting — a reader always knows where the next message starts,
so a shed response written between two pipelined replies can never tear
a frame — and the JSON body keeps every message inspectable with
``nc``-grade tooling.  Frames are capped (:data:`MAX_FRAME_BYTES`) so a
corrupt or hostile prefix cannot make the server buffer gigabytes.

**Requests** carry a client-assigned ``id`` so responses can return in
any server-chosen order and still be matched up — that is the whole
pipelining contract: a client may write any number of requests before
reading the first reply, and the server answers each ``id`` exactly
once.  Ops (:data:`OPS`):

* ``ping`` — liveness; echoes ``payload`` back and optionally sleeps
  ``delay_ms`` in the handler (deterministic simulated work for load
  tests and the admission-control benchmark).
* ``query`` — evaluate an algebra expression (the
  :mod:`repro.relational.parser` text syntax) over the head snapshot.
* ``apply_batch`` — apply a *named* update method to a batch of
  receiver tuples: the paper's ``M_par(I, T)`` as the wire interface.
* ``begin`` / ``apply`` / ``commit`` / ``abort`` — an explicit
  transaction pinned to the connection's session.
* ``stats`` — server, admission, and store counters.
* ``audit`` — the session's last transaction audit record plus the
  tail of the flight-recorder ring.

A request may carry ``deadline_ms`` — the server turns it into a
:class:`repro.resilience.budget.Budget` covering queue wait *and*
execution — and a ``trace`` context (``trace_id`` + ``parent_span_id``)
for stitched tracing.

**Responses** are ``{"id", "ok": true, "result"}`` or ``{"id", "ok":
false, "error": {"code", "message", ...}}``.  Error codes are typed
(:data:`ERROR_CODES`); shed responses (:data:`OVERLOADED`) carry
``retry_after_ms`` — the :data:`RETRY_AFTER` hint clients feed their
:class:`~repro.resilience.retry.RetryPolicy`.

Receivers cross the wire as lists of ``[class, key]`` pairs (an
:class:`~repro.graph.instance.Obj` per component); relation rows come
back the same way.  Keys must be JSON-representable scalars — which the
object bases built from :mod:`repro.workloads` satisfy by construction.

**Row order.**  A ``query`` result's ``rows`` are a JSON array of rows,
each a JSON array of cells.  Rows are sorted by their compact JSON text
(``,`` and ``:`` separators) with DEL and every non-ASCII character
escaped as ``\\uXXXX`` — the text ``json.dumps(row, separators=(",",
":"))`` gives.  The frame itself keeps those characters unescaped.
This is the same order as sorting by ``json.dumps(row, sort_keys=True)``:
up to the first character where two row texts differ, their structural
commas fall at the same places, so the spaces that the default
separators add never decide a comparison.  It is not the native
:class:`~repro.graph.instance.Obj` order, which compares keys as
strings: a row ``[["Employee",10],…]`` comes before
``[["Employee",1],…]`` on the wire (``0`` sorts before ``]``), after
it natively.

**Pre-encoded rows.**  The server encodes a result's rows once, off the
event loop, with :func:`preencode_rows`: each row's text is built from
per-cell fragments and the rows are sorted by that text.  The result is
an :class:`EncodedRows` (the UTF-8 bytes of the array), which
:func:`encode_frame` splices into a reply verbatim, so a reply frame
carries the same bytes as one encoded from plain lists.
:func:`encode_rows` is the decoded list form of the same text, in the
same order.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.receiver import Receiver
from repro.graph.instance import Obj

#: Frame header: one network-order unsigned 32-bit length.
HEADER = struct.Struct("!I")
HEADER_BYTES = HEADER.size

#: Hard cap on one frame's JSON body.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Protocol revision, exchanged in ``ping`` results.
PROTOCOL_VERSION = 1

#: The operations a server understands.
OPS = (
    "ping",
    "query",
    "apply_batch",
    "begin",
    "apply",
    "commit",
    "abort",
    "stats",
    "audit",
)

# -- typed error codes -------------------------------------------------
BAD_REQUEST = "BAD_REQUEST"
UNKNOWN_OP = "UNKNOWN_OP"
UNKNOWN_METHOD = "UNKNOWN_METHOD"
OVERLOADED = "OVERLOADED"
DEADLINE_EXCEEDED = "DEADLINE_EXCEEDED"
CONFLICT = "CONFLICT"
TXN_STATE = "TXN_STATE"
HANDLER_DEATH = "HANDLER_DEATH"
INTERNAL = "INTERNAL"

#: The ``retry_after_ms`` hint key on shed responses.
RETRY_AFTER = "retry_after_ms"

ERROR_CODES = (
    BAD_REQUEST,
    UNKNOWN_OP,
    UNKNOWN_METHOD,
    OVERLOADED,
    DEADLINE_EXCEEDED,
    CONFLICT,
    TXN_STATE,
    HANDLER_DEATH,
    INTERNAL,
)

#: Codes a client may transparently retry: the request was *not*
#: executed (shed before admission, or rejected by a dead handler whose
#: transaction never published).
RETRYABLE_CODES = frozenset({OVERLOADED, HANDLER_DEATH})


class ProtocolError(ValueError):
    """A malformed frame or message (framing, JSON, or shape)."""


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
#: The frame body's JSON encoder: compact, non-ASCII text kept as is.
_COMPACT = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False).encode


def encode_frame(message: Mapping[str, Any]) -> bytes:
    """One message as a length-prefixed JSON frame.

    A reply whose ``result["rows"]`` is :class:`EncodedRows` gets those
    bytes spliced in verbatim; the keys of the message and of its
    ``result`` must then be strings, as every reply's are.
    """
    result = message.get("result")
    rows = result.get("rows") if isinstance(result, dict) else None
    if isinstance(rows, EncodedRows):
        body = _splice(message, "result", _splice(result, "rows", rows.data))
    else:
        body = _COMPACT(message).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame body of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    return HEADER.pack(len(body)) + body


def _splice(mapping: Mapping[str, Any], slot: str, data: bytes) -> bytes:
    """``mapping`` as compact JSON, with the already encoded ``data`` as
    the value at ``slot``."""
    return (
        b"{"
        + b",".join(
            (_COMPACT(key) + ":").encode("utf-8")
            + (data if key == slot else _COMPACT(value).encode("utf-8"))
            for key, value in mapping.items()
        )
        + b"}"
    )


class FrameDecoder:
    """Incremental frame decoder: feed bytes, take complete messages.

    Tolerates arbitrary fragmentation — a frame split across TCP reads
    assembles transparently — and rejects oversize or non-JSON frames
    with :class:`ProtocolError` (the connection is unrecoverable after
    that: framing state is lost).
    """

    def __init__(self, max_frame: int = MAX_FRAME_BYTES) -> None:
        self.max_frame = max_frame
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[Dict[str, Any]]:
        """Buffer ``data``; return every message completed by it."""
        self._buffer.extend(data)
        messages: List[Dict[str, Any]] = []
        while True:
            if len(self._buffer) < HEADER_BYTES:
                return messages
            (length,) = HEADER.unpack_from(self._buffer)
            if length > self.max_frame:
                raise ProtocolError(
                    f"frame of {length} bytes exceeds the "
                    f"{self.max_frame}-byte cap"
                )
            end = HEADER_BYTES + length
            if len(self._buffer) < end:
                return messages
            body = bytes(self._buffer[HEADER_BYTES:end])
            del self._buffer[:end]
            try:
                message = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ProtocolError(f"undecodable frame body: {exc}")
            if not isinstance(message, dict):
                raise ProtocolError(
                    f"frame body must be a JSON object, got "
                    f"{type(message).__name__}"
                )
            messages.append(message)

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)


# ----------------------------------------------------------------------
# Messages
# ----------------------------------------------------------------------
def request(
    request_id: int,
    op: str,
    params: Optional[Mapping[str, Any]] = None,
    deadline_ms: Optional[float] = None,
    trace: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """A request message (the client's side of the contract)."""
    message: Dict[str, Any] = {"id": request_id, "op": op}
    if params:
        message["params"] = dict(params)
    if deadline_ms is not None:
        message["deadline_ms"] = float(deadline_ms)
    if trace is not None:
        message["trace"] = dict(trace)
    return message


def ok_response(
    request_id: Optional[int], result: Mapping[str, Any]
) -> Dict[str, Any]:
    return {"id": request_id, "ok": True, "result": dict(result)}


def error_response(
    request_id: Optional[int],
    code: str,
    message: str,
    retry_after_ms: Optional[float] = None,
) -> Dict[str, Any]:
    """A typed error response; ``retry_after_ms`` marks shed requests."""
    error: Dict[str, Any] = {"code": code, "message": message}
    if retry_after_ms is not None:
        error[RETRY_AFTER] = float(retry_after_ms)
    return {"id": request_id, "ok": False, "error": error}


def validate_request(message: Mapping[str, Any]) -> Tuple[int, str]:
    """``(id, op)`` of a request, or :class:`ProtocolError`."""
    request_id = message.get("id")
    if not isinstance(request_id, int):
        raise ProtocolError(
            f"request id must be an integer, got {request_id!r}"
        )
    op = message.get("op")
    if not isinstance(op, str):
        raise ProtocolError(f"request op must be a string, got {op!r}")
    return request_id, op


# ----------------------------------------------------------------------
# Value encoding
# ----------------------------------------------------------------------
def encode_value(value: Any) -> Any:
    """One relation cell / receiver component as JSON-safe data."""
    if isinstance(value, Obj):
        return [value.cls, value.key]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise ProtocolError(
        f"value {value!r} is not representable on the wire"
    )


def decode_value(value: Any) -> Any:
    if isinstance(value, list):
        if len(value) != 2 or not isinstance(value[0], str):
            raise ProtocolError(
                f"object encoding must be [class, key], got {value!r}"
            )
        return Obj(value[0], value[1])
    return value


def encode_receivers(
    receivers: Iterable[Receiver],
) -> List[List[List[Any]]]:
    """Receiver tuples as nested ``[[class, key], ...]`` lists."""
    return [
        [encode_value(obj) for obj in receiver.objects]
        for receiver in receivers
    ]


def decode_receivers(payload: Any) -> Tuple[Receiver, ...]:
    if not isinstance(payload, list):
        raise ProtocolError(
            f"receivers must be a list, got {type(payload).__name__}"
        )
    decoded: List[Receiver] = []
    for entry in payload:
        if not isinstance(entry, list) or not entry:
            raise ProtocolError(
                f"a receiver must be a non-empty list, got {entry!r}"
            )
        objects = [decode_value(component) for component in entry]
        if not all(isinstance(obj, Obj) for obj in objects):
            raise ProtocolError(
                f"receiver components must be [class, key] pairs, "
                f"got {entry!r}"
            )
        decoded.append(Receiver(objects))
    return tuple(decoded)


class EncodedRows:
    """A result's rows, encoded once: the UTF-8 bytes of their JSON
    array in wire order (see the module docstring).

    :func:`encode_frame` splices :attr:`data` into a reply verbatim.
    """

    __slots__ = ("data",)

    def __init__(self, data: bytes) -> None:
        self.data = data


#: A JSON string literal, non-ASCII text kept as is.
_STRING = json.encoder.encode_basestring
#: Compact JSON with DEL and non-ASCII characters escaped.
_COMPACT_ASCII = json.JSONEncoder(separators=(",", ":")).encode


def _escapes_nothing(text: str) -> bool:
    """Whether ``text`` reads the same with DEL and non-ASCII escaped."""
    return text.isascii() and "\x7f" not in text


def _order_key(text: str) -> str:
    """A row's wire-order key, given its frame text."""
    return text if _escapes_nothing(text) else _COMPACT_ASCII(json.loads(text))


def preencode_rows(rows: Iterable[Tuple]) -> EncodedRows:
    """Relation tuples as the JSON text of a reply's ``rows``, built
    once from per-cell fragments and sorted by that text.

    An object cell with a string class and an ``int`` key is formatted
    from its class's cached ``["cls",`` prefix; every other cell goes
    through :func:`encode_value` and the JSON encoder, so a cell the
    wire cannot represent raises :class:`ProtocolError` here, in the
    caller's thread.
    """
    prefixes: Dict[str, str] = {}
    texts: List[str] = []
    for row in rows:
        cells: List[str] = []
        for cell in row:
            if (
                type(cell) is Obj
                and type(cell.key) is int
                and type(cell.cls) is str
            ):
                prefix = prefixes.get(cell.cls)
                if prefix is None:
                    prefix = prefixes[cell.cls] = "[" + _STRING(cell.cls) + ","
                cells.append(f"{prefix}{cell.key}]")
            else:
                cells.append(_COMPACT(encode_value(cell)))
        texts.append("[" + ",".join(cells) + "]")
    if _escapes_nothing("".join(texts)):
        texts.sort()
    else:
        texts.sort(key=_order_key)
    try:
        return EncodedRows(("[" + ",".join(texts) + "]").encode("utf-8"))
    except UnicodeEncodeError as exc:
        raise ProtocolError(f"a row is not representable on the wire: {exc}")


def encode_rows(rows: Iterable[Tuple]) -> List[List[Any]]:
    """Relation tuples as JSON-safe nested lists in wire order: the
    decoded form of :func:`preencode_rows`."""
    return json.loads(preencode_rows(rows).data)


__all__ = [
    "BAD_REQUEST",
    "CONFLICT",
    "DEADLINE_EXCEEDED",
    "ERROR_CODES",
    "EncodedRows",
    "FrameDecoder",
    "HANDLER_DEATH",
    "HEADER_BYTES",
    "INTERNAL",
    "MAX_FRAME_BYTES",
    "OPS",
    "OVERLOADED",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RETRYABLE_CODES",
    "RETRY_AFTER",
    "TXN_STATE",
    "UNKNOWN_METHOD",
    "UNKNOWN_OP",
    "decode_receivers",
    "decode_value",
    "encode_frame",
    "encode_receivers",
    "encode_rows",
    "encode_value",
    "error_response",
    "ok_response",
    "preencode_rows",
    "request",
    "validate_request",
]
