"""The query reply path: pre-encoded rows, spliced frames, the reply memo.

The reference is the row and frame encoder the pre-encoded path
replaced, kept here verbatim: every reply frame must carry exactly the
bytes it produced.  The memo tests drive a real server and count calls
to the row encoder.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sequential import apply_sequence
from repro.graph.instance import Obj
from repro.objrel.mapping import instance_to_database
from repro.relational.database import Database
from repro.relational.evaluate import evaluate
from repro.relational.parser import parse_expression
from repro.relational.relation import Relation, schema_of
from repro.server import protocol
from repro.server.client import ServerError
from repro.server.protocol import HEADER, MAX_FRAME_BYTES, ProtocolError
from repro.server.testing import run_server_test
from repro.sqlsim.scenarios import scenario_b_method
from repro.store.versioned import VersionedStore
from repro.workloads.sharded import sharded_company


# ----------------------------------------------------------------------
# The reference encoder (verbatim)
# ----------------------------------------------------------------------
def reference_encode_frame(message):
    """One message as a length-prefixed JSON frame."""
    body = json.dumps(
        message, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame body of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte cap"
        )
    return HEADER.pack(len(body)) + body


def reference_encode_value(value):
    """One relation cell / receiver component as JSON-safe data."""
    if isinstance(value, Obj):
        return [value.cls, value.key]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise ProtocolError(
        f"value {value!r} is not representable on the wire"
    )


def reference_encode_rows(rows):
    """Relation tuples as JSON-safe nested lists, deterministically
    ordered (sorted by their encoded form)."""
    return sorted(
        [[reference_encode_value(cell) for cell in row] for row in rows],
        key=lambda row: json.dumps(row, sort_keys=True),
    )


def reply_frames(rows, columns=("self", "salary")):
    """``(new, reference)`` frames of one query reply over ``rows``."""
    new = protocol.encode_frame(
        protocol.ok_response(
            7,
            {"columns": list(columns), "rows": protocol.preencode_rows(rows)},
        )
    )
    reference = reference_encode_frame(
        protocol.ok_response(
            7,
            {"columns": list(columns), "rows": reference_encode_rows(rows)},
        )
    )
    return new, reference


# ----------------------------------------------------------------------
# Byte identity
# ----------------------------------------------------------------------
# Characters that stress the order and the escaping: the space and "!"
# sort below most text, quotes and backslashes are escaped, control
# characters are escaped in both forms, DEL and non-ASCII only in the
# order key.  Lone surrogates cannot be sent as UTF-8 at all.
_SPECIAL = list(' !"\\/\x00\x08\n\t\x1f\x7f~') + ["é", "ÿ", "中", "😀", " "]
_TEXT = st.one_of(
    # Short texts over the special characters share prefixes often, so
    # their order is decided by the characters above.
    st.text(alphabet=st.sampled_from(_SPECIAL), max_size=3),
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs",)), max_size=5
    ),
)
_KEY = st.one_of(
    st.integers(-20, 20),
    st.integers(),
    _TEXT,
    st.booleans(),
    st.floats(),
    st.none(),
)
_OBJ = st.builds(Obj, st.sampled_from(["Employee", "Money", "Dé", 'a"b']), _KEY)
_CELL = st.one_of(_OBJ, _KEY)
_ROWS = st.integers(0, 3).flatmap(
    lambda arity: st.lists(st.tuples(*[_CELL] * arity), max_size=12)
)


@settings(max_examples=400)
@given(_ROWS)
def test_reply_frames_are_byte_identical_to_the_reference(rows):
    new, reference = reply_frames(rows)
    assert new == reference
    # The decoded form has the wire order too (compared as JSON: NaN
    # cells are unequal to themselves).
    assert json.dumps(protocol.encode_rows(rows)) == json.dumps(
        reference_encode_rows(rows)
    )


@pytest.mark.parametrize(
    "rows",
    [
        # Keys 1/9/10: the wire puts 10 before 1 and 9.
        [(Obj("Employee", k), Obj("Money", 100)) for k in (1, 9, 10)],
        [(Obj("Employee", k),) for k in (1, 9, 10)],
        # A string key against an int key with the same digits.
        [(Obj("Employee", "1"),), (Obj("Employee", 1),)],
        [("1",), (1,)],
        # A prefix against its extension, and a sub-space character.
        [("a",), ("a!",), ("a b",), ("a~",)],
        # Non-ASCII and DEL sort by their escaped form.
        [("é",), ("e",), ("f",), ("\\u00e9",)],
        [("a\x7f",), ("a~",), ("a\\",)],
        [(Obj("Dé", "é"),), (Obj("Dé", "z"),), (Obj("De", 1),)],
        # bool, float and None keys take the general path.
        [(Obj("E", True),), (Obj("E", 1.0),), (Obj("E", None),), (Obj("E", 1),)],
        [],
    ],
)
def test_hand_picked_orders_match_the_reference(rows):
    new, reference = reply_frames(rows)
    assert new == reference
    assert protocol.encode_rows(rows) == reference_encode_rows(rows)


def test_non_reply_frames_are_unchanged():
    messages = [
        protocol.request(1, "query", {"expr": "Employee.salary"}),
        protocol.ok_response(2, {"version": 3, "route": "disjoint"}),
        protocol.error_response(3, protocol.OVERLOADED, "é", 5.0),
        protocol.ok_response(4, {"rows": [[1, 2]], "columns": ["a", "b"]}),
    ]
    for message in messages:
        assert protocol.encode_frame(message) == reference_encode_frame(
            message
        )


def test_unrepresentable_cells_raise_protocol_errors():
    with pytest.raises(ProtocolError):
        protocol.preencode_rows([(b"raw",)])
    with pytest.raises(ProtocolError):
        protocol.preencode_rows([("lone \udc80 surrogate",)])


def test_spliced_frames_keep_the_size_cap(monkeypatch):
    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64)
    rows = protocol.preencode_rows([(Obj("Employee", i),) for i in range(10)])
    with pytest.raises(ProtocolError, match="exceeds"):
        protocol.encode_frame(protocol.ok_response(1, {"rows": rows}))


# ----------------------------------------------------------------------
# The per-connection reply memo
# ----------------------------------------------------------------------
@pytest.fixture
def encoder_calls(monkeypatch):
    """Counts row encodings; records every reply frame carrying rows."""
    calls = []
    frames = []
    encode_rows = protocol.preencode_rows
    encode_frame = protocol.encode_frame

    def counting(rows):
        calls.append(1)
        return encode_rows(rows)

    def recording(message):
        frame = encode_frame(message)
        if "rows" in (message.get("result") or {}):
            frames.append(frame)
        return frame

    monkeypatch.setattr(protocol, "preencode_rows", counting)
    monkeypatch.setattr(protocol, "encode_frame", recording)
    return calls, frames


def oracle_rows(instance, expr="Employee.salary"):
    relation = evaluate(
        parse_expression(expr), instance_to_database(instance)
    )
    return reference_encode_rows(relation.tuples)


def test_a_repeated_query_reuses_the_encoded_reply(encoder_calls):
    calls, frames = encoder_calls
    instance, _ = sharded_company(n_employees=12, seed=3)
    store = VersionedStore(instance=instance)

    async def scenario(server, client):
        first = await client.query("Employee.salary")
        second = await client.query("Employee.salary")
        return first, second

    try:
        first, second = run_server_test(store, scenario)
    finally:
        store.close()
    assert len(calls) == 1
    assert first == second
    assert first["rows"] == oracle_rows(instance)
    # Same reply bytes after the request id.
    tails = [frame.split(b'"result":', 1)[1] for frame in frames]
    assert len(tails) == 2 and tails[0] == tails[1]


def test_a_write_in_between_re_encodes(encoder_calls):
    calls, _ = encoder_calls
    instance, receivers = sharded_company(n_employees=12, seed=3)
    store = VersionedStore(instance=instance)

    async def scenario(server, client):
        before = await client.query("Employee.salary")
        await client.apply_batch("raise_salary", receivers)
        after = await client.query("Employee.salary")
        return before, after

    try:
        before, after = run_server_test(store, scenario)
    finally:
        store.close()
    assert len(calls) == 2
    assert before["rows"] == oracle_rows(instance)
    raised = apply_sequence(scenario_b_method(), instance, receivers)
    assert after["rows"] == oracle_rows(raised)
    assert after["rows"] != before["rows"]


def test_a_query_in_a_transaction_reads_the_transaction_state(encoder_calls):
    instance, receivers = sharded_company(n_employees=12, seed=3)
    store = VersionedStore(instance=instance)

    async def scenario(server, client):
        head = await client.query("Employee.salary")
        await client.begin()
        await client.apply("raise_salary", receivers)
        inside = await client.query("Employee.salary")
        await client.abort()
        again = await client.query("Employee.salary")
        return head, inside, again

    try:
        head, inside, again = run_server_test(store, scenario)
    finally:
        store.close()
    raised = apply_sequence(scenario_b_method(), instance, receivers)
    assert head["rows"] == again["rows"] == oracle_rows(instance)
    assert inside["rows"] == oracle_rows(raised)


def test_the_memo_holds_one_reply(encoder_calls):
    calls, _ = encoder_calls
    instance, _ = sharded_company(n_employees=12, seed=3)
    store = VersionedStore(instance=instance)

    async def scenario(server, client):
        replies = []
        for expr in ("Employee.salary", "Employee.manager", "Employee.salary"):
            replies.append(await client.query(expr))
        (connection,) = server._connections.values()
        memo = connection.session._reply
        return replies, memo

    try:
        replies, memo = run_server_test(store, scenario)
    finally:
        store.close()
    # Alternating two results re-encodes each time: only the last
    # reply is kept.
    assert len(calls) == 3
    relation, rows = memo
    assert relation.schema.names == tuple(replies[-1]["columns"])
    assert json.loads(rows.data) == replies[-1]["rows"]
    assert replies[0] == replies[2]


def test_an_unrepresentable_cell_is_a_bad_request():
    database = Database({"R": Relation(schema_of(("a", "D")), [(b"raw",)])})
    store = VersionedStore(database=database)

    async def scenario(server, client):
        with pytest.raises(ServerError) as err:
            await client.query("R")
        # The connection survives the typed error.
        pong = await client.ping("still here")
        return err.value.code, pong

    try:
        code, pong = run_server_test(store, scenario)
    finally:
        store.close()
    assert code == protocol.BAD_REQUEST
    assert pong["payload"] == "still here"
