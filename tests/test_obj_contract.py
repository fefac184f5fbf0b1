"""The ``Obj`` contract: a tagged tuple that behaves like the frozen
dataclass it replaced.

The reference is the old frozen-dataclass ``Obj``, kept here verbatim.
Equality, hashing, ordering, ``repr``/``str`` and immutability must agree
with it; iteration and JSON encoding still raise; pickling carries an
object as ``Obj(cls, key)``, so objects a fresh interpreter builds come
back equal to local ones.  The WAL bytes of a fixed commit are pinned.
"""

import copy
import json
import multiprocessing
import pickle
from dataclasses import dataclass
from typing import Hashable, Tuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graph.instance import Obj as TaggedObj
from repro.relational.delta import RelationDelta
from repro.store import wal


# ----------------------------------------------------------------------
# The reference (verbatim)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Obj:
    """An object: a member of the universe of class ``cls``.

    ``key`` distinguishes objects within a class; any hashable value
    works (ints and strings in practice).  Objects of different classes
    are distinct even when their keys coincide.  Ordering is total and
    deterministic even across mixed key types (keys compare by type name
    first), so instances render and iterate reproducibly.
    """

    cls: str
    key: Hashable

    def _sort_key(self) -> Tuple[str, str, str]:
        return (self.cls, type(self.key).__name__, str(self.key))

    def __lt__(self, other: "Obj") -> bool:
        if not isinstance(other, Obj):
            return NotImplemented
        return self._sort_key() < other._sort_key()

    def __le__(self, other: "Obj") -> bool:
        if not isinstance(other, Obj):
            return NotImplemented
        return self == other or self < other

    def __gt__(self, other: "Obj") -> bool:
        if not isinstance(other, Obj):
            return NotImplemented
        return other < self

    def __ge__(self, other: "Obj") -> bool:
        if not isinstance(other, Obj):
            return NotImplemented
        return other <= self

    def __str__(self) -> str:
        return f"{self.cls}#{self.key}"


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
scalars = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.text(max_size=3),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.none(),
)
keys = st.recursive(
    scalars, lambda inner: st.tuples(inner, inner), max_leaves=4
)
classes = st.sampled_from(["Employee", "Money", "E", "é", ""])
pairs = st.tuples(classes, keys)


def both(pair):
    """The same ``(cls, key)`` built as a tagged object and a reference."""
    cls, key = pair
    return TaggedObj(cls, key), Obj(cls, key)


def pair_of(obj):
    return (obj.cls, obj.key)


# ----------------------------------------------------------------------
# Agreement with the reference
# ----------------------------------------------------------------------
@given(st.lists(pairs, min_size=1, max_size=6))
def test_equality_and_hash_agree_with_the_reference(items):
    built = [both(pair) for pair in items]
    for subject, reference in built:
        for other, other_reference in built:
            assert (subject == other) == (reference == other_reference)
            assert (subject != other) == (reference != other_reference)
            if subject == other:
                assert hash(subject) == hash(other)


@given(st.lists(pairs, max_size=8))
def test_order_agrees_with_the_reference(items):
    built = [both(pair) for pair in items]
    subjects = [subject for subject, _ in built]
    references = [reference for _, reference in built]
    assert [pair_of(o) for o in sorted(subjects)] == [
        pair_of(o) for o in sorted(references)
    ]
    for (a, ra), (b, rb) in zip(built, reversed(built)):
        assert (a < b) == (ra < rb)
        assert (a <= b) == (ra <= rb)
        assert (a > b) == (ra > rb)
        assert (a >= b) == (ra >= rb)


@given(pairs)
def test_fields_repr_and_str_agree_with_the_reference(pair):
    subject, reference = both(pair)
    assert pair_of(subject) == pair_of(reference)
    assert subject.cls is pair[0] and subject.key is pair[1]
    assert repr(subject) == repr(reference)
    assert str(subject) == str(reference)


def test_keyword_construction():
    assert TaggedObj(cls="Employee", key=5) == TaggedObj("Employee", 5)
    assert repr(TaggedObj(key=5, cls="Employee")) == "Obj(cls='Employee', key=5)"


# ----------------------------------------------------------------------
# What an object refuses
# ----------------------------------------------------------------------
@given(pairs)
def test_objects_are_immutable(pair):
    subject, _ = both(pair)
    for name in ("cls", "key", "other"):
        with pytest.raises(AttributeError):
            setattr(subject, name, 1)
    for name in ("cls", "key"):
        with pytest.raises(AttributeError):
            delattr(subject, name)
    assert pair_of(subject) == pair


@given(pairs)
def test_objects_are_neither_iterable_nor_json(pair):
    subject, _ = both(pair)
    with pytest.raises(TypeError):
        tuple(subject)
    with pytest.raises(TypeError):
        list(subject)
    with pytest.raises(TypeError):
        cls, key, tag = subject
    with pytest.raises(TypeError):
        json.dumps(subject)
    with pytest.raises(TypeError):
        json.dumps([subject], indent=1)


@given(pairs, st.one_of(keys, classes))
def test_objects_equal_only_objects(pair, other):
    subject, _ = both(pair)
    cls, key = pair
    for plain in (
        (cls, key),
        (cls, key, other),
        (cls, key, None),
        (cls, key, object()),
        [cls, key],
        cls,
        key,
        other,
    ):
        assert subject != plain
        assert not subject == plain
        assert plain != subject


@given(pairs, st.one_of(keys, classes))
def test_objects_order_only_against_objects(pair, other):
    subject, reference = both(pair)
    for plain in ((pair[0], pair[1]), (pair[0], pair[1], other), other):
        for left, right in ((subject, plain), (plain, subject)):
            with pytest.raises(TypeError):
                left < right  # noqa: B015
            with pytest.raises(TypeError):
                left >= right  # noqa: B015
        with pytest.raises(TypeError):
            reference < plain  # noqa: B015


# ----------------------------------------------------------------------
# Pickling and copying
# ----------------------------------------------------------------------
def round_trips(obj):
    return [copy.copy(obj), copy.deepcopy(obj)] + [
        pickle.loads(pickle.dumps(obj, protocol=protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]


@given(pairs)
def test_pickle_and_copy_round_trips(pair):
    """Round trips come back equal, except where the key itself does
    not (a NaN that pickling rebuilds), exactly as for the reference."""
    subject, reference = both(pair)
    key_survives = pickle.loads(pickle.dumps(pair[1])) == pair[1]
    for restored, restored_reference in zip(
        round_trips(subject), round_trips(reference)
    ):
        assert type(restored) is TaggedObj
        assert (restored == subject) == (restored_reference == reference)
        if key_survives:
            assert restored == subject
        if restored == subject:
            assert hash(restored) == hash(subject)
        assert repr(restored) == repr(subject)


def test_pickles_carry_class_and_key_only():
    subject = TaggedObj("Employee", 5)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        data = pickle.dumps(subject, protocol=protocol)
        assert b"builtins" not in data and b"object" not in data
    assert subject.__reduce__() == (TaggedObj, ("Employee", 5))


SPAWNED = [("Employee", 5), ("Money", 1500), ("Tag", ("a", 1)), ("E", None)]


def test_objects_from_a_spawned_interpreter_equal_local_ones():
    """A ``spawn`` worker holds its own tag; what it builds comes back
    through the pipe equal to, and hashing like, local objects."""
    local = [TaggedObj(cls, key) for cls, key in SPAWNED]
    context = multiprocessing.get_context("spawn")
    with context.Pool(1) as pool:
        remote = pool.starmap(TaggedObj, SPAWNED)
    assert remote == local
    assert all(type(obj) is TaggedObj for obj in remote)
    assert set(remote) == set(local)
    assert len(set(remote) | set(local)) == len(local)
    assert {obj: i for i, obj in enumerate(remote)} == {
        obj: i for i, obj in enumerate(local)
    }


# ----------------------------------------------------------------------
# The WAL format
# ----------------------------------------------------------------------
#: ``record_line`` of :func:`pinned_commit`, as the frozen-dataclass
#: objects encoded it.
PINNED_WAL_LINE = (
    b'{"crc":4276557320,"kind":"commit","lsn":4,"payload":{"changes":'
    b'{"Employee.salary":{"del":[[{"o":["Employee",3]},{"o":["Money",1000]}]],'
    b'"ins":[[{"o":["Employee",3]},{"o":["Money",1500]}],'
    b'[{"o":["Employee",7]},{"o":["Money",2000]}]]},'
    b'"Tag.label":{"del":[],"ins":[[{"o":["Pair",{"o":["Employee",1]}]},'
    b'"\\u00e9",-4,false,{"t":[1,"b"]}],'
    b'[{"o":["Tag",{"t":["a",1]}]},"x",null,true,2.5]]}},"txn":9},'
    b'"version":4}\n'
)


def pinned_commit():
    return {
        "Employee.salary": RelationDelta(
            inserted=frozenset(
                {
                    (TaggedObj("Employee", 3), TaggedObj("Money", 1500)),
                    (TaggedObj("Employee", 7), TaggedObj("Money", 2000)),
                }
            ),
            deleted=frozenset(
                {(TaggedObj("Employee", 3), TaggedObj("Money", 1000))}
            ),
        ),
        "Tag.label": RelationDelta(
            inserted=frozenset(
                {
                    (TaggedObj("Tag", ("a", 1)), "x", None, True, 2.5),
                    (
                        TaggedObj("Pair", TaggedObj("Employee", 1)),
                        "é",
                        -4,
                        False,
                        (1, "b"),
                    ),
                }
            ),
        ),
    }


def test_wal_record_bytes_are_pinned():
    changes = pinned_commit()
    line = wal.record_line(
        4,
        wal.KIND_COMMIT,
        4,
        {"changes": wal.encode_changes(changes), "txn": 9},
    )
    assert line == PINNED_WAL_LINE
    decoded = wal.decode_changes(wal.parse_record(line).payload["changes"])
    assert decoded == changes
