"""Typed relations.

A relation schema is an ordered tuple of attributes, each with a name and
a *domain* name; a relation is a schema plus a finite set of tuples whose
values are opaque hashables.  Domains realize the typed setting of the
paper's Appendix A: attributes over different domains can never be
compared, united, or joined.

For object-base relations the domain names are class names and the values
are :class:`~repro.graph.instance.Obj` objects, but the machinery is
generic (the Section 7 SQL layer uses plain Python values).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from types import MappingProxyType
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)


class RelationError(ValueError):
    """Raised on schema violations in relational operations."""


# ----------------------------------------------------------------------
# Content fingerprints
# ----------------------------------------------------------------------
#: Fingerprints are 64-bit values: an order-insensitive XOR of per-tuple
#: hashes, each scrambled through a splitmix64-style finalizer so that
#: structured tuple hashes (consecutive integers, shared prefixes) do not
#: cancel under XOR.  They identify relation *contents* within one
#: process: equal relations always have equal fingerprints, and distinct
#: contents collide with probability ~2^-64.  The engine keys its
#: cross-state memo on them.
_FP_MASK = (1 << 64) - 1


def _fp_scramble(value: int) -> int:
    """splitmix64 finalizer: a bijective avalanche mix on 64 bits."""
    value &= _FP_MASK
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _FP_MASK
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _FP_MASK
    return value ^ (value >> 31)


def tuple_fingerprint(row: Tuple) -> int:
    """The scrambled 64-bit fingerprint of one tuple."""
    return _fp_scramble(hash(row))


# ----------------------------------------------------------------------
# Column indexes
# ----------------------------------------------------------------------
#: A column index maps each value of one column to the frozenset of rows
#: holding it.  A published index is never mutated: building or patching
#: one makes a new dict, published with one assignment, so a reader on
#: another thread sees the old index or the new one, never a half-made
#: one.
ColumnIndex = Mapping[object, FrozenSet[Tuple]]

#: The index table of a relation whose indexes a commit dropped: it holds
#: none and keeps none (see :meth:`Relation.drop_indexes`).
_DROPPED: Mapping[int, ColumnIndex] = MappingProxyType({})

_NO_ROWS: FrozenSet[Tuple] = frozenset()


def _build_index(rows: FrozenSet[Tuple], position: int) -> ColumnIndex:
    keys = list(map(itemgetter(position), rows))
    if len(set(keys)) == len(keys):
        # A key column: one row per value, every bucket built in C.
        return dict(zip(keys, map(frozenset, zip(rows))))
    groups: Dict[object, list] = {}
    for key, row in zip(keys, rows):
        bucket = groups.get(key)
        if bucket is None:
            groups[key] = [row]
        else:
            bucket.append(row)
    return {key: frozenset(bucket) for key, bucket in groups.items()}


def _patched_index(
    index: ColumnIndex,
    position: int,
    added: Iterable[Tuple],
    removed: Iterable[Tuple],
) -> ColumnIndex:
    """``index`` after a delta: a copy of the dict in which only the
    values the delta touches get new buckets (``added`` and ``removed``
    are disjoint, ``removed`` rows are indexed, ``added`` rows are not)."""
    touched: Dict[object, Tuple[list, list]] = {}
    for row in removed:
        touched.setdefault(row[position], ([], []))[0].append(row)
    for row in added:
        touched.setdefault(row[position], ([], []))[1].append(row)
    patched = dict(index)
    for key, (gone, new) in touched.items():
        bucket = index.get(key, _NO_ROWS)
        if gone:
            bucket = bucket.difference(gone)
        if new:
            bucket = bucket.union(new)
        if bucket:
            patched[key] = bucket
        else:
            del patched[key]
    return patched


@dataclass(frozen=True, order=True)
class Attribute:
    """An attribute: a name paired with a domain name."""

    name: str
    domain: str

    def renamed(self, new_name: str) -> "Attribute":
        return Attribute(new_name, self.domain)

    def __str__(self) -> str:
        return f"{self.name}:{self.domain}"


class RelationSchema:
    """An ordered tuple of attributes with distinct names."""

    __slots__ = ("_attributes", "_index", "_names", "_hash")

    def __init__(self, attributes: Iterable[Attribute]) -> None:
        attrs = tuple(attributes)
        names = tuple(a.name for a in attrs)
        if len(set(names)) != len(names):
            raise RelationError(f"duplicate attribute names in {list(names)}")
        self._attributes: Tuple[Attribute, ...] = attrs
        self._index = {name: i for i, name in enumerate(names)}
        self._names = names
        self._hash: Optional[int] = None

    @property
    def attributes(self) -> Tuple[Attribute, ...]:
        return self._attributes

    @property
    def names(self) -> Tuple[str, ...]:
        return self._names

    @property
    def arity(self) -> int:
        return len(self._attributes)

    def position(self, name: str) -> int:
        """The index of the attribute called ``name``."""
        try:
            return self._index[name]
        except KeyError:
            raise RelationError(f"no attribute {name!r} in {self}") from None

    def attribute(self, name: str) -> Attribute:
        return self._attributes[self.position(name)]

    def domain_of(self, name: str) -> str:
        return self.attribute(name).domain

    def has_attribute(self, name: str) -> bool:
        return name in self._index

    def project(self, names: Sequence[str]) -> "RelationSchema":
        """Schema of a projection onto ``names`` (kept in that order)."""
        return RelationSchema([self.attribute(n) for n in names])

    def rename(self, old: str, new: str) -> "RelationSchema":
        position = self.position(old)
        attrs = list(self._attributes)
        attrs[position] = attrs[position].renamed(new)
        return RelationSchema(attrs)

    def concat(self, other: "RelationSchema") -> "RelationSchema":
        """Schema of a Cartesian product (names must be disjoint)."""
        clash = set(self.names) & set(other.names)
        if clash:
            raise RelationError(
                f"product with overlapping attribute names {sorted(clash)}"
            )
        return RelationSchema(self._attributes + other._attributes)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, RelationSchema):
            return NotImplemented
        return self._attributes == other._attributes

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._attributes)
        return self._hash

    def __reduce__(self):
        # String hashes differ between processes: the cached hash stays.
        return (RelationSchema, (self._attributes,))

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __len__(self) -> int:
        return len(self._attributes)

    def __repr__(self) -> str:
        inner = ", ".join(str(a) for a in self._attributes)
        return f"({inner})"


def schema_of(*pairs: Tuple[str, str]) -> RelationSchema:
    """Shorthand: ``schema_of(("C", "Drinker"), ("f", "Bar"))``."""
    return RelationSchema([Attribute(n, d) for n, d in pairs])


class Relation:
    """A finite, typed relation: a schema plus a set of tuples.

    A relation may also hold per-column hash indexes (:meth:`index`),
    a cache beside its value: equality, hashing, the fingerprint and
    pickling ignore them.
    """

    __slots__ = ("_schema", "_tuples", "_tuple_xor", "_fp", "_indexes")

    def __init__(
        self,
        schema: RelationSchema,
        tuples: Iterable[Tuple] = (),
    ) -> None:
        rows: FrozenSet[Tuple] = frozenset(tuple(row) for row in tuples)
        arity = schema.arity
        for row in rows:
            if len(row) != arity:
                raise RelationError(
                    f"tuple {row} has arity {len(row)}, expected {arity}"
                )
        self._schema = schema
        self._tuples = rows
        self._tuple_xor: Optional[int] = None
        self._fp: Optional[int] = None
        self._indexes: Optional[Mapping[int, ColumnIndex]] = None

    @classmethod
    def _from_rows(
        cls, schema: RelationSchema, rows: Iterable[Tuple]
    ) -> "Relation":
        """Trusted construction for engine-internal hot paths.

        Every row must already be a tuple of the right arity (rows
        produced by joining/filtering/projecting *validated* relations
        are); skips ``__init__``'s O(n) re-tuple and arity pass.
        """
        result = cls.__new__(cls)
        result._schema = schema
        result._tuples = (
            rows if isinstance(rows, frozenset) else frozenset(rows)
        )
        result._tuple_xor = None
        result._fp = None
        result._indexes = None
        return result

    @property
    def schema(self) -> RelationSchema:
        return self._schema

    @property
    def tuples(self) -> FrozenSet[Tuple]:
        return self._tuples

    def _content_xor(self) -> int:
        if self._tuple_xor is None:
            acc = 0
            for row in self._tuples:
                acc ^= tuple_fingerprint(row)
            self._tuple_xor = acc
        return self._tuple_xor

    @property
    def fingerprint(self) -> int:
        """An order-insensitive 64-bit content fingerprint.

        Equal relations always share it; the XOR accumulator is cached
        and maintained incrementally by :meth:`updated`, so fingerprints
        of mutated states cost O(changed tuples), not O(relation).
        """
        if self._fp is None:
            self._fp = _fp_scramble(
                self._content_xor()
                ^ _fp_scramble(hash(self._schema))
                ^ len(self._tuples)
            )
        return self._fp

    def index(self, position: int) -> ColumnIndex:
        """The hash index of column ``position``: each value in that
        column mapped to the frozenset of rows holding it.

        Built on first use and kept on the relation, unless its indexes
        were dropped: then each call builds one and keeps none.
        :meth:`updated` carries every built index to the new state,
        patching only the values its delta touches, and :meth:`rename`
        shares them.
        """
        indexes = self._indexes
        if indexes is not None:
            found = indexes.get(position)
            if found is not None:
                return found
        if not 0 <= position < self._schema.arity:
            raise RelationError(
                f"no column {position} in {self._schema}"
            )
        built = _build_index(self._tuples, position)
        indexes = self._indexes
        if indexes is _DROPPED:
            return built
        published = dict(indexes) if indexes else {}
        published[position] = built
        self._indexes = published
        return built

    @property
    def indexed_columns(self) -> Tuple[int, ...]:
        """The positions of the columns whose index is built."""
        return tuple(sorted(self._indexes or ()))

    def drop_indexes(self) -> None:
        """Forget every column index, for good: a commit calls this on
        the relations it supersedes.  Later :meth:`index` calls build
        without keeping, and :meth:`updated` and :meth:`rename` carry
        no index from this relation, so a reader of a superseded
        version pins none."""
        self._indexes = _DROPPED

    def updated(
        self,
        insert: Iterable[Tuple] = (),
        delete: Iterable[Tuple] = (),
    ) -> "Relation":
        """This relation with ``delete`` removed and ``insert`` added.

        Deletions are applied first, so a tuple in both sets ends up
        present.  The fingerprint accumulator carries over incrementally
        (XOR out the effectively removed tuples, XOR in the added ones)
        when it has already been computed, and so does every built
        column index (a copy of its dict with the touched values'
        buckets replaced).  Returns ``self`` when the update is a no-op.
        """
        ins = {tuple(row) for row in insert}
        dele = {tuple(row) for row in delete}
        added = ins - self._tuples
        removed = (dele & self._tuples) - ins
        if not added and not removed:
            return self
        arity = self._schema.arity
        for row in added:
            if len(row) != arity:
                raise RelationError(
                    f"tuple {row} has arity {len(row)}, expected {arity}"
                )
        # Build directly: existing tuples are already validated, so the
        # __init__ re-validation pass (O(relation)) is skipped.
        result = Relation.__new__(Relation)
        result._schema = self._schema
        result._tuples = (self._tuples - removed) | added
        result._fp = None
        if self._tuple_xor is not None:
            acc = self._tuple_xor
            for row in added:
                acc ^= tuple_fingerprint(row)
            for row in removed:
                acc ^= tuple_fingerprint(row)
            result._tuple_xor = acc
        else:
            result._tuple_xor = None
        indexes = self._indexes
        result._indexes = (
            {
                position: _patched_index(index, position, added, removed)
                for position, index in indexes.items()
            }
            if indexes
            else None
        )
        return result

    def column(self, name: str) -> FrozenSet:
        """All values in the named column."""
        position = self._schema.position(name)
        return frozenset(map(itemgetter(position), self._tuples))

    def is_empty(self) -> bool:
        return not self._tuples

    # ------------------------------------------------------------------
    # Operations (used directly by the evaluator)
    # ------------------------------------------------------------------
    def _require_same_schema(self, other: "Relation") -> None:
        if self._schema != other._schema:
            raise RelationError(
                f"schema mismatch: {self._schema} vs {other._schema}"
            )

    # Every operator's input is a validated relation, so its output rows
    # are tuples of the right arity: results are built with _from_rows.
    def union(self, other: "Relation") -> "Relation":
        self._require_same_schema(other)
        return Relation._from_rows(self._schema, self._tuples | other._tuples)

    def difference(self, other: "Relation") -> "Relation":
        self._require_same_schema(other)
        return Relation._from_rows(self._schema, self._tuples - other._tuples)

    def product(self, other: "Relation") -> "Relation":
        schema = self._schema.concat(other._schema)
        rows = frozenset(
            left + right
            for left in self._tuples
            for right in other._tuples
        )
        return Relation._from_rows(schema, rows)

    def select(self, left: str, right: str, equal: bool) -> "Relation":
        i = self._schema.position(left)
        j = self._schema.position(right)
        left_domain = self._schema.attributes[i].domain
        right_domain = self._schema.attributes[j].domain
        if left_domain != right_domain:
            raise RelationError(
                f"selection compares {left}:{left_domain} with "
                f"{right}:{right_domain} (different domains)"
            )
        if equal:
            rows = frozenset(row for row in self._tuples if row[i] == row[j])
        else:
            rows = frozenset(row for row in self._tuples if row[i] != row[j])
        return Relation._from_rows(self._schema, rows)

    def project(self, names: Sequence[str]) -> "Relation":
        return self._picked(
            self._schema.project(names),
            [self._schema.position(n) for n in names],
        )

    def _picked(
        self, schema: RelationSchema, positions: Sequence[int]
    ) -> "Relation":
        """The columns at ``positions`` as a relation over ``schema``
        (their projected schema): the row work of :meth:`project`."""
        if len(positions) > 1:
            rows = frozenset(map(itemgetter(*positions), self._tuples))
        elif positions:
            rows = frozenset(zip(map(itemgetter(positions[0]), self._tuples)))
        else:
            rows = frozenset([()]) if self._tuples else _NO_ROWS
        return Relation._from_rows(schema, rows)

    def rename(self, old: str, new: str) -> "Relation":
        """Zero-copy: the result shares this relation's tuple set,
        fingerprint accumulator and column indexes (a rename keeps
        every column's position); only the schema (and so the
        fingerprint) changes."""
        return self._relabeled(self._schema.rename(old, new))

    def _relabeled(self, schema: RelationSchema) -> "Relation":
        """This relation's rows under ``schema``, which must only
        rename its columns: the zero-copy core of :meth:`rename`."""
        result = Relation._from_rows(schema, self._tuples)
        result._tuple_xor = self._tuple_xor
        result._indexes = self._indexes
        return result

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self._schema == other._schema and self._tuples == other._tuples

    def __hash__(self) -> int:
        return hash((self._schema, self._tuples))

    def __reduce__(self):
        # Indexes stay in their process: a pickled relation carries its
        # value and fingerprint accumulator only.
        return (
            _unpickle_relation,
            (self._schema, self._tuples, self._tuple_xor, self._fp),
        )

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._tuples)

    def __contains__(self, row: Tuple) -> bool:
        return tuple(row) in self._tuples

    def __repr__(self) -> str:
        rows = sorted(map(str, self._tuples))
        return f"Relation{self._schema}{{{', '.join(rows)}}}"


def _unpickle_relation(
    schema: RelationSchema,
    rows: FrozenSet[Tuple],
    tuple_xor: Optional[int],
    fp: Optional[int],
) -> Relation:
    relation = Relation._from_rows(schema, rows)
    relation._tuple_xor = tuple_xor
    relation._fp = fp
    return relation


def empty_relation(schema: RelationSchema) -> Relation:
    return Relation(schema, ())


def unary_singleton(name: str, domain: str, value) -> Relation:
    """A one-attribute, one-tuple relation (``self``/``arg`` relations)."""
    return Relation._from_rows(_unary_schema(name, domain), ((value,),))


@lru_cache(maxsize=256)
def _unary_schema(name: str, domain: str) -> RelationSchema:
    return schema_of((name, domain))


TRUE_RELATION_SCHEMA = RelationSchema([])


def boolean_relation(value: bool) -> Relation:
    """A zero-ary relation: ``{()}`` for true, ``{}`` for false.

    Zero-ary relations appear as ``pi_{}(...)`` guards in the reduction
    of Theorem 5.6.
    """
    return Relation(TRUE_RELATION_SCHEMA, [()] if value else [])
