"""Positive cardinality guards — and cardinality *estimates*.

The proof of Proposition 5.14 uses conditions of the form
``if #Ca >= n then E else emptyset`` and notes they are expressible in
the positive algebra: ``#R >= n`` holds iff there exist ``n`` pairwise
distinct tuples in ``R``, and "distinct" for tuples is a disjunction of
per-column non-equalities — a union of conjunctive non-equality
selections over the ``n``-fold product of ``R`` with itself.

:func:`at_least` builds that 0-ary guard; multiplying an expression by it
implements the conditional (``guarded``).

:func:`estimated_join_size` is the System-R style output-size estimate
the query engine's greedy join planner ranks candidate factors by.  The
engine threads a :class:`StatsCatalog` through it: per-relation
*sampled* n-distinct counts (Chao's estimator over a deterministic
sample, so a 10^5-row relation is not fully scanned per candidate
factor per planning step).  The catalog only ever influences *plan
shape* (join order); results are identical whatever it estimates (a
hypothesis property pins this down).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.relational.algebra import (
    Expr,
    Product,
    Select,
    project_empty,
    rename_all,
    union_all,
)
from repro.relational.database import DatabaseSchema
from repro.relational.evaluate import infer_schema
from repro.relational.relation import Relation, RelationError

#: Rows an n-distinct estimate reads: relations up to this size are
#: counted exactly, larger ones through a sample of this many rows.
SAMPLE_SIZE = 1024


class StatsCatalog:
    """Sampled statistics behind :func:`estimated_join_size`.

    One table: per ``(relation fingerprint, attribute)``, the
    distinct-value count — exact for relations up to
    :data:`SAMPLE_SIZE` rows, otherwise Chao's 1984 estimator over a
    deterministic :data:`SAMPLE_SIZE`-row sample (singletons² /
    2·doubletons bias correction, clamped to ``[seen, len(relation)]``).
    Keyed by content fingerprint, so shared relation objects across
    database states (``apply_delta`` keeps unchanged relations) hit the
    cache.

    The catalog affects join *ordering* only — never results.
    """

    def __init__(self) -> None:
        self._ndistinct: Dict[Tuple[int, str], int] = {}

    def __len__(self) -> int:
        return len(self._ndistinct)

    def clear(self) -> None:
        self._ndistinct.clear()

    def ndistinct(self, relation: Relation, attr: str) -> int:
        """(Sampled) distinct-value count of ``relation.attr``."""
        rows = len(relation)
        if rows == 0:
            return 1
        # Key by content fingerprint — but only when the relation has
        # one cached already (base relations do, via the engine's memo
        # keys).  Forcing a fingerprint on a large *intermediate* would
        # cost a full O(n) hash pass just to save an O(sample) resample.
        key = None
        if relation._fp is not None:
            key = (relation._fp, attr)
            cached = self._ndistinct.get(key)
            if cached is not None:
                return cached
        position = relation.schema.position(attr)
        if rows <= SAMPLE_SIZE:
            estimate = len({row[position] for row in relation.tuples}) or 1
        else:
            estimate = self._chao_estimate(relation, position, rows)
        if key is not None:
            if len(self._ndistinct) >= 65536:
                # Unbounded workloads (long store lifetimes) must not
                # leak; dropping the cache only costs re-sampling.
                self._ndistinct.clear()
            self._ndistinct[key] = estimate
        return estimate

    def _chao_estimate(
        self, relation: Relation, position: int, rows: int
    ) -> int:
        """Chao84 over the first :data:`SAMPLE_SIZE` rows of the (stable)
        set iteration order: ``d ≈ seen + singletons² / (2·doubletons)``."""
        counts: Dict[object, int] = {}
        for index, row in enumerate(relation.tuples):
            if index >= SAMPLE_SIZE:
                break
            value = row[position]
            counts[value] = counts.get(value, 0) + 1
        seen = len(counts)
        singletons = sum(1 for c in counts.values() if c == 1)
        doubletons = sum(1 for c in counts.values() if c == 2)
        if doubletons:
            estimate = seen + (singletons * singletons) / (2 * doubletons)
        elif singletons:
            estimate = seen + singletons * (singletons - 1) / 2
        else:
            estimate = seen
        return max(seen, min(rows, int(estimate))) or 1


def estimated_join_size(
    left: Relation,
    right: Relation,
    pairs: Sequence[Tuple[str, str]],
    catalog: Optional[StatsCatalog] = None,
) -> float:
    """Estimated output size of an equi-join on ``pairs``.

    The classical System-R uniform-distribution estimate: start from the
    product size and divide, per join column pair, by the larger of the
    two distinct-value counts.  With no pairs this is the exact product
    size.  Without a ``catalog`` the distinct counts are exact (a full
    column scan — fine for small relations); with one they are sampled.
    """
    size = float(len(left) * len(right))
    for left_attr, right_attr in pairs:
        if catalog is not None:
            left_distinct = catalog.ndistinct(left, left_attr)
            right_distinct = catalog.ndistinct(right, right_attr)
        else:
            left_distinct = len(left.column(left_attr)) or 1
            right_distinct = len(right.column(right_attr)) or 1
        size /= max(left_distinct, right_distinct)
    return size


def at_least(
    expr: Expr, count: int, db_schema: DatabaseSchema
) -> Expr:
    """A 0-ary positive expression true iff ``expr`` has >= ``count`` rows.

    For ``count`` 0 or 1 the guard degenerates (always true is not
    expressible without a tautology relation, so ``count=1`` returns
    ``pi_{}(expr)`` and ``count=0`` is rejected).
    """
    if count < 1:
        raise RelationError("at_least requires count >= 1")
    if count == 1:
        return project_empty(expr)
    schema = infer_schema(expr, db_schema)
    names = schema.names
    if not names:
        raise RelationError("cardinality guards need at least one attribute")

    # n renamed-apart copies of expr.
    copies: List[Expr] = []
    copy_names: List[Tuple[str, ...]] = []
    for index in range(count):
        mapping = {name: f"{name}__card{index}" for name in names}
        copies.append(rename_all(expr, mapping))
        copy_names.append(tuple(mapping[name] for name in names))
    base: Expr = copies[0]
    for copy in copies[1:]:
        base = Product(base, copy)

    pairs = list(itertools.combinations(range(count), 2))
    disjuncts: List[Expr] = []
    # Each way of choosing, per pair of copies, a column on which they
    # differ gives one conjunctive selection; the union over all choices
    # expresses pairwise distinctness.
    for choice in itertools.product(range(len(names)), repeat=len(pairs)):
        selected: Expr = base
        for (first, second), column in zip(pairs, choice):
            selected = Select(
                selected,
                copy_names[first][column],
                copy_names[second][column],
                False,
            )
        disjuncts.append(project_empty(selected))
    return union_all(disjuncts)


def guarded(
    expr: Expr, guard: Expr
) -> Expr:
    """``if guard then expr else emptyset`` as ``expr x guard``.

    ``guard`` must be 0-ary; the product leaves ``expr``'s schema
    unchanged.
    """
    return Product(expr, guard)
