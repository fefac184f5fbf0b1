"""Positive cardinality guards.

The proof of Proposition 5.14 uses conditions of the form
``if #Ca >= n then E else emptyset`` and notes they are expressible in
the positive algebra: ``#R >= n`` holds iff there exist ``n`` pairwise
distinct tuples in ``R``, and "distinct" for tuples is a disjunction of
per-column non-equalities — a union of conjunctive non-equality
selections over the ``n``-fold product of ``R`` with itself.

:func:`at_least` builds that 0-ary guard; multiplying an expression by it
implements the conditional (``guarded``).
"""

from __future__ import annotations

import itertools
from typing import List, Tuple

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
from repro.relational.relation import RelationError


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
