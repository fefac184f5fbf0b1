"""An optimizing evaluator: selection pushdown and hash joins.

The paper's efficiency argument for parallel application (Section 6)
presumes a real query processor: "the result of the parallel application
is defined in terms of one single relational algebra expression per
property to be updated; this expression can be optimized and is then
executed only once".  The naive evaluator in
:mod:`repro.relational.evaluate` materializes Cartesian products before
selecting, which makes ``par(E)`` quadratic and buries that effect.

This module provides :func:`evaluate_optimized`, which flattens
``Select*``/``Product`` subtrees into a factor list plus a condition
list, then joins greedily:

* equality conditions connecting a new factor to the joined-so-far
  relation become hash joins;
* conditions whose attributes are all available are applied as filters
  immediately (including non-equalities);
* disconnected factors fall back to products (smallest first).

The result is always identical to the naive evaluator — the property
test suite checks them against each other — only faster.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.relational.algebra import (
    Difference,
    Empty,
    Expr,
    Product,
    Project,
    Rel,
    Rename,
    Select,
    Union,
)
from repro.relational.database import Database
from repro.relational.relation import (
    Relation,
    RelationError,
    RelationSchema,
)

Condition = Tuple[str, str, bool]  # (left attr, right attr, equal?)


def _flatten(
    expr: Expr,
) -> Tuple[List[Expr], List[Condition]]:
    """Split a ``Select*``/``Product`` subtree into factors + conditions."""
    if isinstance(expr, Select):
        factors, conditions = _flatten(expr.child)
        conditions = conditions + [(expr.left, expr.right, expr.equal)]
        return factors, conditions
    if isinstance(expr, Product):
        left_factors, left_conditions = _flatten(expr.left)
        right_factors, right_conditions = _flatten(expr.right)
        return (
            left_factors + right_factors,
            left_conditions + right_conditions,
        )
    return [expr], []


def _apply_local_conditions(
    relation: Relation, conditions: List[Condition]
) -> Tuple[Relation, List[Condition]]:
    """Apply every condition whose attributes are all present."""
    names = set(relation.schema.names)
    remaining: List[Condition] = []
    for left, right, equal in conditions:
        if left in names and right in names:
            relation = relation.select(left, right, equal)
        else:
            remaining.append((left, right, equal))
    return relation, remaining


def hash_join(
    left: Relation,
    right: Relation,
    pairs: Sequence[Tuple[str, str]],
) -> Relation:
    """Equi-join ``left`` and ``right`` on the given attribute pairs.

    The hash index is built on the smaller side; output rows are always
    ``left``'s columns followed by ``right``'s.  Rows joined from two
    validated relations are valid, so the result skips re-validation.
    The engine's region planner and :func:`join_factors` both join
    through here.  Join keys come from :func:`operator.itemgetter`
    (a value for one pair, a tuple for several, alike on both sides),
    so extracting them runs in C.
    """
    if not pairs:
        return left.product(right)
    if len(right) <= len(left):
        build, probe, swap = right, left, False
        build_attrs = [b for _, b in pairs]
        probe_attrs = [a for a, _ in pairs]
    else:
        build, probe, swap = left, right, True
        build_attrs = [a for a, _ in pairs]
        probe_attrs = [b for _, b in pairs]
    build_key = itemgetter(*[build.schema.position(a) for a in build_attrs])
    probe_key = itemgetter(*[probe.schema.position(a) for a in probe_attrs])
    schema = left.schema.concat(right.schema)
    index: Dict[object, List[Tuple]] = {}
    build_rows = build.tuples
    for key, row in zip(map(build_key, build_rows), build_rows):
        bucket = index.get(key)
        if bucket is None:
            index[key] = [row]
        else:
            bucket.append(row)
    rows = set()
    probe_rows = probe.tuples
    probe_matches = map(index.get, map(probe_key, probe_rows))
    for matches, row in zip(probe_matches, probe_rows):
        if matches:
            for match in matches:
                rows.add(match + row if swap else row + match)
    return Relation._from_rows(schema, rows)


def join_factors(
    factors: List[Relation], conditions: List[Condition]
) -> Relation:
    """Greedy join planning over evaluated factors.

    Public since optimizer v2: the engine's fused σ/× delta rule joins
    each product-delta term through this planner, so a one-row delta
    costs one small join instead of a structural re-application of the
    whole region.  Consumes (mutates) both argument lists.
    """
    remaining_factors = list(factors)
    # Seed with the smallest factor (cheapest build side).
    remaining_factors.sort(key=len)
    current = remaining_factors.pop(0)
    current, conditions = _apply_local_conditions(current, conditions)

    while remaining_factors:
        current_names = set(current.schema.names)
        chosen_index: Optional[int] = None
        chosen_pairs: List[Tuple[str, str]] = []
        # Deterministic, size-aware choice: among the factors connected
        # to the joined-so-far relation by an equality, take the
        # smallest (ties by position).  First-match selection made plan
        # shape depend on incidental factor order.
        for index, factor in enumerate(remaining_factors):
            factor_names = set(factor.schema.names)
            pairs = []
            for left, right, equal in conditions:
                if not equal:
                    continue
                if left in current_names and right in factor_names:
                    pairs.append((left, right))
                elif right in current_names and left in factor_names:
                    pairs.append((right, left))
            if pairs and (
                chosen_index is None
                or len(factor) < len(remaining_factors[chosen_index])
            ):
                chosen_index = index
                chosen_pairs = pairs
        if chosen_index is None:
            # No connecting equality: cross product with the smallest.
            chosen_index = min(
                range(len(remaining_factors)),
                key=lambda i: len(remaining_factors[i]),
            )
            factor = remaining_factors.pop(chosen_index)
            current = current.product(factor)
        else:
            factor = remaining_factors.pop(chosen_index)
            used = {
                (a, b)
                for a, b in chosen_pairs
            }
            current = hash_join(current, factor, chosen_pairs)
            conditions = [
                c
                for c in conditions
                if not (
                    c[2]
                    and (
                        (c[0], c[1]) in used
                        or (c[1], c[0]) in used
                    )
                )
            ]
        current, conditions = _apply_local_conditions(current, conditions)
    if conditions:
        # All factors joined; any leftover condition must be local now.
        current, conditions = _apply_local_conditions(current, conditions)
    if conditions:
        # A leftover condition references attributes absent from every
        # factor — an ill-typed flatten.  A bare assert here would be
        # stripped under ``python -O``.
        raise RelationError(
            f"join planning left conditions {conditions} unapplied; "
            f"available attributes {list(current.schema.names)}"
        )
    return current


def evaluate_optimized(expr: Expr, database: Database) -> Relation:
    """Evaluate ``expr`` with selection pushdown and hash joins.

    Produces exactly the same relation as
    :func:`repro.relational.evaluate.evaluate`.
    """
    if isinstance(expr, Rel):
        return database.relation(expr.name)
    if isinstance(expr, Empty):
        return Relation(expr.schema, ())
    if isinstance(expr, Union):
        return evaluate_optimized(expr.left, database).union(
            evaluate_optimized(expr.right, database)
        )
    if isinstance(expr, Difference):
        return evaluate_optimized(expr.left, database).difference(
            evaluate_optimized(expr.right, database)
        )
    if isinstance(expr, Project):
        return evaluate_optimized(expr.child, database).project(expr.attrs)
    if isinstance(expr, Rename):
        return evaluate_optimized(expr.child, database).rename(
            expr.old, expr.new
        )
    if isinstance(expr, (Select, Product)):
        from repro.relational.evaluate import infer_schema

        factor_exprs, conditions = _flatten(expr)
        factors = [
            evaluate_optimized(factor, database)
            for factor in factor_exprs
        ]
        joined = join_factors(factors, conditions)
        # The greedy join may reorder attributes; restore the
        # expression's schema order.
        expected = infer_schema(expr, database.schema).names
        if joined.schema.names != expected:
            joined = joined.project(expected)
        return joined
    raise TypeError(f"unknown expression node {expr!r}")
