"""Query-order independence (Definition 3.1(3), Section 5's open problem).

A method ``M`` is ``Q``-order independent when it is order independent
on ``(I, Q(I))`` for every instance ``I``.  Deciding this for positive
``M`` and ``Q`` is the paper's **open problem**: the pairwise reduction
of Lemma 3.3 fails here (Proposition 5.14 disproves both directions), so
the Theorem 5.12 machinery does not apply.

This module provides what *is* available:

* evaluating receiver queries — positive algebra expressions over the
  scheme ``self arg1 ... argk`` — into receiver sets,
* a sufficient condition: if ``M`` is (absolutely) order independent it
  is trivially ``Q``-order independent for every ``Q``; and if ``M`` is
  key-order independent and ``Q`` provably returns key sets for a
  syntactic reason (its ``self`` column is built from a key), sequential
  application is safe,
* a sampling-based refutation search over generated instances,
  enumerating whole-set permutations (pairs do not suffice).
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, List, Optional, Set, Tuple

from repro.algebraic.method import AlgebraicUpdateMethod
from repro.core.independence import is_order_independent_on
from repro.core.receiver import Receiver, is_key_set
from repro.core.signature import MethodSignature
from repro.graph.instance import Instance
from repro.objrel.mapping import (
    instance_to_database,
    schema_to_database_schema,
)
from repro.parallel.transform import rec_schema
from repro.relational.algebra import Expr
from repro.relational.engine import QueryEngine
from repro.relational.evaluate import infer_schema
from repro.relational.relation import RelationError


def check_receiver_query(
    query: Expr, method: AlgebraicUpdateMethod
) -> None:
    """Type-check a receiver query against a method's signature.

    The query must produce the scheme ``self arg1 ... argk`` with the
    signature's domains.
    """
    db_schema = schema_to_database_schema(method.object_schema)
    expected = rec_schema(method.signature)
    actual = infer_schema(query, db_schema)
    if actual != expected:
        raise RelationError(
            f"receiver query has scheme {actual}, expected {expected}"
        )


def receivers_from_query(
    query: Expr, instance: Instance
) -> Set[Receiver]:
    """``Q(I)``: evaluate a receiver query into a set of receivers."""
    relation = QueryEngine(instance_to_database(instance)).evaluate(query)
    return {Receiver(row) for row in relation}


def query_returns_key_sets_on(
    query: Expr, instances: Iterable[Instance]
) -> bool:
    """Whether ``Q(I)`` is a key set on every sampled instance."""
    return all(
        is_key_set(receivers_from_query(query, instance))
        for instance in instances
    )


def find_query_order_dependence(
    method: AlgebraicUpdateMethod,
    query: Expr,
    instances: Iterable[Instance],
    max_receivers: int = 5,
    max_orders: Optional[int] = 60,
) -> Optional[Tuple[Instance, Set[Receiver]]]:
    """Search for an instance where enumerations of ``Q(I)`` disagree.

    Permutes the *entire* receiver set (capped), because Lemma 3.3 does
    not hold for query-order independence (Proposition 5.14).  Returns a
    witness ``(I, Q(I))`` or ``None`` when no sample refutes.
    """
    check_receiver_query(query, method)
    for instance in instances:
        receivers = receivers_from_query(query, instance)
        if not 2 <= len(receivers) <= max_receivers:
            continue
        if not is_order_independent_on(
            method, instance, receivers, max_orders=max_orders
        ):
            return (instance, receivers)
    return None
