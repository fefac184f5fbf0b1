"""Parallel application ``M_par`` (Definition 6.2) and Lemma 6.7.

``M_par(I, T)``: interpret ``rec`` by the receiver set ``T``, evaluate
``par(E_a)`` once per statement, and for each receiving object occurring
in ``T`` replace its ``a``-edges by edges to the objects linked to it in
the result.

Two write-backs share that evaluation.  :func:`parallel_changes` runs on
the relational representation (Proposition 5.1): it reads the receiving
objects' old values from ``C.a`` and returns the change set, which is
how the versioned store writes.  :func:`apply_parallel` replaces edges
on the object-base graph and is the reference the first is tested
against.

For *sequences* of applications, :func:`apply_sequence_incremental`
exploits that ``M(I, t) = M_par(I, {t})`` (Lemma 6.7 on the trivially-key
singleton set): it folds singleton :func:`parallel_changes` steps over
the database, with one :class:`EngineCache` shared by all steps.

Resilience: :func:`apply_adaptive` runs the Theorem 5.12
classification under a :class:`~repro.resilience.budget.Budget` and
degrades gracefully — parallel only when independence is *proven*
within budget, paper-correct sequential application otherwise (same
final state, bounded decision latency).  The statements of one
``M_par`` are evaluated in the calling thread: the parallelism is the
set-oriented ``par(E_a)``, one evaluation per statement for the whole
receiver set.  Every error a statement raises (:class:`UpdateTypeError`,
:class:`~repro.resilience.budget.BudgetExceeded`, an injected
``parallel.worker`` fault) reaches the caller unchanged.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Set, Tuple

from repro.obs import tracer as trace
from repro.obs.metrics import global_registry
from repro.algebraic.expression import (
    SELF,
    UpdateTypeError,
    arg_name,
    evaluate_update_expression,
)
from repro.algebraic.method import AlgebraicUpdateMethod
from repro.core.receiver import Receiver, is_key_set
from repro.core.signature import MethodSignature
from repro.graph.instance import Edge, Instance, Obj
from repro.graph.schema import SchemaError
from repro.objrel.mapping import (
    class_relation_name,
    database_to_instance,
    instance_to_database,
    property_relation_name,
)
from repro.parallel.transform import REC, par_transform, rec_schema
from repro.relational.algebra import Expr, Rel, Rename, walk
from repro.relational.database import Database
from repro.relational.delta import RelationDelta
from repro.relational.engine import EngineCache, QueryEngine
from repro.relational.relation import Relation, RelationError
from repro.resilience.budget import Budget
from repro.resilience.faults import PARALLEL_WORKER, fault_point


def rec_relation(
    signature: MethodSignature, receivers: Iterable[Receiver]
) -> Relation:
    """The relation ``rec`` holding a receiver set."""
    rows = set()
    for receiver in receivers:
        if not receiver.matches(signature):
            raise RelationError(
                f"receiver {receiver} does not match signature "
                f"{list(signature)}"
            )
        rows.add(tuple(receiver.objects))
    return Relation(rec_schema(signature), rows)


def parallel_database(
    method: AlgebraicUpdateMethod,
    instance: Instance,
    receivers: Iterable[Receiver],
) -> Database:
    """The database ``M_par`` evaluates against: object relations + ``rec``."""
    return instance_to_database(instance).with_relation(
        REC, rec_relation(method.signature, receivers)
    )


def parallel_statement_expression(
    method: AlgebraicUpdateMethod, label: str
) -> Expr:
    """``par(E_a)``: the transformed statement body for ``label``."""
    body = method.expression(label)
    out_attr = method.output_attribute(label)
    if out_attr != label:
        body = Rename(body, out_attr, label)
    return par_transform(body, method.object_schema, method.signature)


def parallel_update_relation(
    method: AlgebraicUpdateMethod,
    label: str,
    instance: Instance,
    receivers: Iterable[Receiver],
    engine: Optional[QueryEngine] = None,
) -> Relation:
    """``par(E_a)(I, T)``: a relation over ``(self, a)``.

    Pass ``engine`` (bound to :func:`parallel_database`) to share the
    memo cache across the statements of one ``M_par`` application.
    """
    if engine is None:
        engine = QueryEngine(parallel_database(method, instance, receivers))
    return engine.evaluate(parallel_statement_expression(method, label))


def receiver_value_positions(relation: Relation) -> Tuple[int, int]:
    """The ``(self, value)`` column positions of a ``par(E)`` result.

    Raises :class:`RelationError` for non-binary relations *before*
    deriving any position from the schema — a malformed ``par(E)`` must
    not yield a bogus value position.
    """
    if relation.schema.arity != 2:
        raise RelationError(
            f"par(E) must be binary (self plus value); got "
            f"{relation.schema}"
        )
    self_position = relation.schema.position("self")
    return self_position, 1 - self_position


def method_read_relations(
    method: AlgebraicUpdateMethod,
) -> FrozenSet[str]:
    """The base relations an ``M_par`` application reads.

    Every relation a statement body names, except ``self`` and the
    arguments, plus the target class extents consulted by the
    well-typedness check — the *read set* the optimistic transactions
    of :mod:`repro.store.txn` validate against concurrent writers.
    That is exactly the set ``par(E)`` reads besides ``rec``:
    :func:`~repro.parallel.transform.par_transform` maps ``self`` and
    each ``arg_i`` to ``rec``, keeps every other relation and adds
    none, so the read set needs no transform.
    """
    bound = {SELF} | {
        arg_name(index) for index in range(1, method.signature.arity + 1)
    }
    names: Set[str] = set()
    for label in method.updated_properties:
        for node in walk(method.expression(label)):
            if isinstance(node, Rel) and node.name not in bound:
                names.add(node.name)
        names.add(method.object_schema.edge(label).target)
    return frozenset(names)


def _batch_span(
    method: AlgebraicUpdateMethod, receivers: Sequence[Receiver]
):
    """The ``parallel.apply`` span of one ``M_par`` application (and its
    batch metrics), shared by the relational and the graph write-back."""
    registry = global_registry()
    registry.counter("parallel.batches").inc()
    registry.gauge("parallel.fan_out_width").set_max(len(receivers))
    return trace.span(
        "parallel.apply",
        category="parallel",
        receivers=len(receivers),
        statements=len(method.updated_properties),
    )


def _statement_updates(
    method: AlgebraicUpdateMethod,
    database: Database,
    receivers: Sequence[Receiver],
    cache: Optional[EngineCache],
) -> Dict[str, Dict[Obj, Set[Obj]]]:
    """``par(E_a)`` over ``database`` plus ``rec``, for every statement.

    Maps each updated property to ``{receiving object: new values}``.
    Every value is checked against the target class relation
    (:class:`UpdateTypeError` otherwise).  All statements read the same
    state (simultaneous semantics) through one engine, so subtrees they
    share — the ``rec`` projections, duplicated statement bodies — are
    computed once.
    """
    engine = QueryEngine(
        database.with_relation(
            REC, rec_relation(method.signature, receivers)
        ),
        cache=cache,
    )

    updates: Dict[str, Dict[Obj, Set[Obj]]] = {}
    for label in method.updated_properties:
        fault_point(PARALLEL_WORKER)
        with trace.span(
            "parallel.statement", category="parallel", label=label
        ) as span:
            relation = engine.evaluate(
                parallel_statement_expression(method, label)
            )
            span.set(rows=len(relation))
        by_receiver: Dict[Obj, Set[Obj]] = {}
        self_position, value_position = receiver_value_positions(relation)
        target_class = method.object_schema.edge(label).target
        targets = database.relation(class_relation_name(target_class)).tuples
        for row in relation:
            value = row[value_position]
            if (value,) not in targets:
                raise UpdateTypeError(
                    f"parallel statement {label} produced {value} "
                    f"outside class {target_class}"
                )
            by_receiver.setdefault(row[self_position], set()).add(value)
        updates[label] = by_receiver
    return updates


def parallel_changes(
    method: AlgebraicUpdateMethod,
    database: Database,
    receivers: Iterable[Receiver],
    cache: Optional[EngineCache] = None,
) -> Dict[str, RelationDelta]:
    """``M_par(I, T)`` on the relational representation of ``I``.

    Returns the change set only: property relation names (``C.a``)
    mapped to the exact :class:`~repro.relational.delta.RelationDelta`
    of the transition, normalized against ``database`` (insertions
    absent before, deletions present before).  By Proposition 5.1 this
    is Definition 6.2 itself: ``par(E_a)`` is evaluated over
    ``database`` plus ``rec``, and each receiving object's old
    ``a``-values — looked up in the first-column index of ``C.a``
    (:meth:`~repro.relational.relation.Relation.index`), so the read
    costs the receivers, not the relation — are replaced by the new
    ones.  ``database.apply_delta(changes)`` equals
    ``instance_to_database(apply_parallel(method, I, receivers))``.

    The written rows keep the representation's inclusion dependencies:
    a value outside the target class raises :class:`UpdateTypeError`,
    and a new ``a``-value for a receiving object absent from ``C``
    raises :class:`~repro.graph.schema.SchemaError`, as
    :meth:`~repro.graph.instance.Instance.replace_property` does.  This
    is the write path of the versioned store; ``apply_parallel`` is the
    graph-based reference.
    """
    receivers = list(receivers)
    schema = method.object_schema
    with _batch_span(method, receivers) as batch:
        updates = _statement_updates(method, database, receivers, cache)
        receiving_objects = {r.receiving_object for r in receivers}
        changes: Dict[str, RelationDelta] = {}
        for label, by_receiver in updates.items():
            name = property_relation_name(schema, label)
            old_rows = database.relation(name).index(0)
            extent = database.relation(
                class_relation_name(schema.edge(label).source)
            ).tuples
            inserted: Set[Tuple[Obj, Obj]] = set()
            deleted: Set[Tuple[Obj, Obj]] = set()
            for obj in receiving_objects:
                values = by_receiver.get(obj, set())
                old_values = {value for _, value in old_rows.get(obj, ())}
                added = values - old_values
                if added and (obj,) not in extent:
                    raise SchemaError(
                        f"dangling edge {Edge(obj, label, min(added))}"
                    )
                inserted.update((obj, v) for v in added)
                deleted.update((obj, v) for v in old_values - values)
            if inserted or deleted:
                changes[name] = RelationDelta(
                    frozenset(inserted), frozenset(deleted)
                )
        batch.set(changed_relations=len(changes))
    return changes


def apply_parallel(
    method: AlgebraicUpdateMethod,
    instance: Instance,
    receivers: Iterable[Receiver],
    cache: Optional[EngineCache] = None,
) -> Instance:
    """``M_par(I, T)`` (Definition 6.2) on the object-base graph.

    The reference the relational write path (:func:`parallel_changes`)
    is checked against: the same ``par(E_a)`` evaluation, written back
    edge by edge through :meth:`Instance.replace_property`.

    Pass a shared ``cache`` when applying several ``M_par`` across
    related states: subtrees whose base relations kept their content
    fingerprints are re-served instead of re-evaluated.
    """
    receivers = list(receivers)
    with _batch_span(method, receivers):
        updates = _statement_updates(
            method, instance_to_database(instance), receivers, cache
        )
        receiving_objects = {r.receiving_object for r in receivers}
        result = instance
        for label, by_receiver in updates.items():
            for obj in receiving_objects:
                result = result.replace_property(
                    obj, label, by_receiver.get(obj, ())
                )
    return result


def choose_apply_mode(
    verdict: str, receivers: Sequence[Receiver]
) -> str:
    """``"parallel"`` when the verdict licenses ``M_par``, else
    ``"sequential"``.

    ``INDEPENDENT`` licenses any receiver set; ``KEY_INDEPENDENT``
    only key sets (Section 3); ``DEPENDENT`` and ``UNKNOWN`` — the
    budgeted "did not finish in time" — both mean *assume
    order-dependent* and fall back to the paper-correct sequential
    fold.  Degradation costs latency, never correctness.
    """
    from repro.algebraic.decision import INDEPENDENT, KEY_INDEPENDENT

    if verdict == INDEPENDENT:
        return "parallel"
    if verdict == KEY_INDEPENDENT and is_key_set(receivers):
        return "parallel"
    return "sequential"


def apply_adaptive(
    method: AlgebraicUpdateMethod,
    instance: Instance,
    receivers: Iterable[Receiver],
    cache: Optional[EngineCache] = None,
    budget: Optional[Budget] = None,
    max_partitions: Optional[int] = None,
    verdict: Optional[str] = None,
) -> Instance:
    """Apply a receiver set with budget-bounded graceful degradation.

    Classifies the method under ``budget`` / ``max_partitions``
    (:func:`repro.algebraic.decision.classify_method` — pass a
    precomputed ``verdict`` to skip the classification, e.g. when the
    caller memoizes it per method) and dispatches per
    :func:`choose_apply_mode`: parallel ``M_par`` when independence
    was *proven* in time, the sequential fold otherwise.  Theorem 6.5
    makes the two agree exactly when parallelism is chosen, so the
    final state always equals the sequential (paper) semantics —
    asserted by the degradation tests in ``tests/test_resilience.py``.

    Receivers are treated as a *set* (``M_par``'s vocabulary):
    duplicates are dropped, first occurrence fixing the sequential
    order.
    """
    from repro.algebraic.decision import UNKNOWN, classify_method

    receivers = list(dict.fromkeys(receivers))
    if verdict is None:
        verdict = classify_method(
            method, budget=budget, max_partitions=max_partitions
        )
    registry = global_registry()
    mode = choose_apply_mode(verdict, receivers)
    if mode == "parallel":
        registry.counter("parallel.adaptive.parallel").inc()
        return apply_parallel(method, instance, receivers, cache=cache)
    registry.counter("parallel.adaptive.sequential").inc()
    if verdict == UNKNOWN:
        registry.counter("parallel.adaptive.unknown").inc()
    trace.event(
        "parallel.degraded",
        category="parallel",
        verdict=verdict,
        receivers=len(receivers),
    )
    return apply_sequence_incremental(
        method, instance, receivers, cache=cache
    )


def apply_parallel_transactional(
    store,
    method: AlgebraicUpdateMethod,
    receivers: Iterable[Receiver],
    retries: int = 5,
):
    """Apply a receiver batch as one transaction against a versioned store.

    Begins an optimistic transaction on ``store``
    (a :class:`~repro.store.versioned.VersionedStore`), applies
    ``M_par(I, T)`` through it, and commits — retrying with backoff when
    the commit conflicts with a concurrent writer and the store's
    commutativity machinery cannot resolve it.  Returns the committed
    :class:`~repro.store.versioned.Version`.

    A :class:`~repro.store.sharding.ShardedStore` works too: the batch
    commits on its coordinator and is staged onto the shard fleet, and
    the committed *coordinator* version comes back — same contract,
    shard topology invisible to the caller.
    """
    from repro.store.sharding import ShardedStore
    from repro.store.txn import run_transaction

    receivers = list(receivers)
    if isinstance(store, ShardedStore):
        return store.apply_batch(method, receivers)[0]
    _, version = run_transaction(
        store,
        lambda txn: txn.apply_method(method, receivers),
        retries=retries,
    )
    return version


def apply_sequence_incremental(
    method: AlgebraicUpdateMethod,
    instance: Instance,
    receivers: Sequence[Receiver],
    cache: Optional[EngineCache] = None,
) -> Instance:
    """``M(I, t1 ... tn)`` as a fold of singleton ``M_par`` steps.

    Equivalent to :func:`repro.core.sequential.apply_sequence` for
    algebraic methods: ``M(I, t) = M_par(I, {t})`` because a singleton
    receiver set is trivially a key set (Lemma 6.7).  The fold runs on
    the relational state, through the store's write path: each step is
    :func:`parallel_changes` on ``{t_i}`` applied to the database, all
    steps share one :class:`EngineCache` (pass ``cache`` to share it
    further), so subtrees a step's change did not reach are re-served,
    and the instance is converted to a database and back once.

    Raises :class:`~repro.core.method.MethodUndefined` when some ``t_i``
    is not a receiver over the intermediate instance, and
    :class:`UpdateTypeError` when a statement produces values outside
    its target class — the same failure modes, in the same order, as
    the sequential fold.
    """
    receivers = list(receivers)
    if len(set(receivers)) != len(receivers):
        raise ValueError("sequential application requires distinct receivers")
    if not receivers:
        return instance
    if cache is None:
        cache = EngineCache()
    database = instance_to_database(instance)
    for receiver in receivers:
        # Algebraic methods rewrite property edges only, so a receiver
        # is over the intermediate instance iff it is over ``instance``.
        method.check_receiver(instance, receiver)
        database = database.apply_delta(
            parallel_changes(method, database, [receiver], cache=cache)
        )
    return database_to_instance(database, instance.schema)


def lemma_6_7_holds(
    method: AlgebraicUpdateMethod,
    label: str,
    instance: Instance,
    receivers: Iterable[Receiver],
) -> bool:
    """Check ``par(E)(I, T) = union_t {t(self)} x E(I, t)`` (Lemma 6.7).

    Stated for key sets; the proof's difference-operator case is where
    keyness matters, so non-key receiver sets may fail the equation for
    non-positive expressions.
    """
    receivers = list(receivers)
    relation = parallel_update_relation(method, label, instance, receivers)
    self_position = relation.schema.position("self")
    parallel_pairs: FrozenSet[Tuple[Obj, Obj]] = frozenset(
        (row[self_position], row[1 - self_position]) for row in relation
    )
    sequential_pairs = set()
    for receiver in receivers:
        values = evaluate_update_expression(
            method.expression(label),
            instance,
            receiver,
            method.signature,
        )
        for value in values:
            sequential_pairs.add((receiver.receiving_object, value))
    return parallel_pairs == frozenset(sequential_pairs)
