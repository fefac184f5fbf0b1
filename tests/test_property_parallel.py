"""Property-based Theorem 6.5 / Lemma 6.7 checks (hypothesis)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebraic.sufficient import satisfies_prop_5_8
from repro.core.sequential import apply_sequence
from repro.graph.schema import Schema
from repro.objrel.mapping import instance_to_database
from repro.parallel.apply import (
    apply_parallel,
    apply_sequence_incremental,
    lemma_6_7_holds,
    parallel_changes,
)
from repro.workloads.instances import (
    random_instance,
    random_key_set,
    random_receiver_set,
)
from repro.workloads.methods import random_positive_method

SCHEMA = Schema(
    ["K0", "K1"],
    [("K0", "p0", "K1"), ("K0", "p1", "K0")],
)


def make_case(seed, n_statements=1, receiver_set=random_key_set):
    rng = random.Random(seed)
    method = random_positive_method(
        rng, SCHEMA, depth=1, n_statements=n_statements
    )
    if method is None:
        return None
    instance = random_instance(
        rng, SCHEMA, objects_per_class=3, edge_probability=0.5
    )
    receivers = receiver_set(rng, instance, method.signature, size=3)
    if len(receivers) < 2:
        return None
    return method, instance, receivers


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_theorem_6_5_for_certified_methods(seed):
    # Methods passing Proposition 5.8 are key-order independent, so
    # sequential and parallel application agree on key sets.
    case = make_case(seed)
    if case is None:
        return
    method, instance, receivers = case
    if not satisfies_prop_5_8(method):
        return
    seq = apply_sequence(method, instance, receivers)
    par = apply_parallel(method, instance, receivers)
    assert seq == par


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_lemma_6_7_for_positive_methods_on_key_sets(seed):
    case = make_case(seed)
    if case is None:
        return
    method, instance, receivers = case
    for label in method.updated_properties:
        assert lemma_6_7_holds(method, label, instance, receivers)


def outcome(apply, *args):
    """What ``apply(*args)`` returns, or the type of what it raises."""
    try:
        return apply(*args)
    except Exception as error:
        return type(error)


@given(
    st.integers(0, 10_000),
    st.sampled_from([random_key_set, random_receiver_set]),
)
@settings(max_examples=60, deadline=None)
def test_proposition_6_3_singletons(seed, receiver_set):
    """Prop. 6.3: ``M_par(I, {t}) = M(I, t)``.  Folded over the
    receiver list, singleton ``M_par`` steps are sequential application,
    for key and non-key receiver sets alike."""
    case = make_case(seed, receiver_set=receiver_set)
    if case is None:
        return
    method, instance, receivers = case
    receiver = receivers[0]
    assert apply_parallel(method, instance, [receiver]) == method.apply(
        instance, receiver
    )
    assert outcome(
        apply_sequence_incremental, method, instance, receivers
    ) == outcome(apply_sequence, method, instance, receivers)


@given(
    st.integers(0, 10_000),
    st.sampled_from([random_key_set, random_receiver_set]),
    st.sampled_from([1, 2]),
)
@settings(max_examples=80, deadline=None)
def test_relational_m_par_matches_the_graph_reference(
    seed, receiver_set, n_statements
):
    """Prop. 5.1: ``M_par`` on the database, as a change set, lands on
    the representation of the graph ``M_par`` — for key sets and for
    arbitrary (non-key) receiver sets, with one statement or two."""
    case = make_case(seed, n_statements, receiver_set)
    if case is None:
        return
    method, instance, receivers = case
    database = instance_to_database(instance)
    changes = parallel_changes(method, database, receivers)
    assert database.apply_delta(changes) == instance_to_database(
        apply_parallel(method, instance, receivers)
    )
    for name, delta in changes.items():  # normalized against the base
        rows = database.relation(name).tuples
        assert not delta.inserted & rows
        assert delta.deleted <= rows
