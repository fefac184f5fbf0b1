"""Parallel application (Section 6): Definition 6.1, Proposition 6.3,
Example 6.4, Theorem 6.5, Lemma 6.7."""

import random

import pytest

from repro.algebraic.examples import (
    add_bar_algebraic,
    delete_bar_algebraic,
    favorite_bar_algebraic,
)
from repro.algebraic.specimens import tc_schema, transitive_closure_method
from repro.core.receiver import Receiver, is_key_set, receivers_over
from repro.core.sequential import apply_sequence
from repro.graph.instance import Edge, Instance, Obj
from repro.algebraic.expression import UpdateTypeError
from repro.algebraic.method import AlgebraicUpdateMethod
from repro.core.signature import MethodSignature
from repro.graph.schema import SchemaError, drinker_bar_beer_schema
from repro.objrel.mapping import instance_to_database
from repro.parallel.apply import (
    apply_parallel,
    lemma_6_7_holds,
    parallel_changes,
    parallel_update_relation,
    rec_relation,
)
from repro.relational.algebra import Rel, Rename
from repro.parallel.transform import par_db_schema, par_transform, rec_schema
from repro.relational.evaluate import infer_schema
from repro.relational.relation import RelationError
from repro.workloads.drinkers import figure_1_instance, random_drinkers_instance

MARY = Obj("Drinker", "Mary")
JOHN = Obj("Drinker", "John")
CHEERS = Obj("Bar", "Cheers")
TAVERN = Obj("Bar", "OldTavern")


class TestTransform:
    def test_par_schema_prepends_self(self):
        method = add_bar_algebraic()
        body = method.expression("frequents")
        transformed = par_transform(
            body, method.object_schema, method.signature
        )
        db_schema = par_db_schema(method.object_schema, method.signature)
        schema = infer_schema(transformed, db_schema)
        assert schema.names[0] == "self"
        assert schema.domain_of("self") == "Drinker"

    def test_rec_schema(self):
        method = favorite_bar_algebraic()
        schema = rec_schema(method.signature)
        assert schema.names == ("self", "arg1")
        assert schema.domain_of("arg1") == "Bar"

    def test_rec_reference_rejected_inside_update(self):
        from repro.relational.algebra import Rel

        method = favorite_bar_algebraic()
        with pytest.raises(RelationError, match="rec"):
            par_transform(
                Rel("rec"), method.object_schema, method.signature
            )


class TestProposition6_3:
    @pytest.mark.parametrize(
        "factory",
        [favorite_bar_algebraic, add_bar_algebraic, delete_bar_algebraic],
    )
    def test_singleton_parallel_equals_ordinary(self, factory):
        method = factory()
        rng = random.Random(17)
        for _ in range(8):
            instance = random_drinkers_instance(rng)
            receivers = receivers_over(instance, method.signature)
            if not receivers:
                continue
            receiver = receivers[0]
            assert apply_parallel(method, instance, [receiver]) == (
                method.apply(instance, receiver)
            )


class TestTheorem6_5:
    @pytest.mark.parametrize(
        "factory", [favorite_bar_algebraic, delete_bar_algebraic]
    )
    def test_seq_equals_par_on_key_sets(self, factory):
        method = factory()
        rng = random.Random(23)
        from repro.workloads.instances import random_key_set

        for _ in range(10):
            instance = random_drinkers_instance(rng)
            receivers = random_key_set(
                rng, instance, method.signature, size=3
            )
            if len(receivers) < 2:
                continue
            assert is_key_set(receivers)
            seq = apply_sequence(method, instance, receivers)
            par = apply_parallel(method, instance, receivers)
            assert seq == par

    def test_non_key_set_can_disagree(self):
        # favorite_bar on a non-key set: sequential keeps the last bar,
        # parallel gives the union of both arguments.
        method = favorite_bar_algebraic()
        instance = figure_1_instance()
        receivers = [Receiver([MARY, CHEERS]), Receiver([MARY, TAVERN])]
        par = apply_parallel(method, instance, receivers)
        assert par.property_values(MARY, "frequents") == {CHEERS, TAVERN}
        seq = apply_sequence(method, instance, receivers)
        assert seq != par


class TestLemma6_7:
    def test_holds_on_key_sets(self):
        method = delete_bar_algebraic()
        instance = figure_1_instance()
        receivers = [Receiver([MARY, CHEERS]), Receiver([JOHN, TAVERN])]
        assert lemma_6_7_holds(method, "frequents", instance, receivers)

    def test_holds_for_positive_methods_even_on_non_key_sets(self):
        # The lemma's proof needs keyness only for the difference
        # operator; positive expressions satisfy it unconditionally.
        method = add_bar_algebraic()
        instance = figure_1_instance()
        receivers = [Receiver([MARY, CHEERS]), Receiver([MARY, TAVERN])]
        assert lemma_6_7_holds(method, "frequents", instance, receivers)


class TestExample6_4:
    def _chain_instance(self, length):
        schema = tc_schema()
        nodes = [Obj("C", i) for i in range(length)]
        edges = [
            Edge(nodes[i], "e", nodes[i + 1]) for i in range(length - 1)
        ]
        return Instance(schema, nodes, edges), nodes

    def test_sequential_computes_transitive_closure(self):
        method = transitive_closure_method()
        instance, nodes = self._chain_instance(4)
        receivers = receivers_over(instance, method.signature)
        result = apply_sequence(method, instance, sorted(receivers))
        tc_pairs = {
            (e.source.key, e.target.key)
            for e in result.edges_labeled("tc")
        }
        expected = {
            (i, j) for i in range(4) for j in range(4) if i < j
        }
        assert tc_pairs == expected

    def test_sequential_is_order_independent_on_full_set(self):
        method = transitive_closure_method()
        instance, _ = self._chain_instance(3)
        receivers = sorted(receivers_over(instance, method.signature))
        rng = random.Random(5)
        reference = apply_sequence(method, instance, receivers)
        for _ in range(5):
            order = list(receivers)
            rng.shuffle(order)
            assert apply_sequence(method, instance, order) == reference

    def test_parallel_only_duplicates_edges(self):
        # "the parallel application M_par(I,T) simply duplicates each
        # e-edge with a tc-edge"
        method = transitive_closure_method()
        instance, nodes = self._chain_instance(4)
        receivers = receivers_over(instance, method.signature)
        result = apply_parallel(method, instance, receivers)
        tc_pairs = {
            (e.source.key, e.target.key)
            for e in result.edges_labeled("tc")
        }
        e_pairs = {
            (e.source.key, e.target.key)
            for e in instance.edges_labeled("e")
        }
        assert tc_pairs == e_pairs

    def test_separation_witnesses_power_gap(self):
        # Sequential strictly more powerful than parallel on this input.
        method = transitive_closure_method()
        instance, _ = self._chain_instance(4)
        receivers = receivers_over(instance, method.signature)
        seq = apply_sequence(method, instance, sorted(receivers))
        par = apply_parallel(method, instance, receivers)
        assert seq != par


class TestRecRelation:
    def test_rec_relation_rows(self):
        method = favorite_bar_algebraic()
        receivers = [Receiver([MARY, CHEERS]), Receiver([JOHN, TAVERN])]
        relation = rec_relation(method.signature, receivers)
        assert relation.tuples == {(MARY, CHEERS), (JOHN, TAVERN)}

    def test_type_mismatch_rejected(self):
        method = favorite_bar_algebraic()
        with pytest.raises(RelationError):
            rec_relation(method.signature, [Receiver([CHEERS, MARY])])

    def test_parallel_update_relation_schema(self):
        method = favorite_bar_algebraic()
        instance = figure_1_instance()
        relation = parallel_update_relation(
            method,
            "frequents",
            instance,
            [Receiver([MARY, CHEERS])],
        )
        assert set(relation.schema.names) == {"self", "frequents"}
        assert relation.tuples == {(MARY, CHEERS)}


# ----------------------------------------------------------------------
# The relational write path against the graph reference
# ----------------------------------------------------------------------
class TestRelationalWritePath:
    @staticmethod
    def frequents_arg1():
        """``frequents := arg1``: the value is whatever ``arg1`` names."""
        schema = drinker_bar_beer_schema()
        signature = MethodSignature(["Drinker", "Bar"])
        return AlgebraicUpdateMethod(
            schema,
            signature,
            {"frequents": Rename(Rel("arg1"), "arg1", "frequents")},
        )

    def test_value_outside_the_target_class_raises_on_both_paths(self):
        method = self.frequents_arg1()
        instance = figure_1_instance()
        nowhere = Obj("Bar", "Nowhere")
        assert not instance.has_node(nowhere)
        receivers = [Receiver([MARY, nowhere])]
        with pytest.raises(UpdateTypeError):
            apply_parallel(method, instance, receivers)
        with pytest.raises(UpdateTypeError):
            parallel_changes(
                method, instance_to_database(instance), receivers
            )

    def test_receiving_object_outside_its_class_raises_on_both_paths(self):
        method = self.frequents_arg1()
        instance = figure_1_instance()
        ghost = Obj("Drinker", "Ghost")
        assert not instance.has_node(ghost)
        receivers = [Receiver([ghost, CHEERS])]
        with pytest.raises(SchemaError, match="dangling edge"):
            apply_parallel(method, instance, receivers)
        with pytest.raises(SchemaError, match="dangling edge"):
            parallel_changes(
                method, instance_to_database(instance), receivers
            )


class TestStableShadowNames:
    """``par(E)`` names its renamed-apart ``self`` columns by a counter
    local to one transform, so the same statement always transforms to
    the same expression."""

    @staticmethod
    def _shadows(expr):
        from repro.relational.algebra import walk

        return [
            node.new
            for node in walk(expr)
            if isinstance(node, Rename) and node.old == "self"
        ]

    def test_two_transforms_intern_to_one_root(self):
        from repro.parallel.apply import parallel_statement_expression
        from repro.relational.engine import Interner
        from repro.sqlsim.scenarios import scenario_c_method

        interner = Interner()
        first = interner.intern(
            parallel_statement_expression(scenario_c_method(), "salary")
        )
        second = interner.intern(
            parallel_statement_expression(scenario_c_method(), "salary")
        )
        assert first is second
        assert self._shadows(first)

    def test_commits_leave_interner_count_flat(self):
        from repro.server.testing import company_store
        from repro.sqlsim.scenarios import scenario_c_method
        from repro.store.txn import run_transaction

        store, receivers = company_store(n_employees=64, seed=7)
        method = scenario_c_method()
        employees = sorted({r.objects[0] for r in receivers})
        counts = []
        try:
            for employee in employees[:40]:
                batch = [Receiver([employee])]

                def body(txn, batch=batch):
                    txn.apply_method(method, batch)
                    return txn

                run_transaction(store, body)
                counts.append(len(store.cache.interner))
        finally:
            store.close()
        assert len(set(counts)) == 1, counts

    def test_a_taken_candidate_name_is_skipped(self):
        from repro.sqlsim.scenarios import scenario_c_method

        method = scenario_c_method()
        out = method.output_attribute("salary")
        body = method.expression("salary")
        plain = par_transform(body, method.object_schema, method.signature)
        assert self._shadows(plain)[0] == "self__1"
        # The same statement, with its output column passing through
        # the first candidate name on the way out.
        detour = Rename(Rename(body, out, "self__1"), "self__1", out)
        transformed = par_transform(
            detour, method.object_schema, method.signature
        )
        shadows = self._shadows(transformed)
        assert shadows and "self__1" not in shadows
        assert len(set(shadows)) == len(shadows)
        db_schema = par_db_schema(method.object_schema, method.signature)
        assert infer_schema(transformed, db_schema) == infer_schema(
            plain, db_schema
        )
