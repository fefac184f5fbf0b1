"""The canonical methods of Propositions 4.13 / 4.22.

For a catalog of sound colorings we construct the canonical method and
check (empirically, over seeded random samples) that its inferred minimal
coloring equals the input coloring — the heart of the if-direction of
both soundness characterizations.
"""

import random

import pytest

from repro.coloring.canonical import (
    DEFLATIONARY,
    INFLATIONARY,
    canonical_method,
    fixed_edge_pair,
    node_fixed,
)
from repro.coloring.coloring import Coloring
from repro.coloring.inference import infer_coloring
from repro.core.method import MethodDiverges
from repro.core.receiver import Receiver
from repro.graph.instance import Instance, Obj
from repro.graph.schema import Schema
from repro.workloads.instances import random_samples

AB_SCHEMA = Schema(["A", "B"], [("A", "e", "B")])


def samples_for(method, schema, count=40, seed=11):
    rng = random.Random(seed)
    from repro.workloads.canonical_battery import canonical_battery

    return canonical_battery(schema, method.signature) + random_samples(
        rng,
        schema,
        method.signature,
        count=count,
        objects_per_class=2,
        edge_probability=0.5,
        include_canonical_objects=True,
        vary_class_sizes=True,
    )


# Sound inflationary colorings over the A-e->B schema, exercising every
# node and edge case of the construction.
INFLATIONARY_CATALOG = [
    {"A": {"u"}},
    {"A": {"u"}, "B": {"c"}},
    {"A": {"u", "c"}},
    {"A": {"u", "d"}, "B": {"u"}},
    {"A": {"u", "c", "d"}, "B": {"u"}},
    {"A": {"u"}, "B": {"u"}, "e": {"u"}},
    {"A": {"u"}, "B": {"u"}, "e": {"c"}},
    {"A": {"u"}, "B": {"u"}, "e": {"u", "c"}},
    {"A": {"u"}, "B": {"u"}, "e": {"u", "d"}},
    {"A": {"u"}, "B": {"u"}, "e": {"u", "c", "d"}},
    {"A": {"u", "d"}, "B": {"u"}, "e": {"d"}},
    {"A": {"u", "d"}, "B": {"u"}, "e": {"c", "d"}},
]

DEFLATIONARY_CATALOG = [
    {"A": {"u"}},
    {"A": {"u", "c"}},
    {"A": {"u", "d"}, "B": {"u"}},
    {"A": {"d"}, "B": {"u"}, "e": {"d"}},
    {"A": {"u"}, "B": {"u"}, "e": {"u"}},
    {"A": {"u"}, "B": {"u"}, "e": {"d"}},
    {"A": {"u"}, "B": {"u"}, "e": {"u", "d"}},
    {"A": {"u"}, "B": {"u"}, "e": {"u", "c"}},
    {"A": {"u", "c"}, "e": {"c"}},  # Example 4.21
]


def coloring_id(assignment):
    """Test id for a catalog entry, with each color set written in sorted
    order so the id does not depend on ``PYTHONHASHSEED``."""
    return "[" + ", ".join(
        f"({name!r}, {{{', '.join(map(repr, sorted(colors)))}}})"
        for name, colors in sorted(assignment.items())
    ) + "]"


class TestConstruction:
    def test_unsound_coloring_rejected(self):
        kappa = Coloring(AB_SCHEMA, {"A": {"d"}})  # d without u: unsound
        with pytest.raises(ValueError, match="not sound"):
            canonical_method(kappa, INFLATIONARY)

    def test_unknown_axiom_rejected(self):
        kappa = Coloring(AB_SCHEMA, {"A": {"u"}})
        with pytest.raises(ValueError, match="unknown axiom"):
            canonical_method(kappa, "sideways")

    def test_signature_classes_must_be_u(self):
        from repro.core.signature import MethodSignature

        kappa = Coloring(AB_SCHEMA, {"A": {"u"}})
        with pytest.raises(ValueError, match="colored u"):
            canonical_method(
                kappa, INFLATIONARY, MethodSignature(["B"])
            )

    def test_default_signature_is_a_u_class(self):
        kappa = Coloring(AB_SCHEMA, {"B": {"u"}})
        method = canonical_method(kappa, INFLATIONARY)
        assert list(method.signature) == ["B"]


class TestPureUDivergence:
    def test_diverges_without_fixed_node(self):
        kappa = Coloring(AB_SCHEMA, {"A": {"u"}})
        method = canonical_method(kappa, INFLATIONARY)
        a = Obj("A", 0)
        instance = Instance(AB_SCHEMA, [a])
        with pytest.raises(MethodDiverges):
            method.apply(instance, Receiver([a]))

    def test_terminates_with_fixed_node(self):
        kappa = Coloring(AB_SCHEMA, {"A": {"u"}})
        method = canonical_method(kappa, INFLATIONARY)
        a = node_fixed("A", "u")
        instance = Instance(AB_SCHEMA, [a])
        assert method.apply(instance, Receiver([a])) == instance

    def test_pure_u_edge_diverges_without_fixed_edge(self):
        kappa = Coloring(
            AB_SCHEMA, {"A": {"u"}, "B": {"u"}, "e": {"u"}}
        )
        method = canonical_method(kappa, INFLATIONARY)
        a = Obj("A", 0)
        instance = Instance(AB_SCHEMA, [a, node_fixed("A", "u")])
        with pytest.raises(MethodDiverges):
            method.apply(instance, Receiver([a]))


class TestCreateDeleteBehavior:
    def test_pure_c_node_created(self):
        kappa = Coloring(AB_SCHEMA, {"A": {"u"}, "B": {"c"}})
        method = canonical_method(kappa, INFLATIONARY)
        a = node_fixed("A", "u")
        instance = Instance(AB_SCHEMA, [a])
        result = method.apply(instance, Receiver([a]))
        assert node_fixed("B", "c") in result.nodes

    def test_du_node_provisionally_deleted(self):
        kappa = Coloring(AB_SCHEMA, {"A": {"u", "d"}, "B": {"u"}})
        method = canonical_method(kappa, INFLATIONARY)
        victim = node_fixed("A", "d")
        # Deletion happens when there are no B-nodes (e is neither d nor
        # u, so the test is on B-nodes).
        lonely = Instance(AB_SCHEMA, [victim])
        result = method.apply(lonely, Receiver([victim]))
        assert victim not in result.nodes
        # With a B-node present, deletion is blocked.
        blocked = Instance(AB_SCHEMA, [victim, Obj("B", 0)])
        result = method.apply(blocked, Receiver([victim]))
        assert victim in result.nodes

    def test_cu_edge_conditional_creation(self):
        kappa = Coloring(
            AB_SCHEMA, {"A": {"u"}, "B": {"u"}, "e": {"u", "c"}}
        )
        method = canonical_method(kappa, INFLATIONARY)
        trigger = fixed_edge_pair(AB_SCHEMA, "e", 1)
        created = fixed_edge_pair(AB_SCHEMA, "e", 2)
        a = Obj("A", 0)
        base = Instance(
            AB_SCHEMA,
            [a, trigger.source, trigger.target, created.source, created.target],
        )
        without_trigger = method.apply(base, Receiver([a]))
        assert created not in without_trigger.edges
        with_trigger = method.apply(
            base.with_edges([trigger]), Receiver([a])
        )
        assert created in with_trigger.edges


@pytest.mark.parametrize(
    "assignment", INFLATIONARY_CATALOG, ids=[coloring_id(c) for c in INFLATIONARY_CATALOG]
)
def test_inflationary_minimal_coloring_recovered(assignment):
    kappa = Coloring(AB_SCHEMA, assignment)
    method = canonical_method(kappa, INFLATIONARY)
    samples = samples_for(method, AB_SCHEMA)
    inferred = infer_coloring(method, samples, INFLATIONARY)
    assert inferred == kappa


@pytest.mark.parametrize(
    "assignment", DEFLATIONARY_CATALOG, ids=[coloring_id(c) for c in DEFLATIONARY_CATALOG]
)
def test_deflationary_minimal_coloring_recovered(assignment):
    kappa = Coloring(AB_SCHEMA, assignment)
    method = canonical_method(kappa, DEFLATIONARY)
    samples = samples_for(method, AB_SCHEMA)
    inferred = infer_coloring(method, samples, DEFLATIONARY)
    assert inferred == kappa
