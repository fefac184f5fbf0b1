"""Deterministic probe instances for canonical methods.

The canonical methods of :mod:`repro.coloring.canonical` act on *fixed*
objects and guard their deletions behind emptiness tests; purely random
instances witness those behaviors only with low probability.  This
battery enumerates the instances that matter:

* a *rich* instance containing every fixed object and both fixed edge
  pairs of every label (plus an ordinary object per class),
* per class, a *sparse* instance containing only that class's fixed
  objects (so partner-class emptiness tests fire),
* per edge label, instances with exactly one of the two fixed edge pairs
  present,
* a *bare* instance with just a receiver.

Combined with random samples it makes the empirical minimal-coloring
inference reliably converge to the true coloring on small schemas.

The battery also has a *relational* face: :func:`skewed_join_battery`
builds a seeded large instance (default 10⁵ fact rows) whose join key
follows a skewed (power-law) distribution and whose value column is
strongly *correlated* with the key — the shape on which a System-R
independence estimate misjudges a two-pair equi-join.  The query
engine estimates nothing (it joins by factor size), so the battery
serves as a large, skewed join workload: its results must equal the
reference ``evaluate``, and the observability benchmark times it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Set, Tuple

from repro.coloring.canonical import edge_fixed, fixed_edge_pair, node_fixed
from repro.core.receiver import Receiver
from repro.core.signature import MethodSignature
from repro.graph.instance import Edge, Instance, Obj
from repro.graph.schema import Schema
from repro.relational.algebra import Expr, Product, Project, Rel, Select
from repro.relational.database import Database
from repro.relational.relation import Relation, schema_of

Sample = Tuple[Instance, Receiver]


def _receiver_for(
    instance_nodes: Set[Obj], signature: MethodSignature
) -> Tuple[Set[Obj], Receiver]:
    """Pick (adding if needed) receiver components from u-fixed objects."""
    nodes = set(instance_nodes)
    components = []
    for position, cls in enumerate(signature):
        candidates = sorted(o for o in nodes if o.cls == cls)
        if candidates:
            components.append(candidates[0])
        else:
            fallback = Obj(cls, f"battery-recv-{position}")
            nodes.add(fallback)
            components.append(fallback)
    return nodes, Receiver(components)


def canonical_battery(
    schema: Schema, signature: MethodSignature
) -> List[Sample]:
    """The deterministic probe samples described in the module docstring."""
    samples: List[Sample] = []

    def add(nodes: Set[Obj], edges: Set[Edge] = frozenset()) -> None:
        nodes, receiver = _receiver_for(nodes, signature)
        kept_edges = {
            e for e in edges if e.source in nodes and e.target in nodes
        }
        samples.append(
            (Instance(schema, nodes, kept_edges), receiver)
        )

    all_fixed_nodes: Set[Obj] = set()
    for cls in schema.class_names:
        for color in ("c", "u", "d"):
            all_fixed_nodes.add(node_fixed(cls, color))
    for edge in schema.edges:
        for position in (1, 2, 3, 4):
            all_fixed_nodes.add(edge_fixed(schema, edge.label, position))
    all_fixed_edges = {
        fixed_edge_pair(schema, edge.label, pair)
        for edge in schema.edges
        for pair in (1, 2)
    }
    ordinary = {Obj(cls, "battery-extra") for cls in schema.class_names}

    # Rich: everything present.
    add(all_fixed_nodes | ordinary, all_fixed_edges)
    add(all_fixed_nodes, all_fixed_edges)
    # Per class: only that class's fixed objects.
    for cls in sorted(schema.class_names):
        only = {node_fixed(cls, color) for color in ("c", "u", "d")}
        add(only)
    # Per edge label: exactly one fixed pair present (plus the u-fixed
    # nodes, so pure-u divergence tests pass).
    u_nodes = {node_fixed(cls, "u") for cls in schema.class_names}
    for edge in schema.edges:
        for pair in (1, 2):
            present = fixed_edge_pair(schema, edge.label, pair)
            add(
                u_nodes | {present.source, present.target},
                {present},
            )
        both = {
            fixed_edge_pair(schema, edge.label, 1),
            fixed_edge_pair(schema, edge.label, 2),
        }
        endpoints = {o for e in both for o in e.incident_nodes()}
        add(u_nodes | endpoints, both)
        # Pair-1 edge present, pair-2 endpoints present but its edge
        # absent: witnesses the conditional creation of the {c,u} case.
        add(u_nodes | endpoints, {fixed_edge_pair(schema, edge.label, 1)})
    # Bare: nothing but a receiver (and the u-fixed nodes variant).
    add(set())
    add(u_nodes)
    return samples


# ----------------------------------------------------------------------
# The relational skewed-join battery (optimizer v2)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SkewedJoinBattery:
    """One seeded large relational instance plus its probe queries.

    * ``simple_join`` — σ_{fk=dk}(Fact × Dim): one join pair, exercises
      the skewed-key hash join and the sampled n-distinct estimate.
    * ``correlated_join`` — σ_{fv=dv}(σ_{fk=dk}(Fact × Dim)): two join
      pairs over *correlated* columns (``fv`` tracks ``fk`` for most
      rows), the case the independence assumption misestimates; the
      misestimate changes at most the join order, never the rows.
    * ``projected_join`` — π_{fk,fv} of the correlated join: heavy
      duplicate elimination, the π-dedup kernel's case.
    """

    database: Database
    simple_join: Expr
    correlated_join: Expr
    projected_join: Expr

    @property
    def queries(self) -> Tuple[Expr, Expr, Expr]:
        return (self.simple_join, self.correlated_join, self.projected_join)


def skewed_join_battery(
    rows: int = 100_000,
    classes: int = 64,
    seed: int = 1995,
) -> SkewedJoinBattery:
    """Build the seeded skewed-join instance (see the module docstring).

    ``Fact(fs, fk, fv)`` has ``rows`` tuples: ``fs`` a unique row id,
    ``fk`` a join key drawn from a power-law over ``classes`` values
    (a few keys carry most rows), and ``fv`` equal to ``fk`` for ~90%
    of rows (correlated) and uniform otherwise.  ``Dim(dk, dv)`` holds
    the diagonal ``(k, k)`` per class plus a sprinkle of off-diagonal
    rows, so the two-pair join is far smaller than independent
    per-column selectivities predict.
    """
    rng = random.Random(seed)
    fact_rows = []
    for row_id in range(rows):
        # Power-law skew: cubing a uniform [0,1) draw concentrates
        # mass near key 0 while keeping every class reachable.
        key = int(classes * (rng.random() ** 3))
        value = key if rng.random() < 0.9 else rng.randrange(classes)
        fact_rows.append((row_id, key, value))
    dim_rows = [(k, k) for k in range(classes)]
    for _ in range(classes // 4):
        dim_rows.append(
            (rng.randrange(classes), rng.randrange(classes))
        )
    database = Database(
        {
            "Fact": Relation(
                schema_of(("fs", "int"), ("fk", "int"), ("fv", "int")),
                fact_rows,
            ),
            "Dim": Relation(
                schema_of(("dk", "int"), ("dv", "int")), dim_rows
            ),
        }
    )
    simple = Select(Product(Rel("Fact"), Rel("Dim")), "fk", "dk", True)
    correlated = Select(simple, "fv", "dv", True)
    projected = Project(correlated, ("fk", "fv"))
    return SkewedJoinBattery(
        database=database,
        simple_join=simple,
        correlated_join=correlated,
        projected_join=projected,
    )
