"""A memoizing, instrumented query engine over the relational algebra.

Section 6's efficiency argument — "one single relational algebra
expression per property to be updated; this expression can be optimized
and is then executed only once" — presumes an engine that actually
reuses work.  The recursive reference evaluator in
:mod:`repro.relational.evaluate` re-evaluates a shared subtree once *per
occurrence* and materializes every product: ``par(E)`` (Definition 6.1)
duplicates the statement body inside its natural-join expansion, and
the Theorem 5.6 reduction substitutes ``E_b[t]`` at every occurrence of
an updated property relation.

:class:`QueryEngine` is the evaluator of record; ``evaluate`` stays as
the reference oracle it is tested against.  It works in three layers:

* **Structural hashing / CSE.**  :class:`Interner` hash-conses ``Expr``
  trees bottom-up, so structurally equal subtrees become the *same*
  object and equality is identity.  The engine caches every evaluated
  node by identity; a subtree shared between the statements of
  ``M_par``, the guard factors of the reduction, or repeated
  decision-procedure calls is evaluated once per database state.

* **Deep pushdown and size-ordered joins.**  The planner flattens each
  maximal ``Select``/``Product``/``Project``/``Rename`` region into
  factors and conditions, through ``Rename``/``Project`` barriers
  (renaming projected-away columns apart), prunes unused columns
  before joining, and joins by factor size: it seeds with the smallest
  factor, then joins the smallest remaining factor an equality
  connects to the running result, or takes the product with the
  smallest remaining factor when none is connected (ties go by factor
  position, so the plan is deterministic).  A base relation joined to
  a running intermediate at least :data:`INDEX_JOIN_RATIO` times
  smaller is probed through its column index
  (:meth:`~repro.relational.relation.Relation.index`) instead of
  scanned, and a base relation pruned to one column is read off that
  column's index keys, so a region seeded from a small relation such
  as ``rec`` costs its own size, not the state's.  The interner that
  canonicalized a region keeps its flattening, so a one-shot engine
  (``E(I, t)`` at each step of the sequential fold) pays for joins,
  not planning.

* **Observability.**  Per-operator counters (calls, rows in/out,
  hash-build sizes, wall time) in :class:`EngineStats`, and
  :meth:`QueryEngine.explain`, which renders the actual plan — join
  order, condition placement, per-step row counts — as text.

An engine is *bound* to one database state, but its memo survives state
changes through one more layer:

* **Cross-state memoization.**  Memo entries live in a shared
  :class:`EngineCache`, keyed by ``(interned node identity, content
  fingerprints of the base relations the subtree references)``.  A new
  engine bound to an updated state re-serves every subtree whose
  referenced relations kept their fingerprints — sequential update
  application, the minimizer/improver loops, and decision-procedure
  replays stop re-evaluating work their update never touched
  (``EngineStats.cross_state_hits``; ``explain`` marks such subtrees
  ``reused``).  An engine built without a cache keeps its results to
  itself and computes no fingerprints.

Results are always identical to
:func:`repro.relational.evaluate.evaluate`, the differential-testing
oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.obs import tracer as trace
from repro.obs.metrics import Counter, MetricsRegistry, global_registry
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
    children,
    walk,
)
from repro.resilience.budget import Budget
from repro.resilience.budget import applied as budget_applied
from repro.resilience.budget import tick as budget_tick
from repro.resilience.faults import (
    ENGINE_EVALUATE,
    ENGINE_PLAN,
    FaultError,
    fault_point,
)
from repro.relational.database import Database
from repro.relational.evaluate import node_schema
from repro.relational.relation import (
    Relation,
    RelationError,
    RelationSchema,
)

Condition = Tuple[str, str, bool]  # (left attr, right attr, equal?)

#: The index-join size rule: a join step probes a base-relation factor's
#: column index once per row of the running intermediate when
#: ``INDEX_JOIN_RATIO * len(intermediate) < len(factor)``, and hash-joins
#: otherwise, so joins of full-size relations keep one scan each.
INDEX_JOIN_RATIO = 4

#: The node types a join region is made of.
_REGION_TYPES = (Select, Product, Project, Rename)


# ----------------------------------------------------------------------
# Structural hashing / common-subexpression elimination
# ----------------------------------------------------------------------
class Interner:
    """Hash-consing of algebra expressions.

    ``intern`` rebuilds a tree bottom-up, returning a canonical node per
    structure: after interning, structural equality is object identity,
    so memo tables can key on ``id()`` and shared subtrees are stored
    once.  Keys are built from interned child identities, which makes
    interning linear in the tree size (no deep comparisons), and a node
    that is already canonical comes back at once.

    It also keeps what depends on a canonical node alone: the base
    relations it references and, per schemas of those relations, the
    plan of each join region.  Its tables grow with the expressions
    interned, never with the states they are evaluated on.
    """

    def __init__(self) -> None:
        self._table: Dict[tuple, Expr] = {}
        self._canonical: Set[int] = set()
        self._base_rels: Dict[int, Tuple[str, ...]] = {}
        self._regions: Dict[tuple, "_Region"] = {}

    def __len__(self) -> int:
        return len(self._table)

    def intern(self, expr: Expr) -> Expr:
        # Canonical nodes live in the table, so their ids are never
        # reused by another object while this interner exists.
        if id(expr) in self._canonical:
            return expr
        if isinstance(expr, Rel):
            key: tuple = ("rel", expr.name)
            node = expr
        elif isinstance(expr, Empty):
            key = ("empty", expr.schema.attributes)
            node = expr
        elif isinstance(expr, (Union, Difference, Product)):
            left = self.intern(expr.left)
            right = self.intern(expr.right)
            key = (type(expr).__name__, id(left), id(right))
            node = (
                expr
                if left is expr.left and right is expr.right
                else type(expr)(left, right)
            )
        elif isinstance(expr, Select):
            child = self.intern(expr.child)
            key = ("select", id(child), expr.left, expr.right, expr.equal)
            node = (
                expr
                if child is expr.child
                else Select(child, expr.left, expr.right, expr.equal)
            )
        elif isinstance(expr, Project):
            child = self.intern(expr.child)
            key = ("project", id(child), expr.attrs)
            node = expr if child is expr.child else Project(child, expr.attrs)
        elif isinstance(expr, Rename):
            child = self.intern(expr.child)
            key = ("rename", id(child), expr.old, expr.new)
            node = (
                expr
                if child is expr.child
                else Rename(child, expr.old, expr.new)
            )
        else:
            raise TypeError(f"unknown expression node {expr!r}")
        # One atomic insert: when two threads intern the same structure,
        # both get the node the table keeps, and only its id is marked.
        canonical = self._table.setdefault(key, node)
        if canonical is node:
            self._canonical.add(id(node))
        return canonical

    def base_relations(self, node: Expr) -> Tuple[str, ...]:
        """The sorted names of base relations ``node`` references.

        ``node`` must be interned through this interner, so the memo
        can key on object identity.
        """
        key = id(node)
        names = self._base_rels.get(key)
        if names is None:
            if isinstance(node, Rel):
                names = (node.name,)
            elif isinstance(node, Empty):
                names = ()
            else:
                merged: Set[str] = set()
                for child in children(node):
                    merged.update(self.base_relations(child))
                names = tuple(sorted(merged))
            self._base_rels[key] = names
        return names


#: Process-wide interner: expressions interned through it share structure
#: across engines, so a new engine (new database state) still benefits
#: from one-time interning work done by builders like the reduction.
#: Engines built without an :class:`EngineCache` intern through it.
DEFAULT_INTERNER = Interner()


def intern_expr(expr: Expr) -> Expr:
    """Intern ``expr`` in the process-wide :data:`DEFAULT_INTERNER`."""
    return DEFAULT_INTERNER.intern(expr)


# ----------------------------------------------------------------------
# Cross-state memoization
# ----------------------------------------------------------------------
class EngineCache:
    """A memo shared by engines across *database states*.

    Results are keyed by ``(interned node identity, fingerprints of the
    base relations the subtree references)`` — exactly the inputs that
    determine a subtree's value.  Engines bound to different states of a
    sequence of update applications share one ``EngineCache``: a subtree
    whose referenced relations were untouched by an update keeps its key
    and is re-served instead of re-evaluated.  The cache's own
    :class:`Interner` keeps the expression-only work (region plans) its
    engines share.

    The cache grows with the number of distinct (subtree, state)
    combinations it has seen; call :meth:`clear` between unrelated
    workloads to release memory.
    """

    def __init__(self) -> None:
        self.interner = Interner()
        self._results: Dict[Tuple[int, Tuple[int, ...]], Relation] = {}

    def __len__(self) -> int:
        return len(self._results)

    def clear(self) -> None:
        """Drop all memoized results (keep the interner)."""
        self._results.clear()

    def result_key(
        self, node: Expr, database: Database
    ) -> Tuple[int, Tuple[int, ...]]:
        """The memo key of ``node`` evaluated against ``database``."""
        return (
            id(node),
            tuple(
                database.relation(name).fingerprint
                for name in self.interner.base_relations(node)
            ),
        )


# ----------------------------------------------------------------------
# Instrumentation
# ----------------------------------------------------------------------
def _counter_property(field_name: str) -> property:
    """An attribute that reads/writes a registry counter, so the
    historical ``stats.cache_hits += 1`` call sites keep working."""

    def fget(self):
        return self._counter(field_name).value

    def fset(self, value):
        self._counter(field_name).value = value

    return property(fget, fset)


class OperatorStats:
    """Counters for one physical operator kind: ``calls``, ``rows_in``,
    ``rows_out`` and ``wall_seconds``.

    Plain numbers, updated on every operator the engine runs; the
    owning :class:`EngineStats` publishes them to its registry as
    ``engine.op.<name>.*`` counters.
    """

    __slots__ = ("calls", "rows_in", "rows_out", "wall_seconds")

    def __init__(self) -> None:
        self.calls = 0
        self.rows_in = 0
        self.rows_out = 0
        self.wall_seconds = 0.0

    def record(
        self, rows_in: int, rows_out: int, wall_seconds: float = 0.0
    ) -> None:
        self.calls += 1
        self.rows_in += rows_in
        self.rows_out += rows_out
        self.wall_seconds += wall_seconds


class EngineStats:
    """Cache and per-operator counters of one :class:`QueryEngine`.

    The cache counters are a *view* over a
    :class:`~repro.obs.metrics.MetricsRegistry` (``engine.*`` names), so
    ``stats.cache_hits`` and
    ``stats.registry.counter("engine.cache_hits").value`` are the same
    number, and a registry shared across engines accumulates over all
    of them.  Operator counters reach it as ``engine.op.<name>.*`` when
    an evaluation ends and when ``registry`` is read.  An engine given
    no registry makes one only when ``registry`` is first read.
    """

    __slots__ = ("_registry", "_counters", "operators", "_published")

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._registry = registry
        self._counters: Dict[str, Counter] = {}
        self.operators: Dict[str, OperatorStats] = {}
        self._published: Dict[str, float] = {}

    @property
    def registry(self) -> MetricsRegistry:
        if self._registry is None:
            registry = MetricsRegistry()
            for field_name, counter in self._counters.items():
                moved = self._counters[field_name] = registry.counter(
                    counter.name
                )
                moved.value = counter.value
            self._registry = registry
        self.publish()
        return self._registry

    def publish(self) -> None:
        """Add the operator counts made since the last publish to the
        registry's ``engine.op.*`` counters (nothing without one)."""
        registry = self._registry
        if registry is None:
            return
        published = self._published
        for name, stats in self.operators.items():
            for field_name in OperatorStats.__slots__:
                key = f"engine.op.{name}.{field_name}"
                value = getattr(stats, field_name)
                registry.counter(key).value += value - published.get(key, 0)
                published[key] = value

    def _counter(self, field_name: str) -> Counter:
        counter = self._counters.get(field_name)
        if counter is None:
            name = f"engine.{field_name}"
            counter = self._counters[field_name] = (
                Counter(name)
                if self._registry is None
                else self._registry.counter(name)
            )
        return counter

    cache_hits = _counter_property("cache_hits")
    cache_misses = _counter_property("cache_misses")
    cross_state_hits = _counter_property("cross_state_hits")
    hash_build_rows = _counter_property("hash_build_rows")
    # The engine keeps no plan cache, so these two always read 0.  They
    # stay because e2ebench's traced runs read them from every engine.
    plan_cache_hits = _counter_property("plan_cache_hits")
    plan_cache_misses = _counter_property("plan_cache_misses")

    def op(self, name: str) -> OperatorStats:
        stats = self.operators.get(name)
        if stats is None:
            stats = self.operators[name] = OperatorStats()
        return stats

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def render(self) -> str:
        """A small fixed-width table of the counters."""
        lines = [
            f"cache: {self.cache_hits} hits / {self.cache_misses} misses "
            f"({self.cache_hit_rate:.1%} hit rate), "
            f"{self.cross_state_hits} cross-state hits, "
            f"hash build rows: {self.hash_build_rows}",
            f"{'operator':<12}{'calls':>8}{'rows in':>10}"
            f"{'rows out':>10}{'wall ms':>10}",
        ]
        for name in sorted(self.operators):
            stats = self.operators[name]
            lines.append(
                f"{name:<12}{stats.calls:>8}{stats.rows_in:>10}"
                f"{stats.rows_out:>10}{stats.wall_seconds * 1e3:>10.2f}"
            )
        return "\n".join(lines)


@dataclass
class _PlanEntry:
    """What the engine did at one (interned) node, for ``explain``."""

    kind: str
    rows: int
    detail: str = ""
    steps: Sequence[str] = ()
    children: Tuple[Expr, ...] = ()
    wall_seconds: float = 0.0


# ----------------------------------------------------------------------
# Region plans (expression-only)
# ----------------------------------------------------------------------
class _Factor:
    """One factor of a region plan: an interned node, the renames the
    flattening applies to it, and the columns the region needs of it.

    ``kept`` holds the positions of those columns in the renamed
    relation, which are their positions in a base relation too
    (renames keep positions); ``pruned`` is their schema, or ``None``
    when every column is needed, and ``columns`` their names.
    ``base_name`` names the state's relation of a ``Rel`` factor."""

    __slots__ = ("node", "label", "base_name", "names", "renames")
    __slots__ += ("renamed", "kept", "pruned", "columns")

    def __init__(self, node: Expr, schema: RelationSchema) -> None:
        self.node = node
        self.label = factor_label(node)
        self.base_name = node.name if isinstance(node, Rel) else None
        self.names = schema.names
        self.renames: List[Tuple[str, str]] = []
        self.renamed = schema
        self.kept: Tuple[int, ...] = ()
        self.pruned: Optional[RelationSchema] = None
        self.columns: frozenset = frozenset()


class _Region:
    """The flattened plan of one ``Select``/``Product``/``Project``/
    ``Rename`` region, built from its expression and its base
    relations' schemas; only the join order is decided per evaluation.
    """

    __slots__ = ("factors", "nodes", "conditions", "schema", "detail")
    __slots__ += ("_used_names", "_hidden_count")

    def __init__(
        self, root: Expr, schema_of: Callable[[Expr], RelationSchema]
    ) -> None:
        self.factors: List[_Factor] = []
        self.conditions: List[Condition] = []
        # Names reserved against hidden-column renaming: every attribute
        # name appearing anywhere in the region (schemas of all
        # subtrees, selection operands, rename endpoints).
        self._used_names: Set[str] = set()
        for sub in walk(root):
            if isinstance(sub, Select):
                self._used_names.update((sub.left, sub.right))
            elif isinstance(sub, Rename):
                self._used_names.update((sub.old, sub.new))
            elif isinstance(sub, Project):
                self._used_names.update(sub.attrs)
            else:
                self._used_names.update(schema_of(sub).names)
        self._hidden_count = 0
        output = self._flatten(root, schema_of)
        self.schema = schema_of(root)
        needed = set(self.schema.names)
        for left, right, _ in self.conditions:
            needed.add(left)
            needed.add(right)
        for factor in self.factors:
            for old, new in factor.renames:
                factor.renamed = factor.renamed.rename(old, new)
            names = factor.renamed.names
            factor.kept = tuple(
                i for i, name in enumerate(names) if name in needed
            )
            if len(factor.kept) != len(names):
                factor.pruned = factor.renamed.project(
                    [names[i] for i in factor.kept]
                )
            factor.columns = frozenset(names[i] for i in factor.kept)
        self.nodes = tuple(factor.node for factor in self.factors)
        self.detail = (
            f"({len(self.factors)} factors -> [{', '.join(output)}])"
        )

    def _hidden_name(self, base: str) -> str:
        while True:
            candidate = f"{base}__h{self._hidden_count}"
            self._hidden_count += 1
            if candidate not in self._used_names:
                self._used_names.add(candidate)
                return candidate

    def _rename_region(
        self, factor_start: int, cond_start: int, old: str, new: str
    ) -> None:
        """Rename ``old`` to ``new`` in the slice flattened so far."""
        for factor in self.factors[factor_start:]:
            if old in factor.names:
                factor.names = tuple(
                    new if n == old else n for n in factor.names
                )
                factor.renames.append((old, new))
        for index in range(cond_start, len(self.conditions)):
            left, right, equal = self.conditions[index]
            if old in (left, right):
                self.conditions[index] = (
                    new if left == old else left,
                    new if right == old else right,
                    equal,
                )

    def _flatten(
        self, node: Expr, schema_of: Callable[[Expr], RelationSchema]
    ) -> Tuple[str, ...]:
        """Append ``node``'s factors and conditions; return its visible
        attribute names (in output order)."""
        if isinstance(node, Select):
            names = self._flatten(node.child, schema_of)
            self.conditions.append((node.left, node.right, node.equal))
            return names
        if isinstance(node, Product):
            left = self._flatten(node.left, schema_of)
            right = self._flatten(node.right, schema_of)
            return left + right
        if isinstance(node, Rename):
            factor_start = len(self.factors)
            cond_start = len(self.conditions)
            names = self._flatten(node.child, schema_of)
            self._rename_region(
                factor_start, cond_start, node.old, node.new
            )
            return tuple(node.new if n == node.old else n for n in names)
        if isinstance(node, Project):
            factor_start = len(self.factors)
            cond_start = len(self.conditions)
            names = self._flatten(node.child, schema_of)
            kept = set(node.attrs)
            for name in names:
                if name not in kept:
                    # A projected-away column: rename it apart so it can
                    # coexist with sibling factors, and hide it at the
                    # final projection.
                    self._rename_region(
                        factor_start,
                        cond_start,
                        name,
                        self._hidden_name(name),
                    )
            return tuple(node.attrs)
        # Base factor: evaluated (and cached) as a unit by the engine.
        schema = schema_of(node)
        self.factors.append(_Factor(node, schema))
        return schema.names


# ----------------------------------------------------------------------
# Joins
# ----------------------------------------------------------------------
def hash_join(
    left: Relation,
    right: Relation,
    pairs: Sequence[Tuple[str, str]],
) -> Relation:
    """Equi-join ``left`` and ``right`` on the given attribute pairs.

    The hash index is built on the smaller side; output rows are always
    ``left``'s columns followed by ``right``'s.  Rows joined from two
    validated relations are valid, so the result skips re-validation.
    Every hash join of a region's plan runs through here.  Join keys
    come from :func:`operator.itemgetter` (a value for one pair, a
    tuple for several, alike on both sides), so extracting them runs
    in C.
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


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class QueryEngine:
    """Memoizing, instrumented evaluator bound to one database state.

    Create one engine per database; evaluate as many expressions as you
    like through it — structurally shared subtrees (after interning) are
    computed once.  ``evaluate`` always returns the same relation as the
    reference evaluator.

    Pass a shared :class:`EngineCache` to make the memo survive state
    changes: engines for successive states of an update sequence then
    re-serve every subtree whose referenced base relations kept their
    content fingerprints (``stats.cross_state_hits``).  Without one the
    engine interns through :data:`DEFAULT_INTERNER` and keeps its
    results for its own lifetime only.
    """

    def __init__(
        self,
        database: Database,
        cache: Optional[EngineCache] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self._database = database
        self._shared = cache
        self._interner = DEFAULT_INTERNER if cache is None else cache.interner
        self._local: Dict[int, Relation] = {}
        self._schemas: Dict[int, RelationSchema] = {}
        self._plans: Dict[int, _PlanEntry] = {}
        # Pass one ``registry`` to several engines (the per-step engines
        # of a receiver sequence, replay loops) to accumulate counters
        # across all of them.
        self.stats = EngineStats(registry)

    # -- public API ----------------------------------------------------
    @property
    def database(self) -> Database:
        return self._database

    @property
    def cache(self) -> Optional[EngineCache]:
        """The shared cross-state cache backing this engine, if any."""
        return self._shared

    def intern(self, expr: Expr) -> Expr:
        """Intern ``expr`` in this engine's interner (CSE)."""
        return self._interner.intern(expr)

    def evaluate(
        self, expr: Expr, budget: Optional["Budget"] = None
    ) -> Relation:
        """Evaluate ``expr``, reusing every previously computed subtree.

        ``budget`` installs an explicit per-query
        :class:`~repro.resilience.budget.Budget` for the duration of
        this evaluation — the cooperative ``engine.node`` ticks charge
        it, and exhaustion raises
        :class:`~repro.resilience.budget.BudgetExceeded` from the
        innermost loop.  This is the parameter-threading alternative to
        the ambient ``with budget:`` installation (which still works,
        and which an explicit budget stacks on top of): callers that
        serve many principals concurrently — the network front end
        attaching one deadline per request — pass the budget with the
        query instead of mutating thread-ambient state.
        """
        fault_point(ENGINE_EVALUATE)
        if budget is None:
            relation = self._evaluate_root(expr)
        else:
            with budget_applied(budget):
                relation = self._evaluate_root(expr)
        self.stats.publish()
        return relation

    def explain(self, expr: Expr, timings: bool = False) -> str:
        """Render the plan actually used for ``expr``.

        Evaluates the expression first (through the cache), then walks
        the recorded per-node plan entries.  Without ``timings`` the
        output is deterministic for a given database state.
        """
        node = self.intern(expr)
        self._evaluate(node)
        self.stats.publish()
        lines: List[str] = []
        self._render(node, 0, lines, timings, set())
        return "\n".join(lines)

    # -- internals -----------------------------------------------------
    def _evaluate_root(self, expr: Expr) -> Relation:
        node = self._interner.intern(expr)
        tracer = trace.active()
        if tracer is None:
            return self._evaluate(node)
        with tracer.span("engine.evaluate", category="engine") as span:
            relation = self._evaluate(node)
            span.set(rows=len(relation))
        return relation

    def _schema(self, node: Expr) -> RelationSchema:
        key = id(node)
        schema = self._schemas.get(key)
        if schema is None:
            if isinstance(node, Rel):
                schema = self._database.relation(node.name).schema
            elif isinstance(node, Empty):
                schema = node.schema
            else:
                schema = node_schema(
                    node, [self._schema(child) for child in children(node)]
                )
            self._schemas[key] = schema
        return schema

    def _region(self, node: Expr) -> _Region:
        """The plan of the region rooted at ``node``, from the interner
        when it has flattened it over these base-relation schemas."""
        relation = self._database.relation
        key = (
            id(node),
            tuple(
                [
                    relation(name).schema
                    for name in self._interner.base_relations(node)
                ]
            ),
        )
        region = self._interner._regions.get(key)
        if region is None:
            region = _Region(node, self._schema)
            self._interner._regions[key] = region
        return region

    def _evaluate(self, node: Expr) -> Relation:
        # One cooperative budget step per visited node (cache hits
        # included — a hit still bounds the walk, not the work).
        budget_tick("engine.node")
        key = id(node)
        cached = self._local.get(key)
        if cached is not None:
            self.stats._counter("cache_hits").value += 1
            trace.event("engine.cache_hit", category="engine")
            return cached
        shared = self._shared
        if shared is not None:
            shared_key = shared.result_key(node, self._database)
            hit = shared._results.get(shared_key)
            if hit is not None:
                # Another engine (e.g. one bound to an earlier database
                # state) already computed this subtree over identical
                # base-relation contents.
                self.stats._counter("cross_state_hits").value += 1
                trace.event("engine.cross_state_hit", category="engine")
                self._local[key] = hit
                self._plans[key] = _PlanEntry(
                    "reused", len(hit), detail="(cross-state cache)"
                )
                return hit
        self.stats._counter("cache_misses").value += 1
        start = time.perf_counter()
        if isinstance(node, _REGION_TYPES):
            relation, entry = self._evaluate_region(node)
            global_registry().histogram("engine.region.tuple_ms").observe(
                (time.perf_counter() - start) * 1000.0
            )
        elif isinstance(node, Rel):
            relation = self._database.relation(node.name)
            rows = len(relation)
            entry = _PlanEntry("scan", rows, detail=node.name)
            self.stats.op("scan").record(0, rows)
        elif isinstance(node, Empty):
            relation = Relation(node.schema, ())
            entry = _PlanEntry("empty", 0)
        elif isinstance(node, (Union, Difference)):
            relation, entry = self._evaluate_set_op(node)
        else:
            raise TypeError(f"unknown expression node {node!r}")
        entry.wall_seconds = time.perf_counter() - start
        self._local[key] = relation
        if shared is not None:
            shared._results[shared_key] = relation
        self._plans[key] = entry
        return relation

    def _evaluate_set_op(self, node: Expr) -> Tuple[Relation, _PlanEntry]:
        left = self._evaluate(node.left)
        right = self._evaluate(node.right)
        op_name = type(node).__name__.lower()
        with trace.span(f"engine.{op_name}", category="engine") as span:
            op_start = time.perf_counter()
            if isinstance(node, Union):
                relation = left.union(right)
            else:
                relation = left.difference(right)
            span.set(rows_in=len(left) + len(right), rows=len(relation))
        self.stats.op(op_name).record(
            len(left) + len(right),
            len(relation),
            time.perf_counter() - op_start,
        )
        return relation, _PlanEntry(
            op_name, len(relation), children=(node.left, node.right)
        )

    def _evaluate_region(self, node: Expr) -> Tuple[Relation, _PlanEntry]:
        region = self._region(node)
        with trace.span("engine.join_region", category="engine") as span:
            try:
                fault_point(ENGINE_PLAN)
                relation, entry = _RegionRun(self, region).run()
            except FaultError:
                # Injected planner failure (``engine.plan``): degrade
                # to structural evaluation of the region — same
                # result, no planning.
                relation = self._naive_region(node)
                entry = _PlanEntry(
                    "join-region",
                    len(relation),
                    detail="(planner fault: structural fallback)",
                )
            span.set(factors=len(entry.children), rows=len(relation))
        return relation, entry

    def _naive_region(self, node: Expr) -> Relation:
        """Structural evaluation of one σ/×/π/ρ region — the degraded
        path when a fault plan fails the planner at ``engine.plan``."""
        if isinstance(node, _REGION_TYPES):
            rels = [self._naive_region(child) for child in children(node)]
            return self._apply_node(node, rels)
        return self._evaluate(node)

    @staticmethod
    def _apply_node(node: Expr, child_rels: Sequence[Relation]) -> Relation:
        """Apply ``node``'s single σ/×/π/ρ operator to materialized
        children (``_naive_region`` evaluates every other node)."""
        if isinstance(node, Product):
            return child_rels[0].product(child_rels[1])
        if isinstance(node, Select):
            return child_rels[0].select(node.left, node.right, node.equal)
        if isinstance(node, Project):
            return child_rels[0].project(node.attrs)
        if isinstance(node, Rename):
            return child_rels[0].rename(node.old, node.new)
        raise TypeError(f"unknown expression node {node!r}")

    def _render(
        self,
        node: Expr,
        indent: int,
        lines: List[str],
        timings: bool,
        seen: Set[int],
    ) -> None:
        entry = self._plans[id(node)]
        pad = "  " * indent
        if not timings:
            suffix = ""
        elif entry.kind == "reused":
            # A cross-state cache hit did no operator work: label it
            # instead of printing a near-zero wall time that reads as
            # operator cost.
            suffix = "  [cached]"
        else:
            suffix = f"  [{entry.wall_seconds * 1e3:.2f} ms]"
        detail = f" {entry.detail}" if entry.detail else ""
        if id(node) in seen:
            # Common subexpression: evaluated once, cached thereafter.
            cached_suffix = "  [cached]" if timings else ""
            lines.append(
                f"{pad}{entry.kind}{detail}  rows={entry.rows}"
                f"  (shared subtree, cached){cached_suffix}"
            )
            return
        seen.add(id(node))
        lines.append(
            f"{pad}{entry.kind}{detail}  rows={entry.rows}{suffix}"
        )
        for step in entry.steps:
            lines.append(f"{pad}  | {step}")
        for child in entry.children:
            self._render(child, indent + 1, lines, timings, seen)


class _RegionRun:
    """One evaluation of a region plan: evaluates and prunes the
    factors, then joins them greedily by size."""

    def __init__(self, engine: QueryEngine, region: _Region) -> None:
        self._engine = engine
        self._region = region
        self._stats = engine.stats
        self._conditions = list(region.conditions)
        self._steps: List[str] = []
        # Per factor: the state's relation for a ``Rel`` node, whose
        # column indexes the index join probes (None otherwise).
        self._bases: List[Optional[Relation]] = []

    def _factor_relation(self, factor: _Factor) -> Relation:
        engine = self._engine
        relation = engine._evaluate(factor.node)
        if factor.renames:
            relation = relation._relabeled(factor.renamed)
            rename = self._stats.op("rename")
            for _ in factor.renames:
                rename.record(len(relation), len(relation))
        base = None
        if factor.base_name is not None:
            # The state's own relation object (the memo may serve an
            # equal one from an earlier state): its indexes are the
            # ones updated() carries from state to state.
            base = engine._database.relation(factor.base_name)
        self._bases.append(base)
        if factor.pruned is None:
            return relation
        keep = factor.pruned.names
        start = time.perf_counter()
        if base is not None and len(keep) == 1:
            # One column of a base relation: its index's keys.
            keys = base.index(factor.kept[0])
            pruned = Relation._from_rows(factor.pruned, frozenset(zip(keys)))
            rows_in, note = len(keys), " (index keys)"
        else:
            pruned = relation._picked(factor.pruned, factor.kept)
            rows_in, note = len(relation), ""
        self._stats.op("project").record(
            rows_in, len(pruned), time.perf_counter() - start
        )
        self._steps.append(
            f"prune {factor.label} to "
            f"[{', '.join(keep)}]{note}  rows={len(pruned)}"
        )
        return pruned

    def _apply_local(self, current: Relation, names: frozenset) -> Relation:
        """Apply every condition whose attributes ``names`` (the
        columns of ``current``) all hold."""
        remaining: List[Condition] = []
        for left, right, equal in self._conditions:
            if left in names and right in names:
                start = time.perf_counter()
                filtered = current.select(left, right, equal)
                self._stats.op("select").record(
                    len(current),
                    len(filtered),
                    time.perf_counter() - start,
                )
                op = "=" if equal else "!="
                self._steps.append(
                    f"filter {left}{op}{right}  rows={len(filtered)}"
                )
                current = filtered
            else:
                remaining.append((left, right, equal))
        self._conditions = remaining
        return current

    def _hash_join(
        self,
        left: Relation,
        right: Relation,
        pairs: Sequence[Tuple[str, str]],
    ) -> Relation:
        """Equi-join the running intermediate ``left`` with a factor
        through :func:`hash_join`, recorded as one ``hash_join`` op."""
        start = time.perf_counter()
        result = hash_join(left, right, pairs)
        self._stats.hash_build_rows += min(len(left), len(right))
        self._stats.op("hash_join").record(
            len(left) + len(right),
            len(result),
            time.perf_counter() - start,
        )
        return result

    def _index_join(
        self,
        left: Relation,
        right: Relation,
        factor: _Factor,
        base: Relation,
        pairs: Sequence[Tuple[str, str]],
    ) -> Relation:
        """Equi-join the running intermediate ``left`` with the
        base-relation factor ``right``: each row of ``left`` looks its
        key up in the base relation's index on the first pair's column,
        and the other pairs filter the matches.  Same rows, schema and
        column order as :meth:`_hash_join`; recorded as one
        ``index_join`` op whose rows in are ``left`` plus the matches."""
        start = time.perf_counter()
        left_schema, right_schema = left.schema, right.schema
        (probe_attr, index_attr), *rest = pairs
        probe = left_schema.position(probe_attr)
        kept = factor.kept
        lookup = base.index(kept[right_schema.position(index_attr)]).get
        checks = [
            (left_schema.position(a), kept[right_schema.position(b)])
            for a, b in rest
        ]
        if len(kept) == base.schema.arity:
            pick = None
        elif len(kept) > 1:
            pick = itemgetter(*kept)
        else:
            pick = itemgetter(slice(kept[0], kept[0] + 1))
        rows = set()
        examined = 0
        for row in left.tuples:
            matches = lookup(row[probe])
            if not matches:
                continue
            examined += len(matches)
            for match in matches:
                if checks and any(row[a] != match[b] for a, b in checks):
                    continue
                rows.add(row + (match if pick is None else pick(match)))
        result = Relation._from_rows(left_schema.concat(right_schema), rows)
        self._stats.op("index_join").record(
            len(left) + examined,
            len(result),
            time.perf_counter() - start,
        )
        return result

    def _join(
        self,
        current: Relation,
        factor: Relation,
        index: int,
        pairs: Sequence[Tuple[str, str]],
    ) -> Tuple[Relation, str]:
        """One join step under the :data:`INDEX_JOIN_RATIO` size rule;
        returns the result and the join kind for ``explain``."""
        base = self._bases[index]
        if base is not None and INDEX_JOIN_RATIO * len(current) < len(factor):
            source = self._region.factors[index]
            return (
                self._index_join(current, factor, source, base, pairs),
                "index join",
            )
        return self._hash_join(current, factor, pairs), "hash join"

    def _connecting_pairs(
        self, current_names: frozenset, factor_names: frozenset
    ) -> List[Tuple[str, str]]:
        pairs = []
        for left, right, equal in self._conditions:
            if not equal:
                continue
            if left in current_names and right in factor_names:
                pairs.append((left, right))
            elif right in current_names and left in factor_names:
                pairs.append((right, left))
        return pairs

    def _consume_pairs(self, pairs: Sequence[Tuple[str, str]]) -> None:
        used = {(a, b) for a, b in pairs} | {(b, a) for a, b in pairs}
        self._conditions = [
            c
            for c in self._conditions
            if not (c[2] and (c[0], c[1]) in used)
        ]

    def _product(
        self, current: Relation, factor: Relation, index: int
    ) -> Relation:
        start = time.perf_counter()
        joined = current.product(factor)
        self._stats.op("product").record(
            len(current) + len(factor),
            len(joined),
            time.perf_counter() - start,
        )
        self._steps.append(
            f"product x {self._region.factors[index].label}"
            f"  rows={len(joined)}"
        )
        return joined

    def _greedy_join(self, relations: Sequence[Relation]) -> Relation:
        """Join the factors by size: seed with the smallest, then join
        the smallest remaining factor an equality connects to the
        running result, or take the product with the smallest remaining
        factor when none is connected.  Ties go by factor position."""
        factors = self._region.factors
        # A stable sort: equal sizes keep their factor order.
        remaining = sorted(
            range(len(relations)), key=[len(r) for r in relations].__getitem__
        )
        seed_index = remaining.pop(0)
        current = relations[seed_index]
        self._steps.append(
            f"seed {factors[seed_index].label}  rows={len(current)}"
        )
        current_names = factors[seed_index].columns
        current = self._apply_local(current, current_names)
        while remaining:
            for position, index in enumerate(remaining):
                pairs = self._connecting_pairs(
                    current_names, factors[index].columns
                )
                if pairs:
                    break
            else:
                position = 0  # nothing connected: product, smallest first
            index = remaining.pop(position)
            factor = relations[index]
            current_names = current_names | factors[index].columns
            if pairs:
                current, how = self._join(current, factor, index, pairs)
                self._consume_pairs(pairs)
                conds = ", ".join(f"{a}={b}" for a, b in pairs)
                self._steps.append(
                    f"{how} {factors[index].label} "
                    f"on ({conds})  rows={len(current)}"
                )
            else:
                current = self._product(current, factor, index)
            current = self._apply_local(current, current_names)
        return current

    def run(self) -> Tuple[Relation, _PlanEntry]:
        region = self._region
        relations = [self._factor_relation(f) for f in region.factors]
        if not all(relations):
            # Every factor participates in the join, so one empty factor
            # empties the region.
            self._steps.append("empty factor short-circuits the region")
            entry = _PlanEntry(
                "join-region",
                0,
                detail=region.detail,
                steps=self._steps,
                children=region.nodes,
            )
            return Relation._from_rows(region.schema, ()), entry

        current = self._greedy_join(relations)
        if self._conditions:
            raise RelationError(
                f"join planning left conditions {self._conditions} "
                f"unapplied; available attributes "
                f"{list(current.schema.names)}"
            )
        expected = region.schema.names
        if current.schema.names != expected:
            start = time.perf_counter()
            projected = current.project(expected)
            self._stats.op("project").record(
                len(current), len(projected), time.perf_counter() - start
            )
            self._steps.append(
                f"project [{', '.join(expected)}]  rows={len(projected)}"
            )
            current = projected
        entry = _PlanEntry(
            "join-region",
            len(current),
            detail=region.detail,
            steps=self._steps,
            children=region.nodes,
        )
        return current, entry


def factor_label(node: Expr) -> str:
    """A short human-readable label for a plan factor."""
    if isinstance(node, Rel):
        return f"scan {node.name}"
    if isinstance(node, Empty):
        return "empty"
    return type(node).__name__.lower()
