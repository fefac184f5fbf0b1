"""A memoizing, instrumented query engine over the relational algebra.

Section 6's efficiency argument — "one single relational algebra
expression per property to be updated; this expression can be optimized
and is then executed only once" — presumes an engine that actually
reuses work.  The recursive evaluators in
:mod:`repro.relational.evaluate` and :mod:`repro.relational.optimizer`
re-evaluate a shared subtree once *per occurrence*: ``par(E)``
(Definition 6.1) duplicates the statement body inside its natural-join
expansion, and the Theorem 5.6 reduction substitutes ``E_b[t]`` at every
occurrence of an updated property relation.

:class:`QueryEngine` fixes that in three layers:

* **Structural hashing / CSE.**  :class:`Interner` hash-conses ``Expr``
  trees bottom-up, so structurally equal subtrees become the *same*
  object and equality is identity.  The engine caches every evaluated
  node by identity; a subtree shared between the statements of
  ``M_par``, the guard factors of the reduction, or repeated
  decision-procedure calls is evaluated once per database state.

* **Deep pushdown and size-ordered joins.**  Where the optimizer's
  ``_flatten`` stops at ``Rename``/``Project`` barriers, the engine's
  planner flattens through them (renaming projected-away columns apart),
  prunes unused columns before joining, and joins by factor size: it
  seeds with the smallest factor, then joins the smallest remaining
  factor an equality connects to the running result, or takes the
  product with the smallest remaining factor when none is connected
  (ties go by factor position, so the plan is deterministic).  A base
  relation joined to a running intermediate at least
  :data:`INDEX_JOIN_RATIO` times smaller is probed through its column
  index (:meth:`~repro.relational.relation.Relation.index`) instead of
  scanned, and a base relation pruned to one column is read off that
  column's index keys, so a region seeded from a small relation such
  as ``rec`` costs its own size, not the state's.

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
  ``reused``).

Results are always identical to
:func:`repro.relational.evaluate.evaluate` (the differential-testing
oracle, together with ``evaluate_optimized``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import itemgetter
from typing import (
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.obs import tracer as trace
from repro.obs.metrics import MetricsRegistry, global_registry
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
from repro.relational.database import Database, DatabaseSchema
from repro.relational.evaluate import infer_schema
from repro.relational.optimizer import hash_join
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


# ----------------------------------------------------------------------
# Structural hashing / common-subexpression elimination
# ----------------------------------------------------------------------
class Interner:
    """Hash-consing of algebra expressions.

    ``intern`` rebuilds a tree bottom-up, returning a canonical node per
    structure: after interning, structural equality is object identity,
    so memo tables can key on ``id()`` and shared subtrees are stored
    once.  Keys are built from interned child identities, which makes
    interning linear in the tree size (no deep comparisons).
    """

    def __init__(self) -> None:
        self._table: Dict[tuple, Expr] = {}

    def __len__(self) -> int:
        return len(self._table)

    def intern(self, expr: Expr) -> Expr:
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
        canonical = self._table.get(key)
        if canonical is None:
            self._table[key] = node
            canonical = node
        return canonical


#: Process-wide interner: expressions interned through it share structure
#: across engines, so a new engine (new database state) still benefits
#: from one-time interning work done by builders like the reduction.
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
    and is re-served instead of re-evaluated.  Inferred schemas are
    shared the same way (keyed by the base relations' *schemas*, the
    only database input of schema inference).

    The cache grows with the number of distinct (subtree, state)
    combinations it has seen; call :meth:`clear` between unrelated
    workloads to release memory.
    """

    def __init__(self) -> None:
        self.interner = Interner()
        self._results: Dict[Tuple[int, Tuple[int, ...]], Relation] = {}
        self._schemas: Dict[tuple, RelationSchema] = {}
        self._base_rels: Dict[int, Tuple[str, ...]] = {}

    def __len__(self) -> int:
        return len(self._results)

    def clear(self) -> None:
        """Drop all memoized results and schemas (keep the interner)."""
        self._results.clear()
        self._schemas.clear()

    def base_relations(self, node: Expr) -> Tuple[str, ...]:
        """The sorted names of base relations ``node`` references.

        ``node`` must be interned through this cache's interner, so the
        memo can key on object identity.
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

    def result_key(
        self, node: Expr, database: Database
    ) -> Tuple[int, Tuple[int, ...]]:
        """The memo key of ``node`` evaluated against ``database``."""
        return (
            id(node),
            tuple(
                database.relation(name).fingerprint
                for name in self.base_relations(node)
            ),
        )

    def lookup(
        self, key: Tuple[int, Tuple[int, ...]]
    ) -> Optional[Relation]:
        return self._results.get(key)

    def store(
        self, key: Tuple[int, Tuple[int, ...]], relation: Relation
    ) -> None:
        self._results[key] = relation

    def schema_key(self, node: Expr, db_schema: DatabaseSchema) -> tuple:
        return (
            id(node),
            tuple(
                db_schema.relation_schema(name)
                for name in self.base_relations(node)
            ),
        )

    def lookup_schema(self, key: tuple) -> Optional[RelationSchema]:
        return self._schemas.get(key)

    def store_schema(self, key: tuple, schema: RelationSchema) -> None:
        self._schemas[key] = schema


# ----------------------------------------------------------------------
# Instrumentation
# ----------------------------------------------------------------------
def _counter_property(field_name: str) -> property:
    """An attribute that reads/writes a bound registry counter, so the
    historical ``stats.cache_hits += 1`` call sites keep working."""

    def fget(self):
        return self._counters[field_name].value

    def fset(self, value):
        self._counters[field_name].value = value

    return property(fget, fset)


class OperatorStats:
    """Counters for one physical operator kind.

    A view over the owning registry's ``engine.op.<name>.*`` counters:
    the attribute API (``calls``, ``rows_in``, ``rows_out``,
    ``wall_seconds``) is unchanged, but the numbers live in the
    :class:`~repro.obs.metrics.MetricsRegistry`, where exporters and
    the benchmark harness can read them alongside every other metric.
    """

    __slots__ = ("_counters",)

    _FIELDS = ("calls", "rows_in", "rows_out", "wall_seconds")

    def __init__(self, registry: MetricsRegistry, name: str) -> None:
        prefix = f"engine.op.{name}."
        self._counters = {
            field_name: registry.counter(prefix + field_name)
            for field_name in self._FIELDS
        }

    calls = _counter_property("calls")
    rows_in = _counter_property("rows_in")
    rows_out = _counter_property("rows_out")
    wall_seconds = _counter_property("wall_seconds")

    def record(
        self, rows_in: int, rows_out: int, wall_seconds: float = 0.0
    ) -> None:
        counters = self._counters
        counters["calls"].value += 1
        counters["rows_in"].value += rows_in
        counters["rows_out"].value += rows_out
        counters["wall_seconds"].value += wall_seconds


class EngineStats:
    """Cache and per-operator counters of one :class:`QueryEngine`.

    Since the observability layer landed this is a *view* over a
    :class:`~repro.obs.metrics.MetricsRegistry` (``engine.*`` names):
    every attribute read/write goes through the registry's counters, so
    ``stats.cache_hits`` and
    ``stats.registry.counter("engine.cache_hits").value`` are the same
    number, and a registry shared across engines (sequential update
    steps, replay loops) accumulates over all of them.  The attribute
    API, :meth:`render` and :meth:`op` are unchanged from the dataclass
    era.
    """

    __slots__ = ("registry", "_counters", "operators")

    _FIELDS = (
        "cache_hits",
        "cache_misses",
        "cross_state_hits",
        "hash_build_rows",
        "plan_cache_hits",
        "plan_cache_misses",
    )

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._counters = {
            field_name: self.registry.counter(f"engine.{field_name}")
            for field_name in self._FIELDS
        }
        self.operators: Dict[str, OperatorStats] = {}

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
            stats = self.operators[name] = OperatorStats(
                self.registry, name
            )
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
    steps: Tuple[str, ...] = ()
    children: Tuple[Expr, ...] = ()
    wall_seconds: float = 0.0


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
@dataclass
class _Factor:
    """A join-region factor: an interned node plus pending renames.

    For a ``Rel`` node, ``base`` is the state's relation, whose column
    indexes the index join probes, and ``kept`` holds, per column of
    the factor's pruned relation, that column's position in ``base``
    (renames keep positions)."""

    node: Expr
    names: Tuple[str, ...]
    renames: List[Tuple[str, str]]
    base: Optional[Relation] = None
    kept: Tuple[int, ...] = ()


class QueryEngine:
    """Memoizing, instrumented evaluator bound to one database state.

    Create one engine per database; evaluate as many expressions as you
    like through it — structurally shared subtrees (after interning) are
    computed once.  ``evaluate`` always returns the same relation as the
    naive evaluator.

    Pass a shared :class:`EngineCache` to make the memo survive state
    changes: engines for successive states of an update sequence then
    re-serve every subtree whose referenced base relations kept their
    content fingerprints (``stats.cross_state_hits``).
    """

    def __init__(
        self,
        database: Database,
        cache: Optional[EngineCache] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self._database = database
        self._db_schema: DatabaseSchema = database.schema
        if cache is None:
            cache = EngineCache()
        self._shared = cache
        self._interner = cache.interner
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
    def cache(self) -> EngineCache:
        """The (possibly shared) cross-state cache backing this engine."""
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
        with budget_applied(budget):
            node = self.intern(expr)
            tracer = trace.active()
            if tracer is None:
                return self._evaluate(node)
            with tracer.span(
                "engine.evaluate", category="engine"
            ) as span:
                relation = self._evaluate(node)
                span.set(rows=len(relation))
        return relation

    def schema(self, expr: Expr) -> RelationSchema:
        """Memoized :func:`infer_schema` of ``expr``."""
        return self._schema(self.intern(expr))

    def explain(self, expr: Expr, timings: bool = False) -> str:
        """Render the plan actually used for ``expr``.

        Evaluates the expression first (through the cache), then walks
        the recorded per-node plan entries.  Without ``timings`` the
        output is deterministic for a given database state.
        """
        node = self.intern(expr)
        self._evaluate(node)
        lines: List[str] = []
        self._render(node, 0, lines, timings, set())
        return "\n".join(lines)

    # -- internals -----------------------------------------------------
    def _schema(self, node: Expr) -> RelationSchema:
        key = id(node)
        schema = self._schemas.get(key)
        if schema is None:
            shared_key = self._shared.schema_key(node, self._db_schema)
            schema = self._shared.lookup_schema(shared_key)
            if schema is None:
                schema = infer_schema(node, self._db_schema)
                self._shared.store_schema(shared_key, schema)
            self._schemas[key] = schema
        return schema

    def _evaluate(self, node: Expr) -> Relation:
        # One cooperative budget step per visited node (cache hits
        # included — a hit still bounds the walk, not the work).
        budget_tick("engine.node")
        key = id(node)
        cached = self._local.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            trace.event("engine.cache_hit", category="engine")
            return cached
        shared_key = self._shared.result_key(node, self._database)
        shared = self._shared.lookup(shared_key)
        if shared is not None:
            # Another engine (e.g. one bound to an earlier database
            # state) already computed this subtree over identical
            # base-relation contents.
            self.stats.cross_state_hits += 1
            trace.event("engine.cross_state_hit", category="engine")
            self._local[key] = shared
            self._plans[key] = _PlanEntry(
                "reused", len(shared), detail="(cross-state cache)"
            )
            return shared
        self.stats.cache_misses += 1
        start = time.perf_counter()
        if isinstance(node, (Select, Product, Project, Rename)):
            with trace.span(
                "engine.join_region", category="engine"
            ) as span:
                try:
                    relation, entry = _RegionPlanner(self, node).run()
                except FaultError:
                    # Injected planner failure (``engine.plan``):
                    # degrade to structural evaluation of the region —
                    # same result, no planning.
                    relation = self._naive_region(node)
                    entry = _PlanEntry(
                        "join-region",
                        len(relation),
                        detail="(planner fault: structural fallback)",
                    )
                span.set(factors=len(entry.children), rows=len(relation))
            global_registry().histogram("engine.region.tuple_ms").observe(
                (time.perf_counter() - start) * 1000.0
            )
        elif isinstance(node, Rel):
            relation = self._database.relation(node.name)
            entry = _PlanEntry("scan", len(relation), detail=node.name)
            self.stats.op("scan").record(0, len(relation))
        elif isinstance(node, Empty):
            relation = Relation(node.schema, ())
            entry = _PlanEntry("empty", 0)
        elif isinstance(node, (Union, Difference)):
            left = self._evaluate(node.left)
            right = self._evaluate(node.right)
            op_name = type(node).__name__.lower()
            with trace.span(f"engine.{op_name}", category="engine") as span:
                op_start = time.perf_counter()
                if isinstance(node, Union):
                    relation = left.union(right)
                else:
                    relation = left.difference(right)
                span.set(
                    rows_in=len(left) + len(right), rows=len(relation)
                )
            self.stats.op(op_name).record(
                len(left) + len(right),
                len(relation),
                time.perf_counter() - op_start,
            )
            entry = _PlanEntry(
                op_name, len(relation), children=(node.left, node.right)
            )
        else:
            raise TypeError(f"unknown expression node {node!r}")
        entry.wall_seconds = time.perf_counter() - start
        self._local[key] = relation
        self._shared.store(shared_key, relation)
        self._plans[key] = entry
        return relation

    def _naive_region(self, node: Expr) -> Relation:
        """Structural evaluation of one σ/×/π/ρ region — the degraded
        path when a fault plan fails the planner at ``engine.plan``."""
        if isinstance(node, (Select, Product, Project, Rename)):
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


class _RegionPlanner:
    """Plans and executes one ``Select``/``Product``/``Project``/``Rename``
    region: deep flatten, column pruning, greedy join by factor size.
    """

    def __init__(self, engine: QueryEngine, root: Expr) -> None:
        self._engine = engine
        self._root = root
        self._stats = engine.stats
        self._factors: List[_Factor] = []
        self._conditions: List[Condition] = []
        self._steps: List[str] = []
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
                self._used_names.update(engine._schema(sub).names)
        self._hidden_count = 0

    # -- flattening ----------------------------------------------------
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
        for factor in self._factors[factor_start:]:
            if old in factor.names:
                factor.names = tuple(
                    new if n == old else n for n in factor.names
                )
                factor.renames.append((old, new))
        for index in range(cond_start, len(self._conditions)):
            left, right, equal = self._conditions[index]
            if old in (left, right):
                self._conditions[index] = (
                    new if left == old else left,
                    new if right == old else right,
                    equal,
                )

    def _flatten(self, node: Expr) -> Tuple[str, ...]:
        """Append ``node``'s factors and conditions; return its visible
        attribute names (in output order)."""
        if isinstance(node, Select):
            names = self._flatten(node.child)
            self._conditions.append((node.left, node.right, node.equal))
            return names
        if isinstance(node, Product):
            left = self._flatten(node.left)
            right = self._flatten(node.right)
            return left + right
        if isinstance(node, Rename):
            factor_start = len(self._factors)
            cond_start = len(self._conditions)
            names = self._flatten(node.child)
            self._rename_region(
                factor_start, cond_start, node.old, node.new
            )
            return tuple(node.new if n == node.old else n for n in names)
        if isinstance(node, Project):
            factor_start = len(self._factors)
            cond_start = len(self._conditions)
            names = self._flatten(node.child)
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
        names = self._engine._schema(node).names
        self._factors.append(_Factor(node, names, []))
        return names

    # -- execution -----------------------------------------------------
    def _factor_relation(self, factor: _Factor, needed: Set[str]) -> Relation:
        relation = self._engine._evaluate(factor.node)
        for old, new in factor.renames:
            relation = relation.rename(old, new)
            self._stats.op("rename").record(len(relation), len(relation))
        names = relation.schema.names
        factor.kept = tuple(i for i, n in enumerate(names) if n in needed)
        if isinstance(factor.node, Rel):
            # The state's own relation object (the memo may serve an
            # equal one from an earlier state): its indexes are the
            # ones updated() carries from state to state.
            factor.base = self._engine._database.relation(factor.node.name)
        if len(factor.kept) != len(names):
            keep = [names[i] for i in factor.kept]
            start = time.perf_counter()
            if factor.base is not None and len(keep) == 1:
                # One column of a base relation: its index's keys.
                keys = factor.base.index(factor.kept[0])
                pruned = Relation._from_rows(
                    relation.schema.project(keep), frozenset(zip(keys))
                )
                rows_in, note = len(keys), " (index keys)"
            else:
                pruned = relation.project(keep)
                rows_in, note = len(relation), ""
            self._stats.op("project").record(
                rows_in, len(pruned), time.perf_counter() - start
            )
            self._steps.append(
                f"prune {factor_label(factor.node)} to "
                f"[{', '.join(keep)}]{note}  rows={len(pruned)}"
            )
            relation = pruned
        return relation

    def _apply_local(self, current: Relation) -> Relation:
        names = set(current.schema.names)
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
        lookup = factor.base.index(kept[right_schema.position(index_attr)]).get
        checks = [
            (left_schema.position(a), kept[right_schema.position(b)])
            for a, b in rest
        ]
        if len(kept) == factor.base.schema.arity:
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
        source = self._factors[index]
        if source.base is not None and INDEX_JOIN_RATIO * len(current) < len(factor):
            return self._index_join(current, factor, source, pairs), "index join"
        return self._hash_join(current, factor, pairs), "hash join"

    def _connecting_pairs(
        self, current_names: Set[str], factor_names: Set[str]
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
            f"product x {factor_label(self._factors[index].node)}"
            f"  rows={len(joined)}"
        )
        return joined

    def _greedy_join(self, relations: Sequence[Relation]) -> Relation:
        """Join the factors by size: seed with the smallest, then join
        the smallest remaining factor an equality connects to the
        running result, or take the product with the smallest remaining
        factor when none is connected.  Ties go by factor position."""
        remaining = sorted(
            range(len(relations)), key=lambda i: (len(relations[i]), i)
        )
        seed_index = remaining.pop(0)
        current = relations[seed_index]
        self._steps.append(
            f"seed {factor_label(self._factors[seed_index].node)}"
            f"  rows={len(current)}"
        )
        current = self._apply_local(current)

        while remaining:
            current_names = set(current.schema.names)
            for position, index in enumerate(remaining):
                pairs = self._connecting_pairs(
                    current_names, set(relations[index].schema.names)
                )
                if pairs:
                    break
            else:
                position = 0  # nothing connected: product, smallest first
            index = remaining.pop(position)
            factor = relations[index]
            if pairs:
                current, how = self._join(current, factor, index, pairs)
                self._consume_pairs(pairs)
                conds = ", ".join(f"{a}={b}" for a, b in pairs)
                self._steps.append(
                    f"{how} {factor_label(self._factors[index].node)} "
                    f"on ({conds})  rows={len(current)}"
                )
            else:
                current = self._product(current, factor, index)
            current = self._apply_local(current)
        return current

    def run(self) -> Tuple[Relation, _PlanEntry]:
        fault_point(ENGINE_PLAN)
        output = self._flatten(self._root)
        expected = self._engine._schema(self._root).names
        needed = set(expected)
        for left, right, _ in self._conditions:
            needed.add(left)
            needed.add(right)
        factor_nodes = tuple(f.node for f in self._factors)
        relations = [
            self._factor_relation(f, needed) for f in self._factors
        ]

        if any(r.is_empty() for r in relations):
            # Every factor participates in the join, so one empty factor
            # empties the region.
            self._steps.append("empty factor short-circuits the region")
            relation = Relation(
                self._engine._schema(self._root), ()
            )
            entry = _PlanEntry(
                "join-region",
                0,
                detail=self._region_detail(output),
                steps=tuple(self._steps),
                children=factor_nodes,
            )
            return relation, entry

        current = self._greedy_join(relations)
        if self._conditions:
            raise RelationError(
                f"join planning left conditions {self._conditions} "
                f"unapplied; available attributes "
                f"{list(current.schema.names)}"
            )
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
            detail=self._region_detail(output),
            steps=tuple(self._steps),
            children=factor_nodes,
        )
        return current, entry

    def _region_detail(self, output: Tuple[str, ...]) -> str:
        return (
            f"({len(self._factors)} factors -> "
            f"[{', '.join(output)}])"
        )


def factor_label(node: Expr) -> str:
    """A short human-readable label for a plan factor."""
    if isinstance(node, Rel):
        return f"scan {node.name}"
    if isinstance(node, Empty):
        return "empty"
    return type(node).__name__.lower()
