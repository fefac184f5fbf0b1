"""The query engine's plan and counters, on the Section 7 workload.

Section 6 argues parallel application wins because its "one single
relational algebra expression per property ... can be optimized and is
then executed only once".  This example makes the *why* visible: it
evaluates the ``par(E)`` statement of the salary update (B') through the
memoizing engine, prints the plan ``explain()`` chose (join order,
condition placement, per-step row counts), re-evaluates to show the
cache serving the repeat, and dumps the per-operator counters.

It then goes *across states*: after the update writes one
``Employee.salary`` edge, a fresh engine sharing the same
:class:`EngineCache` serves the whole statement from the
fingerprint-keyed memo (``cross_state_hits``).

Run:  python examples/engine_explain.py
"""

from repro.core.receiver import Receiver
from repro.graph.instance import Obj
from repro.parallel.apply import (
    parallel_database,
    parallel_statement_expression,
)
from repro.relational.delta import single_row_change
from repro.relational.engine import EngineCache, QueryEngine
from repro.sqlsim.scenarios import make_company, tables_to_instance
from repro.sqlsim.scenarios import scenario_b_method


def main() -> None:
    method = scenario_b_method()
    employees, _, newsal = make_company(12, seed=7)
    instance = tables_to_instance(employees, newsal=newsal)
    receivers = [
        Receiver([Obj("Employee", r["EmpId"]), Obj("Money", r["Salary"])])
        for r in employees
    ]
    database = parallel_database(method, instance, receivers)
    cache = EngineCache()
    engine = QueryEngine(database, cache=cache)

    expr = parallel_statement_expression(method, "salary")
    print("=== plan for par(E_salary) over 12 employees (cold) ===")
    print(engine.explain(expr))

    relation = engine.evaluate(expr)
    print(f"\nresult: {len(relation)} (self, salary) pairs")

    hits_before = engine.stats.cache_hits
    engine.evaluate(expr)
    print(
        f"re-evaluation: {engine.stats.cache_hits - hits_before} cache "
        "hit(s), zero operator work"
    )

    # ------------------------------------------------------------------
    # Cross-state reuse: the update writes one Employee.salary edge.
    # The statement only reads NewSal.new/NewSal.old/rec, so its base
    # fingerprints are unchanged — a fresh engine over the new state
    # finds every subtree in the shared cache.
    # ------------------------------------------------------------------
    written_edge = min(database.relation("Employee.salary").tuples)
    updated = database.apply_delta(
        single_row_change("Employee.salary", written_edge, insert=False)
    )
    fresh = QueryEngine(updated, cache=cache)
    fresh.evaluate(expr)
    print(
        "\n=== after writing one Employee.salary edge "
        "(fresh engine, shared cache) ==="
    )
    print(fresh.explain(expr))
    print(f"cross-state hits: {fresh.stats.cross_state_hits}")

    print("\n=== engine counters (cross-state engine) ===")
    print(fresh.stats.render())


if __name__ == "__main__":
    from repro.obs.cli import run_traced

    run_traced(main, "example.engine_explain")
