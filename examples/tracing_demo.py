"""One trace across every layer of the Section 7 worked example.

The paper's Section 7 walks the company database through cursor-based
and set-oriented updates, then re-expresses them as algebraic methods
so the Theorem 5.12 decision procedure can tell the safe ones from the
order-dependent ones.  This demo runs that whole arc under a single
tracer:

* **sqlsim** — the set-oriented manager-based firing and the cursor
  salary update (B), spans ``sqlsim.set_delete`` /
  ``sqlsim.cursor_loop`` under their scenario spans;
* **engine** — the ``par(E)`` statement of the algebraic twin (B')
  evaluated through the memoizing engine (``engine.evaluate``,
  ``engine.join_region``, cache-hit instant events);
* **parallel** — ``M_par`` applied to the (B') key set, its
  ``parallel.statement`` span nested under the ``parallel.apply``
  batch span;
* **chase / decision** — the decision procedure on (B') and on the
  order-dependent (C'), with per-chase-step spans and the
  representative-set-size gauge.

Outputs (to the current directory):

* ``trace_section7.json`` — a Chrome ``trace_event`` dump; open it in
  ``about://tracing`` or https://ui.perfetto.dev to see the layers on
  their thread tracks;
* ``metrics_section7.json`` — the shared metrics-JSON schema with the
  global registry snapshot (chase steps, fan-out width, sqlsim
  statement counts).

Run:  python examples/tracing_demo.py
"""

from repro.algebraic.decision import (
    decide_key_order_independence,
    decide_order_independence,
)
from repro.core.receiver import Receiver
from repro.graph.instance import Obj
from repro.obs import (
    metrics_dump,
    render_tree,
    tracing,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics,
)
from repro.obs.metrics import global_registry
from repro.parallel.apply import apply_parallel
from repro.sqlsim.scenarios import (
    fire_by_manager_set,
    make_company,
    salary_update_cursor,
    scenario_b_method,
    scenario_c_method,
    tables_to_instance,
)

TRACE_PATH = "trace_section7.json"
METRICS_PATH = "metrics_section7.json"


def main() -> None:
    with tracing() as tracer:
        # -- sqlsim: the table-level Section 7 updates ------------------
        employees, fire, newsal = make_company(n_employees=12)
        fired = fire_by_manager_set(employees, fire)
        updated = salary_update_cursor(employees, newsal)

        # -- parallel + engine: the algebraic twin (B') on a key set
        # (a fresh company — the one above already had its salaries
        # rewritten, so its NewSal lookups would all come up empty) ----
        method_b = scenario_b_method()
        fresh, _, fresh_newsal = make_company(n_employees=12, seed=11)
        instance = tables_to_instance(fresh, newsal=fresh_newsal)
        receivers = [
            Receiver(
                [Obj("Employee", r["EmpId"]), Obj("Money", r["Salary"])]
            )
            for r in fresh
        ]
        apply_parallel(method_b, instance, receivers)

        # -- chase + decision: (B') is key-order independent, (C') is
        # not; both runs chase the reduction's dependencies ------------
        assert decide_key_order_independence(method_b).order_independent
        assert not decide_order_independence(
            scenario_c_method()
        ).order_independent

    print(f"fired {fired}, updated {updated} employees")
    print()
    print(render_tree(tracer, max_events=3, self_time=True))

    trace = write_chrome_trace(tracer, TRACE_PATH)
    problems = validate_chrome_trace(trace)
    assert not problems, problems
    categories = {
        event.get("cat")
        for event in trace["traceEvents"]
        if event["ph"] in ("X", "i")
    }
    assert {"sqlsim", "parallel", "engine", "decision", "chase"} <= (
        categories
    )

    registry = global_registry()
    write_metrics(METRICS_PATH, metrics_dump({}, registry=registry))
    print()
    print(f"wrote {TRACE_PATH} ({len(trace['traceEvents'])} events, "
          f"categories: {', '.join(sorted(c for c in categories if c))})")
    print(f"wrote {METRICS_PATH} (registry snapshot: "
          f"{len(registry.counters())} counters, "
          f"{len(registry.gauges())} gauges, "
          f"{len(registry.histograms())} histograms)")


if __name__ == "__main__":
    from repro.obs.cli import run_traced

    run_traced(main, "example.tracing_demo")
