"""Shared fixtures and builders for the benchmark harness.

Every benchmark regenerates one of the experiment series listed in
DESIGN.md's per-experiment index; EXPERIMENTS.md records the measured
shapes against the paper's claims.

Measurements flow through :func:`benchmarks.harness.measure` (or, for
the hand-timed acceptance gates, :func:`record_timing` directly) into a
session-wide series table.  At session end the table is written in the
shared metrics-JSON schema (:data:`repro.obs.export.METRICS_SCHEMA`),
one file per subsystem chosen by series-name prefix (:data:`_ROUTES`;
everything else goes to ``BENCH_ENGINE_JSON``, default
``BENCH_engine.json``), which CI uploads as artifacts.  The write
*merges by key* with whatever the file already holds — series
accumulate a perf trajectory across runs instead of being overwritten —
and carries a snapshot of the global metrics registry (engine counters,
chase step histograms, fan-out gauges) alongside the timings.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

from repro.core.receiver import Receiver
from repro.graph.instance import Edge, Instance, Obj

_SERIES: Dict[str, List[float]] = {}
#: Series recorded with ``better="higher"`` (speedups, hit rates).
_BETTER: Dict[str, str] = {}

#: Series-name prefix -> (env var, default file, suite label).  Each
#: subsystem's series go to their own artifact; names matching no
#: prefix go to the engine dump (:data:`_ENGINE_ROUTE`).
_ROUTES: Dict[str, Tuple[str, str, str]] = {
    "store.": ("BENCH_STORE_JSON", "BENCH_store.json", "store"),
    "resilience.": (
        "BENCH_RESILIENCE_JSON",
        "BENCH_resilience.json",
        "resilience",
    ),
    "obs.": ("BENCH_OBS_JSON", "BENCH_obs.json", "obs"),
    "server.": ("BENCH_SERVER_JSON", "BENCH_server.json", "server"),
    "fleet.": ("BENCH_FLEET_JSON", "BENCH_fleet.json", "fleet"),
}
_ENGINE_ROUTE = ("BENCH_ENGINE_JSON", "BENCH_engine.json", "benchmarks")


def record_timing(name: str, seconds: float, better: str = "lower") -> None:
    """Record one measured point in the session's metrics series.

    ``better="higher"`` marks a series whose rise is an improvement
    (a speedup, a hit rate); ``regress.py`` then flags it when it falls.
    """
    _SERIES.setdefault(name, []).append(seconds)
    _BETTER[name] = better


def _route(name: str) -> Tuple[str, str, str]:
    for prefix, route in _ROUTES.items():
        if name.startswith(prefix):
            return route
    return _ENGINE_ROUTE


def pytest_sessionfinish(session, exitstatus):
    if not _SERIES:
        return
    from repro.obs.export import metrics_dump, write_metrics
    from repro.obs.metrics import global_registry

    grouped: Dict[Tuple[str, str, str], Dict[str, List[float]]] = {}
    for name, values in _SERIES.items():
        grouped.setdefault(_route(name), {})[name] = values
    for (env_var, default, suite), series in grouped.items():
        document = metrics_dump(
            series, registry=global_registry(), suite=suite, better=_BETTER
        )
        write_metrics(os.environ.get(env_var, default), document)


def chain_instance(length: int) -> Instance:
    """A directed e-chain over the Example 6.4 schema."""
    from repro.algebraic.specimens import tc_schema

    schema = tc_schema()
    nodes = [Obj("C", i) for i in range(length)]
    edges = [Edge(nodes[i], "e", nodes[i + 1]) for i in range(length - 1)]
    return Instance(schema, nodes, edges)


def company_instance_and_receivers(n_employees: int, seed: int = 7):
    """The Section 7 company as an object base plus the (B') key set."""
    from repro.sqlsim.scenarios import make_company, tables_to_instance

    employees, _, newsal = make_company(n_employees, seed=seed)
    instance = tables_to_instance(employees, newsal=newsal)
    receivers = [
        Receiver([Obj("Employee", r["EmpId"]), Obj("Money", r["Salary"])])
        for r in employees
    ]
    return employees, newsal, instance, receivers
