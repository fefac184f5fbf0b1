"""Resilience primitives for the expensive paper procedures.

The decision machinery of Theorem 5.12 and the Theorem 6.5 parallelizer
are hyperexponential in the worst case; the store's commit escalation
runs them under concurrency.  This package makes "the analysis did not
finish in time" a first-class outcome instead of a hang:

* :mod:`~repro.resilience.budget` — cooperative deadlines, step caps,
  and cancellation (:class:`Budget`, :class:`CancelToken`,
  :func:`tick`); exhaustion raises :class:`BudgetExceeded`, which the
  decision entry points turn into the ``UNKNOWN`` verdict.
* :mod:`~repro.resilience.retry` — one exponential-backoff-with-full-
  jitter implementation (:func:`retry_call`, :class:`RetryPolicy`) for
  transaction retries and shard-worker restarts.
* :mod:`~repro.resilience.breaker` — a :class:`CircuitBreaker` guarding
  the store's semantic-commute tier against pathological schemas.
* :mod:`~repro.resilience.faults` — deterministic, seedable fault
  injection (:class:`FaultPlan`, :func:`fault_point`) at named sites in
  the engine, chase, ``M_par`` statements, and WAL.

Every primitive follows the :mod:`repro.obs` discipline: disabled cost
is one load and an ``is None`` test (gated ``<5%`` by
``benchmarks/bench_resilience.py``), and every outcome — exhaustion,
retry, breaker transition, injected fault — surfaces as a counter and
trace event.
"""

from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.resilience.budget import (
    Budget,
    BudgetExceeded,
    Cancelled,
    CancelToken,
    applied,
    current,
    tick,
)
from repro.resilience.faults import (
    CHASE_STEP,
    ENGINE_EVALUATE,
    KNOWN_SITES,
    PARALLEL_WORKER,
    SERVER_ACCEPT,
    SERVER_HANDLER,
    WAL_APPEND,
    CrashPoint,
    FaultError,
    FaultInjector,
    FaultPlan,
    FaultRule,
    fault_point,
)
from repro.resilience.retry import RetryPolicy, retry_call

__all__ = [
    "Budget",
    "BudgetExceeded",
    "CancelToken",
    "Cancelled",
    "CircuitBreaker",
    "CLOSED",
    "CHASE_STEP",
    "CrashPoint",
    "ENGINE_EVALUATE",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "HALF_OPEN",
    "KNOWN_SITES",
    "OPEN",
    "PARALLEL_WORKER",
    "RetryPolicy",
    "SERVER_ACCEPT",
    "SERVER_HANDLER",
    "WAL_APPEND",
    "applied",
    "current",
    "fault_point",
    "retry_call",
    "tick",
]
