"""Deterministic, seedable fault injection at named sites.

PR 4 proved the WAL's crash story with a special-purpose injector that
tears the Nth append.  This module generalizes the idea to the whole
stack: the four expensive layers expose **named fault sites** —

* :data:`ENGINE_EVALUATE` — entry of every engine evaluation,
* :data:`CHASE_STEP` — each applied chase rule,
* :data:`PARALLEL_WORKER` — each ``M_par`` statement, before its
  ``par(E_a)`` is evaluated,
* :data:`WAL_APPEND` — each log append, before any byte is written —

and a :class:`FaultPlan` injects **exceptions**, **delays**, or
**kill-points** (simulated process death, :class:`CrashPoint`) at them:
on the Nth hit of a site, or with a seeded per-hit probability, so a
chaos run is reproducible from ``(plan, seed)`` alone.  The chaos suite
(``tests/test_resilience_chaos.py``) kills every registered site and
asserts the store recovers to a committed prefix — the database is
either unchanged or fully applied, never a torn batch.

Instrumented code calls :func:`fault_point`, which is a no-op while no
plan is installed (one module-global load and an ``is None`` test, the
same fast-path discipline as the tracer and the budget tick).

:class:`FaultInjector` — the WAL-specific torn-append injector — moved
here from :mod:`repro.store.recovery` (which re-exports it); it
implements the :class:`repro.store.wal.FaultHook` protocol by duck
typing, so this module imports nothing from the store and the WAL can
import :func:`fault_point` without a cycle.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Type

from repro.obs import flight
from repro.obs import tracer as trace
from repro.obs.metrics import global_registry

# ----------------------------------------------------------------------
# Sites
# ----------------------------------------------------------------------
ENGINE_EVALUATE = "engine.evaluate"
ENGINE_PLAN = "engine.plan"
"""Entry of the join-region planner.  A recoverable :class:`FaultError`
here makes the engine fall back to the naive structural evaluation of
the region (same result, no planning); a kill crashes the evaluation."""
CHASE_STEP = "chase.step"
PARALLEL_WORKER = "parallel.worker"
WAL_APPEND = "wal.append"
WAL_COMPACT_REPLACE = "wal.compact.replace"
"""After ``os.replace`` swaps the compacted log in, before the parent
directory fsync makes the rename durable — the window where a crash
used to be able to resurrect the old log."""
SHARD_WORKER = "shard.worker"
"""Top of a shard worker's command loop, before the command executes.
A ``kill`` here makes the **worker process itself die** (flight
recorder flushed to its dump path, pipe left hanging), not a shipped
error — the crash-forensics path.  Deliberately *not* in
:data:`KNOWN_SITES`: the chaos suite's single-process workload never
crosses it; the fleet forensics test
(``tests/test_fleet_telemetry.py``) covers it instead."""
SHARD_RESTART = "shard.restart"
"""Top of every supervised worker-restart attempt, before the
replacement process is forked.  A ``kill`` or ``error`` makes that
attempt fail — exhausting the restart budget degrades the shard to
coordinator-side inline execution instead of failing the caller.
Like :data:`SHARD_WORKER`, not in :data:`KNOWN_SITES`: only the fleet
chaos tests (``tests/test_sharding.py``) cross it."""
SHARD_STAGE_FENCE = "shard.stage.fence"
"""Top of a shard backend's ``stage``, before the slice commits.  Inside
a worker process a ``kill`` here dies *mid-staging* — after the
coordinator decided, before the shard acked — the window the
supervisor's redo-after-restart must close; an ``error`` fails the
stage, which the cursor advance heals.  Not in :data:`KNOWN_SITES` for
the same reason as :data:`SHARD_WORKER`."""
SERVER_ACCEPT = "server.accept"
"""Entry of the network server's per-connection accept path, before a
session exists.  A ``kill`` drops the connection on the floor (the
client observes a clean EOF, the listener keeps serving); an ``error``
is swallowed the same way.  Like :data:`SHARD_WORKER`, not in
:data:`KNOWN_SITES` — the library-level chaos workload never opens a
socket; ``tests/test_server_chaos.py`` covers it under the same
seeds."""
SERVER_HANDLER = "server.handler"
"""Top of a request handler, after admission, before the session
executes the op.  A ``kill`` simulates the handler dying mid-request:
the server records ``server.handler_death`` in the flight ring and
ships the client a typed ``HANDLER_DEATH`` error instead of a torn
frame, and store atomicity holds (the transaction either never started
or committed in full).  Covered by ``tests/test_server_chaos.py``, not
:data:`KNOWN_SITES`."""

#: Every site the chaos suite must cover (one entry per instrumented
#: layer).  Keep in sync with the ``fault_point`` call sites.
KNOWN_SITES: Tuple[str, ...] = (
    ENGINE_EVALUATE,
    ENGINE_PLAN,
    CHASE_STEP,
    PARALLEL_WORKER,
    WAL_APPEND,
    WAL_COMPACT_REPLACE,
)


class FaultError(RuntimeError):
    """The default injected exception (a recoverable worker crash)."""


class CrashPoint(RuntimeError):
    """A simulated crash (process death at the injection site).

    Raised by kill rules and by :class:`FaultInjector`; chaos tests
    treat it as "the process died here" and recover from the WAL.
    """


# ----------------------------------------------------------------------
# Rules and plans
# ----------------------------------------------------------------------
@dataclass
class FaultRule:
    """One injection rule: *what* to do at *which* site, *when*.

    ``at`` fires on the Nth hit of the site (0-based, counted from plan
    installation); ``probability`` fires per hit with the plan's seeded
    RNG; exactly one of the two must be active.  ``times`` bounds how
    often the rule fires in total (``None`` = unlimited).
    """

    site: str
    action: str  # "error" | "delay" | "kill"
    at: Optional[int] = None
    probability: float = 0.0
    times: Optional[int] = 1
    delay_seconds: float = 0.0
    error_type: Type[BaseException] = FaultError
    fired: int = 0

    def __post_init__(self) -> None:
        if self.action not in ("error", "delay", "kill"):
            raise ValueError(f"unknown fault action {self.action!r}")
        if (self.at is None) == (self.probability <= 0.0):
            raise ValueError(
                "exactly one of at= or probability= must be set "
                f"(got at={self.at}, probability={self.probability})"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )

    def _matches(self, hit: int, rng: random.Random) -> bool:
        if self.times is not None and self.fired >= self.times:
            return False
        if self.at is not None:
            return hit == self.at
        return rng.random() < self.probability


@dataclass
class Firing:
    """One recorded rule firing (for test assertions and post-mortems)."""

    site: str
    action: str
    hit: int


class FaultPlan:
    """A seeded set of :class:`FaultRule` to run a workload under.

    Deterministic: the same plan (rules + seed) against the same
    single-threaded workload fires at exactly the same hits; with
    concurrent workloads, per-site hit counting is atomic but hit
    *interleaving* follows the scheduler.  Build with the chainable
    helpers and install with :meth:`installed` (or :func:`install`)::

        plan = (FaultPlan(seed=7)
                .kill_at(WAL_APPEND, at=2)
                .delay_at(ENGINE_EVALUATE, seconds=0.001, probability=0.2))
        with plan.installed():
            run_workload()
        assert plan.firings

    Sites hit at least once are recorded in :attr:`hits` — the chaos
    suite uses that to prove its workload actually crossed every
    registered site.
    """

    def __init__(self, seed: int = 0, sleep: Callable[[float], None] = time.sleep) -> None:
        self.seed = seed
        self.rules: List[FaultRule] = []
        self.hits: Dict[str, int] = {}
        self.firings: List[Firing] = []
        self._rng = random.Random(seed)
        self._sleep = sleep
        self._lock = threading.Lock()

    # -- building ------------------------------------------------------
    def add(self, rule: FaultRule) -> "FaultPlan":
        self.rules.append(rule)
        return self

    def error_at(
        self,
        site: str,
        at: Optional[int] = None,
        probability: float = 0.0,
        times: Optional[int] = 1,
        error_type: Type[BaseException] = FaultError,
    ) -> "FaultPlan":
        """Raise ``error_type`` at ``site`` (a recoverable crash)."""
        return self.add(
            FaultRule(site, "error", at, probability, times,
                      error_type=error_type)
        )

    def delay_at(
        self,
        site: str,
        seconds: float,
        at: Optional[int] = None,
        probability: float = 0.0,
        times: Optional[int] = 1,
    ) -> "FaultPlan":
        """Sleep ``seconds`` at ``site`` (latency injection)."""
        return self.add(
            FaultRule(site, "delay", at, probability, times,
                      delay_seconds=seconds)
        )

    def kill_at(
        self,
        site: str,
        at: Optional[int] = None,
        probability: float = 0.0,
        times: Optional[int] = 1,
    ) -> "FaultPlan":
        """Raise :class:`CrashPoint` at ``site`` (simulated death)."""
        return self.add(
            FaultRule(site, "kill", at, probability, times,
                      error_type=CrashPoint)
        )

    # -- the injection path -------------------------------------------
    def on_site(self, site: str) -> None:
        """Called by :func:`fault_point` on every hit of ``site``."""
        delays: List[FaultRule] = []
        fatal: Optional[FaultRule] = None
        with self._lock:
            hit = self.hits.get(site, 0)
            self.hits[site] = hit + 1
            for rule in self.rules:
                if rule.site != site or not rule._matches(hit, self._rng):
                    continue
                rule.fired += 1
                self.firings.append(Firing(site, rule.action, hit))
                if rule.action == "delay":
                    delays.append(rule)
                elif fatal is None:
                    fatal = rule
        registry = global_registry()
        for rule in delays:
            registry.counter("resilience.faults.delays").inc()
            self._sleep(rule.delay_seconds)
        if fatal is not None:
            registry.counter("resilience.faults.injected").inc()
            trace.event(
                "resilience.fault_injected",
                category="resilience",
                site=site,
                action=fatal.action,
            )
            flight.record(
                "fault.injected",
                site=site,
                action=fatal.action,
                hit=self.hits[site] - 1,
                seed=self.seed,
            )
            raise fatal.error_type(
                f"injected {fatal.action} at {site!r} "
                f"(hit {self.hits[site] - 1}, seed {self.seed})"
            )

    # -- installation --------------------------------------------------
    def installed(self) -> "_PlanInstallation":
        """``with plan.installed():`` — install for the block, restore."""
        return _PlanInstallation(self)


class _PlanInstallation:
    def __init__(self, plan: FaultPlan) -> None:
        self._plan = plan
        self._previous: Optional[FaultPlan] = None

    def __enter__(self) -> FaultPlan:
        self._previous = install(self._plan)
        return self._plan

    def __exit__(self, *exc: object) -> bool:
        global _active
        _active = self._previous
        return False


# ----------------------------------------------------------------------
# The module-level fast path
# ----------------------------------------------------------------------
_active: Optional[FaultPlan] = None


def active() -> Optional[FaultPlan]:
    """The installed plan, or ``None`` while injection is disabled."""
    return _active


def install(plan: FaultPlan) -> Optional[FaultPlan]:
    """Install ``plan`` process-wide; returns the plan it replaced."""
    global _active
    previous, _active = _active, plan
    return previous


def uninstall() -> Optional[FaultPlan]:
    """Remove the installed plan; returns the one removed."""
    global _active
    plan, _active = _active, None
    return plan


def fault_point(site: str) -> None:
    """The hook instrumented code calls at a named site.

    While no plan is installed: one global load, one ``is None`` test.
    """
    plan = _active
    if plan is not None:
        plan.on_site(site)


# ----------------------------------------------------------------------
# The WAL torn-append injector (moved from repro.store.recovery)
# ----------------------------------------------------------------------
class FaultInjector:
    """Kill the log on its Nth append, leaving a torn record behind.

    Implements the :class:`repro.store.wal.FaultHook` protocol (by duck
    typing — the WAL imports this module for :func:`fault_point`, so a
    class-level dependency the other way would be a cycle).

    ``kill_at_append`` counts appends from zero *after* the injector is
    installed; ``torn_fraction`` controls how much of the fatal record
    reaches the file (0.0 = nothing, 0.5 = half the bytes, 1.0 would be
    a complete record — capped just below so the tail is always torn).
    One injector fires once; reuse requires :meth:`rearm`.
    """

    def __init__(
        self, kill_at_append: int, torn_fraction: float = 0.5
    ) -> None:
        if not 0.0 <= torn_fraction <= 1.0:
            raise ValueError(
                f"torn_fraction must be in [0, 1], got {torn_fraction}"
            )
        self.kill_at_append = kill_at_append
        self.torn_fraction = torn_fraction
        self.appends_seen = 0
        self.fired = False
        self._armed = False

    def rearm(self, kill_at_append: int) -> None:
        self.kill_at_append = kill_at_append
        self.appends_seen = 0
        self.fired = False
        self._armed = False

    # -- FaultHook -----------------------------------------------------
    def on_append(self, log, line: bytes) -> None:
        self._armed = (
            not self.fired and self.appends_seen == self.kill_at_append
        )
        self.appends_seen += 1

    def armed(self) -> bool:
        return self._armed

    def torn_prefix(self, line_length: int) -> int:
        # Cap below the full line: writing every byte would be a clean
        # (recoverable) record, not a crash mid-append.
        return min(
            int(line_length * self.torn_fraction), line_length - 1
        )

    def fire(self) -> None:
        self.fired = True
        self._armed = False
        global_registry().counter("store.faults.injected").inc()
        raise CrashPoint(
            f"injected crash on append #{self.kill_at_append}"
        )


__all__ = [
    "CHASE_STEP",
    "ENGINE_EVALUATE",
    "ENGINE_PLAN",
    "KNOWN_SITES",
    "PARALLEL_WORKER",
    "SERVER_ACCEPT",
    "SERVER_HANDLER",
    "SHARD_RESTART",
    "SHARD_STAGE_FENCE",
    "SHARD_WORKER",
    "WAL_APPEND",
    "CrashPoint",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "Firing",
    "active",
    "fault_point",
    "install",
    "uninstall",
]
