"""Supervised shard workers: detect death, restart, degrade, probe.

:class:`ShardSupervisor` is the healing ladder of the sharded store —
each rung engaged only when the one above fails:

1. **detect** — a :class:`WorkerDied` (pipe EOF / EPIPE) or an injected
   :class:`~repro.resilience.faults.CrashPoint` surfacing from a shard
   handle marks the worker dead mid-conversation;
2. **restart** — the dead worker is reaped (its pipe closed, so it can
   reach nothing) and the store's bring-up
   (:meth:`ShardedStore._bring_up`) spawns a replacement from a fresh
   slice of the coordinator head, with the shard's cursor at the head,
   under the full-jitter :data:`RESTART_POLICY`, gated by a per-shard
   :class:`CircuitBreaker` so a persistently crashing shard cannot
   stall every batch with futile forks;
3. **degrade** — past the restart budget the shard is served by a
   coordinator-side :class:`InlineShard` sliced from the head, so
   callers keep committing;
4. **probe** — the breaker's half-open probe (or
   :meth:`ShardedStore.heal`) later re-promotes a degraded shard to a
   real worker by the same bring-up — return to full service needs no
   operator call.

A live shard that falls behind or diverges is not this ladder's
business: the store's cursor advance (:meth:`ShardedStore.resync_shard`
and the publish step) stages the missing tail or runs the verifying
dump-diff.

The supervisor holds no lock of its own: every entry point is reached
with the store's lock already held (or during construction, before the
store is shared), so shard handles and states never race.  The
in-flight command that detected the death is re-executed on the healed
handle.  Shards only ever stage committed coordinator versions, so a
redo cannot apply anything twice: a staging redo finds the cursor at
the head the replacement was spawned from, and only asks the new
worker for its status.
"""

from __future__ import annotations

import contextlib
import random
import time
import weakref
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs import flight
from repro.obs import tracer as trace
from repro.obs.metrics import global_registry
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import SHARD_RESTART, CrashPoint, fault_point
from repro.resilience.retry import RetryPolicy
from repro.store.sharding.partition import ShardingError, WorkerDied
from repro.store.versioned import StoreError

#: Exceptions that mean "the worker is gone", healed by a restart.
_DEATHS = (WorkerDied, CrashPoint)

#: Exceptions that fail one restart *attempt* (and feed the breaker).
_RESTART_FAILURES = (
    ShardingError,
    CrashPoint,
    StoreError,
    OSError,
    EOFError,
)

UP = "up"
DEGRADED = "degraded"

#: Restart attempts after a death (and redo deaths before degrading),
#: with full-jitter backoff between attempts.
RESTART_POLICY = RetryPolicy(
    retries=2, base_delay=0.005, factor=2.0, max_delay=0.05, jitter=True
)

#: Seconds a shard's restart breaker stays open before a half-open probe.
BREAKER_RESET = 0.25


class ShardSupervisor:
    """Per-shard life-cycle manager for a :class:`ShardedStore`.

    With ``enabled=False`` every death propagates to the store
    unchanged (the pre-supervision contract, which the worker-death
    forensics tests still exercise).  A write that died while staging
    is still acknowledged, with ``staged=False``.
    """

    def __init__(self, store, enabled: bool = True) -> None:
        # Weak, because the store owns this supervisor: a strong back
        # reference would leave every dropped fleet, its whole version
        # history included, for the cyclic garbage collector to find
        # in the middle of some later request.
        self.store = weakref.proxy(store)
        self.enabled = enabled
        self._rng = random.Random()
        shards = store.partitioning.shards
        self._states: List[str] = [UP] * shards
        self.restarts: List[int] = [0] * shards
        self._breakers: List[CircuitBreaker] = [
            CircuitBreaker(
                failure_threshold=3,
                reset_timeout=BREAKER_RESET,
                name=f"shard{k}.restart",
            )
            for k in range(shards)
        ]

    # -- introspection -------------------------------------------------
    def state(self, shard: int) -> str:
        return self._states[shard]

    def degraded_shards(self) -> Tuple[int, ...]:
        return tuple(
            shard
            for shard, state in enumerate(self._states)
            if state == DEGRADED
        )

    @staticmethod
    def reap(handle) -> None:
        """Discard a dead handle (no-op for inline backends)."""
        reaper = getattr(handle, "reap", None)
        if reaper is not None:
            reaper()

    # -- command execution ---------------------------------------------
    def call(self, shard: int, make_command: Callable[[], tuple]) -> Any:
        """Execute one command on ``shard``, healing through a death.

        ``make_command`` is a thunk, not a tuple, because a heal moves
        the shard's cursor, which decides what the redo sends.
        """
        self.probe(shard)
        try:
            return self.store._shards[shard].call(make_command())
        except _DEATHS as exc:
            self.on_death(shard, exc)
            return self._redo(shard, make_command)

    def _redo(self, shard: int, make_command: Callable[[], tuple]) -> Any:
        """Re-execute a command on the healed handle.

        A *poison* command — one that deterministically kills every
        fresh replacement at the same point — would otherwise livelock
        the heal-and-redo cycle: each restart succeeds, each redo kills
        the new worker.  Redo deaths are therefore bounded by the retry
        budget, after which the shard degrades to the coordinator-side
        inline backend, which cannot lose a process.
        """
        for _ in range(RESTART_POLICY.retries + 1):
            try:
                return self.store._shards[shard].call(make_command())
            except _DEATHS as exc:
                self.on_death(shard, exc)
        if self._states[shard] != DEGRADED:
            self._degrade(shard)
        return self.store._shards[shard].call(make_command())

    def broadcast(
        self,
        commands: Dict[int, Callable[[], tuple]],
        span_name: Optional[str] = None,
        on_reply: Optional[Callable[[int, Any], None]] = None,
    ) -> Dict[int, Any]:
        """Send-to-all-then-collect across shard handles, with healing.

        Sends every thunk's command first (workers overlap), then
        collects each reply under ``span_name`` (when given).  Shards
        that died — at send or at receive — are healed and their
        command re-executed on the replacement handle; replies from the
        *other* shards are always drained first, so their pipes stay
        request/reply aligned even when one shard fails hard.
        ``on_reply`` runs for every shard that replied, before the
        first non-death error re-raises — so a caller learns which
        shards a partly failed broadcast reached.
        """
        shards = sorted(commands)
        for shard in shards:
            self.probe(shard)
        dead: Dict[int, BaseException] = {}
        errors: List[BaseException] = []
        results: Dict[int, Any] = {}
        sent: List[int] = []
        for shard in shards:
            try:
                self.store._shards[shard].send(commands[shard]())
            except _DEATHS as exc:
                dead[shard] = exc
            except Exception as exc:
                # Inline handles execute in send(); a backend error
                # here is a reply-time error, not a death.
                errors.append(exc)
            else:
                sent.append(shard)
        for shard in sent:
            span = (
                trace.span(span_name, category="store", shard=shard)
                if span_name is not None
                else contextlib.nullcontext()
            )
            try:
                with span:
                    results[shard] = self.store._shards[shard].recv()
            except _DEATHS as exc:
                dead[shard] = exc
            except Exception as exc:
                errors.append(exc)
        for shard, exc in dead.items():
            try:
                self.on_death(shard, exc)
                results[shard] = self._redo(shard, commands[shard])
            except Exception as failure:
                errors.append(failure)
        if on_reply is not None:
            for shard in shards:
                if shard in results:
                    on_reply(shard, results[shard])
        if errors:
            raise errors[0]
        return results

    # -- the healing ladder --------------------------------------------
    def on_death(self, shard: int, exc: BaseException) -> None:
        """Heal a dead shard: restart under budget, else degrade.

        Unsupervised fleets re-raise the death unchanged.  Attempts
        run under the full-jitter retry policy and the per-shard
        breaker; each crosses the ``shard.restart`` fault site.  When
        the budget (or the breaker) says stop, the shard degrades to a
        coordinator-side inline backend instead of failing the caller.
        """
        if not self.enabled:
            raise exc
        breaker = self._breakers[shard]
        attempt = 0
        while attempt <= RESTART_POLICY.retries and breaker.allow():
            if attempt > 0:
                time.sleep(RESTART_POLICY.delay(attempt - 1, self._rng))
            if self._restart(shard, attempt=attempt):
                return
            attempt += 1
        self._degrade(shard)

    def probe(self, shard: int, force: bool = False) -> None:
        """Try re-promoting a degraded shard to a real worker.

        Gated by the shard's breaker (half-open probe cadence) unless
        ``force``; a failed probe records the failure and leaves the
        inline fallback serving.  This runs at the top of every
        supervised command, which is what makes the return to full
        service automatic.
        """
        if not self.enabled or self._states[shard] != DEGRADED:
            return
        if force or self._breakers[shard].allow():
            self._restart(shard, probe=True)

    def _restart(self, shard: int, **event: Any) -> bool:
        """One restart attempt: reap the old handle, then the store's
        bring-up, behind the ``shard.restart`` fault site.

        The outcome feeds the shard's breaker, the restart counters and
        the flight recorder (``event`` tags the record).  Returns
        whether the replacement is serving; a failed replacement is
        left reaped.
        """
        store = self.store
        breaker = self._breakers[shard]
        registry = global_registry()
        try:
            fault_point(SHARD_RESTART)
            self.reap(store._shards[shard])
            store._shards[shard] = store._bring_up(shard)
        except _RESTART_FAILURES as failure:
            breaker.record_failure()
            registry.counter("store.shard.restart_failures").inc()
            flight.record(
                "shard.restart_failed",
                shard=shard,
                error=f"{type(failure).__name__}: {failure}",
                **event,
            )
            return False
        self._states[shard] = UP
        breaker.record_success()
        self.restarts[shard] += 1
        registry.counter("store.shard.restarts").inc()
        flight.record("shard.worker_restart", shard=shard, **event)
        return True

    def _degrade(self, shard: int) -> None:
        """Swap a dead shard for the coordinator-side inline fallback."""
        store = self.store
        self.reap(store._shards[shard])
        store._shards[shard] = store._degraded_shard(shard)
        self._states[shard] = DEGRADED
        global_registry().counter("store.shard.degraded").inc()
        flight.record("shard.degraded", shard=shard)


__all__ = ["DEGRADED", "UP", "ShardSupervisor"]
