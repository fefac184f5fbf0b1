"""One retry/backoff implementation for every layer that retries.

Before this module each retry loop rolled its own backoff —
``store/txn.run_transaction`` slept ``backoff * 2**attempt`` scaled by
a *half-open* jitter factor, so two transactions that collided once
kept sampling overlapping windows and re-collided on retry.  The
unified policy uses **full jitter** (sleep uniform in ``[0, cap]``,
the AWS architecture-blog result): colliding retriers decorrelate in
one round instead of marching in step, and the expected total sleep is
half the deterministic schedule's.

Everything is injectable for tests and chaos runs: the RNG (seed it
for reproducible schedules), the sleeper, and the retryability
predicate.  :func:`retry_call` is adopted by
:func:`repro.store.txn.run_transaction` (conflict aborts), and the
shard supervisor paces worker restarts with :meth:`RetryPolicy.delay`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Type, TypeVar

from repro.obs import tracer as trace
from repro.obs.metrics import global_registry

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with full jitter.

    ``delay(attempt)`` samples uniformly from ``[0, cap]`` where
    ``cap = min(max_delay, base_delay * factor**attempt)`` — attempt 0
    is the first *retry*.  With ``jitter=False`` the cap itself is the
    delay (deterministic; only for tests that assert schedules).
    """

    retries: int = 5
    base_delay: float = 0.001
    factor: float = 2.0
    max_delay: float = 0.25
    jitter: bool = True

    def delay(self, attempt: int, rng: random.Random) -> float:
        cap = min(self.max_delay, self.base_delay * self.factor**attempt)
        return rng.uniform(0.0, cap) if self.jitter else cap


def retry_call(
    fn: Callable[[], T],
    policy: RetryPolicy = RetryPolicy(),
    retryable: Tuple[Type[BaseException], ...] = (Exception,),
    giveup: Tuple[Type[BaseException], ...] = (),
    rng: Optional[random.Random] = None,
    sleep: Callable[[float], None] = time.sleep,
    on_retry: Optional[Callable[[int, BaseException], None]] = None,
    label: str = "call",
) -> T:
    """Call ``fn``, retrying ``retryable`` failures per ``policy``.

    Non-retryable exceptions propagate immediately, as does anything in
    ``giveup`` (carve deterministic failures — semantic errors, budget
    exhaustion — out of a broad ``retryable``); the last retryable
    exception propagates after ``policy.retries`` failed re-runs.
    ``on_retry(attempt, error)`` fires before each backoff sleep —
    use it to count, log, or re-arm state for the next attempt.
    """
    if rng is None:
        rng = random.Random()
    registry = global_registry()
    for attempt in range(policy.retries + 1):
        try:
            return fn()
        except retryable as error:
            if isinstance(error, giveup) or attempt >= policy.retries:
                raise
            registry.counter("resilience.retries").inc()
            trace.event(
                "resilience.retry",
                category="resilience",
                label=label,
                attempt=attempt,
                error=type(error).__name__,
            )
            if on_retry is not None:
                on_retry(attempt, error)
            delay = policy.delay(attempt, rng)
            if delay > 0:
                sleep(delay)
    raise AssertionError("unreachable")  # pragma: no cover


__all__ = ["RetryPolicy", "retry_call"]
