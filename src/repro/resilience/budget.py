"""Cooperative budgets and cancellation for the expensive procedures.

The paper's decision machinery is constructive but brutally expensive:
the Theorem 5.12 order-independence test chases representative sets
whose size is hyperexponential in the schema, and the Theorem 6.5
parallelizer calls it per statement pair.  A :class:`Budget` bounds such
a computation three ways at once — a wall-clock **deadline**, a cap on
cooperative **steps** (chase steps, representative partitions, engine
nodes), and an external :class:`CancelToken` — and the instrumented
loops check it *cooperatively*: each iteration calls :func:`tick`,
which is a no-op while no budget is installed (one thread-local load
and an ``is None`` test, mirroring the disabled tracer fast path) and
raises :class:`BudgetExceeded` from the innermost loop the moment any
bound trips.

Budgets install ambiently per thread (``with budget:`` or
:func:`applied`), so deep call chains — decision → containment → chase
→ engine — need no parameter threading; :meth:`Budget.bind` carries the
installation into worker threads the way
:meth:`repro.obs.tracer.Tracer.wrap` carries span parentage.

Exhaustion is an *outcome*, not an error, one layer up: the budgeted
decision entry points (:mod:`repro.algebraic.decision`) catch
:class:`BudgetExceeded` and return the three-valued verdict ``UNKNOWN``,
which the parallel applicator and the store's commit escalation treat
as "assume order-dependent" — bounded latency, paper-correct results.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, TypeVar

from repro.obs import flight
from repro.obs import tracer as trace
from repro.obs.metrics import global_registry

T = TypeVar("T")


class BudgetExceeded(RuntimeError):
    """A cooperative budget bound tripped (deadline, steps, or cancel).

    Carries the budget and the site whose check tripped, so the catcher
    can report *where* the computation was cut off.
    """

    def __init__(self, message: str, site: str, budget: "Budget") -> None:
        super().__init__(message)
        self.site = site
        self.budget = budget


class Cancelled(BudgetExceeded):
    """The budget's :class:`CancelToken` was cancelled externally."""


class CancelToken:
    """A thread-safe, one-way cancellation flag.

    Hand the token to a budgeted computation and call :meth:`cancel`
    from any other thread; the next cooperative check raises
    :class:`Cancelled`.  Tokens are independent of budgets — one token
    can cancel several budgets (a whole batch), and a budget works
    without one.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()


class Budget:
    """Deadline + step caps + cancellation for one bounded computation.

    Parameters
    ----------
    seconds:
        Wall-clock allowance from construction time (``None`` = no
        deadline).
    max_steps:
        Cap on the total number of cooperative checks (``None`` = no
        cap).  Steps are whatever the instrumented loops count: chase
        steps, representative partitions, engine nodes.
    cancel:
        An optional :class:`CancelToken` checked on every tick.
    clock:
        Injectable monotonic clock (tests freeze it).

    A budget is reusable across calls until exhausted; once any bound
    trips, every later check raises immediately (the whole cooperative
    tree unwinds).  Budgets may be shared across threads: step counts
    are plain attribute arithmetic (GIL-atomic enough for bounds that
    are heuristics, not ledgers).
    """

    __slots__ = (
        "seconds",
        "max_steps",
        "cancel",
        "steps",
        "site_steps",
        "exhausted_at",
        "_clock",
        "_deadline",
    )

    def __init__(
        self,
        seconds: Optional[float] = None,
        max_steps: Optional[int] = None,
        cancel: Optional[CancelToken] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if seconds is not None and seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        if max_steps is not None and max_steps < 0:
            raise ValueError(f"max_steps must be >= 0, got {max_steps}")
        self.seconds = seconds
        self.max_steps = max_steps
        self.cancel = cancel
        self.steps = 0
        self.site_steps: Dict[str, int] = {}
        self.exhausted_at: Optional[str] = None
        self._clock = clock
        self._deadline = None if seconds is None else clock() + seconds

    # -- introspection -------------------------------------------------
    @property
    def exhausted(self) -> bool:
        """Whether a previous check tripped (later checks keep raising)."""
        return self.exhausted_at is not None

    def remaining_seconds(self) -> Optional[float]:
        """Wall-clock left before the deadline (``None`` = unbounded)."""
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - self._clock())

    def remaining_steps(self) -> Optional[int]:
        if self.max_steps is None:
            return None
        return max(0, self.max_steps - self.steps)

    # -- the cooperative check -----------------------------------------
    def _exhaust(self, site: str, kind: str, message: str) -> None:
        first = self.exhausted_at is None
        self.exhausted_at = site
        if first:
            registry = global_registry()
            registry.counter("resilience.budget.exceeded").inc()
            registry.counter(f"resilience.budget.exceeded.{kind}").inc()
            trace.event(
                "resilience.budget_exceeded",
                category="resilience",
                site=site,
                kind=kind,
                steps=self.steps,
            )
            flight.record(
                "budget.exceeded",
                site=site,
                limit=kind,
                steps=self.steps,
            )
        if kind == "cancelled":
            raise Cancelled(message, site, self)
        raise BudgetExceeded(message, site, self)

    def check(self, site: str, amount: int = 1) -> None:
        """Charge ``amount`` steps to ``site``; raise when over budget."""
        if self.exhausted_at is not None:
            self._exhaust(
                site,
                "rechecked",
                f"budget already exhausted at {self.exhausted_at!r}",
            )
        self.steps += amount
        self.site_steps[site] = self.site_steps.get(site, 0) + amount
        if self.cancel is not None and self.cancel.cancelled:
            self._exhaust(site, "cancelled", f"cancelled at {site!r}")
        if self.max_steps is not None and self.steps > self.max_steps:
            self._exhaust(
                site,
                "steps",
                f"step cap {self.max_steps} exceeded at {site!r}",
            )
        if self._deadline is not None and self._clock() > self._deadline:
            self._exhaust(
                site,
                "deadline",
                f"deadline of {self.seconds}s exceeded at {site!r} "
                f"after {self.steps} steps",
            )

    # -- ambient installation ------------------------------------------
    def bind(self, fn: Callable[..., T]) -> Callable[..., T]:
        """A callable that runs ``fn`` with this budget installed.

        Use to carry the budget into worker threads — thread-local
        installation does not cross pool boundaries by itself.
        """

        def bound(*args, **kwargs):
            with applied(self):
                return fn(*args, **kwargs)

        return bound

    def __enter__(self) -> "Budget":
        _push(self)
        return self

    def __exit__(self, *exc: object) -> bool:
        _pop()
        return False

    def __repr__(self) -> str:
        bounds = []
        if self.seconds is not None:
            bounds.append(f"seconds={self.seconds}")
        if self.max_steps is not None:
            bounds.append(f"max_steps={self.max_steps}")
        if self.cancel is not None:
            bounds.append("cancellable")
        state = "exhausted" if self.exhausted else f"steps={self.steps}"
        return f"Budget({', '.join(bounds) or 'unbounded'}, {state})"


# ----------------------------------------------------------------------
# The ambient (thread-local) budget
# ----------------------------------------------------------------------
class _ThreadBudgets(threading.local):
    """Each thread's stack of installed budgets, empty until a budget
    is installed there (so reading it never misses an attribute)."""

    def __init__(self) -> None:
        self.stack: List[Budget] = []


_tls = _ThreadBudgets()


def current() -> Optional[Budget]:
    """The calling thread's installed budget, or ``None``."""
    stack = _tls.stack
    return stack[-1] if stack else None


def _push(budget: Budget) -> None:
    _tls.stack.append(budget)


def _pop() -> None:
    _tls.stack.pop()


@contextmanager
def applied(budget: Optional[Budget]) -> Iterator[Optional[Budget]]:
    """Install ``budget`` for the calling thread (``None`` = no-op)."""
    if budget is None:
        yield None
        return
    _push(budget)
    try:
        yield budget
    finally:
        _pop()


def tick(site: str, amount: int = 1) -> None:
    """The cooperative check the instrumented loops call.

    While no budget is installed this is one thread-local load and an
    ``is None`` test — the fast path the ``<5%`` disabled-overhead gate
    measures (``bench_resilience.test_disabled_resilience_overhead``).
    """
    stack = _tls.stack
    if stack:
        stack[-1].check(site, amount)


__all__ = [
    "Budget",
    "BudgetExceeded",
    "Cancelled",
    "CancelToken",
    "applied",
    "current",
    "tick",
]
