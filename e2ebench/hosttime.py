"""Host-corrected timing: a probe timed while the program is frozen.

On a small shared VM the same pure-Python loop runs two to three times
slower in some phases than in others, phases last from seconds to tens
of minutes, CPU time inflates with wall time, and each vCPU has phases
of its own.  The client therefore stops the server's process group
after every op, times :func:`probe` in its own process on the server's
CPU, and resumes the group.  Nothing the program does can make the
probe faster or slower, so ``raw * PROBE_REF_MS / probe_near`` removes
the host's phase from a latency without hiding a change to the program.

``PROBE_REF_MS`` is a constant recorded once with the benchmark (on the
2-vCPU Xeon VM it was written on, the probe's median ranged from 0.63
to 1.8 ms); it only scales the corrected numbers, so both sides of a
comparison must use the same value.
"""

from __future__ import annotations

import math
import os
import signal
import statistics
import time
from typing import List, Optional, Sequence, Tuple

PROBE_ITERATIONS = 3000
PROBE_REF_MS = 1.0
#: Probes on each side of an op that its correction uses (a window of
#: ~9 ops spans well under a second; host phases last longer).
PROBE_HALF_WINDOW = 4


def _probe_work(iterations: int) -> int:
    acc = 0
    table = {}
    for i in range(iterations):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) + i
        acc ^= hash(key) & 0xFFFF
    return acc + len(table)


def probe() -> float:
    """Milliseconds one fixed ~1 ms pure-Python loop takes right now."""
    started = time.perf_counter()
    _probe_work(PROBE_ITERATIONS)
    return (time.perf_counter() - started) * 1000.0


def pick_cpus() -> Tuple[Optional[int], Optional[int]]:
    """``(client_cpu, server_cpu)``: two different CPUs, or ``None``s
    when fewer than two are available (nothing is pinned then)."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:
        return None, None
    if len(cpus) < 2:
        return None, None
    return cpus[0], cpus[-1]


def frozen_probe(
    pgid: Optional[int], cpus: Tuple[Optional[int], Optional[int]], count: int = 1
) -> List[float]:
    """Stop process group ``pgid``, take ``count`` probes on the server's
    CPU, resume the group."""
    client_cpu, server_cpu = cpus
    if pgid is not None:
        os.killpg(pgid, signal.SIGSTOP)
    if server_cpu is not None:
        os.sched_setaffinity(0, {server_cpu})
    try:
        return [probe() for _ in range(count)]
    finally:
        if client_cpu is not None:
            os.sched_setaffinity(0, {client_cpu})
        if pgid is not None:
            os.killpg(pgid, signal.SIGCONT)


def nearest_probe(probes: Sequence[float], index: int) -> float:
    """Median of the probes within :data:`PROBE_HALF_WINDOW` of ``index``."""
    lo = max(0, index - PROBE_HALF_WINDOW)
    return statistics.median(probes[lo : index + PROBE_HALF_WINDOW + 1])


def level(probes: Sequence[float]) -> float:
    """Mean of the middle 80% of ``probes``: the host's speed over a
    stretch of time, for intervals longer than the probe's swings."""
    ordered = sorted(probes)
    cut = len(ordered) // 10
    return statistics.mean(ordered[cut : len(ordered) - cut])


def corrected(raw_ms: float, probe_ms: float, ref_ms: float = PROBE_REF_MS) -> float:
    """``raw_ms`` as it would read with the probe at ``ref_ms``."""
    return raw_ms * ref_ms / probe_ms


def correct_all(
    samples: Sequence[Tuple[float, int]], probes: Sequence[float]
) -> List[float]:
    """Correct ``(raw_ms, probe_index)`` samples against ``probes``."""
    return [
        raw if math.isinf(raw) else corrected(raw, nearest_probe(probes, i))
        for raw, i in samples
    ]


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0..1); ``inf`` sorts last."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = q * (len(ordered) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(ordered) - 1)
    if math.isinf(ordered[hi]) or math.isinf(ordered[lo]):
        return ordered[hi] if pos > lo else ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(values: Sequence[float]) -> Tuple[Optional[float], float, int]:
    """``(q, value, beyond)``: the highest percentile with at least ten
    samples beyond it, or ``(None, nan, n)`` below eleven samples."""
    n = len(values)
    if n < 11:
        return None, math.nan, n
    q = 1.0 - 10.0 / n
    return q, percentile(values, q), n - int(math.ceil(q * n))


def steal_snapshot() -> Tuple[int, int]:
    """``(steal, total)`` jiffies from ``/proc/stat`` (zeros elsewhere)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()[1:]
    except OSError:
        return 0, 0
    values = [int(x) for x in fields]
    steal = values[7] if len(values) > 7 else 0
    return steal, sum(values[:8])
