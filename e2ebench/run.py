#!/usr/bin/env python3
"""End-to-end benchmark of the networked sharded store.

::

    python3 e2ebench/run.py --workload ingest --seed 1 --seconds 36 --trace 0
    python3 e2ebench/run.py --workload query_mix --seed 1 --seconds 36 --trace 1
    python3 e2ebench/run.py --smoke

Each *round* launches ``launcher.py`` (a ``ReproServer`` over a 2-shard
process-mode ``ShardedStore`` with fsync WALs) in its own process
group, drives the workload's seeded op sequence over TCP with
``repro.server.client`` (one request outstanding at a time), checks
every answer against the paper's fold, SIGKILLs the group, reopens the
fleet from its WALs and checks again.  Another round starts while half
of one still fits into ``--seconds``.  Every timing is host-corrected
(see ``hosttime.py``).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``).  The
lines before it are diagnostics: raw (uncorrected) timings, the probe's
median and spread, the host's steal share and the tail percentiles.
"""

from __future__ import annotations

import argparse
import asyncio
import ctypes
import gc
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import hosttime
import ops as opsmod
from oracle import Oracle, wire_receivers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".e2ebench_run", str(os.getpid()))

#: Op kinds, the stems of their latency metrics.
KINDS = ("write", "query", "txn", "cross")
SETUP_PROBES = 5
#: Reopens per round; ``reopen_s`` is their median over the run.
REOPENS = 2
#: ``(client_cpu, server_cpu)``, set by :func:`main`.
CPUS: Tuple[Optional[int], Optional[int]] = (None, None)
WAIT_S = 120.0


class BenchError(RuntimeError):
    """The stack did not come up or answer as the benchmark requires."""


# ----------------------------------------------------------------------
# Process group of one fleet
# ----------------------------------------------------------------------
def _become_subreaper() -> None:
    """Adopt orphaned shard workers so they can be waited for."""
    if sys.platform.startswith("linux"):
        try:
            ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
        except (OSError, AttributeError):
            pass


def _group_pids(pgid: int) -> List[int]:
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def _vm_hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Fleet:
    """One launcher process group: start, signal, kill, reap."""

    def __init__(self, base: str) -> None:
        self.base = base
        self.wal_dir = os.path.join(base, "wal")
        os.makedirs(self.wal_dir)
        self.proc: Optional[subprocess.Popen] = None
        self.launches = 0
        self.launch_dir = ""
        self.reports = 0

    @property
    def pgid(self) -> Optional[int]:
        return self.proc.pid if self.proc is not None else None

    async def start(self, extra: List[str]) -> Tuple[int, int]:
        """Launch; ``(port, ns)`` with ``ns`` the launcher's clock just
        before it builds or recovers the store."""
        self.launches += 1
        self.reports = 0
        self.launch_dir = os.path.join(self.base, f"launch-{self.launches}")
        os.makedirs(self.launch_dir)
        cmd = [
            sys.executable,
            os.path.join(HERE, "launcher.py"),
            "--wal-dir",
            self.wal_dir,
            "--report-dir",
            self.launch_dir,
            *extra,
        ]
        if CPUS[1] is not None:
            cmd += ["--cpu", str(CPUS[1])]
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, start_new_session=True, cwd=ROOT
        )
        loop = asyncio.get_running_loop()
        line = await asyncio.wait_for(
            loop.run_in_executor(None, self.proc.stdout.readline), WAIT_S
        )
        if not line.strip():
            raise BenchError(f"launcher exited with {self.proc.wait()}")
        port, built_from_ns = line.split()
        return int(port), int(built_from_ns)

    def report(self, final: bool) -> Dict[str, Any]:
        """Ask the launcher for a report and wait for its file."""
        path = os.path.join(self.launch_dir, f"report-{self.reports}.json")
        self.reports += 1
        os.kill(self.proc.pid, signal.SIGUSR2 if final else signal.SIGUSR1)
        deadline = time.monotonic() + WAIT_S
        while not os.path.exists(path):
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise BenchError("launcher wrote no report")
            time.sleep(0.002)
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    def peak_rss_mib(self) -> float:
        return sum(_vm_hwm_kib(pid) for pid in _group_pids(self.pgid)) / 1024.0

    def kill(self) -> None:
        """SIGKILL the whole group and wait until every member ended."""
        if self.proc is None:
            return
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self._reap()

    def stop(self) -> None:
        """Graceful stop (store closed), SIGKILL after a timeout."""
        if self.proc is None:
            return
        os.kill(self.proc.pid, signal.SIGTERM)
        try:
            self.proc.wait(timeout=WAIT_S)
        except subprocess.TimeoutExpired:
            pass
        self.kill()

    def _reap(self) -> None:
        pgid = self.proc.pid
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        deadline = time.monotonic() + WAIT_S
        while _group_pids(pgid) and time.monotonic() < deadline:
            _reap_orphans()
            time.sleep(0.005)
        _reap_orphans()
        self.proc = None


def pin_client() -> None:
    """Pin the client to one CPU; the launcher pins the server's group
    to another, where every probe runs too."""
    global CPUS
    CPUS = hosttime.pick_cpus()
    if CPUS[0] is not None:
        os.sched_setaffinity(0, {CPUS[0]})


def _reap_orphans() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _wal_bytes(wal_dir: str) -> int:
    return sum(
        os.path.getsize(os.path.join(wal_dir, name))
        for name in os.listdir(wal_dir)
        if name.endswith(".wal")
    )


# ----------------------------------------------------------------------
# One round
# ----------------------------------------------------------------------
class Round:
    """Samples and oracle inputs of one round."""

    def __init__(self, fleet: Fleet, traced: bool) -> None:
        self.fleet = fleet
        self.traced = traced
        self.probes: List[float] = []
        self.samples: Dict[str, List[List[Tuple[float, int]]]] = {
            kind: [] for kind in KINDS
        }
        self.writes: List[Tuple[str, Tuple]] = []
        self.queries: List[Tuple[int, str, Dict[str, Any]]] = []
        self.failures: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.tiers: Dict[str, int] = {}
        self.requests: List[Dict[str, Any]] = []
        self.setup: List[Tuple[float, List[float]]] = []
        self.reopen: List[Tuple[float, List[float]]] = []
        self.wal_bytes = 0
        self.peak_rss_mib = math.nan
        self.steal = (0, 0)
        self.reports: Dict[str, Dict[str, Any]] = {}
        self.client_spans: List[Dict[str, Any]] = []
        self.first_measured_write = 0
        self.rows_changed = 0

    async def request(self, client, name: str, params, op, measured: bool):
        """One wire request: ``(result, error, sample)``."""
        from repro.server.client import ServerError

        started = time.perf_counter_ns()
        try:
            result, error = await client.request(name, params), None
        except ServerError as exc:
            result, error = None, exc
        ended = time.perf_counter_ns()
        if not measured:
            return result, error, None
        raw_ms = (ended - started) / 1e6
        index = len(self.probes)
        self.probes.extend(_probe(self.fleet.pgid))
        if self.traced:
            self.requests.append(
                {
                    "start_ns": started,
                    "end_ns": ended,
                    "request": name,
                    "kind": op.kind,
                    "shape": op.shape,
                }
            )
        return result, error, (raw_ms, index)

    def fail(self, op, error) -> None:
        self.failed += 1
        self.failures.append(f"{op.kind} failed: {error}")


def _probe(pgid: Optional[int], count: int = 1) -> List[float]:
    return hosttime.frozen_probe(pgid, CPUS, count)


def _params(op) -> Dict[str, Any]:
    from repro.server import protocol

    return {
        "method": op.method,
        "receivers": protocol.encode_receivers(
            wire_receivers(op.method, op.receivers)
        ),
    }


EXPECTED_ROUTE = {"write": "disjoint", "cross": "cross_shard"}


async def run_op(rnd: Round, clients, op) -> None:
    from repro.server import protocol

    measured = op.measured
    if measured:
        rnd.attempted += 1
    client = clients[op.conn]
    if op.kind != "txn":
        if op.kind == "query":
            name, params = "query", {"expr": opsmod.QUERIES[op.shape]}
        else:
            name, params = "apply_batch", _params(op)
        result, error, sample = await rnd.request(client, name, params, op, measured)
        if error is not None:
            rnd.fail(op, error)
            sample = (math.inf, sample[1]) if sample else None
        elif op.kind == "query":
            rnd.queries.append((len(rnd.writes), op.shape, result))
        else:
            rnd.writes.append((op.method, op.receivers))
            if result.get("route") != EXPECTED_ROUTE[op.kind]:
                rnd.failures.append(f"{op.kind} routed {result.get('route')!r}")
        if sample:
            rnd.samples[op.kind].append([sample])
        return
    # An explicit transaction; retried at once after CONFLICT.
    own: List[Tuple[float, int]] = []

    async def send(name, params):
        result, error, sample = await rnd.request(client, name, params, op, measured)
        if sample:
            own.append(sample)
        return result, error

    for attempt in (0, 1):
        _, error = await send("begin", None)
        if error is None:
            _, error = await send("apply", _params(op))
        if error is None:
            if attempt == 0 and op.interleave is not None:
                await run_op(rnd, clients, op.interleave)
            result, error = await send("commit", None)
        if error is None:
            rnd.writes.append((op.method, op.receivers))
            tier = result.get("tier")
            rnd.tiers[tier] = rnd.tiers.get(tier, 0) + 1
            break
        if attempt == 0 and op.conflicts and error.code == protocol.CONFLICT:
            rnd.tiers["abort"] = rnd.tiers.get("abort", 0) + 1
            continue
        rnd.fail(op, error)
        if own:
            own.append((math.inf, own[-1][1]))
        break
    if measured:
        rnd.samples["txn"].append(own)


async def _ping(port: int, connections: int):
    from repro.server.client import connect

    clients = [await connect("127.0.0.1", port)]
    await clients[0].ping()
    for _ in range(connections - 1):
        clients.append(await connect("127.0.0.1", port))
    return clients


async def _launch(fleet: Fleet, extra: List[str], connections: int, from_launch: bool):
    """Start a fleet; ``(clients, raw_s, probes)``: seconds to its first
    reply from the launch, or (``from_launch`` false) from the moment the
    launcher starts building or recovering the store."""
    probes = _probe(None, SETUP_PROBES)
    started = time.perf_counter_ns()
    port, built_from_ns = await fleet.start(extra)
    clients = await _ping(port, connections)
    raw = (time.perf_counter_ns() - (started if from_launch else built_from_ns)) / 1e9
    probes += _probe(fleet.pgid, SETUP_PROBES)
    return clients, raw, probes


async def _close(clients) -> None:
    for client in clients:
        await client.close()


async def _salary_rows(client) -> frozenset:
    result = await client.query("Employee.salary")
    return frozenset((emp[1], money[1]) for emp, money in result["rows"])


async def run_round(
    workload: str, seed: int, index: int, traced: bool, blocks: Optional[int]
) -> Round:
    spec = opsmod.WORKLOADS[workload]
    company_seed = opsmod.company_seed(workload, seed, index)
    sequence = opsmod.generate(workload, seed, index, blocks)
    fleet = Fleet(os.path.join(RUN_DIR, f"round-{index}"))
    wal_dir = fleet.wal_dir
    rnd = Round(fleet, traced)
    client_tracer = None
    if traced:
        import instrument
        from repro.obs import tracer as trace

        instrument.install_client()
        client_tracer = trace.enable()
    flags = ["--trace"] if traced else []
    build = ["--employees", str(spec.employees), "--seed", str(company_seed)] + flags
    clients: List[Any] = []
    try:
        clients, raw, probes = await _launch(fleet, build, spec.connections, True)
        rnd.setup.append((raw, probes))
        measured = [op for op in sequence if op.measured]
        for op in sequence:
            if op is measured[0]:
                if traced:
                    rnd.reports["start"] = fleet.report(False)
                rnd.first_measured_write = len(rnd.writes)
                wal_start = _wal_bytes(wal_dir)
                steal_start = hosttime.steal_snapshot()
                gc.collect()
                gc.freeze()
                gc.disable()
                window_start = time.perf_counter_ns()
            await run_op(rnd, clients, op)
        gc.enable()
        gc.unfreeze()
        steal_end = hosttime.steal_snapshot()
        rnd.steal = (
            steal_end[0] - steal_start[0],
            steal_end[1] - steal_start[1],
        )
        rnd.wal_bytes = _wal_bytes(wal_dir) - wal_start
        if client_tracer is not None:
            from instrument import dump_spans

            rnd.client_spans = dump_spans(client_tracer, os.getpid(), window_start)
        rnd.peak_rss_mib = fleet.peak_rss_mib()
        served = await _salary_rows(clients[0])
        rnd.reports["end"] = fleet.report(True)
        await _close(clients)
        clients = []
        reopened = []
        for _ in range(REOPENS):
            fleet.kill()
            clients, raw, probes = await _launch(fleet, ["--reopen"] + flags, 1, False)
            rnd.reopen.append((raw, probes))
            reopened.append(await _salary_rows(clients[0]))
            await _close(clients)
            clients = []
        rnd.reports["reopen"] = fleet.report(True)
        fleet.stop()
    finally:
        if client_tracer is not None:
            from repro.obs import tracer as trace

            trace.disable()
        gc.enable()
        await _close(clients)
        fleet.kill()
    for name in ("end", "reopen"):
        if not rnd.reports[name].get("consistent"):
            rnd.failures.append(
                f"verify_consistent failed at {name}: "
                f"{rnd.reports[name].get('error')}"
            )
    oracle = Oracle(opsmod.company(spec.employees, company_seed))
    final, rows_changed, failures = oracle.check(rnd.writes, rnd.queries)
    rnd.failures.extend(failures)
    if served != final:
        rnd.failures.append("served Employee.salary differs from the fold")
    if any(rows != final for rows in reopened):
        rnd.failures.append(
            "reopened fleet lost acknowledged writes (Employee.salary "
            "differs from the fold)"
        )
    rnd.rows_changed = sum(rows_changed[rnd.first_measured_write :])
    shutil.rmtree(fleet.base, ignore_errors=True)
    return rnd


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def latencies(rounds: List[Round], kind: str) -> Tuple[List[float], List[float]]:
    """``(corrected, raw)`` latencies (ms) of ``kind`` over ``rounds``."""
    fixed: List[float] = []
    raw: List[float] = []
    for rnd in rounds:
        for op_samples in rnd.samples[kind]:
            values = hosttime.correct_all(op_samples, rnd.probes)
            fixed.append(sum(values))
            raw.append(sum(r for r, _ in op_samples))
    return fixed, raw


def _setup_times(rounds: List[Round], attr: str) -> Tuple[List[float], List[float]]:
    """``(corrected, raw)`` seconds of every setup or reopen.

    A launch lasts about a second, and on the host this was written on
    the probe swings faster than that, so the probes next to a launch
    say little about the speed during it; the factor is the level of
    every probe of the launch's round (the host's phase).
    """
    fixed, raw = [], []
    for rnd in rounds:
        probes = list(rnd.probes)
        for _, launch_probes in rnd.setup + rnd.reopen:
            probes += launch_probes
        level = hosttime.level(probes)
        for seconds, _ in getattr(rnd, attr):
            raw.append(seconds)
            fixed.append(seconds * hosttime.PROBE_REF_MS / level)
    return fixed, raw


def end_to_end(rounds: List[Round], log) -> Dict[str, Tuple[float, str]]:
    percentile = hosttime.percentile
    metrics: Dict[str, Tuple[float, str]] = {}
    total_ops = 0
    total_ms = 0.0
    for kind in KINDS:
        fixed, raw = latencies(rounds, kind)
        total_ops += len(fixed)
        total_ms += sum(fixed)
        if not fixed:
            continue
        metrics[f"{kind}_p50_ms"] = (percentile(fixed, 0.5), "ms")
        q, value, beyond = hosttime.tail_percentile(fixed)
        log(
            f"{kind}: n={len(fixed)} p50={percentile(fixed, 0.5):.3f} "
            f"p90={percentile(fixed, 0.9):.3f} ms"
            + (f" p{100 * q:.1f}={value:.3f} ms ({beyond} beyond)" if q else "")
            + f" | raw p50={percentile(raw, 0.5):.3f} "
            f"p90={percentile(raw, 0.9):.3f} ms"
        )
        if kind in ("write", "query"):
            metrics[f"{kind}_p90_ms"] = (percentile(fixed, 0.9), "ms")
    metrics["ops_per_s"] = (total_ops / (total_ms / 1000.0), "1/s")
    for name, attr in (("setup_s", "setup"), ("reopen_s", "reopen")):
        fixed, raw = _setup_times(rounds, attr)
        metrics[name] = (statistics.median(fixed), "s")
        log(
            f"{name}: n={len(fixed)} corrected={statistics.median(fixed):.4f} "
            f"raw={statistics.median(raw):.4f} s"
        )
    metrics["peak_rss_mb"] = (
        statistics.median(r.peak_rss_mib for r in rounds),
        "MiB",
    )
    rows = sum(r.rows_changed for r in rounds)
    metrics["wal_bytes_per_row"] = (sum(r.wal_bytes for r in rounds) / rows, "B")
    return metrics


def host_diagnostics(rounds: List[Round], log) -> None:
    probes = [p for r in rounds for p in r.probes]
    steal = sum(r.steal[0] for r in rounds)
    total = sum(r.steal[1] for r in rounds)
    if len(probes) >= 2:
        q1, q2, q3 = statistics.quantiles(probes, n=4)
        log(
            f"probe: n={len(probes)} median={q2:.4f} ms "
            f"iqr={q3 - q1:.4f} ms ref={hosttime.PROBE_REF_MS} ms"
        )
    log(f"steal share: {steal / total if total else 0.0:.5f}")
    tiers: Dict[str, int] = {}
    for rnd in rounds:
        for tier, count in rnd.tiers.items():
            tiers[tier] = tiers.get(tier, 0) + count
    log(f"commit tiers (client-seen): {json.dumps(tiers, sort_keys=True)}")


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    log,
    blocks: Optional[int] = None,
) -> Dict[str, Any]:
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    os.makedirs(RUN_DIR)
    started = time.monotonic()
    rounds: List[Round] = []
    # A traced run alternates untraced and traced rounds, so it carries
    # its own base for the tracing overhead.
    minimum = 2 if trace else 1
    last = 0.0
    try:
        # Start another round only if half of one still fits, so the
        # round count does not flip with small changes in round time.
        while len(rounds) < minimum or (
            time.monotonic() - started + last / 2 < seconds
        ):
            traced = trace and len(rounds) % 2 == 1
            round_started = time.monotonic()
            rounds.append(
                asyncio.run(run_round(workload, seed, len(rounds), traced, blocks))
            )
            last = time.monotonic() - round_started
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(RUN_DIR))
        except OSError:
            pass  # another run still uses it
    failures = [f for r in rounds for f in r.failures]
    for failure in failures[:20]:
        log(f"ORACLE FAILURE: {failure}")
    plain = [r for r in rounds if not r.traced]
    log(f"workload={workload} seed={seed} rounds={len(rounds)}")
    host_diagnostics(rounds, log)
    if trace:
        from extract import per_layer

        traced = [r for r in rounds if r.traced]
        metrics = per_layer(traced, log)
        metrics.update(
            trace_overhead(
                end_to_end(plain, lambda line: log(f"untraced {line}")),
                end_to_end(traced, lambda line: log(f"traced {line}")),
                log,
            )
        )
    else:
        metrics = end_to_end(plain, log)
    return {
        "correct": not failures,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {
            name: {"value": _finite(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def trace_overhead(base, traced, log) -> Dict[str, Tuple[float, str]]:
    """``obs.trace_overhead.<timing>``: traced ÷ untraced − 1."""
    out = {}
    for name in ("write_p50_ms", "query_p50_ms", "txn_p50_ms", "cross_p50_ms"):
        overhead = traced[name][0] / base[name][0] - 1.0
        log(
            f"obs.trace_overhead.{name}: {overhead:+.4f} (base {base[name][0]:.3f} ms "
            f"untraced, {traced[name][0]:.3f} ms traced)"
        )
        out[f"obs.trace_overhead.{name}"] = (overhead, "ratio")
    return out


def _finite(value: float) -> float:
    """JSON has no infinity: a failed op's infinite latency prints as
    the largest double."""
    if math.isinf(value):
        return sys.float_info.max
    return value


def smoke(log) -> int:
    """Each workload briefly, untraced and traced; every metric named
    in BENCHMARK.json must be printed with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = run(workload, 1, 0, trace, log, blocks=2)
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            missing = sorted(n for n in wanted if got.get(n) != wanted[n])
            status = "ok" if result["correct"] and not missing else "FAIL"
            ok = ok and status == "ok"
            print(
                f"smoke {workload} trace={int(trace)}: {status} "
                f"correct={result['correct']} failed={result['failed']}"
                + (f" missing={missing}" if missing else "")
            )
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=("ingest", "query_mix", "txn_contend"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"e2ebench: no repro sources at {SRC}; run from a checkout",
            file=sys.stderr,
        )
        return 2
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    sys.path.insert(0, SRC)
    _become_subreaper()
    pin_client()

    def log(line: str) -> None:
        print(line, flush=True)

    if args.smoke:
        return smoke(log)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), log)
    print(json.dumps(result, sort_keys=False))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
