"""Server process of the end-to-end benchmark.

Builds (or, with ``--reopen``, recovers from its WAL directory) a
2-shard process-mode :class:`~repro.store.sharding.ShardedStore` with
fsync WALs, serves it with :class:`~repro.server.ReproServer` on an
ephemeral port and prints the port on stdout.  ``run.py`` starts it in
a process group of its own; the shard workers fork from it and stay in
that group.

Signals from the client:

* ``SIGUSR1`` writes ``report-<n>.json`` with the metrics registry;
* ``SIGUSR2`` does the same, then runs ``verify_consistent()`` and,
  when tracing, adds every span recorded so far;
* ``SIGTERM`` stops the server and closes the store.

The stdout line is ``<port> <ns>``: ``ns`` is ``perf_counter_ns()``
just before the store is built or recovered.

With ``--trace`` the layer wrappers are installed and the program's
tracer is enabled before the fleet forks.
"""

from __future__ import annotations

import argparse
import asyncio
import itertools
import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

SHARDS = 2


def build_store(args):
    from repro.sqlsim.scenarios import employee_object_schema
    from repro.store.sharding import ShardedStore

    if args.reopen:
        return ShardedStore.from_wal_dir(
            args.wal_dir,
            employee_object_schema(),
            ["Employee"],
            shards=SHARDS,
            mode="process",
            durability="fsync",
        )
    from ops import company

    store = ShardedStore(
        company(args.employees, args.seed),
        ["Employee"],
        shards=SHARDS,
        mode="process",
        wal_dir=args.wal_dir,
        durability="fsync",
    )
    store.checkpoint()
    return store


def write_report(path: str, doc) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    os.replace(tmp, path)


async def serve(store, args, tracer, built_from_ns: int) -> None:
    from repro.obs.metrics import global_registry
    from repro.server.server import ReproServer
    from repro.server.testing import standard_methods
    from repro.store.sharding.partition import ShardingError

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    sequence = itertools.count()

    def report(final: bool) -> None:
        doc = {
            "registry": global_registry().to_dict(),
            "head_version": store.coordinator.head.version,
        }
        if final:
            try:
                store.verify_consistent()
                doc["consistent"] = True
            except ShardingError as exc:
                doc["consistent"] = False
                doc["error"] = str(exc)
            if tracer is not None:
                from instrument import dump_spans

                doc["spans"] = dump_spans(tracer, os.getpid())
        write_report(
            os.path.join(args.report_dir, f"report-{next(sequence)}.json"), doc
        )

    loop.add_signal_handler(signal.SIGUSR1, report, False)
    loop.add_signal_handler(signal.SIGUSR2, report, True)
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    try:
        async with ReproServer(store, standard_methods(), port=0) as server:
            print(server.port, built_from_ns, flush=True)
            await stop.wait()
    finally:
        store.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--wal-dir", required=True)
    parser.add_argument("--report-dir", required=True)
    parser.add_argument("--employees", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reopen", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cpu", type=int, default=None)
    args = parser.parse_args()
    if args.cpu is not None:
        # Before the fleet forks: the whole group runs on this CPU.
        os.sched_setaffinity(0, {args.cpu})
    tracer = None
    if args.trace:
        import instrument
        from repro.obs import tracer as trace

        instrument.install_server()
        tracer = trace.enable()
    # Where the store's own work starts (after interpreter start and
    # imports): the client times a reopen from here.
    built_from_ns = time.perf_counter_ns()
    store = build_store(args)
    asyncio.run(serve(store, args, tracer, built_from_ns))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
