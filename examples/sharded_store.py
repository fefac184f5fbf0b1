"""The coloring-partitioned sharded store, end to end.

* builds a company object base and a 4-shard fleet (one worker process
  per shard, each with its own in-memory ``VersionedStore``; the
  coordinator's WAL is the fleet's only log);
* applies scenario (B') raises — the router *proves* the sub-batches
  disjoint from the method's read/write region and reports the batch
  ``disjoint``;
* applies a scenario (C') manager-salary update — it reads its own
  written relation, so the router reports it ``cross_shard``;
* every batch, whatever its class, commits on the coordinator and is
  staged to the shards as that committed version;
* reassembles the shard fleet and checks it against the coordinator
  head, then recovers the whole fleet from the coordinator's WAL, every
  shard spawned from a fresh slice of the recovered head.

Run:  python examples/sharded_store.py
      python examples/sharded_store.py --trace trace.json --flight flight.json
      REPRO_SHARDS=2 python examples/sharded_store.py

With ``--trace`` the run emits a stitched Chrome trace — coordinator
plus one labelled process row per shard worker; with ``--flight`` the
always-on flight recorder's ring is flushed on exit (crash included).
"""

import os
import tempfile

from repro.coloring.regions import method_region
from repro.core.receiver import Receiver
from repro.obs.metrics import global_registry
from repro.sqlsim.scenarios import (
    employee_object_schema,
    scenario_b_method,
    scenario_c_method,
)
from repro.store import ShardedStore
from repro.workloads.sharded import raise_batches, sharded_company


def main() -> None:
    shards = int(os.environ.get("REPRO_SHARDS", "4"))
    instance, receivers = sharded_company(n_employees=32, seed=7)
    method_b, method_c = scenario_b_method(), scenario_c_method()

    print("read/write regions (the router's certificate):")
    for method in (method_b, method_c):
        region = method_region(method)
        print(
            f"  {method.name}: reads={sorted(region.reads)} "
            f"writes={sorted(region.writes)}"
        )
    print()

    with tempfile.TemporaryDirectory() as wal_dir:
        store = ShardedStore(
            instance,
            ["Employee"],
            shards=shards,
            mode="process",
            wal_dir=wal_dir,
            durability="fsync",
        )
        try:
            print("scenario (B') raises, batches of 8:")
            for batch in raise_batches(receivers, 8):
                version, route, _ = store.apply_batch(method_b, batch)
                print(
                    f"  v{version.version}: {route.kind} "
                    f"({route.reason})"
                )
            print()

            print("scenario (C') manager salaries:")
            c_batch = [
                Receiver([r.receiving_object]) for r in receivers[:6]
            ]
            version, route, _ = store.apply_batch(method_c, c_batch)
            print(f"  v{version.version}: {route.kind} ({route.reason})")
            print()

            store.verify_consistent()
            print("shard fleet == coordinator head: verified")
            counters = global_registry().counters()
            for name in sorted(counters):
                if name.startswith("store.shard.") or (
                    name.startswith("shard") and name.endswith(".store.commits")
                ):
                    print(f"  {name} = {counters[name]}")
            histograms = global_registry().histograms()
            for name in sorted(histograms):
                if name.startswith("shard") and name.endswith("stage_ms"):
                    p = histograms[name]["percentiles"]
                    print(
                        f"  {name}: p50={p['p50']:.3f}ms "
                        f"p99={p['p99']:.3f}ms"
                    )
            head = store.coordinator.head.database.fingerprints()
        finally:
            store.close()

        recovered = ShardedStore.from_wal_dir(
            wal_dir, employee_object_schema(), ["Employee"], shards=shards
        )
        try:
            assert (
                recovered.coordinator.head.database.fingerprints()
                == head
            )
            recovered.verify_consistent()
            print("\nrecovered the fleet from the coordinator WAL: ok")
        finally:
            recovered.close()


if __name__ == "__main__":
    from repro.obs.cli import run_traced

    run_traced(main, "example.sharded_store")
