"""Classifying receiver batches against the shard layout.

The router turns a ``(method, receivers)`` batch into a
:class:`Route`: either **disjoint** — the batch splits into per-shard
sub-batches whose writes are provably disjoint row sets — or
**cross_shard** — no such certificate exists.  The route is the
batch's classification, reported to the caller; every batch takes the
same write route through
:class:`~repro.store.sharding.service.ShardedStore` (evaluated and
committed on the coordinator, then staged to the shards).

A batch routes disjoint exactly when the partitioning can *certify*
independence before execution:

1. every receiver's receiving object belongs to a partition class, so
   its writes land on a known home shard;
2. the method's write region is confined to partitioned relations
   (sub-batch write row sets are then disjoint — each row is keyed by
   the receiving object in the source column);
3. the method's read region avoids partitioned relations, so every
   shard's replicated copy of what the evaluation reads equals the
   global state, and shard-local ``par(E)`` evaluation of a sub-batch
   agrees with the global evaluation restricted to it (Def. 6.2 —
   every receiver's new edges depend only on the pre-state).

Condition 3 is deliberately conservative: a method that reads its own
written relation (scenario C's ``manager.salary`` chain) is
order-*dependent* in general and classifies cross-shard; the
coordinator decides commutativity with the usual
structural/replay/semantic tiers for every batch anyway.  A fourth,
receiver-shaped condition guards the slices' *borrowing* model: a
receiver argument living in a partition class may be owned by another
shard, so a shard-local evaluation could not even see it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.coloring.regions import UpdateRegion, method_region
from repro.core.receiver import Receiver
from repro.obs.metrics import global_registry
from repro.store.sharding.partition import Partitioning

DISJOINT = "disjoint"
CROSS_SHARD = "cross_shard"


@dataclass(frozen=True)
class Route:
    """The routing decision for one batch."""

    kind: str
    reason: str
    region: UpdateRegion
    sub_batches: Dict[int, Tuple[Receiver, ...]]
    degraded_shards: Tuple[int, ...] = ()
    """Touched shards currently served by the coordinator-side inline
    fallback (their worker is down and past its restart budget).  The
    batch still executes — this is the route's visibility into the
    degraded fleet, not a failure."""

    @property
    def is_disjoint(self) -> bool:
        return self.kind == DISJOINT


class Router:
    """Classifies batches against a fixed :class:`Partitioning`."""

    def __init__(self, partitioning: Partitioning) -> None:
        self.partitioning = partitioning

    def route(
        self,
        method,
        receivers: Sequence[Receiver],
        degraded: Sequence[int] = (),
    ) -> Route:
        """Classify ``(method, receivers)`` against the structural
        :func:`method_region` of ``method``.  ``degraded`` names shards
        currently on the inline fallback; touched ones are reported on
        the route and counted.
        """
        started = time.perf_counter()
        try:
            route = self._route(method, receivers, degraded)
            if route.degraded_shards:
                global_registry().counter(
                    "store.shard.route.degraded_batches"
                ).inc()
            return route
        finally:
            global_registry().histogram(
                "store.shard.route_ms"
            ).observe((time.perf_counter() - started) * 1000.0)

    def _route(
        self,
        method,
        receivers: Sequence[Receiver],
        degraded: Sequence[int] = (),
    ) -> Route:
        region = method_region(method)
        sub_batches = self.partitioning.split_receivers(receivers)
        touched_degraded = tuple(
            shard for shard in sorted(sub_batches) if shard in set(degraded)
        )

        stray = sorted(
            {
                receiver.receiving_object.cls
                for receiver in receivers
                if receiver.receiving_object.cls
                not in self.partitioning.partition_classes
            }
        )
        if stray:
            return Route(
                CROSS_SHARD,
                f"receiving class(es) {stray} not partitioned",
                region,
                sub_batches,
                touched_degraded,
            )
        foreign_args = sorted(
            {
                obj.cls
                for receiver in receivers
                for obj in receiver.objects[1:]
                if obj.cls in self.partitioning.partition_classes
            }
        )
        if foreign_args:
            # An argument in a partition class may live on another
            # shard (the slice only borrows objects its edges point
            # at), so a shard-local evaluation could not even see it.
            return Route(
                CROSS_SHARD,
                f"receiver argument class(es) {foreign_args} are "
                "partitioned",
                region,
                sub_batches,
                touched_degraded,
            )
        reason = self.partitioning.disjoint_reason(region)
        if reason is not None:
            return Route(
                CROSS_SHARD, reason, region, sub_batches, touched_degraded
            )
        return Route(
            DISJOINT,
            f"writes partitioned, reads replicated, "
            f"{len(sub_batches)} shard(s)",
            region,
            sub_batches,
            touched_degraded,
        )


__all__ = ["CROSS_SHARD", "DISJOINT", "Route", "Router"]
