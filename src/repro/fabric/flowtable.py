"""Sharded flow-state table: bounded-memory stats for ~10⁵–10⁶ flows.

The pre-topology fabric kept flow state in one per-simulator dict of
:class:`~repro.fabric.flows.FlowRuntime` objects — fine for a handful
of declared flows, hopeless for datacenter-scale runs where the *flow
population* is the workload (Wu et al.'s transport-friendly-NIC
argument: per-shard flow-state partitioning is the prerequisite for
scaling the host side).  A :class:`FlowTable` partitions flow records
across shards by the same keyed blake2b hash that ECMP-routes the flow
(:func:`repro.fabric.topology.ecmp_hash`), so record placement is
deterministic, interleaving-independent, and consistent with the
fabric's path choices.

Each shard holds compact ``__slots__`` counters per flow tuple plus one
:class:`~repro.obs.hist.StreamingHistogram` latency sketch in its own
:class:`~repro.sim.stats.StatRegistry`; cross-shard aggregation goes
through the existing :meth:`StatRegistry.merge_streaming` (bucket-exact
— the shard-merge-equals-unsharded property test pins it).  Memory is
O(flows · record + shards · sketch buckets) — no per-sample state —
which is what the 1024-endpoint scale test's RSS bound enforces.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.fabric.flows import LATENCY_SIGNIFICANT_DIGITS, LatencySummary
from repro.fabric.topology import ecmp_hash
from repro.obs.hist import StreamingHistogram
from repro.sim.stats import StatRegistry

#: Registry name of each shard's one-way latency sketch.
SKETCH_NAME = "flowtable.oneway_us"

FlowKey = Tuple[str, int, int]


class FlowRecord:
    """Per-flow-tuple counters (one compact record per (flow, src, dst))."""

    __slots__ = ("delivered", "lost", "payload_bytes")

    def __init__(self) -> None:
        self.delivered = 0
        self.lost = 0
        self.payload_bytes = 0


class FlowTable:
    """Flow records partitioned across shards by the ECMP hash."""

    def __init__(
        self,
        shards: int = 8,
        seed: int = 0,
        significant_digits: int = LATENCY_SIGNIFICANT_DIGITS,
    ) -> None:
        if shards < 1:
            raise ValueError("flow table needs at least one shard")
        self.shards = shards
        self.seed = seed
        self.significant_digits = significant_digits
        self._records: List[Dict[FlowKey, FlowRecord]] = [
            {} for _ in range(shards)
        ]
        # Home shard per flow tuple: one keyed hash draw per tuple.
        self._homes: Dict[FlowKey, int] = {}
        self.registries: List[StatRegistry] = [
            StatRegistry() for _ in range(shards)
        ]
        self._sketches: List[StreamingHistogram] = [
            registry.streaming_histogram(SKETCH_NAME, significant_digits)
            for registry in self.registries
        ]
        self.delivered = 0
        self.lost = 0
        self.payload_bytes = 0

    # ------------------------------------------------------------------
    def shard_of(self, flow: str, src: int, dst: int) -> int:
        """Deterministic home shard of a flow tuple (the same keyed
        draw that ECMP-routes the tuple, reduced mod the shard count)."""
        key = (flow, src, dst)
        shard = self._homes.get(key)
        if shard is None:
            shard = self._homes[key] = (
                ecmp_hash(self.seed, flow, src, dst) % self.shards
            )
        return shard

    def _record(self, shard: int, flow: str, src: int, dst: int) -> FlowRecord:
        records = self._records[shard]
        key = (flow, src, dst)
        record = records.get(key)
        if record is None:
            record = records[key] = FlowRecord()
        return record

    def record_delivery(
        self, flow: str, src: int, dst: int,
        oneway_us: float, payload_bytes: int,
    ) -> None:
        shard = self.shard_of(flow, src, dst)
        record = self._record(shard, flow, src, dst)
        record.delivered += 1
        record.payload_bytes += payload_bytes
        self.delivered += 1
        self.payload_bytes += payload_bytes
        self._sketches[shard].record(oneway_us)

    def record_loss(self, flow: str, src: int, dst: int) -> None:
        self._record(self.shard_of(flow, src, dst), flow, src, dst).lost += 1
        self.lost += 1

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(shard) for shard in self._records)

    def shard_sizes(self) -> List[int]:
        return [len(shard) for shard in self._records]

    def get(self, flow: str, src: int, dst: int) -> FlowRecord:
        key = (flow, src, dst)
        return self._records[self.shard_of(flow, src, dst)].get(key)

    def merged_registry(self) -> StatRegistry:
        """All shards' sketches folded into one fresh registry via the
        sweep/shard aggregation path (:meth:`StatRegistry.merge_streaming`
        — bucket-exact, so the merged distribution is identical to an
        unsharded ingest of the same samples)."""
        merged = StatRegistry()
        for registry in self.registries:
            merged.merge_streaming(registry)
        return merged

    def merged_oneway(self) -> StreamingHistogram:
        return self.merged_registry().streaming_histogram(
            SKETCH_NAME, self.significant_digits
        )

    # ------------------------------------------------------------------
    # Measurement-window support
    # ------------------------------------------------------------------
    def window_snapshot(self) -> Dict[str, int]:
        return {
            "delivered": self.delivered,
            "lost": self.lost,
            "payload_bytes": self.payload_bytes,
        }

    def reset_window(self) -> None:
        """Restart every shard's latency sketch at the warm-up boundary
        (the fabric's measured-window registry semantics)."""
        for registry in self.registries:
            registry.reset_window(histograms=True)

    def summary(self, snapshot: Dict[str, int]) -> Dict[str, object]:
        """Measured-window report for ``FabricResult.topology``."""
        oneway = LatencySummary.from_streaming(self.merged_oneway())
        return {
            "shards": self.shards,
            "flows": len(self),
            "shard_sizes": self.shard_sizes(),
            "delivered": self.delivered - snapshot["delivered"],
            "lost": self.lost - snapshot["lost"],
            "payload_bytes": self.payload_bytes - snapshot["payload_bytes"],
            "oneway": oneway.to_dict(),
        }


__all__ = ["FlowKey", "FlowRecord", "FlowTable", "SKETCH_NAME"]
