"""Datacenter-scale harness: many endpoints, many flows, one wire.

:class:`~repro.fabric.sim.FabricSimulator` instantiates a *full* NIC
model per endpoint — descriptor rings, firmware cores, SDRAM — which is
the right fidelity for tens of endpoints and hopeless for a thousand.
:class:`ScaleFabric` keeps the parts the topology tentpole actually
exercises — the real event kernel, the real
:class:`~repro.fabric.wire.FabricWire` graph forwarding (ECMP, per-link
ports, tail-drop), the real sharded
:class:`~repro.fabric.flowtable.FlowTable` — and replaces each NIC with
a frame source/sink a few machine words wide.  Frames enter the wire
with synthetic MAC timing (:class:`~repro.assists.mac.WireEvent`
stamped at post time) and leave it straight into the flow table.

That trade keeps the scale test honest where it matters (the new graph
code paths run at 1024 endpoints / 10⁵ stateful flows under wall-time
and RSS budgets; see ``tests/test_fabric_scale.py``) without asserting
anything about NIC internals the small-fabric tests already pin.

Everything is deterministic: flow endpoints come from a fixed
arithmetic schedule, batches post on a fixed-interval kernel event,
and the wire's ECMP draws are keyed hashes — two runs of the same
``ScaleFabric`` produce identical counters.
"""

from __future__ import annotations

from typing import Dict

from repro.assists.mac import WireEvent
from repro.fabric.flows import FabricFrame
from repro.fabric.flowtable import FlowTable
from repro.fabric.spec import FabricSpec, StreamFlowSpec
from repro.fabric.topology import TopologySpec
from repro.fabric.wire import FabricWire
from repro.net.ethernet import EthernetTiming
from repro.obs import NULL_TRACER
from repro.sim.kernel import Simulator

#: Large prime stride so consecutive flows land on unrelated
#: destination hosts (and hence racks) without any randomness.
_DST_STRIDE = 7919


class _ScaleEndpoint:
    """A frame sink: delivery goes straight into the flow table."""

    __slots__ = ("fabric", "index", "faults")

    def __init__(self, fabric: "ScaleFabric", index: int) -> None:
        self.fabric = fabric
        self.index = index
        self.faults = None  # the wire's drop path checks for fault hooks

    def rx_arrive(self, frame: FabricFrame, now_ps: int) -> None:
        fabric = self.fabric
        fabric.delivered += 1
        fabric.flow_table.record_delivery(
            frame.flow,
            frame.src,
            frame.dst,
            (now_ps - frame.created_ps) / 1e6,
            frame.udp_payload_bytes,
        )


class ScaleFabric:
    """Graph forwarding + flow table at scale, NIC models elided.

    Duck-types the slice of :class:`~repro.fabric.sim.FabricSimulator`
    the wire consumes (``sim``, ``timing``, ``tracer``, ``endpoints``,
    ``frame_lost``), so :class:`FabricWire` runs unmodified — including
    its monitor hooks when a caller attaches one to ``self.sim`` and
    ``self.wire``.
    """

    def __init__(
        self,
        topology: TopologySpec,
        payload_bytes: int = 256,
        post_batch: int = 64,
        post_interval_ps: int = 500_000,
        port_queue_frames: int = 64,
    ) -> None:
        nics = len(topology.endpoints())
        if nics < 2:
            raise ValueError("scale fabric needs at least two endpoints")
        # The spec's mandatory flow list is a validation artifact here —
        # ScaleFabric generates its own flow population.
        self.spec = FabricSpec(
            nics=nics,
            switch=True,
            topology=topology,
            port_queue_frames=port_queue_frames,
            stream_flows=(StreamFlowSpec(src=0, dst=1, name="seed0"),),
        )
        self.topology = topology
        self.payload_bytes = payload_bytes
        self.post_batch = post_batch
        self.post_interval_ps = post_interval_ps
        self.sim = Simulator()
        self.timing = EthernetTiming()
        self.tracer = NULL_TRACER
        self.endpoints = [_ScaleEndpoint(self, index) for index in range(nics)]
        self.wire = FabricWire(self, self.spec)
        self.flow_table = FlowTable(
            shards=topology.flow_shards, seed=topology.ecmp_seed
        )
        self.posted = 0
        self.delivered = 0
        self.lost = 0
        self._next_flow = 0
        self._flows_total = 0

    # -- wire callbacks -------------------------------------------------
    def frame_lost(self, frame: FabricFrame, now_ps: int, reason: str) -> None:
        self.lost += 1
        self.flow_table.record_loss(frame.flow, frame.src, frame.dst)

    # -- deterministic flow schedule ------------------------------------
    def flow_pair(self, index: int) -> tuple:
        """Source/destination of synthetic flow ``index`` (arithmetic,
        so the schedule is identical across runs and platforms)."""
        nics = self.spec.nics
        src = index % nics
        dst = (index * _DST_STRIDE + 1) % nics
        if dst == src:
            dst = (dst + 1) % nics
        return src, dst

    def _post_batch(self) -> None:
        now_ps = self.sim.now_ps
        end = min(self._next_flow + self.post_batch, self._flows_total)
        for index in range(self._next_flow, end):
            src, dst = self.flow_pair(index)
            frame = FabricFrame(
                flow=f"f{index}",
                src=src,
                dst=dst,
                udp_payload_bytes=self.payload_bytes,
                kind="stream",
                request_id=index,
                created_ps=now_ps,
            )
            wire_end = now_ps + self.timing.frame_time_ps(frame.frame_bytes)
            self.wire.transmit(
                src,
                frame,
                WireEvent(
                    seq=index,
                    wire_start_ps=now_ps,
                    wire_end_ps=wire_end,
                    sdram_done_ps=wire_end,
                ),
            )
            self.posted += 1
        self._next_flow = end
        if end < self._flows_total:
            self.sim.schedule_at(now_ps + self.post_interval_ps, self._post_batch)

    # -- driver ---------------------------------------------------------
    def run(self, flows: int) -> Dict[str, object]:
        """Post ``flows`` one-frame flows in timed batches, drain the
        kernel, and report conservation-checkable totals."""
        if flows < 1:
            raise ValueError("need at least one flow")
        self._flows_total = self._next_flow + flows
        self.sim.schedule_at(self.sim.now_ps, self._post_batch)
        self.sim.run()
        table = self.flow_table
        return {
            "endpoints": self.spec.nics,
            "switches": len(self.topology.switches),
            "posted": self.posted,
            "delivered": self.delivered,
            "lost": self.lost,
            "flows": len(table),
            "shard_sizes": table.shard_sizes(),
            "links_used": len(self.wire.link_counts),
            "link_counts": {
                key: list(counts)
                for key, counts in sorted(self.wire.link_counts.items())
            },
        }


__all__ = ["ScaleFabric"]
