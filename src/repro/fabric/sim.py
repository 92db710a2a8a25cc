"""The fabric simulator: N NICs, one event kernel, correlated flows.

:class:`FabricSimulator` is the system-level counterpart of
:class:`~repro.nic.throughput.ThroughputSimulator`: it instantiates
``spec.nics`` full NIC models on a *shared* simulation kernel (each
with namespaced clock domains and, when tracing, a
:class:`~repro.obs.PrefixedTracer` track namespace), wires them through
the deterministic :class:`~repro.fabric.wire.FabricWire`, and drives
them with the flow state machines of :mod:`repro.fabric.flows`.

The measurement protocol mirrors the single-NIC one — run a warm-up
window, snapshot every accumulator, run the measurement window, report
deltas — so warm-up transients (cold descriptor rings, the first RPC
window filling) never pollute the latency distributions.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.fabric.endpoint import NicEndpoint
from repro.fabric.flows import (
    FabricFrame,
    FlowRuntime,
    LatencySummary,
    RpcFlowRuntime,
    build_runtimes,
)
from repro.fabric.flowtable import FlowTable
from repro.fabric.spec import FabricSpec
from repro.fabric.wire import FabricWire
from repro.net.ethernet import EthernetTiming
from repro.nic.config import NicConfig
from repro.nic.throughput import ThroughputResult, check_window
from repro.obs import NULL_TRACER, PrefixedTracer
from repro.qos.runtime import QosRuntime
from repro.sim.kernel import Simulator
from repro.sim.stats import StatRegistry
from repro.units import ps_to_seconds

if TYPE_CHECKING:
    from repro.faults import FaultPlan
    from repro.host.rss import RssSpec


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class FlowResult:
    """Measured-window statistics of one flow."""

    name: str
    kind: str                      # "rpc" | "stream"
    delivered: int
    lost: int
    retransmits: int
    delivered_payload_bytes: int
    goodput_gbps: float
    oneway: LatencySummary
    completed: int = 0             # RPC exchanges finished (client side)
    rtt: Optional[LatencySummary] = None

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "kind": self.kind,
            "delivered": self.delivered,
            "lost": self.lost,
            "retransmits": self.retransmits,
            "delivered_payload_bytes": self.delivered_payload_bytes,
            "goodput_gbps": self.goodput_gbps,
            "oneway": self.oneway.to_dict(),
        }
        if self.rtt is not None:
            out["completed"] = self.completed
            out["rtt"] = self.rtt.to_dict()
        return out


@dataclass
class FabricResult:
    """One fabric run's measured window, across every layer."""

    spec: FabricSpec
    measure_seconds: float
    flows: Dict[str, FlowResult]
    nics: List[ThroughputResult]
    aggregate_goodput_gbps: float
    switch_forwarded: int
    switch_drops: int
    mac_drops: int
    fault_counters: Dict[str, float] = field(default_factory=dict)
    #: Per-traffic-class report (scheduler, per-class goodput/latency/
    #: drop/pause counters) — ``None`` (and absent from :meth:`to_dict`)
    #: unless the spec carries a QoS config.
    qos: Optional[Dict[str, object]] = None
    #: Composed-topology report (per-link counters, per-switch
    #: forwarding, sharded flow-table summary) — ``None`` (and absent
    #: from :meth:`to_dict`) unless the spec carries a topology.
    topology: Optional[Dict[str, object]] = None

    @property
    def primary_flow(self) -> FlowResult:
        """The headline flow: the first RPC flow if any, else the first."""
        for result in self.flows.values():
            if result.kind == "rpc":
                return result
        return next(iter(self.flows.values()))

    def to_dict(self) -> Dict[str, object]:
        from repro.exp.spec import describe

        out: Dict[str, object] = {
            "spec": describe(self.spec),
            "measure_seconds": self.measure_seconds,
            "flows": {name: f.to_dict() for name, f in self.flows.items()},
            "aggregate_goodput_gbps": self.aggregate_goodput_gbps,
            "switch_forwarded": self.switch_forwarded,
            "switch_drops": self.switch_drops,
            "mac_drops": self.mac_drops,
            "fault_counters": dict(self.fault_counters),
            "nics": [self._nic_dict(nic) for nic in self.nics],
        }
        # QoS runs carry the per-class report; legacy JSON stays
        # byte-identical.
        if self.qos is not None:
            out["qos"] = self.qos
        # Same contract for composed topologies.
        if self.topology is not None:
            out["topology"] = self.topology
        return out

    @staticmethod
    def _nic_dict(nic: ThroughputResult) -> Dict[str, object]:
        out: Dict[str, object] = {
            "tx_frames": nic.tx_frames,
            "rx_frames": nic.rx_frames,
            "tx_payload_bytes": nic.tx_payload_bytes,
            "rx_payload_bytes": nic.rx_payload_bytes,
            "rx_dropped": nic.rx_dropped,
            "core_utilization": nic.core_utilization,
        }
        # Multi-queue runs carry the per-ring/per-core report; legacy
        # single-ring JSON stays byte-identical.
        if nic.rss is not None:
            out["rss"] = nic.rss
        return out


# ----------------------------------------------------------------------
# The simulator
# ----------------------------------------------------------------------
class FabricSimulator:
    """N correlated NIC endpoints behind one deterministic kernel."""

    def __init__(
        self,
        config: NicConfig,
        spec: FabricSpec,
        tracer=None,
        fault_plan: Optional[FaultPlan] = None,
        rss: Optional[RssSpec] = None,
    ) -> None:
        self.config = config
        self.spec = spec
        #: Multi-queue host interface applied to every endpoint;
        #: ``None`` keeps the paper's single-ring hosts byte-identical.
        self.rss = rss
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.timing = EthernetTiming()
        self.sim = Simulator()
        self.stats = StatRegistry()
        self.endpoints: List[NicEndpoint] = []
        for index in range(spec.nics):
            endpoint_plan = None
            if fault_plan is not None and fault_plan.enabled:
                # Distinct decision streams per endpoint, reproducibly
                # derived from the plan seed and the fabric salt.
                endpoint_plan = dataclasses.replace(
                    fault_plan, seed=fault_plan.seed + spec.seed + index
                )
            endpoint_tracer = (
                PrefixedTracer(self.tracer, f"nic{index}/")
                if self.tracer.enabled
                else NULL_TRACER
            )
            self.endpoints.append(
                NicEndpoint(
                    config,
                    fabric=self,
                    index=index,
                    tracer=endpoint_tracer,
                    fault_plan=endpoint_plan,
                    rss=rss,
                )
            )
        self.wire = FabricWire(self, spec)
        #: Sharded per-flow-tuple state (``None`` without a topology).
        #: Shard placement uses the same keyed hash as ECMP routing, so
        #: a flow's record lives where its path decisions are drawn.
        self.flow_table: Optional[FlowTable] = (
            FlowTable(
                shards=spec.topology.flow_shards,
                seed=spec.topology.ecmp_seed,
            )
            if spec.topology is not None
            else None
        )
        self.flows: Dict[str, FlowRuntime] = build_runtimes(self)
        #: Per-class counts + PFC pause routing (``None`` without a QoS
        #: config; constructing it also stamps every flow's ``_qos_tag``
        #: so posted frames carry their class).
        self.qos_runtime: Optional[QosRuntime] = (
            QosRuntime(self) if spec.qos is not None else None
        )
        self.mac_drops = 0
        self._started = False

    # ------------------------------------------------------------------
    # Wire/endpoint callbacks
    # ------------------------------------------------------------------
    def frame_delivered(self, frame: FabricFrame, now_ps: int) -> None:
        self.flows[frame.flow].on_delivered(frame, now_ps)
        if self.flow_table is not None:
            self.flow_table.record_delivery(
                frame.flow,
                frame.src,
                frame.dst,
                (now_ps - frame.created_ps) / 1e6,
                frame.udp_payload_bytes,
            )
        if self.qos_runtime is not None:
            self.qos_runtime.on_delivered(frame, now_ps)

    def qos_pause(self, port: Union[int, str], cls: int, now_ps: int) -> None:
        """Wire XOFF: the class queue on ``port`` crossed its watermark."""
        self.qos_runtime.pause(port, cls, now_ps)

    def qos_resume(self, port: Union[int, str], cls: int, now_ps: int) -> None:
        """Wire XON: the class queue drained to its resume watermark."""
        self.qos_runtime.resume(port, cls, now_ps)

    def frame_lost(self, frame: FabricFrame, now_ps: int, reason: str) -> None:
        if reason == "mac_overrun":
            self.mac_drops += 1
        self.stats.counter(f"fabric.lost.{reason}").add()
        if self.flow_table is not None:
            self.flow_table.record_loss(frame.flow, frame.src, frame.dst)
        self.flows[frame.flow].on_lost(frame, now_ps)

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for endpoint in self.endpoints:
            endpoint.start()
        for flow in self.flows.values():
            self.sim.schedule(0, flow.start)

    def metrics_snapshot(self) -> Dict[str, float]:
        """Fabric-level registry view (flow latency histograms, loss
        counters) merged with per-NIC snapshots under ``nic<i>.``."""
        values = dict(self.stats.snapshot())
        for index, endpoint in enumerate(self.endpoints):
            for name, value in endpoint.metrics_snapshot().items():
                values[f"nic{index}.{name}"] = value
        values["counter.fabric.switch_drops"] = float(self.wire.drops)
        values["counter.fabric.switch_forwarded"] = float(self.wire.forwarded)
        return values

    # ------------------------------------------------------------------
    def run(self, warmup_s: float = 0.2e-3, measure_s: float = 0.5e-3) -> FabricResult:
        check_window(warmup_s, measure_s)
        warmup_ps = round(warmup_s * 1e12)
        measure_ps = round(measure_s * 1e12)
        self.start()
        self.sim.run(until_ps=warmup_ps)
        nic_snaps = [endpoint._snapshot() for endpoint in self.endpoints]
        flow_snaps = {name: flow.window_snapshot() for name, flow in self.flows.items()}
        wire_snap = self.wire.window_snapshot()
        qos_snap = (
            self.qos_runtime.window_snapshot()
            if self.qos_runtime is not None else None
        )
        topo_snap = self.wire.topology_window_snapshot()
        table_snap = (
            self.flow_table.window_snapshot()
            if self.flow_table is not None else None
        )
        # Measured-window registry semantics: histograms restart so the
        # percentile snapshots (and the metrics sampler) exclude cold
        # warm-up samples.
        self.stats.reset_window(histograms=True)
        if self.flow_table is not None:
            self.flow_table.reset_window()
        self.sim.run(until_ps=warmup_ps + measure_ps)
        return self._build_result(
            nic_snaps, flow_snaps, wire_snap, measure_ps, qos_snap,
            topo_snap, table_snap,
        )

    # ------------------------------------------------------------------
    def _build_result(
        self,
        nic_snaps,
        flow_snaps: Dict[str, Dict[str, int]],
        wire_snap: Dict[str, int],
        measure_ps: int,
        qos_snap: Optional[Dict[str, object]] = None,
        topo_snap: Optional[Dict[str, List[int]]] = None,
        table_snap: Optional[Dict[str, int]] = None,
    ) -> FabricResult:
        measure_seconds = ps_to_seconds(measure_ps)
        flow_results: Dict[str, FlowResult] = {}
        for name, flow in self.flows.items():
            snap = flow_snaps[name]
            payload = flow.delivered_payload_bytes - snap["delivered_payload_bytes"]
            result = FlowResult(
                name=name,
                kind=flow.kind,
                delivered=flow.delivered - snap["delivered"],
                lost=flow.lost - snap["lost"],
                retransmits=flow.retransmitted - snap["retransmitted"],
                delivered_payload_bytes=payload,
                goodput_gbps=payload * 8 / measure_seconds / 1e9,
                oneway=flow.oneway_summary(snap["oneway_index"]),
            )
            if isinstance(flow, RpcFlowRuntime):
                result.completed = flow.completed - snap["completed"]
                result.rtt = flow.rtt_summary(snap["rtt_index"])
            flow_results[name] = result
        nic_results = [
            endpoint._build_result(snap, measure_ps)
            for endpoint, snap in zip(self.endpoints, nic_snaps)
        ]
        aggregate = sum(result.goodput_gbps for result in flow_results.values())
        fault_counters: Dict[str, float] = {}
        for nic in nic_results:
            for key, value in (nic.fault_counters or {}).items():
                fault_counters[key] = fault_counters.get(key, 0.0) + value
        return FabricResult(
            spec=self.spec,
            measure_seconds=measure_seconds,
            flows=flow_results,
            nics=nic_results,
            aggregate_goodput_gbps=aggregate,
            switch_forwarded=self.wire.forwarded - wire_snap["forwarded"],
            switch_drops=self.wire.drops - wire_snap["drops"],
            mac_drops=sum(
                endpoint._rx_dropped - snap["rx_dropped"]
                for endpoint, snap in zip(self.endpoints, nic_snaps)
            ),
            fault_counters=fault_counters,
            qos=(
                self.qos_runtime.build_result(qos_snap, flow_snaps, measure_ps)
                if self.qos_runtime is not None and qos_snap is not None
                else None
            ),
            topology=(
                self._topology_report(topo_snap or {}, table_snap or {})
                if self.spec.topology is not None
                else None
            ),
        )

    def _topology_report(
        self,
        topo_snap: Dict[str, List[int]],
        table_snap: Dict[str, int],
    ) -> Dict[str, object]:
        """Measured-window per-link / per-switch / flow-table report."""
        topo = self.spec.topology
        per_link: Dict[str, Dict[str, int]] = {}
        for key, (entered, forwarded, dropped) in sorted(
            self.wire.link_counts.items()
        ):
            base = topo_snap.get(key, [0, 0, 0])
            per_link[key] = {
                "entered": entered - base[0],
                "forwarded": forwarded - base[1],
                "dropped": dropped - base[2],
            }
        per_switch: Dict[str, int] = {}
        for key, counts in per_link.items():
            switch = key.split("->", 1)[0]
            per_switch[switch] = per_switch.get(switch, 0) + counts["forwarded"]
        if not table_snap:
            table_snap = {"delivered": 0, "lost": 0, "payload_bytes": 0}
        return {
            "switches": len(topo.switches),
            "links": 2 * len(topo.switch_links) + len(topo.host_links),
            "hop_bound": self.wire.router.hop_bound(),
            "per_link": per_link,
            "per_switch": {name: per_switch[name] for name in sorted(per_switch)},
            "flow_table": self.flow_table.summary(table_snap),
        }
