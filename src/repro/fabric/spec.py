"""Serializable descriptions of a multi-NIC fabric experiment.

Everything here is a frozen dataclass built from primitives, so a
:class:`FabricSpec` rides inside a :class:`repro.exp.spec.RunSpec`
(``fabric_spec`` field), canonicalizes through
:func:`repro.exp.spec.describe`, and content-hashes into the experiment
engine's cache keys exactly like the :class:`~repro.faults.FaultPlan`
does.  The live objects — endpoints, wires, flow state machines — are
built from these specs by :class:`repro.fabric.sim.FabricSimulator`.

Two flow families cover the latency workloads the single-NIC harness
cannot express:

* :class:`RpcFlowSpec` — a *closed-loop* request/response flow: the
  client keeps ``concurrency`` requests outstanding, the server turns
  each delivered request into a response, and every completed exchange
  immediately (after ``think_ps``) issues the next.  This is the
  PsPIN-style "time to completion under offered load" measurement:
  RTT percentiles under a fixed window of outstanding work.
* :class:`StreamFlowSpec` — an *open-loop* bulk stream paced at a
  fraction of line rate, built on the same
  :class:`~repro.net.workload.FrameSizeModel` family as the paper's
  saturation workloads (constant-size or the IMIX extension).  Streams
  provide background load for load-vs-latency sweeps and measure
  one-way delivery latency and loss.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

from repro.net.ethernet import MAX_UDP_PAYLOAD_BYTES, MIN_UDP_PAYLOAD_BYTES
from repro.fabric.topology import TopologySpec
from repro.qos.spec import QosSpec


def _check_payload(value: int, what: str) -> None:
    if not MIN_UDP_PAYLOAD_BYTES <= value <= MAX_UDP_PAYLOAD_BYTES:
        raise ValueError(
            f"{what} {value} outside "
            f"[{MIN_UDP_PAYLOAD_BYTES}, {MAX_UDP_PAYLOAD_BYTES}]"
        )


@dataclass(frozen=True)
class RpcFlowSpec:
    """A closed-loop request/response flow between two endpoints.

    ``concurrency`` is the client's outstanding-request window (the
    closed-loop "load"); ``think_ps`` is client think time between a
    response landing and the next request being posted.  A lost request
    or response is retransmitted after ``retry_delay_ps`` with the
    original RTT clock still running, so loss shows up as latency tail,
    not as silently vanished samples.
    """

    client: int = 0
    server: int = 1
    request_payload_bytes: int = 64
    response_payload_bytes: int = 1472
    concurrency: int = 4
    think_ps: int = 0
    retry_delay_ps: int = 2_000_000  # 2 us
    name: str = ""
    #: Traffic-class assignment when the fabric carries a ``qos``
    #: config ("" = the spec's default class).  Omitted from
    #: :func:`~repro.exp.spec.describe` at its default so untagged
    #: flows hash exactly as before the QoS layer existed.
    qos_class: str = ""

    DESCRIBE_OMIT_DEFAULTS = ("qos_class",)

    def __post_init__(self) -> None:
        _check_payload(self.request_payload_bytes, "request payload")
        _check_payload(self.response_payload_bytes, "response payload")
        if self.concurrency < 1:
            raise ValueError("rpc concurrency must be >= 1")
        if self.think_ps < 0 or self.retry_delay_ps < 0:
            raise ValueError("rpc delays must be non-negative")


@dataclass(frozen=True)
class StreamFlowSpec:
    """An open-loop bulk stream paced at a fraction of line rate.

    ``imix`` switches the per-frame sizes to the
    :class:`~repro.net.workload.ImixSize` 7:4:1 pattern (then
    ``udp_payload_bytes`` is ignored).  Frames are posted to the source
    NIC in bursts of ``post_batch`` at the pacing clock, so offered
    load is exact at batch granularity while the simulation stays one
    wakeup per batch, not per frame.
    """

    src: int = 0
    dst: int = 1
    udp_payload_bytes: int = 1472
    offered_fraction: float = 1.0
    imix: bool = False
    post_batch: int = 8
    name: str = ""
    #: Traffic-class assignment (see :class:`RpcFlowSpec.qos_class`).
    qos_class: str = ""

    DESCRIBE_OMIT_DEFAULTS = ("qos_class",)

    def __post_init__(self) -> None:
        _check_payload(self.udp_payload_bytes, "stream payload")
        if not 0.0 < self.offered_fraction <= 1.0:
            raise ValueError("stream offered_fraction must be in (0, 1]")
        if self.post_batch < 1:
            raise ValueError("post_batch must be >= 1")


@dataclass(frozen=True)
class FabricSpec:
    """Topology plus traffic of one fabric experiment.

    ``nics`` endpoints are connected either by dedicated point-to-point
    links (``switch=False``; the idealized mesh) or through one
    store-and-forward switch with finite per-output-port queues and
    tail-drop (``switch=True``).  ``propagation_delay_ps`` is per hop:
    source→destination directly, or source→switch and switch→destination
    (so a switched path costs two propagations plus the
    store-and-forward serialization and ``switch_latency_ps``).

    ``seed`` salts the per-endpoint fault-injection seeds when a
    :class:`~repro.faults.FaultPlan` is attached (endpoint *i* runs with
    ``plan.seed + seed + i``); the fabric itself is fully deterministic
    with or without it.
    """

    nics: int = 2
    propagation_delay_ps: int = 1_000_000  # 1 us per hop
    switch: bool = False
    port_queue_frames: int = 64
    switch_latency_ps: int = 500_000  # 0.5 us forwarding decision
    rpc_flows: Tuple[RpcFlowSpec, ...] = ()
    stream_flows: Tuple[StreamFlowSpec, ...] = ()
    seed: int = 0
    #: Per-class queue management on the switch ports
    #: (:class:`~repro.qos.QosSpec`); ``None`` keeps the single
    #: FIFO + tail-drop ports — and every legacy cache key and golden
    #: digest — byte-identical.
    qos: Optional[QosSpec] = None
    #: Composed multi-switch graph (leaf-spine / fat-tree / explicit
    #: link list, :class:`~repro.fabric.topology.TopologySpec`);
    #: ``None`` keeps the single implicit switch — and every legacy
    #: cache key and golden digest — byte-identical.
    topology: Optional[TopologySpec] = None

    DESCRIBE_OMIT_DEFAULTS = ("qos", "topology")

    def __post_init__(self) -> None:
        if self.nics < 1:
            raise ValueError("fabric needs at least one NIC")
        if self.propagation_delay_ps < 0 or self.switch_latency_ps < 0:
            raise ValueError("fabric delays must be non-negative")
        if self.port_queue_frames < 1:
            raise ValueError("switch port queues must hold at least one frame")
        if not self.rpc_flows and not self.stream_flows:
            raise ValueError("fabric needs at least one flow")
        for flow in self.rpc_flows:
            for endpoint in (flow.client, flow.server):
                self._check_endpoint(endpoint, flow)
        for flow in self.stream_flows:
            for endpoint in (flow.src, flow.dst):
                self._check_endpoint(endpoint, flow)
        self.flow_names()  # raises on duplicate names
        self._check_qos()
        self._check_topology()

    def _check_topology(self) -> None:
        if self.topology is None:
            return
        if not self.switch:
            raise ValueError(
                "a composed topology forwards through switches; set switch=True"
            )
        attached = set()
        for endpoint, switch in self.topology.host_links:
            if not 0 <= endpoint < self.nics:
                raise ValueError(
                    f"topology attaches endpoint {endpoint} outside the "
                    f"{self.nics}-NIC fabric"
                )
            attached.add(endpoint)
        missing = set(range(self.nics)) - attached
        if missing:
            raise ValueError(
                f"topology leaves endpoints {sorted(missing)} unattached"
            )

    def _check_qos(self) -> None:
        if self.qos is None:
            for flow in self.rpc_flows + self.stream_flows:
                if flow.qos_class:
                    raise ValueError(
                        f"flow {flow.name or flow!r} assigns qos_class "
                        f"{flow.qos_class!r} but the fabric has no qos config"
                    )
            return
        if not self.switch:
            raise ValueError(
                "qos schedules switch output ports; set switch=True"
            )
        names = set(self.qos.class_names())
        for flow in self.rpc_flows + self.stream_flows:
            if flow.qos_class and flow.qos_class not in names:
                raise ValueError(
                    f"flow {flow.name or flow!r} assigns unknown qos_class "
                    f"{flow.qos_class!r} (have {sorted(names)})"
                )

    def _check_endpoint(self, index: int, flow: object) -> None:
        if not 0 <= index < self.nics:
            raise ValueError(
                f"flow {flow!r} references endpoint {index} "
                f"outside the {self.nics}-NIC fabric"
            )

    # ------------------------------------------------------------------
    def flow_names(self) -> Tuple[str, ...]:
        """Resolved (defaulted, uniqueness-checked) flow names in order."""
        names = []
        for index, flow in enumerate(self.rpc_flows):
            names.append(flow.name or f"rpc{index}")
        for index, flow in enumerate(self.stream_flows):
            names.append(flow.name or f"stream{index}")
        if len(set(names)) != len(names):
            raise ValueError(f"flow names must be unique, got {names}")
        return tuple(names)

    def with_load(
        self,
        offered_fraction: float,
        flows: Optional[Sequence[str]] = None,
    ) -> "FabricSpec":
        """This fabric with stream flows' offered load replaced —
        the x-axis move of a load-vs-latency sweep
        (:meth:`repro.exp.sweep.Sweep.fabric_grid`).  ``flows``
        restricts the move to the named streams (resolved names, see
        :meth:`flow_names`), which is how
        :meth:`~repro.exp.sweep.Sweep.qos_grid` overloads only the
        best-effort lane while the guaranteed lane holds its load."""
        selected = None if flows is None else set(flows)
        if selected is not None:
            known = {
                flow.name or f"stream{index}"
                for index, flow in enumerate(self.stream_flows)
            }
            unknown = selected - known
            if unknown:
                raise ValueError(
                    f"with_load names unknown stream flows {sorted(unknown)} "
                    f"(have {sorted(known)})"
                )
        return replace(
            self,
            stream_flows=tuple(
                replace(flow, offered_fraction=float(offered_fraction))
                if selected is None or (flow.name or f"stream{index}") in selected
                else flow
                for index, flow in enumerate(self.stream_flows)
            ),
        )

    # ------------------------------------------------------------------
    # Convenience topologies
    # ------------------------------------------------------------------
    @staticmethod
    def rpc_pair(
        concurrency: int = 4,
        request_payload_bytes: int = 64,
        response_payload_bytes: int = 1472,
        propagation_delay_ps: int = 1_000_000,
        think_ps: int = 0,
        seed: int = 0,
    ) -> "FabricSpec":
        """The canonical 2-NIC closed-loop RPC experiment."""
        return FabricSpec(
            nics=2,
            propagation_delay_ps=propagation_delay_ps,
            rpc_flows=(
                RpcFlowSpec(
                    client=0,
                    server=1,
                    request_payload_bytes=request_payload_bytes,
                    response_payload_bytes=response_payload_bytes,
                    concurrency=concurrency,
                    think_ps=think_ps,
                    name="rpc0",
                ),
            ),
            seed=seed,
        )

    @staticmethod
    def loopback(
        udp_payload_bytes: int = 1472,
        offered_fraction: float = 1.0,
        propagation_delay_ps: int = 0,
    ) -> "FabricSpec":
        """One NIC streaming to itself — the overhead-benchmark and
        consistency-check topology (its NIC sees the same duplex load a
        bare :class:`~repro.nic.throughput.ThroughputSimulator` models)."""
        return FabricSpec(
            nics=1,
            propagation_delay_ps=propagation_delay_ps,
            stream_flows=(
                StreamFlowSpec(
                    src=0,
                    dst=0,
                    udp_payload_bytes=udp_payload_bytes,
                    offered_fraction=offered_fraction,
                    name="loop0",
                ),
            ),
        )
