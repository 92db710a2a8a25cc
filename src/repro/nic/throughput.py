"""Event-driven full-system NIC simulator (the macro tier).

This is the model behind Figures 7 and 8 and Tables 3-6.  It simulates,
with discrete events over picosecond time:

* the device driver posting send descriptors and replenishing receive
  buffers (rings bound the in-flight frame population, as on real NICs);
* the four hardware assists — DMA read/write with pipelined host
  latency and globally serialized SDRAM bursts, MAC tx/rx with real
  Ethernet wire timing;
* the frame-level parallel firmware: a distributed event queue served
  by ``cores`` identical cores, with handler durations produced by the
  :class:`~repro.cpu.costmodel.CoreCostModel` under a dynamically
  measured scratchpad-contention level;
* total frame ordering through :class:`~repro.firmware.ordering.OrderingBoard`
  bitmaps (lock-based or RMW-enhanced), and the firmware's remaining
  locks with FIFO spin-wait contention.

Approximations (documented per DESIGN.md §5): a handler's internal
timeline — including its lock acquisitions — is laid out when the
handler is dispatched rather than interleaved instruction-by-instruction
with other cores; lock hand-off is therefore FIFO in dispatch order.
Measurements happen after a warm-up window so rings, buffers, and the
contention estimate reach steady state.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set

from repro.assists.dma import DmaAssist
from repro.assists.mac import MacReceiver, MacTransmitter, WireEvent
from repro.assists.pci import PciInterface
from repro.check.nullmonitor import NULL_MONITOR
from repro.cpu.costmodel import NANO, ChargeTable, ContentionModel, HandlerCost, OpProfile
from repro.firmware.events import DistributedEventQueue, EventKind, FrameEvent
from repro.firmware.ordering import OrderingBoard
from repro.firmware.profiles import (
    BDS_PER_SENT_FRAME,
    RECV_BDS_PER_FETCH,
    SEND_BDS_PER_FETCH,
    SEND_FRAMES_PER_BD_FETCH,
    IDEAL_PROFILES,
)
from repro.host.descriptors import DESCRIPTOR_BYTES
from repro.host.driver import DriverModel
from repro.mem.sdram import GddrSdram
from repro.net.ethernet import (
    EthernetTiming,
    TX_HEADER_REGION_BYTES,
)
from repro.net.workload import ConstantSize, FrameSizeModel
from repro.nic.config import NicConfig
from repro.obs.tracer import NULL_TRACER, FrameStage
from repro.sim.kernel import Simulator
from repro.sim.stats import StatRegistry
from repro.units import ps_to_seconds, to_gbps

if TYPE_CHECKING:
    from repro.faults import FaultPlan
    from repro.host.rss import RssSpec
    from repro.obs.metrics import MetricsSampler

# The split of the Send/Receive Frame task between its initiation part
# (claim frames, program the DMA assist) and its completion part
# (process finished DMAs, produce descriptors, notify).
_START_FRACTION = 0.55
_FINISH_FRACTION = 1.0 - _START_FRACTION

# Lock hold times (core cycles) for the short critical sections that
# remain in both firmware variants.
_HOLD_TXQ = 10.0
_HOLD_RXPOOL = 14.0
_HOLD_NOTIFY = 10.0


def check_window(warmup_s: float, measure_s: float) -> None:
    """Reject a run window no simulation can have: the warm-up must be
    finite and non-negative, the measurement finite and positive."""
    if not (math.isfinite(warmup_s) and warmup_s >= 0
            and math.isfinite(measure_s) and measure_s > 0):
        raise ValueError("need non-negative warmup and positive measure window")


@dataclass
class FunctionStats:
    """Per-function accounting (rows of Tables 5 and 6).

    Counts, total cycles, lock waits, invocations and frames per
    function.  The Table 3 split of cycles into execution, imiss, load,
    conflict and pipeline is kept per run, in
    :attr:`ThroughputResult.cost_totals`.  A running simulator's
    ``fn`` records count only invocations and frames; the other fields
    come from the charge table's exact sums when a result is built.
    """

    instructions: float = 0.0
    loads: float = 0.0
    stores: float = 0.0
    cycles: float = 0.0
    lock_wait_cycles: float = 0.0
    invocations: int = 0
    frames: int = 0

    @property
    def accesses(self) -> float:
        return self.loads + self.stores

    def per_frame(self, frames: int) -> Dict[str, float]:
        if frames <= 0:
            return {"instructions": 0.0, "accesses": 0.0, "cycles": 0.0}
        return {
            "instructions": self.instructions / frames,
            "accesses": self.accesses / frames,
            "cycles": self.cycles / frames,
        }


FUNCTION_NAMES = (
    "fetch_send_bd",
    "send_frame",
    "send_dispatch_ordering",
    "send_locking",
    "fetch_recv_bd",
    "recv_frame",
    "recv_dispatch_ordering",
    "recv_locking",
)


@dataclass
class ThroughputResult:
    """Everything the benchmarks read out of one simulation run."""

    config: NicConfig
    udp_payload_bytes: int      # mean, for mixed-size workloads
    frame_bytes: int            # mean, for mixed-size workloads
    measure_seconds: float
    tx_frames: int
    rx_frames: int
    tx_payload_bytes: int
    rx_payload_bytes: int
    line_fps_per_direction: float
    rx_offered: int
    rx_dropped: int
    function_stats: Dict[str, FunctionStats]
    busy_cycles: float
    total_core_cycles: float
    cost_totals: HandlerCost
    scratchpad_core_accesses: int
    scratchpad_assist_accesses: int
    sdram_useful_bytes: int
    sdram_transferred_bytes: int
    imem_fill_bytes: float
    conflict_wait: float
    lock_waits: Dict[str, float]
    event_queue_high_water: int
    retries: int
    mean_rx_commit_latency_s: float = 0.0
    mean_outstanding_frames: float = 0.0
    p99_rx_commit_latency_s: float = 0.0
    rx_holes: int = 0
    fault_counters: Dict[str, float] = field(default_factory=dict)
    #: Multi-queue host report (per-ring / per-core); ``None`` on
    #: single-ring runs so legacy JSON stays byte-identical.
    rss: Optional[Dict[str, object]] = None

    # -- headline rates ---------------------------------------------------
    @property
    def tx_fps(self) -> float:
        return self.tx_frames / self.measure_seconds

    @property
    def rx_fps(self) -> float:
        return self.rx_frames / self.measure_seconds

    @property
    def total_fps(self) -> float:
        return self.tx_fps + self.rx_fps

    @property
    def udp_throughput_bps(self) -> float:
        payload = self.tx_payload_bytes + self.rx_payload_bytes
        return payload * 8 / self.measure_seconds

    @property
    def udp_throughput_gbps(self) -> float:
        return to_gbps(self.udp_throughput_bps)

    def line_rate_fraction(self, timing: Optional[EthernetTiming] = None) -> float:
        if timing is not None:
            limit = 2 * timing.frames_per_second(self.frame_bytes)
        else:
            limit = 2 * self.line_fps_per_direction
        return self.total_fps / limit if limit else 0.0

    # -- Table 3 ----------------------------------------------------------
    def ipc_breakdown(self) -> Dict[str, float]:
        """Per-core cycle breakdown over busy cycles (Table 3 rows)."""
        busy = self.busy_cycles
        if busy <= 0:
            return {}
        totals = self.cost_totals
        return {
            "execution": totals.instructions / busy,
            "imiss": totals.imiss_cycles / busy,
            "load": totals.load_cycles / busy,
            "conflict": totals.conflict_cycles / busy,
            "pipeline": totals.pipeline_cycles / busy,
        }

    @property
    def core_utilization(self) -> float:
        if self.total_core_cycles <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / self.total_core_cycles)

    # -- fault degradation --------------------------------------------------
    def fault_report(self) -> Dict[str, object]:
        """Goodput-vs-line-rate breakdown under an attached fault plan.

        *Goodput* is the UDP throughput of frames actually delivered —
        FCS-dropped frames (sequence holes) and tail drops never count,
        so under injected faults this reads below the fault-free line
        rate by exactly the shed load.  ``counters`` carries the
        per-fault-kind event counts measured over the same window.
        """
        return {
            "udp_goodput_gbps": self.udp_throughput_gbps,
            "line_rate_fraction": self.line_rate_fraction(),
            "rx_offered": self.rx_offered,
            "rx_delivered": self.rx_frames,
            "rx_holes": self.rx_holes,
            "rx_tail_dropped": self.rx_dropped,
            "counters": dict(self.fault_counters),
        }

    # -- export -------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable summary for downstream tooling (CLI --json)."""
        data: Dict[str, object] = {
            "config": self.config.label,
            "udp_payload_bytes": self.udp_payload_bytes,
            "frame_bytes": self.frame_bytes,
            "measure_seconds": self.measure_seconds,
            "tx_fps": self.tx_fps,
            "rx_fps": self.rx_fps,
            "udp_throughput_gbps": self.udp_throughput_gbps,
            "line_rate_fraction": self.line_rate_fraction(),
            "core_utilization": self.core_utilization,
            "rx_dropped": self.rx_dropped,
            "mean_outstanding_frames": self.mean_outstanding_frames,
            "mean_rx_commit_latency_us": self.mean_rx_commit_latency_s * 1e6,
            "p99_rx_commit_latency_us": self.p99_rx_commit_latency_s * 1e6,
            "ipc_breakdown": self.ipc_breakdown(),
            "bandwidth": self.bandwidth_report(),
            "functions": {
                name: {
                    "instructions": stats.instructions,
                    "accesses": stats.accesses,
                    "cycles": stats.cycles,
                    "invocations": stats.invocations,
                    "frames": stats.frames,
                }
                for name, stats in self.function_stats.items()
            },
        }
        # Only fault-injected runs grow a "faults" section, keeping
        # fault-free JSON byte-identical to pre-fault-layer output.
        if self.fault_counters:
            data["faults"] = self.fault_report()
        # Likewise only multi-queue runs grow an "rss" section.
        if self.rss is not None:
            data["rss"] = self.rss
        return data

    # -- Table 4 ----------------------------------------------------------
    def bandwidth_report(self) -> Dict[str, float]:
        seconds = self.measure_seconds
        freq = self.config.core_frequency_hz
        core_access_rate = self.scratchpad_core_accesses / seconds
        assist_access_rate = self.scratchpad_assist_accesses / seconds
        return {
            "scratchpad_consumed_gbps": to_gbps(
                (core_access_rate + assist_access_rate) * 32
            ),
            "scratchpad_peak_gbps": to_gbps(self.config.scratchpad_banks * 32 * freq),
            "scratchpad_core_maccesses_per_s": core_access_rate / 1e6,
            "scratchpad_assist_maccesses_per_s": assist_access_rate / 1e6,
            "frame_memory_consumed_gbps": to_gbps(
                self.sdram_transferred_bytes * 8 / seconds
            ),
            "frame_memory_useful_gbps": to_gbps(self.sdram_useful_bytes * 8 / seconds),
            "frame_memory_peak_gbps": to_gbps(
                self.config.sdram_width_bits * 2 * self.config.sdram_frequency_hz
            ),
            "imem_consumed_gbps": to_gbps(self.imem_fill_bytes * 8 / seconds),
            "imem_peak_gbps": to_gbps(128 * freq),
        }


class _Lock:
    """A firmware spinlock with FIFO hand-off in reservation order."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.free_at_ps = 0
        self.acquisitions = 0
        self.contended = 0
        self.total_wait_cycles = 0.0


class _RxRecord:
    """One received frame from its acceptance at the MAC to its commit:
    its sizes, the edge's identity for it (``None`` on the line-rate
    edge), its landing time in the receive buffer, and its FCS hole."""

    __slots__ = ("frame_bytes", "payload_bytes", "identity", "landed_ps", "hole")

    def __init__(self, frame_bytes: int, payload_bytes: int, identity) -> None:
        self.frame_bytes = frame_bytes
        self.payload_bytes = payload_bytes
        self.identity = identity
        self.landed_ps: Optional[int] = None
        self.hole = False


class LineRateEdge:
    """The paper's traffic edge (Section 5): a paced line-rate source.

    The NIC core (:class:`ThroughputSimulator`: handlers, ordering,
    assists, charging) serves one traffic edge, fixed at construction;
    :class:`repro.fabric.endpoint.NicEndpoint` is the other.  An edge
    gives the core ``tx_sizes`` (transmit sizes by sequence number,
    whose means normalize the results), ``driver_budget`` (``None`` is
    endless), its MAC :meth:`receiver`, its :meth:`fetch_send_bds`
    policy, and the per-frame calls: a sent frame's :meth:`tx_wire`
    hand-off, RSS steering (:meth:`tx_ring`, :meth:`rx_ring`), and a
    received frame's :meth:`rx_delivered` commit or :meth:`rx_lost` FCS
    hole.  A received frame's calls carry the identity its receiver
    peeked with the frame.
    """

    #: Endless send traffic: the driver always has the next frame.
    driver_budget: Optional[int] = None

    def __init__(self, nic: "ThroughputSimulator", sizes: FrameSizeModel,
                 offered_fraction: float, rx_burst_frames: int) -> None:
        if not 0.0 < offered_fraction <= 1.0:
            raise ValueError(
                f"offered_fraction must be in (0, 1], got {offered_fraction}"
            )
        if rx_burst_frames < 1:
            raise ValueError("rx_burst_frames must be >= 1")
        self.nic = nic
        # Both directions carry the one size pattern (the paper's
        # uncorrelated transmit and receive streams).
        self.tx_sizes = sizes
        self._offered_fraction = offered_fraction
        self._rx_burst_frames = rx_burst_frames

    def receiver(self, sdram: GddrSdram, sdram_clock, timing: EthernetTiming) -> MacReceiver:
        """The paced receiver, with one period of gaps by arrival slot:
        the size pattern and the burst cycle both repeat within
        lcm(pattern length, burst) slots.  Within a burst: back to back
        (one wire time).  The last frame of each burst carries the whole
        idle gap, sized so the average rate equals the offered fraction
        of line rate."""
        sizes = self.tx_sizes
        fraction = self._offered_fraction
        burst = self._rx_burst_frames
        gaps = []
        for slot in range(math.lcm(sizes.pattern_length, burst)):
            wire = timing.frame_time_ps(sizes.frame_bytes(slot))
            if burst == 1:
                gaps.append(round(wire / fraction))
            elif (slot + 1) % burst:
                gaps.append(wire)
            else:
                gaps.append(round(wire * (burst / fraction - burst + 1)))
        return MacReceiver(sdram, sdram_clock, timing=timing, gaps=gaps, sizes=sizes)

    def fetch_send_bds(self) -> None:
        """Fetch one full batch of send descriptors when it fits.

        Descriptor-fetch DMAs pipeline: several batches may be in
        flight at once, bounded by the scratchpad BD staging buffer —
        this is what hides large host latencies (the NIC keeps "several
        hundred outstanding frames", Section 7)."""
        nic = self.nic
        if (
            nic._tx_bd_onboard
            + nic._tx_fetch_inflight
            + SEND_FRAMES_PER_BD_FETCH
            > nic.config.tx_bd_buffer_frames
        ):
            return  # scratchpad BD staging buffer is full
        driver = nic.driver
        if driver.send_bds_available() < SEND_BDS_PER_FETCH:
            nic._refill_send()
        if driver.send_bds_available() < SEND_BDS_PER_FETCH:
            return
        nic._tx_fetch_inflight += SEND_FRAMES_PER_BD_FETCH
        driver.consume_send_bds(SEND_BDS_PER_FETCH)
        nic._push_event(FrameEvent(EventKind.FETCH_SEND_BD))

    def tx_wire(self, seq: int, wire: WireEvent) -> None:
        """The wire is a sink: a sent frame goes nowhere."""

    def tx_ring(self, seq: int) -> int:
        """Ring of a synthetic flow: frames spread over the spec's
        ``synthetic_flows`` flows in sequence order."""
        host = self.nic.rss_host
        flow = seq % host.spec.synthetic_flows
        return host.ring_for(0x0A000001, 0x0A000002, 0x8000 + flow, 9999)

    def rx_ring(self, seq: int, identity: None) -> int:
        host = self.nic.rss_host
        flow = seq % host.spec.synthetic_flows
        return host.ring_for(0x0A000002, 0x0A000001, 9999, 0x8000 + flow)

    def rx_delivered(self, identity: None, now_ps: int) -> None:
        """A committed frame leaves the model."""

    def rx_lost(self, identity: None, now_ps: int) -> None:
        """An FCS hole is only counted."""


class ThroughputSimulator:
    """One NIC core behind a traffic edge; built directly, one full-duplex
    streaming experiment on the paper's :class:`LineRateEdge`."""

    def __init__(
        self,
        config: NicConfig,
        udp_payload_bytes: int = 1472,
        offered_fraction: float = 1.0,
        size_model: Optional[FrameSizeModel] = None,
        rx_burst_frames: int = 1,
        tracer=None,
        fault_plan: Optional[FaultPlan] = None,
        rss: Optional[RssSpec] = None,
    ) -> None:
        """``size_model`` (a :class:`repro.net.workload.FrameSizeModel`)
        overrides the constant ``udp_payload_bytes`` with per-frame
        sizes — e.g. :class:`repro.net.workload.ImixSize`.

        ``rx_burst_frames`` > 1 makes receive arrivals bursty: frames
        arrive back to back in groups of that size, with idle gaps
        sized so the *average* offered load still matches
        ``offered_fraction`` — an on/off traffic extension for buffer
        stress studies.

        ``tracer`` (a :class:`repro.obs.Tracer`) records per-frame
        lifecycle spans and assist timelines; left ``None``, the null
        tracer is used and the run is bit-identical to an
        uninstrumented one.

        ``fault_plan`` (a :class:`repro.faults.FaultPlan`) attaches the
        deterministic fault-injection layer; left ``None`` (or with an
        all-zero plan) none of the fault code paths run and the
        simulation is byte-identical to a fault-free build.

        ``rss`` (a :class:`repro.host.rss.RssSpec`) replaces the
        paper's single descriptor-ring pair with N independent host
        rings behind a Toeplitz flow hash, per-ring interrupt
        moderation, and a host-core contention model.  Left ``None``
        the single-ring host interface runs exactly as before —
        byte-identical results and cache keys."""
        sizes = size_model if size_model is not None else ConstantSize(udp_payload_bytes)
        edge = LineRateEdge(self, sizes, offered_fraction, rx_burst_frames)
        self._build(config, edge, Simulator(), "", tracer, fault_plan, rss)

    def _build(self, config: NicConfig, edge, sim: Simulator, clock_prefix: str,
               tracer, fault_plan: Optional[FaultPlan], rss: Optional[RssSpec]) -> None:
        """Build the NIC core behind its traffic ``edge`` on the event
        kernel ``sim``, which a fabric's NICs share; ``clock_prefix``
        namespaces this NIC's clock domains in it (e.g. ``"nic0/"``)."""
        self.config = config
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Invariant monitor (null by default).  Attach an armed monitor
        #: with :func:`repro.check.attach_monitor`, which also wires the
        #: kernel / boards / queue / memories this simulator owns.
        self.monitor = NULL_MONITOR
        self.fault_plan = fault_plan
        # The fault and multi-queue host layers are imported here, when
        # a run asks for them, so a run without them never compiles them.
        self.faults: Optional[FaultInjector] = None
        if fault_plan is not None and fault_plan.enabled:
            from repro.faults.injector import FaultInjector

            self.faults = FaultInjector(fault_plan, tracer=self.tracer)
        self._edge = edge
        self.tx_sizes = edge.tx_sizes
        # Received frames are numbered at acceptance, so on both edges
        # each accepted frame has one record under its sequence number,
        # which only the commit pass removes (holes included).
        self._rx_records: Dict[int, _RxRecord] = {}
        self.udp_payload_bytes = round(self.tx_sizes.mean_payload_bytes)
        self.frame_bytes = round(self.tx_sizes.mean_frame_bytes)
        self.timing = EthernetTiming()
        self.line_fps_per_direction = self.tx_sizes.line_rate_fps(self.timing)
        self.sim = sim
        self.core_clock = self.sim.add_clock(
            clock_prefix + "core", config.core_frequency_hz
        )
        self.sdram_clock = self.sim.add_clock(
            clock_prefix + "sdram", config.sdram_frequency_hz
        )

        self.sdram = GddrSdram(
            frequency_hz=config.sdram_frequency_hz,
            data_width_bits=config.sdram_width_bits,
        )
        self.pci = PciInterface(dma_latency_ps=config.dma_latency_ps)
        self.dma_read = DmaAssist(
            "dma-read", self.sim, self.pci, self.sdram, self.sdram_clock, to_nic=True
        )
        self.dma_write = DmaAssist(
            "dma-write", self.sim, self.pci, self.sdram, self.sdram_clock, to_nic=False
        )
        self.mac_tx = MacTransmitter(self.sdram, self.sdram_clock, self.timing)
        if self.faults is not None:
            # The assists consult the injector at decision points; with
            # no injector attached they take their fault-free fast path.
            self.pci.injector = self.faults
            self.dma_read.injector = self.faults
            self.dma_write.injector = self.faults
        self.mac_rx = edge.receiver(self.sdram, self.sdram_clock, self.timing)
        self.driver = DriverModel(
            send_ring_capacity=config.send_ring_capacity,
            recv_ring_capacity=config.recv_ring_capacity,
            max_frames=edge.driver_budget,
        )
        #: Multi-queue host model (the modern-RSS comparison arm);
        #: ``None`` keeps the paper's single-ring host interface with
        #: byte-identical behaviour.
        self.rss = rss
        self.rss_host: Optional[HostQueueModel] = None
        if rss is not None:
            from repro.host.rss import HostQueueModel

            self.rss_host = HostQueueModel(
                rss,
                sim=self.sim,
                send_ring_capacity=config.send_ring_capacity,
                recv_ring_capacity=config.recv_ring_capacity,
            )
            self.rss_host.on_rx_processed = self._rss_rx_processed
            self.rss_host.on_tx_processed = self._rss_tx_processed

        mode = config.ordering_mode
        self.board_tx_mac = OrderingBoard(
            config.ordering_ring, mode, hw_pointer=True, name="tx_mac"
        )
        self.board_tx_notify = OrderingBoard(
            config.ordering_ring, mode, name="tx_notify"
        )
        self.board_rx = OrderingBoard(config.ordering_ring, mode, name="rx")

        queue_depth = 4096
        if self.faults is not None and fault_plan.event_queue_depth:
            queue_depth = fault_plan.event_queue_depth
        self.queue = DistributedEventQueue(max_depth=queue_depth)
        self.locks: Dict[str, _Lock] = {
            name: _Lock(name)
            for name in ("txq", "rxpool", "notify_tx", "notify_rx", "order_tx", "order_rx")
        }
        self.fn: Dict[str, FunctionStats] = {
            name: FunctionStats() for name in FUNCTION_NAMES
        }
        self.contention = ContentionModel(config.scratchpad_banks)
        # Each handler's ideal per-frame profile plus the re-entrancy
        # overhead of the frame-parallel firmware; fixed per config.
        self._reentrant_per_frame: Dict[str, OpProfile] = {
            name: IDEAL_PROFILES[name].per_frame.plus(
                config.firmware.reentrancy_per_frame
            )
            for name in ("fetch_send_bd", "send_frame", "fetch_recv_bd", "recv_frame")
        }
        # Initial contention estimate: the line-rate control-data access
        # budget (Section 2.1's ~185 accesses/frame-pair, plus ~60%
        # parallelization overhead) spread over the core clock.  The
        # periodic feedback loop refines it from measured traffic.
        line_pairs = self.line_fps_per_direction
        estimated_rate = 300.0 * line_pairs / config.core_frequency_hz
        # Handler charges at the current estimate; _update_contention is
        # the only writer of the wait, and moving it empties the table.
        # The table also keeps the run's statistics (ChargeTable.sums).
        self._charges = ChargeTable(
            config.cost_model,
            self.contention.expected_wait(min(2.5, estimated_rate)),
            spin_profile=self._spin_profile,
        )
        # Per-config constants the handlers read on every invocation.
        self._task_level = config.task_level_firmware
        self._checksum_on = config.checksum_offload != "none"
        self._tx_slots = max(1, config.tx_buffer_bytes // 2048)
        self._rx_slots = max(1, config.rx_buffer_bytes // 2048)

        # -- firmware-visible state ---------------------------------------
        self._idle_cores = config.cores
        # Deterministic core identities for handler dispatch: pop()
        # yields the lowest-numbered free core, so trace tracks are
        # stable run to run.  Maintained whether or not tracing is on —
        # the list never influences timing.
        self._free_core_ids: List[int] = list(range(config.cores - 1, -1, -1))
        self._current_core = 0  # core running the handler being laid out
        self._busy_ps = 0.0
        self._tx_fetch_inflight = 0    # frames' worth of BD fetches in flight
        self._tx_bd_onboard = 0        # frames with descriptors on NIC
        self._tx_claim_seq = 0         # next tx frame to start DMA for
        self._tx_mac_seq = 0           # next committed frame to transmit
        self._tx_outstanding_mac = 0
        self._tx_space = config.tx_buffer_bytes
        self._rx_space = config.rx_buffer_bytes
        self._rx_written = 0           # frames landed in rx buffer
        self._rx_claim_seq = 0         # next rx frame to start host DMA for
        self._rx_bds_onboard = 64      # preloaded receive descriptors
        self._rx_fetch_inflight = 0    # receive BDs being fetched
        self._rx_pump_active = False
        self._send_event_queued = False
        self._recv_event_queued = False
        # Event types a core is handling; task-level firmware only.
        self._task_claims: Dict[EventKind, bool] = {kind: False for kind in EventKind}

        # -- measurement ----------------------------------------------------
        self._tx_done_frames = 0       # wire-complete transmit frames
        self._rx_done_frames = 0       # committed (delivered) receive frames
        self._rx_dropped = 0
        self._rx_hole_frames = 0       # FCS holes the commit pointer passed
        self._tx_payload_done = 0      # UDP payload bytes on the wire
        self._rx_payload_done = 0      # UDP payload bytes delivered
        self._rx_latency_sum_ps = 0.0
        self._rx_latency_samples = 0
        # Registry feeding the metrics sampler / Prometheus exporter;
        # histogram summaries ride along in its snapshot.
        self.stats = StatRegistry()
        # Microsecond buckets up to 1 ms for the latency distribution.
        self.rx_latency_histogram = self.stats.histogram(
            "rx_commit_latency_us",
            [1, 2, 4, 6, 8, 10, 15, 20, 30, 50, 100, 200, 500, 1000],
        )
        self._inflight_sum = 0.0
        self._inflight_samples = 0
        self._assist_accesses = 0
        self._contention_window_accesses = 0.0
        self._contention_window_start_ps = 0

        self._replenish_recv()
        self._refill_send()

    # ==================================================================
    # Multi-queue host interface (RSS)
    # ==================================================================
    def _refill_send(self) -> None:
        """Post send descriptors: legacy fill-to-capacity, or (with a
        multi-queue host) steered, credit-gated per-ring posting."""
        if self.rss_host is not None:
            self.rss_host.refill_send(self.driver, self._edge.tx_ring)
        else:
            self.driver.refill_send_ring()

    def _replenish_recv(self) -> None:
        if self.rss_host is not None:
            self.rss_host.replenish_recv(self.driver)
        else:
            self.driver.replenish_recv_ring()

    def _rss_rx_processed(self, count: int) -> None:
        # A host core recycled receive buffers: credit is back, so the
        # NIC may be able to fetch receive BDs again.
        self._maybe_fetch_recv_bds()

    def _rss_tx_processed(self, count: int) -> None:
        # Send credit returned: post the next frames and let the NIC
        # fetch their descriptors.
        self._refill_send()
        self._edge.fetch_send_bds()

    # ==================================================================
    # Cost charging
    # ==================================================================
    @property
    def _conflict_wait(self) -> float:
        """Scratchpad conflict wait per access, as charged right now."""
        return self._charges.wait

    def _charge(
        self,
        fn_name: str,
        profile,
        factor: Optional[float] = None,
        frames: int = 0,
        transient: bool = False,
    ) -> float:
        """Charge ``profile``, scaled by ``factor`` if one is given, to a
        function; returns its cycle cost.

        ``profile`` is an :class:`OpProfile` or an ordering board's
        ``OrderingCost``.  Its entry comes from the charge table, which
        counts the charge for the function and folds the count into the
        statistics later; a ``transient`` profile, one built for this
        charge alone, is computed and added to the statistics at once.
        """
        charges = self._charges
        if transient:
            entry = charges.compute(profile)
            charges.sums.add(fn_name, 1, entry.terms)
        else:
            entry = charges.lookup(profile, factor)
            entry.counts[fn_name] += 1
        if frames:
            self.fn[fn_name].frames += frames
        self._contention_window_accesses += entry.accesses
        return entry.total

    def _spin_profile(self, wait_ps: int) -> OpProfile:
        """What a core executes while it spins ``wait_ps`` on a lock."""
        return self.config.firmware.spin_cost(wait_ps / self.core_clock.period_ps)

    def _acquire_lock(
        self,
        name: str,
        now_ps: int,
        hold_cycles: float,
        fn_name: str,
        cycles_so_far: float = 0.0,
    ) -> float:
        """Reserve a lock FIFO; returns cycles spent (wait + hold prologue).

        The acquire/release instruction cost and the spin cost are
        charged to ``fn_name`` (a locking bucket); the wait itself is
        recorded as lock-wait cycles.

        ``cycles_so_far`` is how deep into its own timeline the calling
        handler is when it reaches this acquire.  The reservation and
        spin layout are computed from the handler's dispatch time
        ``now_ps`` (the documented approximation), but *contention
        accounting* uses the true acquire point: a handler re-acquiring
        a lock it released earlier in its own timeline has not actually
        blocked, so ``contended``/``total_wait_cycles`` are only charged
        when the lock is still held at ``now_ps + cycles_so_far``.
        """
        lock = self.locks[name]
        period = self.core_clock.period_ps
        start_ps = max(now_ps, lock.free_at_ps)
        wait_cycles = (start_ps - now_ps) / period
        lock.free_at_ps = start_ps + round(hold_cycles * period)
        lock.acquisitions += 1
        if self.monitor.enabled:
            self.monitor.lock_acquired(lock, now_ps, start_ps, lock.free_at_ps)
        if wait_cycles > 0:
            acquire_ps = now_ps + self.core_clock.cycles_to_ps(cycles_so_far)
            blocked_cycles = (start_ps - acquire_ps) / period
            if blocked_cycles > 0:
                lock.contended += 1
                lock.total_wait_cycles += blocked_cycles
        cycles = self._charge(fn_name, self.config.firmware.lock_acquire_release)
        if wait_cycles > 0:
            # A waiting core executes its ll/test/branch spin loop for
            # the whole wait; one loop trip costs ~spin_loop_cycles, so
            # the charged profile fills the wait with real instructions.
            # The table sums the wait and charges its statistics at the
            # next fold; the wait is also the function's lock-wait time.
            total, accesses = self._charges.spin(fn_name, start_ps - now_ps)
            cycles += total
            self._contention_window_accesses += accesses
        return cycles

    def _assist_touch(self, count: int) -> None:
        self._assist_accesses += count
        self._contention_window_accesses += count

    def _checksum_profile(
        self, first: int, batch: int, payload_bytes: Callable[[int], int],
        skip: Set[int] = frozenset(),
    ) -> Optional[OpProfile]:
        """Per-batch cost of the configured checksum service (§8
        extension).  'assist' folds the sum into the data stream and
        leaves only a status check; 'firmware' walks the payload one
        word at a time on a core.  ``payload_bytes`` gives a frame's
        UDP payload by sequence number; ``skip`` excludes sequence holes
        (FCS-dropped frames carry no payload to checksum)."""
        mode = self.config.checksum_offload
        if mode == "none":
            return None
        count = batch - len(skip)
        if count <= 0:
            return None
        if mode == "assist":
            return OpProfile(
                instructions=4.0 * count, loads=1.0 * count, stores=0.0
            )
        # Firmware mode: the cores must read payload words from the
        # *frame* SDRAM — the memory the partitioned design deliberately
        # keeps them away from.  Each word costs the 2-instruction
        # add/loop plus an SDRAM round trip (tens of cycles, partially
        # hidden by burst buffering); we fold that stall into the
        # instruction count as ~5 issue-slot equivalents per word.
        # These loads bypass the scratchpad, so they do not appear in
        # its contention accounting.
        instructions = 0.0
        for seq in range(first, first + batch):
            if seq in skip:
                continue
            words = payload_bytes(seq) / 4.0
            instructions += 12.0 + 7.0 * words
        return OpProfile(instructions=instructions, loads=0.0, stores=0.0)

    # ==================================================================
    # Core scheduling
    # ==================================================================
    def _push_event(self, event: FrameEvent) -> None:
        if self.faults is not None and self.queue.is_full:
            self._queue_overflowed(event)
            return
        self.queue.push(event)
        if self.tracer.enabled:
            self.tracer.counter(
                "event-queue", "depth", self.sim.now_ps, len(self.queue)
            )
        self._dispatch()

    def _queue_overflowed(self, event: FrameEvent) -> None:
        """Overflow policy for a full distributed event queue.

        Backpressure by default: defer the push by ``queue_retry_ps``.
        The singleton pump events (SEND_FRAME / RECV_FRAME) are instead
        *dropped* once they have been deferred ``queue_drop_after``
        times — their queued-flag is reset so the next producer-side
        trigger re-issues them, which is how the firmware sheds load
        without losing frames (the frames stay in their rings)."""
        faults = self.faults
        assert faults is not None
        plan = faults.plan
        now = self.sim.now_ps
        if (
            event.kind in (EventKind.SEND_FRAME, EventKind.RECV_FRAME)
            and event.retries >= plan.queue_drop_after
        ):
            faults.note_queue_drop(event.kind.value, now)
            if event.kind is EventKind.SEND_FRAME:
                self._send_event_queued = False
            else:
                self._recv_event_queued = False
            return
        faults.note_queue_overflow(event.kind.value, now)
        event.retries += 1
        self.sim.schedule(plan.queue_retry_ps, lambda: self._push_event(event))

    def _dispatch(self) -> None:
        task_level = self._task_level
        while self._idle_cores > 0 and not self.queue.empty:
            if task_level and self.queue.all_claimed(self._task_claims):
                # Event-register semantics: one core per event type, and
                # every queued type is already being handled.  Popping
                # now would only rotate claimed events through the retry
                # path — reordering them without making progress — so
                # leave the queue untouched until a handler finishes.
                break
            event = self.queue.pop()
            assert event is not None
            if task_level:
                if self._task_claims[event.kind]:
                    self.queue.push_retry(event)
                    continue
                self._task_claims[event.kind] = True
            self._idle_cores -= 1
            core_id = self._free_core_ids.pop()
            if self.monitor.enabled:
                self.monitor.core_claimed(self, core_id)
            self._current_core = core_id
            cycles = self._run_handler(event)
            duration_ps = self.core_clock.cycles_to_ps(max(1.0, cycles))
            self._busy_ps += duration_ps
            if self.tracer.enabled:
                self.tracer.complete(
                    f"core{core_id}",
                    event.kind.value,
                    self.sim.now_ps,
                    duration_ps,
                    first_seq=event.first_seq,
                    count=event.count,
                )
            self.sim.schedule(
                duration_ps,
                lambda k=event.kind, c=core_id: self._handler_done(k, c),
            )

    def _handler_done(self, kind: EventKind, core_id: int) -> None:
        if self.monitor.enabled:
            self.monitor.core_released(self, core_id)
        self._idle_cores += 1
        self._free_core_ids.append(core_id)
        if self._task_level:
            self._task_claims[kind] = False
        self._dispatch()

    # ==================================================================
    # Handlers (each returns its cycle cost; side effects scheduled)
    # ==================================================================
    def _run_handler(self, event: FrameEvent) -> float:
        # Identity tests, not a dict keyed by EventKind: an Enum hashes
        # in Python code.
        now = self.sim.now_ps
        kind = event.kind
        fn = self.fn
        if kind is EventKind.FETCH_SEND_BD:
            fn["fetch_send_bd"].invocations += 1
            return self._handle_fetch_send_bd(now, event)
        if kind is EventKind.SEND_FRAME:
            fn["send_frame"].invocations += 1
            return self._handle_send_frame(now)
        if kind is EventKind.SEND_COMPLETE:
            fn["send_frame"].invocations += 1
            return self._handle_send_complete(now, event)
        if kind is EventKind.FETCH_RECV_BD:
            fn["fetch_recv_bd"].invocations += 1
            return self._handle_fetch_recv_bd(now, event)
        if kind is EventKind.RECV_FRAME:
            fn["recv_frame"].invocations += 1
            return self._handle_recv_frame(now)
        if kind is EventKind.RECV_COMPLETE:
            fn["recv_frame"].invocations += 1
            return self._handle_recv_complete(now, event)
        raise ValueError(f"no handler for {kind}")

    # -- send path ------------------------------------------------------
    def _handle_fetch_send_bd(self, now: int, event: FrameEvent) -> float:
        fw = self.config.firmware
        # The line-rate edge always fetches full batches (count 0 =>
        # the batching default); the fabric edge carries explicit
        # partial batch sizes in the event.
        frames = event.count or SEND_FRAMES_PER_BD_FETCH
        cycles = self._charge("send_dispatch_ordering", fw.dispatch_per_event)
        cycles += self._acquire_lock("txq", now, _HOLD_TXQ, "send_locking", cycles)
        cycles += self._charge(
            "fetch_send_bd", self._reentrant_per_frame["fetch_send_bd"], frames,
            frames=frames,
        )
        transfer = self.dma_read.descriptor_transfer(
            now + self.core_clock.cycles_to_ps(cycles),
            frames * BDS_PER_SENT_FRAME * DESCRIPTOR_BYTES,
        )
        self._assist_touch(self.config.assist_accesses_per_dma)
        if self.tracer.enabled:
            self.tracer.complete(
                "dma-read",
                "fetch-send-bds",
                transfer.issue_ps,
                transfer.latency_ps,
                nbytes=transfer.nbytes,
            )
        self.sim.schedule_at(transfer.complete_ps, lambda: self._send_bds_arrived(frames))
        return cycles

    def _send_bds_arrived(self, frames: int) -> None:
        self._tx_bd_onboard += frames
        self._tx_fetch_inflight -= frames
        self._queue_send_frame_event()
        self._edge.fetch_send_bds()

    def _queue_send_frame_event(self) -> None:
        if self._send_event_queued:
            return
        if self._tx_bd_onboard <= 0:
            return
        self._send_event_queued = True
        self._push_event(FrameEvent(EventKind.SEND_FRAME))

    def _handle_send_frame(self, now: int) -> float:
        fw = self.config.firmware
        self._send_event_queued = False
        # Claim as many frames as have staged BDs, fit the batch limit,
        # and fit (by their individual sizes) in the transmit buffer.
        batch_limit = min(self._tx_bd_onboard, self.config.send_batch_max)
        batch = 0
        bytes_needed = 0
        while batch < batch_limit:
            frame_size = self.tx_sizes.frame_bytes(self._tx_claim_seq + batch)
            if bytes_needed + frame_size > self._tx_space:
                break
            bytes_needed += frame_size
            batch += 1
        cycles = self._charge("send_dispatch_ordering", fw.dispatch_per_event)
        if self.board_tx_mac.requires_lock:
            # The software dispatch loop "inspects the final-stage
            # results in-order for a done status" on every pass, commit
            # or not; the RMW firmware folds this into the completion
            # handler's single `update`.
            cycles += self._commit_tx(now, cycles)
        if batch <= 0:
            self.queue.retries += 1
            return cycles  # retried when space frees or BDs arrive
        cycles += self._acquire_lock("txq", now, _HOLD_TXQ, "send_locking", cycles)
        first = self._tx_claim_seq
        self._tx_claim_seq += batch
        self._tx_bd_onboard -= batch
        self._tx_space -= bytes_needed
        cycles += self._charge("send_dispatch_ordering", fw.dispatch_per_frame, batch)
        cycles += self._charge(
            "send_frame", self._reentrant_per_frame["send_frame"],
            batch * _START_FRACTION, frames=batch,
        )
        if self._checksum_on:
            checksum = self._checksum_profile(first, batch, self.tx_sizes.payload_bytes)
            if checksum is not None:
                cycles += self._charge("send_frame", checksum, transient=True)

        issue_ps = now + self.core_clock.cycles_to_ps(cycles)
        if self.tracer.enabled:
            core_track = f"core{self._current_core}"
            for seq in range(first, first + batch):
                self.tracer.frame_stage("tx", seq, FrameStage.EVENT_DISPATCHED, now)
                self.tracer.frame_stage(
                    "tx", seq, FrameStage.HANDLER_RUN, now, track=core_track
                )
                self.tracer.frame_stage(
                    "tx", seq, FrameStage.DMA_ISSUED, issue_ps, track="dma-read"
                )

        def bundle_done(done_ps: int) -> None:
            if self.tracer.enabled:
                for seq in range(first, first + batch):
                    self.tracer.frame_stage(
                        "tx", seq, FrameStage.DMA_COMPLETE, done_ps, track="dma-read"
                    )
                self.tracer.complete(
                    "dma-read",
                    f"tx-frames {first}+{batch}",
                    issue_ps,
                    max(0, done_ps - issue_ps),
                    first_seq=first,
                    count=batch,
                )
            self._push_event(
                FrameEvent(EventKind.SEND_COMPLETE, first_seq=first, count=batch)
            )

        # Each frame is two host regions: the protocol header and the
        # payload (Section 2.1), staged 64 B apart in the frame's slot.
        layout = self.driver.layout
        frame_bytes = self.tx_sizes.frame_bytes
        touches = 2 * self.config.assist_accesses_per_dma
        regions = []
        for seq in range(first, first + batch):
            sdram_addr = self._tx_slot_address(seq)
            regions.append(
                (layout.tx_header_address(seq), sdram_addr, TX_HEADER_REGION_BYTES)
            )
            regions.append((
                layout.tx_payload_address(seq),
                sdram_addr + 64,
                max(1, frame_bytes(seq) - TX_HEADER_REGION_BYTES),
            ))
            self._assist_touch(touches)
        self.dma_read.frame_transfer(issue_ps, regions, bundle_done)
        if self._tx_bd_onboard > 0:
            self._queue_send_frame_event()
        self._edge.fetch_send_bds()
        return cycles

    def _handle_send_complete(self, now: int, event: FrameEvent) -> float:
        fw = self.config.firmware
        batch = event.count
        cycles = self._charge("send_dispatch_ordering", fw.dispatch_per_event)
        cycles += self._charge(
            "send_frame", IDEAL_PROFILES["send_frame"].per_frame,
            batch * _FINISH_FRACTION,
        )
        cycles += self._charge(
            "send_dispatch_ordering", fw.send_completion_per_frame, batch
        )

        # Two send-side ordering points: MAC hand-off and host notify.
        # Software mode must take the ordering lock around every status
        # flag update; the RMW instructions make each mark one atomic op.
        software = self.board_tx_mac.requires_lock
        for seq in range(event.first_seq, event.first_seq + batch):
            if software:
                # Every status-flag update synchronizes: acquire, RMW
                # the flag word, release (Section 3.3).
                cycles += self._acquire_lock(
                    "order_tx", now, 22.0, "send_dispatch_ordering", cycles
                )
            cycles += self._charge(
                "send_dispatch_ordering", self.board_tx_mac.mark_done(seq)
            )
            cycles += self._charge(
                "send_dispatch_ordering", self.board_tx_notify.mark_done(seq)
            )
        cycles += self._commit_tx(now, cycles)
        self._edge.fetch_send_bds()
        return cycles

    def _commit_tx(self, now: int, cycles_so_far: float) -> float:
        """Commit pass over both send-side boards, with side effects."""
        cycles = 0.0
        if self.board_tx_mac.requires_lock:
            cycles += self._acquire_lock(
                "order_tx", now, 26.0, "send_dispatch_ordering", cycles_so_far + cycles
            )
        first_committed = self.board_tx_mac.commit_seq
        committed, cost = self.board_tx_mac.commit()
        cycles += self._charge("send_dispatch_ordering", cost)
        if committed and self.tracer.enabled:
            for seq in range(first_committed, first_committed + committed):
                self.tracer.frame_stage("tx", seq, FrameStage.COMMITTED, now)
        notified, notify_cost = self.board_tx_notify.commit()
        cycles += self._charge("send_dispatch_ordering", notify_cost)
        if notified:
            cycles += self._acquire_lock(
                "notify_tx", now, _HOLD_NOTIFY, "send_locking", cycles_so_far + cycles
            )
            done_ps = now + self.core_clock.cycles_to_ps(cycles_so_far + cycles)
            self.dma_write.descriptor_transfer(done_ps, DESCRIPTOR_BYTES)
            self._assist_touch(self.config.assist_accesses_per_dma)
            if self.rss_host is not None:
                first = self.board_tx_notify.commit_seq - notified
                self.rss_host.complete_tx(first, notified, self._edge.tx_ring, done_ps)
                self._refill_send()
            else:
                interrupt = (
                    self.board_tx_notify.commit_seq
                    % self.config.interrupt_coalesce_frames
                ) < notified
                self.driver.complete_sends(notified, interrupt)
                self.driver.refill_send_ring()
        if committed:
            self.sim.schedule(
                self.core_clock.cycles_to_ps(cycles_so_far + cycles), self._mac_tx_pump
            )
        return cycles

    def _mac_tx_pump(self) -> None:
        while (
            self._tx_outstanding_mac < 2
            and self._tx_mac_seq < self.board_tx_mac.commit_seq
        ):
            seq = self._tx_mac_seq
            self._tx_mac_seq += 1
            self._tx_outstanding_mac += 1
            frame_bytes = self.tx_sizes.frame_bytes(seq)
            payload = self.tx_sizes.payload_bytes(seq)
            wire = self.mac_tx.transmit(
                self.sim.now_ps, seq, self._tx_slot_address(seq), frame_bytes
            )
            self._assist_touch(self.config.assist_accesses_per_mac_frame)
            if self.tracer.enabled:
                self.tracer.complete(
                    "mac-tx",
                    f"tx {seq}",
                    wire.wire_start_ps,
                    wire.wire_end_ps - wire.wire_start_ps,
                    seq=seq,
                )
                self.tracer.frame_stage(
                    "tx", seq, FrameStage.WIRE, wire.wire_end_ps, track="mac-tx"
                )
            # Sizes are read before the hand-off: the fabric edge
            # pops the posted frame there.
            self._edge.tx_wire(seq, wire)
            self.sim.schedule_at(
                wire.wire_end_ps,
                lambda b=frame_bytes, p=payload: self._tx_wire_done(b, p),
            )

    def _tx_wire_done(self, frame_bytes: int, payload_bytes: int) -> None:
        self._tx_outstanding_mac -= 1
        self._tx_space += frame_bytes
        self._tx_done_frames += 1
        self._tx_payload_done += payload_bytes
        self._queue_send_frame_event()
        self._mac_tx_pump()

    def _tx_slot_address(self, seq: int) -> int:
        return (seq % self._tx_slots) * 2048

    # -- receive path -----------------------------------------------------
    def _rx_pump(self) -> None:
        now = self.sim.now_ps
        mac = self.mac_rx
        if not mac.has_pending:
            # Nothing on the wire (a fabric port): the next arrival
            # restarts the pump.
            self._rx_pump_active = False
            return
        frame_size, payload, identity = mac.peek_frame()
        if self._rx_space < frame_size:
            # Buffer full: the wire does not wait.  Sleep until space
            # frees (wake comes from _wake_rx); frames whose slot passes
            # meanwhile are dropped there.
            self._rx_pump_active = False
            return
        arrival = mac.next_arrival_ps()
        if arrival > now:
            self.sim.schedule_at(arrival, self._rx_pump)
            return
        self._rx_space -= frame_size
        wire = mac.take_frame(now, frame_size)
        seq = wire.seq
        self._rx_records[seq] = _RxRecord(frame_size, payload, identity)
        self._assist_touch(self.config.assist_accesses_per_mac_frame)
        if self.tracer.enabled:
            self.tracer.complete(
                "mac-rx",
                f"rx {seq}",
                wire.wire_start_ps,
                wire.wire_end_ps - wire.wire_start_ps,
                seq=seq,
            )
        if not mac.has_pending:
            # A fabric port with nothing queued: the next arrival
            # restarts the pump.
            self.sim.schedule_at(wire.wire_end_ps, lambda: self._rx_store(seq))
            self._rx_pump_active = False
            return
        # Chain to the next arrival.
        next_take = max(now, mac.next_arrival_ps())
        if next_take == wire.wire_end_ps:
            # Line rate: the pump's next run falls on the instant frame
            # n is stored, so one event does both, in the same order.
            # This is exact.  The two events it replaces would be
            # scheduled back to back, so their tickets would be
            # consecutive: every other event at that instant runs before
            # both or after both, never between.  Only until_ps ends a
            # run here (nothing calls stop() or passes max_events), and
            # it cannot fall between two events of one instant.  A
            # fabric frame is pushed when its first bit arrives, never
            # before the frame ahead of it has ended, so on a fabric
            # edge the next take is always earlier and this never fires.
            def store_then_take() -> None:
                self._rx_store(seq)
                self._rx_pump()

            self.sim.schedule_at(next_take, store_then_take)
        else:
            self.sim.schedule_at(wire.wire_end_ps, lambda: self._rx_store(seq))
            self.sim.schedule_at(next_take, self._rx_pump)

    def _rx_store(self, seq: int) -> None:
        if self.faults is not None and self.faults.rx_fcs_corrupt(seq, self.sim.now_ps):
            # Bad FCS: the MAC drops the frame instead of storing it.
            # Its sequence number is already consumed, so recovery means
            # punching a hole the ordering commit can pass.
            self._rx_fault_drop(seq)
            return
        done_ps = self.mac_rx.store(
            self.sim.now_ps, self._rx_slot_address(seq), self._rx_records[seq].frame_bytes
        )
        self.sim.schedule_at(done_ps, lambda s=seq: self._rx_frame_landed(s))

    def _rx_fault_drop(self, seq: int) -> None:
        """Recovery bookkeeping for an FCS-dropped receive frame."""
        # No store happened: refund the buffer space claimed at arrival
        # and wake the pump if the full buffer had put it to sleep.
        record = self._rx_records[seq]
        record.hole = True
        self._rx_space += record.frame_bytes
        self._rx_frame_landed(seq)
        self._wake_rx()
        self._edge.rx_lost(record.identity, self.sim.now_ps)

    def _wake_rx(self) -> None:
        """Restart a sleeping receive pump (at start, when buffer space
        frees, and on a fabric arrival), tail-dropping the frames whose
        slot passed meanwhile."""
        if not self._rx_pump_active:
            dropped = self.mac_rx.skip_backlog(self.sim.now_ps)
            self._rx_dropped += dropped
            if dropped and self.tracer.enabled:
                self.tracer.instant(
                    "mac-rx", "tail-drop", self.sim.now_ps, dropped=dropped
                )
            self._rx_pump_active = True
            self._rx_pump()

    def _rx_frame_landed(self, seq: int) -> None:
        records = self._rx_records
        record = records[seq]
        record.landed_ps = self.sim.now_ps
        if not record.hole and self.tracer.enabled:
            self.tracer.frame_stage(
                "rx", seq, FrameStage.RX_LANDED, self.sim.now_ps, track="mac-rx"
            )
        # A hole lands at wire end while an earlier frame's store may
        # still be in flight, so landings can arrive out of order: the
        # watermark advances over the contiguous landed records.
        written = self._rx_written
        while written in records and records[written].landed_ps is not None:
            written += 1
        self._rx_written = written
        self._queue_recv_frame_event()

    def _queue_recv_frame_event(self) -> None:
        if self._recv_event_queued:
            return
        if self._rx_written <= self._rx_claim_seq:
            return
        self._recv_event_queued = True
        self._push_event(FrameEvent(EventKind.RECV_FRAME))

    def _rx_claim_window(self) -> "tuple":
        """Batch selection over the landed, unclaimed frames.

        Sequence holes (FCS drops) occupy slots in the window but need
        no receive BD and no host DMA, so they never count against
        ``_rx_bds_onboard``.  Returns ``(batch, holes)`` where ``holes``
        is the tuple of hole sequence numbers inside the batch."""
        first = self._rx_claim_seq
        limit = min(self._rx_written - first, self.config.recv_batch_max)
        records = self._rx_records
        real = 0
        holes = []
        for seq in range(first, first + limit):
            if records[seq].hole:
                holes.append(seq)
            elif real < self._rx_bds_onboard:
                real += 1
            else:
                break
        return real + len(holes), tuple(holes)

    def _handle_recv_frame(self, now: int) -> float:
        fw = self.config.firmware
        self._recv_event_queued = False
        batch, holes = self._rx_claim_window()
        real = batch - len(holes)
        cycles = self._charge("recv_dispatch_ordering", fw.dispatch_per_event)
        if self.board_rx.requires_lock:
            cycles += self._commit_rx(now, cycles)
        self._maybe_fetch_recv_bds()
        if batch <= 0:
            self.queue.retries += 1
            return cycles
        first = self._rx_claim_seq
        if holes:
            # The handler sees the MAC's error status for each hole and
            # resequences past it: a skip-mark on the ordering bitmap so
            # the commit pointer can advance over the missing frame.
            for seq in holes:
                if self.board_rx.requires_lock:
                    cycles += self._acquire_lock(
                        "order_rx", now, 11.0, "recv_dispatch_ordering", cycles
                    )
                cycles += self._charge(
                    "recv_dispatch_ordering", self.board_rx.skip(seq)
                )
        if real <= 0:
            # Nothing but holes in the window: commit straight past them.
            self._rx_claim_seq += batch
            cycles += self._commit_rx(now, cycles)
            if self._rx_written > self._rx_claim_seq:
                self._queue_recv_frame_event()
            return cycles
        # The receive-path lock: the shared host-buffer pool.  Held
        # per-frame work is done inside, which is why the paper sees it
        # heat up when RMW removes the ordering serialization.
        cycles += self._acquire_lock(
            "rxpool", now, _HOLD_RXPOOL + 2.0 * real, "recv_locking", cycles
        )
        self._rx_claim_seq += batch
        self._rx_bds_onboard -= real
        cycles += self._charge("recv_dispatch_ordering", fw.dispatch_per_frame, real)
        cycles += self._charge(
            "recv_frame", self._reentrant_per_frame["recv_frame"],
            real * _START_FRACTION, frames=real,
        )
        records = self._rx_records
        if self._checksum_on:
            checksum = self._checksum_profile(
                first, batch, lambda seq: records[seq].payload_bytes, skip=set(holes)
            )
            if checksum is not None:
                cycles += self._charge("recv_frame", checksum, transient=True)

        issue_ps = now + self.core_clock.cycles_to_ps(cycles)
        if self.tracer.enabled:
            core_track = f"core{self._current_core}"
            for seq in range(first, first + batch):
                if seq in holes:
                    continue
                self.tracer.frame_stage("rx", seq, FrameStage.EVENT_DISPATCHED, now)
                self.tracer.frame_stage(
                    "rx", seq, FrameStage.HANDLER_RUN, now, track=core_track
                )
                self.tracer.frame_stage(
                    "rx", seq, FrameStage.DMA_ISSUED, issue_ps, track="dma-write"
                )

        def bundle_done(done_ps: int) -> None:
            if self.tracer.enabled:
                for seq in range(first, first + batch):
                    if seq in holes:
                        continue
                    self.tracer.frame_stage(
                        "rx", seq, FrameStage.DMA_COMPLETE, done_ps, track="dma-write"
                    )
                self.tracer.complete(
                    "dma-write",
                    f"rx-frames {first}+{batch}",
                    issue_ps,
                    max(0, done_ps - issue_ps),
                    first_seq=first,
                    count=batch,
                )
            self._push_event(
                FrameEvent(
                    EventKind.RECV_COMPLETE,
                    first_seq=first,
                    count=batch,
                    payload=holes if holes else None,
                )
            )

        layout = self.driver.layout
        touches = self.config.assist_accesses_per_dma
        regions = []
        for seq in range(first, first + batch):
            if seq in holes:
                continue
            regions.append((
                layout.rx_buffer_address(seq), self._rx_slot_address(seq),
                records[seq].frame_bytes,
            ))
            self._assist_touch(touches)
        self.dma_write.frame_transfer(issue_ps, regions, bundle_done)
        if self._rx_written > self._rx_claim_seq:
            self._queue_recv_frame_event()
        return cycles

    def _handle_recv_complete(self, now: int, event: FrameEvent) -> float:
        fw = self.config.firmware
        batch = event.count
        # Sequence holes inside the bundle were already skip-marked at
        # claim time: no per-frame completion work, and marking them
        # again would corrupt the ordering bitmap.  The event carries
        # them because a hole that leads its bundle can commit, and
        # lose its record, before the bundle completes.
        holes = event.payload or ()
        real = batch - len(holes)
        cycles = self._charge("recv_dispatch_ordering", fw.dispatch_per_event)
        cycles += self._charge(
            "recv_frame", IDEAL_PROFILES["recv_frame"].per_frame,
            real * _FINISH_FRACTION,
        )
        cycles += self._charge(
            "recv_dispatch_ordering", fw.recv_completion_per_frame, real
        )

        software = self.board_rx.requires_lock
        for seq in range(event.first_seq, event.first_seq + batch):
            if seq in holes:
                continue
            if software:
                cycles += self._acquire_lock(
                    "order_rx", now, 11.0, "recv_dispatch_ordering", cycles
                )
            cycles += self._charge(
                "recv_dispatch_ordering", self.board_rx.mark_done(seq)
            )
        cycles += self._commit_rx(now, cycles)
        return cycles

    def _commit_rx(self, now: int, cycles_so_far: float) -> float:
        """Commit pass over the receive board, with side effects."""
        cycles = 0.0
        if self.board_rx.requires_lock:
            cycles += self._acquire_lock(
                "order_rx", now, 18.0, "recv_dispatch_ordering", cycles_so_far + cycles
            )
        committed, cost = self.board_rx.commit()
        cycles += self._charge("recv_dispatch_ordering", cost)
        freed_bytes = 0
        holes = 0
        trace_on = self.tracer.enabled
        rss_on = self.rss_host is not None
        # Contiguous (ring, count) runs of delivered frames, in commit
        # order.  Steering is resolved *before* the edge takes the frame
        # back: the fabric edge steers by the frame the delivery
        # consumes.
        ring_runs: List[List[int]] = []
        records = self._rx_records
        for seq in range(self.board_rx.commit_seq - committed, self.board_rx.commit_seq):
            record = records.pop(seq)  # the record's only exit
            if record.hole:
                # A hole commits (the pointer passes it) but delivers
                # nothing: no payload, no descriptor, no driver notify.
                holes += 1
                continue
            if rss_on:
                ring = self._edge.rx_ring(seq, record.identity)
                if ring_runs and ring_runs[-1][0] == ring:
                    ring_runs[-1][1] += 1
                else:
                    ring_runs.append([ring, 1])
            freed_bytes += record.frame_bytes
            self._rx_payload_done += record.payload_bytes
            if trace_on:
                self.tracer.frame_stage("rx", seq, FrameStage.COMMITTED, now)
            latency_ps = now - record.landed_ps
            self._rx_latency_sum_ps += latency_ps
            self._rx_latency_samples += 1
            self.rx_latency_histogram.record(latency_ps / 1e6)  # us
            self._edge.rx_delivered(record.identity, now)
        delivered = committed - holes
        self._rx_hole_frames += holes
        if delivered:
            cycles += self._acquire_lock(
                "notify_rx", now, _HOLD_NOTIFY, "recv_locking", cycles_so_far + cycles
            )
            done_ps = now + self.core_clock.cycles_to_ps(cycles_so_far + cycles)
            self.dma_write.descriptor_transfer(done_ps, delivered * DESCRIPTOR_BYTES)
            self._assist_touch(self.config.assist_accesses_per_dma)
            if rss_on:
                for ring_index, run in ring_runs:
                    self.rss_host.complete_rx(ring_index, run, done_ps)
            else:
                interrupt = (
                    self.board_rx.commit_seq % self.config.interrupt_coalesce_frames
                ) < committed
                self.driver.complete_receives(delivered, interrupt)
            self._rx_done_frames += delivered
            self._rx_space += freed_bytes
            self.sim.schedule(
                self.core_clock.cycles_to_ps(cycles_so_far + cycles),
                self._wake_rx,
            )
        return cycles

    def _rx_slot_address(self, seq: int) -> int:
        return self.config.tx_buffer_bytes + (seq % self._rx_slots) * 2048

    def _maybe_fetch_recv_bds(self) -> None:
        if (
            self._rx_bds_onboard + self._rx_fetch_inflight
            >= self.config.recv_bd_low_water
        ):
            return
        self._replenish_recv()
        if self.driver.recv_bds_available() < RECV_BDS_PER_FETCH:
            return
        self._rx_fetch_inflight += RECV_BDS_PER_FETCH
        self.driver.consume_recv_bds(RECV_BDS_PER_FETCH)
        self._push_event(FrameEvent(EventKind.FETCH_RECV_BD))

    def _handle_fetch_recv_bd(self, now: int, event: FrameEvent) -> float:
        fw = self.config.firmware
        frames = event.count or RECV_BDS_PER_FETCH
        cycles = self._charge("recv_dispatch_ordering", fw.dispatch_per_event)
        cycles += self._acquire_lock("rxpool", now, _HOLD_RXPOOL, "recv_locking", cycles)
        cycles += self._charge(
            "fetch_recv_bd", self._reentrant_per_frame["fetch_recv_bd"], frames,
            frames=frames,
        )
        transfer = self.dma_read.descriptor_transfer(
            now + self.core_clock.cycles_to_ps(cycles),
            frames * DESCRIPTOR_BYTES,
        )
        self._assist_touch(self.config.assist_accesses_per_dma)
        if self.tracer.enabled:
            self.tracer.complete(
                "dma-read",
                "fetch-recv-bds",
                transfer.issue_ps,
                transfer.latency_ps,
                nbytes=transfer.nbytes,
            )
        self.sim.schedule_at(transfer.complete_ps, lambda: self._recv_bds_arrived(frames))
        return cycles

    def _recv_bds_arrived(self, count: int) -> None:
        self._rx_bds_onboard += count
        self._rx_fetch_inflight -= count
        self._queue_recv_frame_event()

    # ==================================================================
    # Contention feedback
    # ==================================================================
    def _update_contention(self) -> None:
        now = self.sim.now_ps
        # Sample the outstanding-frame population (Section 7: "several
        # hundred outstanding frames in various stages of processing"):
        # sends posted but not done, plus receives accepted by the MAC
        # but not committed.
        outstanding = (
            (self.driver._next_send_seq - self._tx_done_frames)
            + (self.mac_rx.frames_accepted - self.board_rx.commit_seq)
        )
        self._inflight_sum += max(0, outstanding)
        self._inflight_samples += 1
        elapsed_ps = now - self._contention_window_start_ps
        if elapsed_ps > 0:
            cycles = elapsed_ps / self.core_clock.period_ps
            rate = self._contention_window_accesses / cycles
            target = self.contention.expected_wait(rate)
            # Exponentially smooth the estimate so heavily loaded bank
            # configurations (rho near 1) converge instead of
            # oscillating between cheap and saturated operating points.
            self._charges.set_wait(0.6 * self._conflict_wait + 0.4 * target)
        self._contention_window_accesses = 0.0
        self._contention_window_start_ps = now
        if self.tracer.enabled:
            self.tracer.counter(
                "scratchpad", "conflict_wait_cycles", now, self._conflict_wait
            )
            self.tracer.counter(
                "frames", "outstanding", now, max(0, outstanding)
            )
        self.sim.schedule(self._contention_interval_ps, self._update_contention)

    # ==================================================================
    # Metrics export
    # ==================================================================
    def metrics_snapshot(self) -> Dict[str, float]:
        """Flat machine-readable view of the run's live state.

        Names follow the ``kind.name`` convention of
        :meth:`repro.sim.stats.StatRegistry.snapshot` (histogram
        summaries come straight from the registry), so the Prometheus
        formatter types counters correctly.  Reading changes no
        simulated state — safe for the
        :class:`~repro.obs.metrics.MetricsSampler`: it folds pending
        charges into the statistics, which moves no sum.
        """
        self._charges.fold()
        values = self.stats.snapshot()
        values.update(
            {
                "counter.tx_wire_frames": float(self._tx_done_frames),
                "counter.rx_committed_frames": float(self._rx_done_frames),
                "counter.rx_dropped_frames": float(self._rx_dropped),
                "counter.rx_offered_frames": float(self.mac_rx.frames_accepted + self._rx_dropped),
                "counter.tx_payload_bytes": float(self._tx_payload_done),
                "counter.rx_payload_bytes": float(self._rx_payload_done),
                "counter.event_queue_enqueues": float(self.queue.enqueues),
                "counter.event_retries": float(self.queue.retries),
                "counter.sdram_transferred_bytes": float(self.sdram.transferred_bytes),
                "counter.sdram_useful_bytes": float(self.sdram.useful_bytes),
                "counter.scratchpad_assist_accesses": float(self._assist_accesses),
                "counter.scratchpad_core_accesses": self._charges.sums.run[5] / NANO,
                "gauge.event_queue_depth": float(len(self.queue)),
                "gauge.event_queue_high_water": float(self.queue.high_water),
                "gauge.idle_cores": float(self._idle_cores),
                "gauge.tx_buffer_free_bytes": float(self._tx_space),
                "gauge.rx_buffer_free_bytes": float(self._rx_space),
                "gauge.conflict_wait_cycles": float(self._conflict_wait),
                "gauge.pending_sim_events": float(self.sim.pending_events),
            }
        )
        for name, lock in self.locks.items():
            values[f"counter.lock_wait_cycles.{name}"] = lock.total_wait_cycles
        if self.faults is not None:
            for key, value in self.faults.counters.items():
                values[f"counter.fault.{key}"] = float(value)
            values["counter.rx_hole_frames"] = float(self._rx_hole_frames)
        return values

    def sample_metrics_every(self, interval_ps: int) -> MetricsSampler:
        """Attach and start a periodic metrics sampler.

        Call before :meth:`run`; the sampler rides the simulation's own
        event queue, reads :meth:`metrics_snapshot`, and never perturbs
        simulated timing.
        """
        from repro.obs.metrics import MetricsSampler

        sampler = MetricsSampler(self.sim, self.metrics_snapshot, interval_ps)
        return sampler.start()

    # ==================================================================
    # Experiment driver
    # ==================================================================
    _contention_interval_ps = 50_000_000  # 50 us

    def start(self) -> None:
        """Schedule the initial events (idempotent per instance).

        :meth:`run` calls this automatically; fabric callers sharing
        one kernel across endpoints call it directly and then drive the
        shared :class:`~repro.sim.kernel.Simulator` themselves.
        """
        if getattr(self, "_started", False):
            return
        self._started = True
        self.sim.schedule(0, self._edge.fetch_send_bds)
        self.sim.schedule(0, self._wake_rx)
        self.sim.schedule(self._contention_interval_ps, self._update_contention)

    def run(self, warmup_s: float = 0.5e-3, measure_s: float = 2.0e-3) -> ThroughputResult:
        """Warm up, measure, and return the results."""
        check_window(warmup_s, measure_s)
        warmup_ps = round(warmup_s * 1e12)
        measure_ps = round(measure_s * 1e12)

        self.start()

        self.sim.run(until_ps=warmup_ps)
        snap = self._snapshot()
        self.sim.run(until_ps=warmup_ps + measure_ps)
        return self._build_result(snap, measure_ps)

    # -- snapshots so warm-up is excluded from every statistic ----------
    def _snapshot(self) -> Dict[str, object]:
        self._charges.fold()
        return {
            "tx_done": self._tx_done_frames,
            "rx_done": self._rx_done_frames,
            "tx_payload": self._tx_payload_done,
            "rx_payload": self._rx_payload_done,
            "rx_dropped": self._rx_dropped,
            "rx_offered": self.mac_rx.frames_accepted + self._rx_dropped,
            "fn": copy.deepcopy(self.fn),
            "sums": self._charges.sums.copy(),
            "busy_ps": self._busy_ps,
            "assist_accesses": self._assist_accesses,
            "sdram_useful": self.sdram.useful_bytes,
            "sdram_transferred": self.sdram.transferred_bytes,
            "lock_waits": {
                name: lock.total_wait_cycles for name, lock in self.locks.items()
            },
            "rx_holes": self._rx_hole_frames,
            "fault_counters": (
                self.faults.snapshot() if self.faults is not None else None
            ),
            # Also opens the multi-queue measurement window (per-ring
            # stat windows + core baselines).
            "rss": (
                self.rss_host.window_reset()
                if self.rss_host is not None
                else None
            ),
            "now_ps": self.sim.now_ps,
        }

    def _build_result(self, snap: Dict[str, object], measure_ps: int) -> ThroughputResult:
        # Every statistic below is an exact integer difference, converted
        # to a float once.
        self._charges.fold()
        sums = self._charges.sums
        before_sums = snap["sums"]
        period = self.core_clock.period_ps
        fn_stats: Dict[str, FunctionStats] = {}
        for name, stats in self.fn.items():
            before: FunctionStats = snap["fn"][name]  # type: ignore[index]
            now_terms = sums.functions.get(name, (0, 0, 0, 0))
            before_terms = before_sums.functions.get(name, (0, 0, 0, 0))  # type: ignore[attr-defined]
            instructions, loads, stores, cycles = (
                (now - then) / NANO for now, then in zip(now_terms, before_terms)
            )
            fn_stats[name] = FunctionStats(
                instructions=instructions,
                loads=loads,
                stores=stores,
                cycles=cycles,
                lock_wait_cycles=(
                    sums.spin_ps.get(name, 0)
                    - before_sums.spin_ps.get(name, 0)  # type: ignore[attr-defined]
                ) / period,
                invocations=stats.invocations - before.invocations,
                frames=stats.frames - before.frames,
            )

        execution, imiss, load, conflict, pipeline, accesses = (
            now - then for now, then in zip(sums.run, before_sums.run)  # type: ignore[attr-defined]
        )
        cost_delta = HandlerCost(
            instructions=execution / NANO,
            execution_cycles=execution / NANO,
            imiss_cycles=imiss / NANO,
            load_cycles=load / NANO,
            conflict_cycles=conflict / NANO,
            pipeline_cycles=pipeline / NANO,
        )
        measure_seconds = ps_to_seconds(measure_ps)
        window_cycles = measure_ps / self.core_clock.period_ps
        offered = self.mac_rx.frames_accepted + self._rx_dropped - snap["rx_offered"]  # type: ignore[operator]
        lock_waits = {
            name: lock.total_wait_cycles - snap["lock_waits"][name]  # type: ignore[index]
            for name, lock in self.locks.items()
        }
        fault_counters: Dict[str, float] = {}
        if self.faults is not None:
            before_faults = snap["fault_counters"]
            fault_counters = {
                key: float(value - before_faults[key])  # type: ignore[index]
                for key, value in self.faults.counters.items()
            }
        return ThroughputResult(
            config=self.config,
            udp_payload_bytes=self.udp_payload_bytes,
            frame_bytes=self.frame_bytes,
            measure_seconds=measure_seconds,
            tx_frames=self._tx_done_frames - snap["tx_done"],  # type: ignore[operator]
            rx_frames=self._rx_done_frames - snap["rx_done"],  # type: ignore[operator]
            tx_payload_bytes=self._tx_payload_done - snap["tx_payload"],  # type: ignore[operator]
            rx_payload_bytes=self._rx_payload_done - snap["rx_payload"],  # type: ignore[operator]
            line_fps_per_direction=self.line_fps_per_direction,
            rx_offered=offered,
            rx_dropped=self._rx_dropped - snap["rx_dropped"],  # type: ignore[operator]
            function_stats=fn_stats,
            busy_cycles=(self._busy_ps - snap["busy_ps"]) / self.core_clock.period_ps,  # type: ignore[operator]
            total_core_cycles=window_cycles * self.config.cores,
            cost_totals=cost_delta,
            scratchpad_core_accesses=accesses // NANO,
            scratchpad_assist_accesses=self._assist_accesses - snap["assist_accesses"],  # type: ignore[operator]
            sdram_useful_bytes=self.sdram.useful_bytes - snap["sdram_useful"],  # type: ignore[operator]
            sdram_transferred_bytes=self.sdram.transferred_bytes - snap["sdram_transferred"],  # type: ignore[operator]
            imem_fill_bytes=(
                cost_delta.imiss_cycles
                / self.config.cost_model.imiss_penalty_cycles
                * self.config.icache_line_bytes
            ),
            conflict_wait=self._conflict_wait,
            lock_waits=lock_waits,
            event_queue_high_water=self.queue.high_water,
            retries=self.queue.retries,
            mean_rx_commit_latency_s=(
                ps_to_seconds(self._rx_latency_sum_ps / self._rx_latency_samples)
                if self._rx_latency_samples
                else 0.0
            ),
            mean_outstanding_frames=(
                self._inflight_sum / self._inflight_samples
                if self._inflight_samples
                else 0.0
            ),
            p99_rx_commit_latency_s=self.rx_latency_histogram.percentile(0.99) * 1e-6,
            rx_holes=self._rx_hole_frames - snap["rx_holes"],  # type: ignore[operator]
            fault_counters=fault_counters,
            rss=(
                self.rss_host.report(snap["rss"], measure_ps)  # type: ignore[arg-type]
                if self.rss_host is not None
                else None
            ),
        )
