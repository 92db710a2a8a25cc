"""One NIC inside the fabric: the NIC core behind the fabric traffic edge.

The NIC core (:class:`~repro.nic.throughput.ThroughputSimulator`:
every handler, lock, ordering board, and DMA model) serves one traffic
edge, fixed at construction.  The standalone simulator's
:class:`~repro.nic.throughput.LineRateEdge` makes up uncorrelated
traffic; :class:`NicEndpoint` is the edge with *correlated* traffic:

* **transmit** — frames only exist when a flow posts them
  (:meth:`post_tx`); the driver's frame budget grows per post, and BD
  fetches are sized to what is actually queued (partial batches), so a
  4-frame RPC window does not deadlock waiting for a 16-frame batch.
* **receive** — arrivals come from the wire model
  (:meth:`rx_arrive`), carrying the :class:`FabricFrame` the peer NIC
  sent.  Only accepted frames are numbered; a tail-dropped frame is
  reported to its flow, so frame identity survives loss.

Each posted frame waits in one store (:class:`PostedFrames`, which
sizes the core's transmit side) until its wire hand-off; the receiver
hands each accepted frame to the core, which keeps it in the frame's
receive record until the commit pass.
"""

from __future__ import annotations

import zlib
from collections import deque
from typing import Callable, Deque, Dict, Tuple

from repro.assists.mac import MacReceiver, WireEvent
from repro.fabric.flows import FabricFrame
from repro.firmware.events import EventKind, FrameEvent
from repro.firmware.profiles import BDS_PER_SENT_FRAME, SEND_FRAMES_PER_BD_FETCH
from repro.net.ethernet import EthernetTiming, frame_bytes_for_udp_payload
from repro.net.workload import FrameSizeModel
from repro.nic.throughput import ThroughputSimulator

#: The nominal payload whose means normalize a fabric NIC's results
#: and seed its contention estimate.
_NOMINAL_PAYLOAD_BYTES = 1472
_NOMINAL_FRAME_BYTES = frame_bytes_for_udp_payload(_NOMINAL_PAYLOAD_BYTES)


class PostedFrames(FrameSizeModel):
    """The frames flows posted to one NIC, by transmit sequence number,
    from :meth:`NicEndpoint.post_tx` to the wire hand-off.

    It is the NIC's transmit size model: per-frame timing reads each
    frame's own size (an unposted or handed-off sequence raises
    ``KeyError``), while the means are the nominal 1472 B payload's.
    """

    def __init__(self) -> None:
        self.frames: Dict[int, FabricFrame] = {}

    def payload_bytes(self, seq: int) -> int:
        return self.frames[seq].udp_payload_bytes

    def frame_bytes(self, seq: int) -> int:
        return self.frames[seq].frame_bytes

    @property
    def mean_payload_bytes(self) -> float:
        return float(_NOMINAL_PAYLOAD_BYTES)

    @property
    def mean_frame_bytes(self) -> float:
        return float(_NOMINAL_FRAME_BYTES)

    def mean_wire_bytes(self, timing: EthernetTiming) -> float:
        return float(timing.wire_bytes(_NOMINAL_FRAME_BYTES))


class FabricMacReceiver(MacReceiver):
    """MAC receive engine fed by the wire model instead of a schedule.

    Pending frames queue as ``(available_ps, frame)`` in arrival order.
    As on the paced receiver, sequence numbers are assigned at
    acceptance, and :meth:`skip_backlog` (called when the receive
    buffer was full across arrival slots) drops expired frames without
    numbering them — each drop is reported through ``drop_fn`` so the
    owning flow sees the loss.  The peeked frame is the identity the
    core keeps in the frame's receive record.
    """

    def __init__(self, sdram, sdram_clock, timing,
                 drop_fn: Callable[[FabricFrame], None]) -> None:
        # The wire paces arrivals: none of the paced receiver's state.
        self._init_receiver(sdram, sdram_clock, timing)
        self._pending: Deque[Tuple[int, FabricFrame]] = deque()
        self.drop_fn = drop_fn
        self.frames_pushed = 0

    # -- wire side ------------------------------------------------------
    def push(self, available_ps: int, frame: FabricFrame) -> None:
        self._pending.append((available_ps, frame))
        self.frames_pushed += 1

    @property
    def frames_disposed(self) -> int:
        """Frames this MAC has taken or tail-dropped, by its own count:
        those the wire pushed that no longer queue."""
        return self.frames_pushed - len(self._pending)

    @property
    def has_pending(self) -> bool:
        return bool(self._pending)

    # -- NIC side -------------------------------------------------------
    def peek_frame(self) -> Tuple[int, int, FabricFrame]:
        frame = self._pending[0][1]
        return frame.frame_bytes, frame.udp_payload_bytes, frame

    def next_arrival_ps(self) -> int:
        return self._pending[0][0]

    def take_frame(self, now_ps: int, frame_bytes: int) -> WireEvent:
        wire = self._accept(now_ps, self._pending[0][0], frame_bytes)
        self._pending.popleft()
        return wire

    def skip_backlog(self, now_ps: int) -> int:
        dropped = 0
        while self._pending:
            available, frame = self._pending[0]
            if available + self.timing.frame_time_ps(frame.frame_bytes) >= now_ps:
                break
            self._pending.popleft()
            dropped += 1
            self.drop_fn(frame)
        return dropped


class NicEndpoint(ThroughputSimulator):
    """A fabric-attached NIC: the NIC core behind the fabric traffic edge.

    It shares the fabric's event kernel and is its own traffic edge
    (the calls :class:`~repro.nic.throughput.LineRateEdge` lists): it
    owns the wire-fed :class:`FabricMacReceiver` and the posted frames,
    steers RSS by the frames' flows, budgets the driver by posted
    frames, hands sent frames to the wire, and reports deliveries and
    losses.  It overrides nothing of the core.
    """

    #: Flow-driven transmit: no frames exist until a flow posts one.
    driver_budget = 0

    def __init__(self, config, fabric, index: int, tracer=None,
                 fault_plan=None, rss=None) -> None:
        self.fabric = fabric
        self.index = index
        self.tx_sizes = PostedFrames()
        self._tx_post_seq = 0
        self._build(config, self, fabric.sim, f"nic{index}/", tracer, fault_plan, rss)

    def receiver(self, sdram, sdram_clock, timing) -> FabricMacReceiver:
        return FabricMacReceiver(sdram, sdram_clock, timing, self._mac_tail_drop)

    # ==================================================================
    # Transmit side: flow -> driver -> wire
    # ==================================================================
    def post_tx(self, frame: FabricFrame) -> None:
        """A flow hands one frame to this NIC's host driver."""
        seq = self._tx_post_seq
        self._tx_post_seq += 1
        self.tx_sizes.frames[seq] = frame
        self.driver.max_frames = self._tx_post_seq
        self.fetch_send_bds()  # posts the frame's descriptors first

    def fetch_send_bds(self) -> None:
        """Fetch what is queued, up to one batch: partial batches, since
        a 4-deep RPC window never queues the 16 frames the saturation
        workload always has."""
        self._refill_send()
        room = (
            self.config.tx_bd_buffer_frames
            - self._tx_bd_onboard
            - self._tx_fetch_inflight
        )
        frames = min(
            self.driver.send_bds_available() // BDS_PER_SENT_FRAME,
            SEND_FRAMES_PER_BD_FETCH,
            room,
        )
        if frames <= 0:
            return
        self._tx_fetch_inflight += frames
        self.driver.consume_send_bds(frames * BDS_PER_SENT_FRAME)
        self._push_event(FrameEvent(EventKind.FETCH_SEND_BD, count=frames))

    def tx_wire(self, seq: int, wire: WireEvent) -> None:
        # The core has read the frame's sizes and its send completion
        # steered it: the MAC pump runs after the commit pass that
        # marked both send boards.
        self.fabric.wire.transmit(self.index, self.tx_sizes.frames.pop(seq), wire)

    # ==================================================================
    # RSS steering from real flow identities
    # ==================================================================
    @staticmethod
    def _flow_tuple(frame: FabricFrame) -> Tuple[int, int, int, int]:
        # Fabric node ids become addresses, the flow name a stable port:
        # every frame of a flow hashes to the same ring, while request
        # and response directions (swapped src/dst) steer independently.
        port = 0x8000 | (zlib.crc32(frame.flow.encode("ascii")) & 0x7FFF)
        return (0x0A00_0000 + frame.src + 1, 0x0A00_0000 + frame.dst + 1, port, 9999)

    def tx_ring(self, seq: int) -> int:
        return self.rss_host.ring_for(*self._flow_tuple(self.tx_sizes.frames[seq]))

    def rx_ring(self, seq: int, frame: FabricFrame) -> int:
        return self.rss_host.ring_for(*self._flow_tuple(frame))

    # ==================================================================
    # Receive side: wire -> driver
    # ==================================================================
    def rx_arrive(self, frame: FabricFrame, available_ps: int) -> None:
        """The wire delivers a frame's first bit at ``available_ps``."""
        self.mac_rx.push(available_ps, frame)
        self._wake_rx()

    def rx_delivered(self, frame: FabricFrame, now_ps: int) -> None:
        self.fabric.frame_delivered(frame, now_ps)

    def rx_lost(self, frame: FabricFrame, now_ps: int) -> None:
        # The MAC numbered the frame before its checksum failed.
        self.fabric.frame_lost(frame, now_ps, "rx_fcs")

    def _mac_tail_drop(self, frame: FabricFrame) -> None:
        self.fabric.frame_lost(frame, self.sim.now_ps, "mac_overrun")
