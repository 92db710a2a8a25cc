"""One NIC inside the fabric: a flow-driven :class:`ThroughputSimulator`.

The standalone simulator drives itself with analytic, uncorrelated
traffic: the driver posts an endless send stream and the MAC receiver
fabricates periodic arrivals.  :class:`NicEndpoint` keeps the entire
firmware/assist/memory pipeline — every handler, lock, ordering board,
and DMA model — but replaces both traffic edges with *correlated* ones:

* **transmit** — frames only exist when a flow posts them
  (:meth:`post_tx`); the driver's frame budget grows per post, and BD
  fetches are sized to what is actually queued (partial batches), so a
  4-frame RPC window does not deadlock waiting for the 16-frame batch
  the saturation workload guarantees.
* **receive** — arrivals come from the wire model
  (:meth:`rx_arrive`), carrying the actual :class:`FabricFrame`
  transmitted by the peer NIC.  Sequence numbers are assigned only to
  *accepted* frames; tail-dropped frames are popped from the pending
  queue (and reported to their flow) without consuming a sequence
  number, so frame identity survives loss.

Per-frame sizes flow through :class:`RecordedSizeModel` — the
refactored simulator reads every size through ``tx_sizes``/``rx_sizes``,
so recording the payload at post/arrival time is all it takes for mixed
request/response sizes to be timed exactly.
"""

from __future__ import annotations

import zlib
from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.assists.mac import MacReceiver, WireEvent
from repro.fabric.flows import FabricFrame
from repro.firmware.events import EventKind, FrameEvent
from repro.firmware.profiles import (
    BDS_PER_SENT_FRAME,
    SEND_FRAMES_PER_BD_FETCH,
)
from repro.net.ethernet import frame_bytes_for_udp_payload
from repro.net.workload import FrameSizeModel
from repro.nic.throughput import ThroughputSimulator


class RecordedSizeModel(FrameSizeModel):
    """Per-sequence sizes recorded as frames are posted/accepted.

    The nominal payload feeds the mean/line-rate properties (used only
    for result normalization and the initial contention estimate);
    per-frame timing always reads the recorded value.  Looking up an
    unrecorded (or released) sequence is a programming error and raises
    ``KeyError`` rather than silently substituting the nominal size.

    The endpoint releases each record at its last reader, so the model
    holds only frames in flight, however long the run.
    """

    def __init__(self, nominal_payload_bytes: int = 1472) -> None:
        self._nominal = nominal_payload_bytes
        self._payloads: Dict[int, int] = {}
        self._frames: Dict[int, int] = {}

    def record(self, seq: int, udp_payload_bytes: int) -> None:
        """Record ``seq``'s payload; an invalid payload raises here."""
        self._frames[seq] = frame_bytes_for_udp_payload(udp_payload_bytes)
        self._payloads[seq] = udp_payload_bytes

    def release(self, seq: int) -> None:
        """Forget ``seq`` after its last size read."""
        del self._payloads[seq]
        del self._frames[seq]

    @property
    def records(self) -> int:
        """Number of sequences recorded and not yet released."""
        return len(self._payloads)

    def payload_bytes(self, seq: int) -> int:
        return self._payloads[seq]

    def frame_bytes(self, seq: int) -> int:
        return self._frames[seq]

    @property
    def mean_payload_bytes(self) -> float:
        return float(self._nominal)

    @property
    def mean_frame_bytes(self) -> float:
        return float(frame_bytes_for_udp_payload(self._nominal))

    @property
    def max_frame_bytes(self) -> int:
        return frame_bytes_for_udp_payload(self._nominal)

    def mean_wire_bytes(self, timing) -> float:
        return float(timing.wire_bytes(frame_bytes_for_udp_payload(self._nominal)))


class FabricMacReceiver(MacReceiver):
    """MAC receive engine fed by the wire model instead of a schedule.

    Pending frames queue as ``(available_ps, frame)`` in arrival order;
    sequence numbers are assigned at acceptance, and
    :meth:`skip_backlog` (called when the receive buffer was full
    across arrival slots) drops expired frames *without* consuming
    sequence numbers — each drop is reported through ``drop_fn`` so the
    owning flow sees the loss.
    """

    def __init__(self, sdram, sdram_clock, timing) -> None:
        super().__init__(sdram, sdram_clock, interarrival_ps=1, timing=timing)
        self._pending: Deque[Tuple[int, FabricFrame]] = deque()
        self.drop_fn: Optional[Callable[[FabricFrame], None]] = None

    # -- wire side ------------------------------------------------------
    def push(self, available_ps: int, frame: FabricFrame) -> None:
        self._pending.append((available_ps, frame))

    @property
    def has_pending(self) -> bool:
        return bool(self._pending)

    def peek_frame(self) -> FabricFrame:
        return self._pending[0][1]

    # -- NIC side -------------------------------------------------------
    def next_arrival_ps(self) -> int:
        return self._pending[0][0]

    def take_frame(self, now_ps: int, frame_bytes: int) -> WireEvent:
        available, frame = self._pending[0]
        if now_ps < available:
            raise ValueError(
                f"frame for seq {self._next_seq} accepted at {now_ps} "
                f"before arrival {available}"
            )
        self._pending.popleft()
        wire_end = max(now_ps, available) + self.timing.frame_time_ps(frame_bytes)
        seq = self._next_seq
        self._next_seq += 1
        self.frames_accepted += 1
        self.bytes_accepted += frame_bytes
        return WireEvent(seq, available, wire_end, wire_end)

    def skip_backlog(self, now_ps: int) -> int:
        dropped = 0
        while self._pending:
            available, frame = self._pending[0]
            if available + self.timing.frame_time_ps(frame.frame_bytes) >= now_ps:
                break
            self._pending.popleft()
            dropped += 1
            if self.drop_fn is not None:
                self.drop_fn(frame)
        return dropped

    def offered_frames(self, start_ps: int, end_ps: int) -> int:
        raise ValueError("fabric receiver arrivals come from the wire model")


class NicEndpoint(ThroughputSimulator):
    """A fabric-attached NIC sharing the fabric's event kernel."""

    #: Flow-driven transmit: no frames exist until a flow posts one.
    _driver_max_frames: Optional[int] = 0

    def __init__(self, config, fabric, index: int, **kwargs) -> None:
        kwargs.setdefault("clock_prefix", f"nic{index}/")
        super().__init__(config, udp_payload_bytes=1472, sim=fabric.sim, **kwargs)
        self.fabric = fabric
        self.index = index
        # Per-direction recorded sizes replace the shared analytic model.
        self.tx_sizes = RecordedSizeModel()
        self.rx_sizes = RecordedSizeModel()
        # The wire-fed MAC receiver replaces the analytic one built by
        # the base constructor (which is never started, so the swap has
        # no residue).
        self.mac_rx = FabricMacReceiver(self.sdram, self.sdram_clock, self.timing)
        self.mac_rx.drop_fn = self._mac_tail_drop
        # Frame identity maps, keyed by per-direction sequence number.
        self._tx_frames: Dict[int, FabricFrame] = {}
        self._rx_frames: Dict[int, FabricFrame] = {}
        self._tx_post_seq = 0
        # RSS steering resolved at post time (the frame record may be
        # gone by completion time); keyed by tx sequence number.
        self._tx_ring_cache: Dict[int, int] = {}
        # Correlation hooks into the refactored base pipeline.
        self._tx_wire_hook = self._on_tx_wire
        self._rx_commit_hook = self._on_rx_commit

    # ==================================================================
    # Transmit side: flow -> driver
    # ==================================================================
    def post_tx(self, frame: FabricFrame) -> None:
        """A flow hands one frame to this NIC's host driver."""
        seq = self._tx_post_seq
        self._tx_post_seq += 1
        self.tx_sizes.record(seq, frame.udp_payload_bytes)
        self._tx_frames[seq] = frame
        self.driver.max_frames = self._tx_post_seq
        self._maybe_fetch_send_bds()  # posts the frame's descriptors first

    def _maybe_fetch_send_bds(self) -> None:
        # Partial-batch descriptor fetches: the saturation workload
        # always has 16 frames queued, a 4-deep RPC window does not.
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

    def _on_tx_wire(self, seq: int, wire: WireEvent) -> None:
        frame = self._tx_frames.pop(seq)
        self.fabric.wire.transmit(self.index, frame, wire)

    def _tx_wire_done(self, seq: int) -> None:
        super()._tx_wire_done(seq)
        self.tx_sizes.release(seq)  # the frame's last size read

    # ==================================================================
    # RSS steering from real flow identities
    # ==================================================================
    @staticmethod
    def _flow_tuple(frame: FabricFrame) -> Tuple[int, int, int, int]:
        # Fabric node ids become addresses, the flow name a stable port:
        # every frame of a flow hashes to the same ring, while request
        # and response directions (swapped src/dst) steer independently.
        port = 0x8000 | (zlib.crc32(frame.flow.encode("ascii")) & 0x7FFF)
        return (
            0x0A00_0000 + frame.src + 1,
            0x0A00_0000 + frame.dst + 1,
            port,
            9999,
        )

    def _tx_ring_for_seq(self, seq: int) -> int:
        ring = self._tx_ring_cache.get(seq)
        if ring is None:
            ring = self.rss_host.ring_for(*self._flow_tuple(self._tx_frames[seq]))
            self._tx_ring_cache[seq] = ring
        return ring

    def _tx_ring_completed(self, seq: int) -> int:
        # The send completion is the last steering read of a frame.
        return self._tx_ring_cache.pop(seq)

    def _rx_ring_for_seq(self, seq: int) -> int:
        # Called in _commit_rx before the commit hook pops the frame.
        return self.rss_host.ring_for(*self._flow_tuple(self._rx_frames[seq]))

    # ==================================================================
    # Receive side: wire -> driver
    # ==================================================================
    def rx_arrive(self, frame: FabricFrame, available_ps: int) -> None:
        """The wire delivers a frame's first bit at ``available_ps``."""
        self.mac_rx.push(available_ps, frame)
        if not self._rx_pump_active:
            # Same wake protocol the commit path uses: expired backlog
            # is tail-dropped, then the single pump chain restarts.
            self._rx_space_freed()

    def _rx_pump(self) -> None:
        now = self.sim.now_ps
        mac = self.mac_rx
        if not mac.has_pending:
            self._rx_pump_active = False
            return
        frame = mac.peek_frame()
        self.rx_sizes.record(mac._next_seq, frame.udp_payload_bytes)
        frame_size = frame.frame_bytes
        if self._rx_space < frame_size:
            # Buffer full: sleep until space frees (_rx_space_freed);
            # frames whose slot passes meanwhile are dropped there.
            self._rx_pump_active = False
            return
        arrival = mac.next_arrival_ps()
        if arrival > now:
            self.sim.schedule_at(arrival, self._rx_pump)
            return
        self._rx_space -= frame_size
        wire = mac.take_frame(now, frame_size)
        self._rx_frames[wire.seq] = frame
        self._assist_touch(self.config.assist_accesses_per_mac_frame)
        if self.tracer.enabled:
            self.tracer.complete(
                "mac-rx",
                f"rx {wire.seq}",
                wire.wire_start_ps,
                wire.wire_end_ps - wire.wire_start_ps,
                seq=wire.seq,
            )
        self.sim.schedule_at(wire.wire_end_ps, lambda s=wire.seq: self._rx_store(s))
        if mac.has_pending:
            self.sim.schedule_at(max(now, mac.next_arrival_ps()), self._rx_pump)
        else:
            self._rx_pump_active = False

    def _rx_fault_drop(self, seq: int) -> None:
        # FCS-dropped frames consumed a sequence number (the MAC
        # accepted them before the checksum failed); pop their identity
        # and report the loss before the base recovery bookkeeping.
        frame = self._rx_frames.pop(seq)
        super()._rx_fault_drop(seq)
        self.rx_sizes.release(seq)  # a hole is never read again
        self.fabric.frame_lost(frame, self.sim.now_ps, "rx_fcs")

    def _mac_tail_drop(self, frame: FabricFrame) -> None:
        self.fabric.frame_lost(frame, self.sim.now_ps, "mac_overrun")

    def _on_rx_commit(self, seq: int, now_ps: int) -> None:
        frame = self._rx_frames.pop(seq)
        self.rx_sizes.release(seq)  # the commit pass read it last
        self.fabric.frame_delivered(frame, now_ps)
