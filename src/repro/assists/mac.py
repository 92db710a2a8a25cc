"""MAC transmit and receive assist engines.

The MAC unit implements the Ethernet link-level protocol: it serializes
committed frames onto the wire (transmit) and stores arriving frames
into the NIC's receive buffer (receive), timing both against the
Ethernet clock with preamble and interframe gap (Section 5: "the
network model times packet transmission or reception based on the
Ethernet clock, interframe gaps, and preambles").

Each engine stages up to two maximum-sized frames (Section 2.3), so the
SDRAM access of frame *n+1* overlaps the wire time of frame *n*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.mem.sdram import GddrSdram
from repro.net.ethernet import EthernetTiming
from repro.sim.kernel import ClockDomain


@dataclass(frozen=True)
class WireEvent:
    """One frame's trip through a MAC engine."""

    seq: int
    wire_start_ps: int
    wire_end_ps: int
    sdram_done_ps: int


class MacTransmitter:
    """Pulls committed frames from the tx buffer onto the wire."""

    def __init__(
        self,
        sdram: GddrSdram,
        sdram_clock: ClockDomain,
        timing: Optional[EthernetTiming] = None,
    ) -> None:
        self.sdram = sdram
        self.sdram_clock = sdram_clock
        self.timing = timing if timing is not None else EthernetTiming()
        self._wire_free_ps = 0
        self.frames_sent = 0
        self.bytes_sent = 0
        self.scratchpad_accesses = 0

    def transmit(self, now_ps: int, seq: int, sdram_address: int, frame_bytes: int) -> WireEvent:
        """Send one committed frame; returns its wire timing."""
        cycle = self.sdram_clock.current_cycle(now_ps)
        read = self.sdram.transfer(sdram_address, frame_bytes, cycle)
        sdram_done = self.sdram_clock.cycles_to_ps(read.finish_cycle)
        wire_start = max(sdram_done, self._wire_free_ps)
        wire_end = wire_start + self.timing.frame_time_ps(frame_bytes)
        self._wire_free_ps = wire_end
        self.frames_sent += 1
        self.bytes_sent += frame_bytes
        return WireEvent(seq, wire_start, wire_end, sdram_done)

    def note_scratchpad_accesses(self, count: int) -> None:
        self.scratchpad_accesses += count


class MacReceiver:
    """Accepts arriving frames into the rx buffer at line pace.

    Arrivals are generated analytically (the offered stream is strictly
    periodic), so the receiver produces one simulation event per
    *accepted* frame, never per offered frame: when the NIC falls
    behind, the backlogged frames are implicitly dropped and accounted
    at the end via :meth:`offered_frames`.
    """

    def __init__(
        self,
        sdram: GddrSdram,
        sdram_clock: ClockDomain,
        interarrival_ps: int = 0,
        start_ps: int = 0,
        timing: Optional[EthernetTiming] = None,
        gap_fn=None,
    ) -> None:
        """Either a constant ``interarrival_ps`` or a per-frame
        ``gap_fn(seq) -> ps`` (mixed-size workloads) paces arrivals."""
        if gap_fn is None and interarrival_ps <= 0:
            raise ValueError("interarrival time must be positive")
        self.sdram = sdram
        self.sdram_clock = sdram_clock
        self.interarrival_ps = interarrival_ps
        self.start_ps = start_ps
        self.timing = timing if timing is not None else EthernetTiming()
        self._gap_fn = gap_fn
        self.frames_accepted = 0
        self.bytes_accepted = 0
        self.scratchpad_accesses = 0
        self._next_seq = 0
        self._next_arrival_ps = start_ps

    def _gap(self, seq: int) -> int:
        if self._gap_fn is not None:
            return self._gap_fn(seq)
        return self.interarrival_ps

    def next_arrival_ps(self) -> int:
        """Earliest time the next frame can be taken off the wire."""
        return self._next_arrival_ps

    def take_frame(self, now_ps: int, frame_bytes: int) -> WireEvent:
        """Claim the next arriving frame off the wire.

        ``now_ps`` must be at or past the frame's arrival time (the
        caller waits for :meth:`next_arrival_ps`).  Returns the frame's
        wire timing; the caller invokes :meth:`store` at ``wire_end_ps``
        so the SDRAM write is requested at its true start time.
        """
        arrival = self.next_arrival_ps()
        if now_ps < arrival:
            raise ValueError(
                f"frame {self._next_seq} accepted at {now_ps} before "
                f"arrival {arrival}"
            )
        wire_end = max(now_ps, arrival) + self.timing.frame_time_ps(frame_bytes)
        seq = self._next_seq
        self._next_arrival_ps += self._gap(seq)
        self._next_seq += 1
        self.frames_accepted += 1
        self.bytes_accepted += frame_bytes
        return WireEvent(seq, arrival, wire_end, wire_end)

    def store(self, now_ps: int, sdram_address: int, frame_bytes: int) -> int:
        """Burst a fully received frame into the rx buffer; returns the
        completion time of the SDRAM write."""
        cycle = self.sdram_clock.current_cycle(now_ps)
        write = self.sdram.transfer(sdram_address, frame_bytes, cycle)
        return self.sdram_clock.cycles_to_ps(write.finish_cycle)

    def skip_backlog(self, now_ps: int) -> int:
        """Drop every frame whose arrival slot has fully passed unserved.

        Returns the number of frames dropped.  Called when the receive
        buffer has been full across arrival slots — the wire does not
        wait, so those frames are gone (tail drop at the MAC).
        """
        first = seq = self._next_seq
        arrival = self._next_arrival_ps
        gap = self._gap(seq)
        while arrival + gap < now_ps:
            arrival += gap
            seq += 1
            gap = self._gap(seq)
        self._next_seq = seq
        self._next_arrival_ps = arrival
        return seq - first

    def offered_frames(self, start_ps: int, end_ps: int) -> int:
        """How many frames the wire offered during a window (constant
        interarrival pacing only)."""
        if self._gap_fn is not None:
            raise ValueError("offered_frames requires constant pacing")
        if end_ps <= start_ps:
            return 0
        first = max(0, -(-(start_ps - self.start_ps) // self.interarrival_ps))
        last = (end_ps - self.start_ps) // self.interarrival_ps
        return max(0, int(last - first))

    def note_scratchpad_accesses(self, count: int) -> None:
        self.scratchpad_accesses += count
