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

from typing import NamedTuple, Optional, Sequence, Tuple

from repro.mem.sdram import GddrSdram
from repro.net.ethernet import EthernetTiming
from repro.net.workload import FrameSizeModel
from repro.sim.kernel import ClockDomain


class WireEvent(NamedTuple):
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
        # tuple.__new__: the record without the NamedTuple's Python-level
        # __new__, once per frame.
        return tuple.__new__(WireEvent, (seq, wire_start, wire_end, sdram_done))


class MacReceiver:
    """Accepts arriving frames into the rx buffer at line pace.

    Arrivals follow one precomputed period of gaps (Section 5's wire
    model makes the offered stream periodic): the frame in arrival
    slot ``slot`` is followed by ``gaps[slot % len(gaps)]`` ps.  Only
    *accepted* frames get a sequence number.  The simulator spends its
    receive events on accepted frames, never on offered ones: when the
    NIC falls behind, :meth:`skip_backlog` drops the expired slots in
    O(one period), however many there are.  The NIC core drives every
    receiver alike: while :attr:`has_pending`, it peeks the next
    frame and, once the frame fits and has arrived, takes it.
    """

    #: A paced source always has a next frame.
    has_pending = True

    def __init__(
        self,
        sdram: GddrSdram,
        sdram_clock: ClockDomain,
        interarrival_ps: int = 0,
        start_ps: int = 0,
        timing: Optional[EthernetTiming] = None,
        gaps: Optional[Sequence[int]] = None,
        sizes: Optional[FrameSizeModel] = None,
    ) -> None:
        """``gaps``, when given, is one period of per-frame gaps in ps
        (mixed sizes or bursty arrivals); otherwise the constant
        ``interarrival_ps`` is the one-entry period.  Every gap must be
        positive.  ``sizes`` sizes the frame of each arrival slot for
        :meth:`peek_frame`."""
        gaps = (interarrival_ps,) if gaps is None else tuple(gaps)
        if not gaps or min(gaps) <= 0:
            raise ValueError("interarrival gaps must be positive")
        self._init_receiver(sdram, sdram_clock, timing)
        # Pacing: the gap period, the size pattern and the arrival slot.
        self.gaps = gaps
        self.period_ps = sum(gaps)
        self._slot_sizes = () if sizes is None else tuple(
            (sizes.frame_bytes(slot), sizes.payload_bytes(slot), None)
            for slot in range(sizes.pattern_length)
        )
        self._slot = 0                 # next arrival slot
        self._next_arrival_ps = start_ps

    def _init_receiver(self, sdram: GddrSdram, sdram_clock: ClockDomain,
                       timing: Optional[EthernetTiming]) -> None:
        """The state every receiver shares: the rx buffer's SDRAM and
        clock, the wire timing and the numbering of accepted frames."""
        self.sdram = sdram
        self.sdram_clock = sdram_clock
        self.timing = timing if timing is not None else EthernetTiming()
        self.frames_accepted = 0
        self._next_seq = 0             # next accepted frame's number

    @property
    def frames_disposed(self) -> int:
        """Frames this MAC has taken or tail-dropped, by its own count:
        the arrival slots it has passed."""
        return self._slot

    def next_arrival_ps(self) -> int:
        """Earliest time the next frame can be taken off the wire."""
        return self._next_arrival_ps

    def peek_frame(self) -> Tuple[int, int, None]:
        """The next frame's ``(frame bytes, UDP payload bytes, None)``."""
        sizes = self._slot_sizes
        return sizes[self._slot % len(sizes)]

    def take_frame(self, now_ps: int, frame_bytes: int) -> WireEvent:
        """Claim the next arriving frame off the wire.

        ``now_ps`` must be at or past the frame's arrival time (the
        caller waits for :meth:`next_arrival_ps`).  Returns the frame's
        wire timing; the caller invokes :meth:`store` at ``wire_end_ps``
        so the SDRAM write is requested at its true start time.
        """
        wire = self._accept(now_ps, self._next_arrival_ps, frame_bytes)
        self._next_arrival_ps += self.gaps[self._slot % len(self.gaps)]
        self._slot += 1
        return wire

    def _accept(self, now_ps: int, arrival_ps: int, frame_bytes: int) -> WireEvent:
        """Number the frame that arrived at ``arrival_ps``: the one place
        a receiver assigns a sequence number."""
        if now_ps < arrival_ps:
            raise ValueError(
                f"frame {self._next_seq} accepted at {now_ps} before "
                f"arrival {arrival_ps}"
            )
        seq = self._next_seq
        self._next_seq += 1
        self.frames_accepted += 1
        wire_end = now_ps + self.timing.frame_time_ps(frame_bytes)
        return tuple.__new__(WireEvent, (seq, arrival_ps, wire_end, wire_end))

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
        wait, so those frames are gone (tail drop at the MAC), unnumbered.
        The frame in slot ``slot`` is dropped when the frame in slot
        ``slot + 1`` arrived before ``now_ps``.
        """
        first = slot = self._slot
        arrival = self._next_arrival_ps
        gaps = self.gaps
        # Whole periods first: from any phase a period spans period_ps,
        # and arrivals only grow, so when the frame one period ahead
        # arrived before now, every frame it skips has expired too.
        periods = (now_ps - arrival - 1) // self.period_ps
        if periods > 0:
            slot += periods * len(gaps)
            arrival += periods * self.period_ps
        # Then the rest of a period, frame by frame.
        gap = gaps[slot % len(gaps)]
        while arrival + gap < now_ps:
            arrival += gap
            slot += 1
            gap = gaps[slot % len(gaps)]
        self._slot = slot
        self._next_arrival_ps = arrival
        return slot - first
