"""Device-driver model.

Emulates the driver half of the cooperative send/receive protocol of
Section 2.1:

* **send** — creates two buffer descriptors per frame (42 B header
  region + payload region), posts them on the send ring, and rings the
  NIC's mailbox register.  In saturation mode it always has another
  frame ready, so the ring refills as soon as completions arrive.
* **receive** — preallocates a pool of main-memory buffers and
  "continually allocates free buffers and notifies the NIC of buffer
  availability using buffer descriptors"; the model replenishes the
  receive-BD ring whenever the NIC has drained below a threshold.
* **completions** — consumes send/receive completion notifications,
  with interrupt coalescing statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.firmware.profiles import BDS_PER_SENT_FRAME
from repro.host.descriptors import DescriptorRing
from repro.host.memory import HostMemoryLayout


@dataclass
class DriverStats:
    frames_posted: int = 0
    recv_buffers_posted: int = 0
    send_completions: int = 0
    recv_completions: int = 0
    interrupts: int = 0
    #: Measurement-window baselines (see :meth:`reset_window`).
    window_send_base: int = 0
    window_recv_base: int = 0
    window_interrupt_base: int = 0
    #: Completions recorded since the last interrupt — the coalescing
    #: window still open.  ``reset_window`` must leave these in the new
    #: window (their interrupt has not fired yet); snapshotting raw
    #: totals instead would credit the interrupt to one window and its
    #: completions to the previous one, skewing the per-window
    #: ``completions_per_interrupt`` ratio low.
    pending_send: int = 0
    pending_recv: int = 0

    # -- recording ------------------------------------------------------
    def record_sends(self, count: int) -> None:
        self.send_completions += count
        self.pending_send += count

    def record_receives(self, count: int) -> None:
        self.recv_completions += count
        self.pending_recv += count

    def note_interrupt(self) -> None:
        self.interrupts += 1
        self.pending_send = 0
        self.pending_recv = 0

    # -- measurement windows --------------------------------------------
    def reset_window(self) -> None:
        """Start a new measurement window.

        Completions whose coalesced interrupt is still pending are
        attributed to the *new* window (where their interrupt will
        land), keeping the windowed ratio exact even when the reset
        falls between a completion batch and its interrupt — the
        regression in ``tests/test_driver_rings.py`` pins this.
        """
        self.window_send_base = self.send_completions - self.pending_send
        self.window_recv_base = self.recv_completions - self.pending_recv
        self.window_interrupt_base = self.interrupts

    @property
    def window_send_completions(self) -> int:
        return self.send_completions - self.window_send_base

    @property
    def window_recv_completions(self) -> int:
        return self.recv_completions - self.window_recv_base

    @property
    def window_interrupts(self) -> int:
        return self.interrupts - self.window_interrupt_base

    @property
    def window_completions_per_interrupt(self) -> float:
        total = self.window_send_completions + self.window_recv_completions
        interrupts = self.window_interrupts
        return total / interrupts if interrupts else 0.0

    @property
    def completions_per_interrupt(self) -> float:
        """Mean completions coalesced per interrupt.

        Guarded against zero-interrupt windows: a measurement window
        short enough (or a flow-driven fabric endpoint idle enough)
        never to raise an interrupt reports 0.0 rather than dividing by
        zero.  Fabric endpoints with an empty RPC window hit this for
        real — see ``tests/test_driver_rings.py``.
        """
        total = self.send_completions + self.recv_completions
        return total / self.interrupts if self.interrupts else 0.0


class DriverModel:
    """The OS half of the NIC protocol, and the paper's single-ring host
    edge: the NIC core makes its six host calls, :meth:`refill_send` to
    :meth:`report`, on this or on a multi-queue host built over it."""

    def __init__(
        self,
        send_ring_capacity: int = 512,
        recv_ring_capacity: int = 256,
        layout: Optional[HostMemoryLayout] = None,
        max_frames: Optional[int] = None,
        interrupt_coalesce_frames: int = 8,
    ) -> None:
        self.send_ring = DescriptorRing(send_ring_capacity, "send-bd")
        self.recv_ring = DescriptorRing(recv_ring_capacity, "recv-bd")
        self.layout = layout if layout is not None else HostMemoryLayout()
        self.max_frames = max_frames  # None = saturation (endless traffic)
        #: Completions per interrupt (the NIC's moderation window).
        self.interrupt_coalesce_frames = interrupt_coalesce_frames
        self.stats = DriverStats()
        self._next_send_seq = 0

    # -- the host edge -----------------------------------------------------
    def refill_send(self) -> int:
        # With every budgeted frame posted, a refill would post none.
        if self._next_send_seq == self.max_frames:
            return 0
        return self.refill_send_ring()

    def replenish_recv(self) -> int:
        return self.replenish_recv_ring()

    def complete_tx(self, first: int, count: int, now_ps: int) -> None:
        """Send completions for frames ``first`` on, then a refill; an
        interrupt when the batch reaches a multiple of the window."""
        self.complete_sends(
            count, (first + count) % self.interrupt_coalesce_frames < count
        )
        if self._next_send_seq != self.max_frames:
            self.refill_send_ring()

    def commit_rx(self, frames: List[Tuple[int, object]], commit_seq: int,
                  committed: int, now_ps: int) -> None:
        """A commit pass delivered ``frames`` (``(seq, identity)``); the
        interrupt rule counts all ``committed`` frames, holes included."""
        self.complete_receives(
            len(frames), commit_seq % self.interrupt_coalesce_frames < committed
        )

    def window_reset(self) -> None:
        """The single-ring host keeps no state per measurement window."""

    def report(self, baselines: None, measure_ps: int) -> None:
        """Nothing to report: a single-ring result has no ``rss`` section."""

    # -- send side -------------------------------------------------------
    def refill_send_ring(self, limit: Optional[int] = None) -> int:
        """Post descriptors for as many new frames as fit; returns frames.

        Each frame takes :data:`BDS_PER_SENT_FRAME` slots.  ``limit``
        caps the frames posted (the multi-queue host model posts
        against per-ring credit); ``None`` fills to capacity.
        """
        ring = self.send_ring
        frames = ring.free_slots // BDS_PER_SENT_FRAME
        if limit is not None and limit < frames:
            frames = limit
        if self.max_frames is not None:
            frames = min(frames, self.max_frames - self._next_send_seq)
        if frames <= 0:
            return 0
        ring.post(BDS_PER_SENT_FRAME * frames)
        self._next_send_seq += frames
        self.stats.frames_posted += frames
        return frames

    def send_bds_available(self) -> int:
        ring = self.send_ring
        return ring.produced - ring.consumed

    def consume_send_bds(self, count: int) -> None:
        """The NIC's descriptor DMA pulls ``count`` BDs off the ring."""
        self.send_ring.take(count)

    # -- receive side ------------------------------------------------------
    def replenish_recv_ring(self, limit: Optional[int] = None) -> int:
        """Allocate free buffers up to ring capacity; returns buffers.

        ``limit`` caps the buffers posted (multi-queue receive credit);
        ``None`` fills to capacity.
        """
        ring = self.recv_ring
        buffers = ring.free_slots
        if limit is not None and limit < buffers:
            buffers = limit
        if buffers <= 0:
            return 0
        ring.post(buffers)
        self.stats.recv_buffers_posted += buffers
        return buffers

    def recv_bds_available(self) -> int:
        return len(self.recv_ring)

    def consume_recv_bds(self, count: int) -> None:
        self.recv_ring.take(count)

    # -- completions -------------------------------------------------------
    def complete_sends(self, count: int, interrupt: bool) -> None:
        self.stats.record_sends(count)
        if interrupt:
            self.stats.note_interrupt()

    def complete_receives(self, count: int, interrupt: bool) -> None:
        self.stats.record_receives(count)
        if interrupt:
            self.stats.note_interrupt()
