"""DMA read/write assist engines.

The DMA *read* assist pulls data from host memory into the NIC's frame
memory (descriptor fetches and send-frame data, Figure 1 steps 3-4);
the DMA *write* assist pushes received frames and completion
descriptors back to the host (Figure 2 steps 2-3).

Timing model per frame transfer:

1. host phase — the PCI round trip (latency-only, pipelined across
   outstanding transfers, per the paper's interconnect model);
2. SDRAM phase — the burst into/out of the frame memory.  Each assist
   stages at most one burst at a time (its two-frame staging buffer
   holds the next while the current drains), and the burst is requested
   from the shared SDRAM bus *at its actual start time* via the event
   kernel, so the bus's FIFO arbitration interleaves the four assists'
   streams at frame-burst granularity exactly as the paper's
   burst-friendly arbiter does.

Descriptor fetches skip the SDRAM phase: descriptors land directly in
the scratchpad (control data never touches the frame memory — that is
the partitioned-memory design).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, NamedTuple, Tuple

from repro.assists.pci import PciInterface
from repro.mem.sdram import GddrSdram
from repro.sim.kernel import ClockDomain, Simulator


class DmaTransfer(NamedTuple):
    """Timing of one completed (synchronous) DMA."""

    issue_ps: int
    host_done_ps: int
    complete_ps: int
    nbytes: int
    touched_sdram: bool

    @property
    def latency_ps(self) -> int:
        return self.complete_ps - self.issue_ps


class DmaAssist:
    """One direction's DMA engine."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        pci: PciInterface,
        sdram: GddrSdram,
        sdram_clock: ClockDomain,
        to_nic: bool,
    ) -> None:
        self.name = name
        self.sim = sim
        self.pci = pci
        self.sdram = sdram
        self.sdram_clock = sdram_clock
        self.to_nic = to_nic
        self._pending: Deque[Tuple[int, int, Callable[[int], None]]] = deque()
        self._draining = False
        self.transfers = 0
        self.bytes_moved = 0
        self.scratchpad_accesses = 0
        # Fault layer (repro.faults): when an injector is attached, each
        # burst consults it for SDRAM transfer errors; None keeps the
        # fault-free fast path untouched.
        self.injector = None
        self.exhausted_transfers = 0

    # ------------------------------------------------------------------
    def frame_transfer(
        self,
        now_ps: int,
        host_address: int,
        nic_address: int,
        nbytes: int,
        on_complete: Callable[[int], None],
    ) -> None:
        """Move frame data between host memory and the frame SDRAM.

        ``on_complete(finish_ps)`` fires when the whole transfer is done.
        ``host_address`` alignment determines the SDRAM padding (the
        burst covers the same byte phase as the host buffer).
        """
        if nbytes <= 0:
            raise ValueError("transfer size must be positive")
        burst_address = nic_address | (host_address & 7)
        self.transfers += 1
        self.bytes_moved += nbytes

        if self.to_nic:
            # Host read requests pipeline; data enters the staging
            # buffer after the host round trip, then bursts to SDRAM.
            host_done = self.pci.host_phase(now_ps, nbytes)
            self.sim.schedule_at(
                host_done,
                lambda: self._enqueue_burst(burst_address, nbytes, on_complete),
            )
        else:
            # SDRAM read first, then the host round trip.
            def after_burst(finish_ps: int) -> None:
                host_done = self.pci.host_phase(finish_ps, nbytes)
                self.sim.schedule_at(host_done, lambda: on_complete(host_done))

            self.sim.schedule_at(
                max(now_ps, self.sim.now_ps),
                lambda: self._enqueue_burst(burst_address, nbytes, after_burst),
            )

    def _enqueue_burst(self, address: int, nbytes: int, done: Callable[[int], None]) -> None:
        self._pending.append((address, nbytes, done))
        self._drain()

    def _drain(self) -> None:
        if self._draining or not self._pending:
            return
        self._draining = True
        address, nbytes, done = self._pending.popleft()
        if self.injector is not None:
            failures, exhausted = self.injector.sdram_plan(self.name, self.sim.now_ps)
            if failures:
                self._burst_attempt(address, nbytes, done, failures, exhausted, 0)
                return
        self._issue_burst(address, nbytes, done)

    def _issue_burst(
        self, address: int, nbytes: int, done: Callable[[int], None]
    ) -> None:
        cycle = self.sdram_clock.current_cycle(self.sim.now_ps)
        request = self.sdram.transfer(address, nbytes, cycle)
        finish_ps = self.sdram_clock.cycles_to_ps(request.finish_cycle)
        self.sim.schedule_at(finish_ps, lambda: self._burst_done(done))

    def _burst_attempt(
        self,
        address: int,
        nbytes: int,
        done: Callable[[int], None],
        failures: int,
        exhausted: bool,
        attempt: int,
    ) -> None:
        """Run one *failing* burst attempt, then back off and retry.

        The bus time is consumed either way (wasted bandwidth, counted
        by the SDRAM model), the engine stays busy (``_draining`` holds
        through the whole retry chain — a stalled DMA serializes behind
        itself), and after a bounded number of retries the transfer
        completes anyway, flagged exhausted, so no completion callback
        is ever lost."""
        cycle = self.sdram_clock.current_cycle(self.sim.now_ps)
        request = self.sdram.transfer(address, nbytes, cycle, useful=False)
        finish_ps = self.sdram_clock.cycles_to_ps(request.finish_cycle)
        if attempt + 1 >= failures:
            if exhausted:
                # Retry budget spent: deliver the (bad) completion now
                # rather than deadlock the frame pipeline on it.
                self.exhausted_transfers += 1
                self.sim.schedule_at(finish_ps, lambda: self._burst_done(done))
                return
            # The next attempt succeeds: real burst after the backoff.
            backoff = self.injector.sdram_backoff_ps(attempt)
            self.sim.schedule_at(
                finish_ps + backoff,
                lambda: self._issue_burst(address, nbytes, done),
            )
            return
        backoff = self.injector.sdram_backoff_ps(attempt)
        self.sim.schedule_at(
            finish_ps + backoff,
            lambda: self._burst_attempt(
                address, nbytes, done, failures, exhausted, attempt + 1
            ),
        )

    def _burst_done(self, done: Callable[[int], None]) -> None:
        self._draining = False
        done(self.sim.now_ps)
        self._drain()

    # ------------------------------------------------------------------
    def descriptor_transfer(self, now_ps: int, nbytes: int) -> DmaTransfer:
        """Move buffer descriptors host <-> scratchpad (no SDRAM phase)."""
        complete = self.pci.host_phase(now_ps, nbytes)
        self.transfers += 1
        self.bytes_moved += nbytes
        return DmaTransfer(now_ps, complete, complete, nbytes, False)

    def note_scratchpad_accesses(self, count: int) -> None:
        """Track the assist's own control-data traffic (Table 4)."""
        self.scratchpad_accesses += count
