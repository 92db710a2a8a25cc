"""DMA read/write assist engines.

The DMA *read* assist pulls data from host memory into the NIC's frame
memory (descriptor fetches and send-frame data, Figure 1 steps 3-4);
the DMA *write* assist pushes received frames and completion
descriptors back to the host (Figure 2 steps 2-3).

A firmware handler hands its whole frame bundle (Section 3.3) to an
engine as one *job*: a list of regions and one completion callback,
which fires when the last region is done.  Timing per region:

1. host phase — the PCI round trip (latency-only, pipelined across
   outstanding transfers, per the paper's interconnect model);
2. SDRAM phase — the burst into/out of the frame memory.  Each assist
   stages at most one burst at a time (its two-frame staging buffer
   holds the next while the current drains), and the burst is requested
   from the shared SDRAM bus *at its actual start time* via the event
   kernel.

The shared bus serves whole bursts first come, first served:
:meth:`~repro.mem.sdram.GddrSdram.transfer` starts each burst when the
bus is free, in the order the four assists request them, so their
streams interleave at frame-burst granularity.  This is the one bus
arbitration every run uses, the model's stand-in for the paper's
burst-friendly arbiter on its 128-bit internal bus (DESIGN.md §2).

A job costs fewer kernel events than one transfer per region would, and
runs the same SDRAM requests at the same instants:

* read (host → NIC): the regions' host phases run in bundle order when
  the job is issued, and regions whose host phase ends at the same
  instant share one event, which queues their bursts in bundle order.
  The job's events are scheduled back to back, so their tickets are
  consecutive and no other event can run between two of them at one
  instant: one shared event runs what the separate events would.
* write (NIC → host): one event at the issue instant queues every
  burst; each burst's host phase starts when the burst finishes.
  Without PCI stalls a host phase ends a fixed latency after its
  burst, and a job's bursts finish in order, so only the last burst
  schedules a host-done event.  With a fault injector on the PCI
  interface, stalls can reorder host phases: every burst then schedules
  one, and the job completes on the last to fire.

Descriptor fetches skip the SDRAM phase: descriptors land directly in
the scratchpad (control data never touches the frame memory — that is
the partitioned-memory design).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.assists.pci import PciInterface
from repro.mem.sdram import GddrSdram
from repro.sim.kernel import ClockDomain, Simulator

#: One frame region of a DMA job: ``(host_address, nic_address, nbytes)``.
Region = Tuple[int, int, int]


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


class _DmaJob:
    """One bundle's frame DMA: regions not yet done, and the callback."""

    __slots__ = ("remaining", "on_complete")

    def __init__(self, remaining: int, on_complete: Callable[[int], None]) -> None:
        self.remaining = remaining
        self.on_complete = on_complete


#: A queued burst: ``(sdram_address, nbytes, job)``.
_Burst = Tuple[int, int, _DmaJob]


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
        # Integer period: ``now // period`` and ``cycle * period`` are the
        # clock's current_cycle and cycles_to_ps for whole cycles.
        self._period_ps = sdram_clock.period_ps
        self.to_nic = to_nic
        self._pending: Deque[_Burst] = deque()
        # The burst in flight; ``_draining`` keeps it to one per engine.
        self._burst: Optional[_Burst] = None
        self._draining = False
        self.transfers = 0
        self.bytes_moved = 0
        # Fault layer (repro.faults): when an injector is attached, each
        # burst consults it for SDRAM transfer errors; None keeps the
        # fault-free fast path untouched.
        self.injector = None
        self.exhausted_transfers = 0

    # ------------------------------------------------------------------
    def frame_transfer(
        self,
        now_ps: int,
        regions: Sequence[Region],
        on_complete: Callable[[int], None],
    ) -> None:
        """Move one bundle's frame data between host memory and the frame SDRAM.

        ``regions`` lists the bundle's ``(host_address, nic_address,
        nbytes)`` in order; ``on_complete(finish_ps)`` fires once, when
        the last of them is done.  Each region's ``host_address``
        alignment determines its SDRAM padding (the burst covers the
        same byte phase as the host buffer).
        """
        if not regions:
            raise ValueError("a DMA job needs at least one region")
        job = _DmaJob(len(regions), on_complete)
        bursts: List[_Burst] = []
        moved = 0
        for host_address, nic_address, nbytes in regions:
            if nbytes <= 0:
                raise ValueError("transfer size must be positive")
            bursts.append((nic_address | (host_address & 7), nbytes, job))
            moved += nbytes
        self.transfers += len(bursts)
        self.bytes_moved += moved

        if self.to_nic:
            # Host read requests pipeline; data enters the staging
            # buffer after the host round trip, then bursts to SDRAM.
            host_phase = self.pci.host_phase
            arrivals: Dict[int, List[_Burst]] = {}
            for burst in bursts:
                host_done = host_phase(now_ps, burst[1])
                group = arrivals.get(host_done)
                if group is None:
                    arrivals[host_done] = [burst]
                else:
                    group.append(burst)
            for host_done, group in arrivals.items():
                self.sim.schedule_at(
                    host_done, lambda group=group: self._enqueue(group)
                )
        else:
            # SDRAM read first, then the host round trip.
            self.sim.schedule_at(
                max(now_ps, self.sim.now_ps), lambda: self._enqueue(bursts)
            )

    def _enqueue(self, bursts: List[_Burst]) -> None:
        self._pending.extend(bursts)
        self._drain()

    def _drain(self) -> None:
        if self._draining or not self._pending:
            return
        self._draining = True
        self._burst = self._pending.popleft()
        if self.injector is not None:
            failures, exhausted = self.injector.sdram_plan(self.name, self.sim.now_ps)
            if failures:
                self._burst_attempt(failures, exhausted, 0)
                return
        self._issue_burst()

    def _issue_burst(self) -> None:
        address, nbytes, _job = self._burst
        period = self._period_ps
        request = self.sdram.transfer(address, nbytes, self.sim.now_ps // period)
        self.sim.schedule_at(request.finish_cycle * period, self._burst_done)

    def _burst_attempt(self, failures: int, exhausted: bool, attempt: int) -> None:
        """Run one *failing* attempt of the current burst, then back off
        and retry.

        The bus time is consumed either way (wasted bandwidth, counted
        by the SDRAM model), the engine stays busy (``_draining`` holds
        through the whole retry chain — a stalled DMA serializes behind
        itself), and after a bounded number of retries the transfer
        completes anyway, flagged exhausted, so no completion callback
        is ever lost."""
        address, nbytes, _job = self._burst
        period = self._period_ps
        request = self.sdram.transfer(
            address, nbytes, self.sim.now_ps // period, useful=False
        )
        finish_ps = request.finish_cycle * period
        if attempt + 1 >= failures:
            if exhausted:
                # Retry budget spent: deliver the (bad) completion now
                # rather than deadlock the frame pipeline on it.
                self.exhausted_transfers += 1
                self.sim.schedule_at(finish_ps, self._burst_done)
                return
            # The next attempt succeeds: real burst after the backoff.
            backoff = self.injector.sdram_backoff_ps(attempt)
            self.sim.schedule_at(finish_ps + backoff, self._issue_burst)
            return
        backoff = self.injector.sdram_backoff_ps(attempt)
        self.sim.schedule_at(
            finish_ps + backoff,
            lambda: self._burst_attempt(failures, exhausted, attempt + 1),
        )

    def _burst_done(self) -> None:
        _address, nbytes, job = self._burst
        now = self.sim.now_ps
        self._draining = False
        if self.to_nic:
            job.remaining -= 1
            if not job.remaining:
                job.on_complete(now)
        else:
            host_done = self.pci.host_phase(now, nbytes)
            if self.pci.injector is None and job.remaining > 1:
                # A later burst of this job ends its host phase later.
                job.remaining -= 1
            else:
                self.sim.schedule_at(host_done, lambda: self._host_done(job))
        self._drain()

    def _host_done(self, job: _DmaJob) -> None:
        job.remaining -= 1
        if not job.remaining:
            job.on_complete(self.sim.now_ps)

    # ------------------------------------------------------------------
    def descriptor_transfer(self, now_ps: int, nbytes: int) -> DmaTransfer:
        """Move buffer descriptors host <-> scratchpad (no SDRAM phase)."""
        complete = self.pci.host_phase(now_ps, nbytes)
        self.transfers += 1
        self.bytes_moved += nbytes
        return DmaTransfer(now_ps, complete, complete, nbytes, False)
