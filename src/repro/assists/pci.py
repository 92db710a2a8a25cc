"""PCI / host-interconnect interface.

Section 5: "Since server I/O interconnect standards are continually
evolving (from PCI to PCI-X to PCI-Express and beyond), the bandwidth
and latency of the I/O interconnect are not modeled" — what *is*
intrinsic to the NIC problem is that every DMA must cross the local
interconnect to host memory and back, which is why the paper's related
work stresses DMA latencies far above local-memory latencies and why
the NIC keeps "several hundred outstanding frames in various stages of
processing".

We model that essential property: each DMA experiences a fixed host
round-trip latency, with unlimited pipelining.  There is no bandwidth
cap: a host phase issued at ``now`` ends at ``now + latency``, plus any
stall an attached fault injector draws for it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import seconds_to_ps

DEFAULT_DMA_LATENCY_PS = seconds_to_ps(1.2e-6)  # 1.2 us host round trip


@dataclass
class PciInterface:
    """Latency-only host DMA path."""

    dma_latency_ps: int = DEFAULT_DMA_LATENCY_PS

    def __post_init__(self) -> None:
        if self.dma_latency_ps < 0:
            raise ValueError("DMA latency must be non-negative")
        self.transfers = 0
        self.bytes_moved = 0
        # Fault layer (repro.faults): an attached injector may stall
        # individual host phases; None keeps the fault-free fast path.
        self.injector = None

    def host_phase(self, now_ps: int, nbytes: int) -> int:
        """Completion time of the host side of one DMA."""
        if nbytes <= 0:
            raise ValueError("transfer size must be positive")
        self.transfers += 1
        self.bytes_moved += nbytes
        stall_ps = (
            self.injector.pci_stall(now_ps) if self.injector is not None else 0
        )
        return now_ps + self.dma_latency_ps + stall_ps
