"""NIC controller configuration (the knobs of Figure 6).

The paper's headline configurations:

* ``SOFTWARE_200MHZ`` — 6 cores + 4 banks at 200 MHz, lock-based frame
  ordering (the "software-only" columns of Tables 5 and 6);
* ``RMW_166MHZ`` — 6 cores + 4 banks at 166 MHz with the ``setb`` /
  ``update`` instructions (the "RMW-enhanced" columns); the RMW savings
  are what allow the 17% clock reduction at line rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.cpu.costmodel import CoreCostModel
from repro.firmware.ordering import OrderingMode
from repro.firmware.profiles import BDS_PER_SENT_FRAME, FirmwareProfiles
from repro.units import KIB, mhz, seconds_to_ps


@dataclass(frozen=True)
class NicConfig:
    """Full architectural + firmware configuration."""

    # Computation (Figure 6, Section 4).
    cores: int = 6
    core_frequency_hz: float = mhz(166)
    scratchpad_banks: int = 4
    scratchpad_bytes: int = 256 * KIB
    icache_bytes: int = 8 * KIB
    icache_associativity: int = 2
    icache_line_bytes: int = 32
    imem_bytes: int = 128 * KIB

    # Frame memory (Section 2.3).
    sdram_frequency_hz: float = mhz(500)
    sdram_width_bits: int = 64
    tx_buffer_bytes: int = 256 * KIB
    rx_buffer_bytes: int = 256 * KIB

    # Host interface.
    dma_latency_s: float = 1.2e-6
    send_ring_capacity: int = 512       # descriptors (2 per frame)
    recv_ring_capacity: int = 256
    recv_bd_low_water: int = 32
    interrupt_coalesce_frames: int = 8

    # Firmware organization.
    ordering_mode: OrderingMode = OrderingMode.RMW
    ordering_ring: int = 1024           # status bitmap entries per board
    tx_bd_buffer_frames: int = 48       # scratchpad send-BD staging capacity
    send_batch_max: int = 8             # frames per send_frame event
    recv_batch_max: int = 8
    firmware: FirmwareProfiles = field(default_factory=FirmwareProfiles)
    cost_model: CoreCostModel = field(default_factory=CoreCostModel)
    task_level_firmware: bool = False   # event-register baseline (ablation)
    # Section 8 extension: IP/UDP checksum handling.
    #   "none"     — checksums left to the host (the paper's baseline);
    #   "assist"   — MAC/DMA engines fold the checksum into the data
    #                stream; firmware only checks a status word;
    #   "firmware" — cores touch every payload word (quantifies why
    #                payload-touching services need hardware assists).
    checksum_offload: str = "none"

    # Assist control-data traffic (scratchpad accesses per unit of work;
    # calibrated against Table 4's 41.7 M assist accesses/s).
    assist_accesses_per_dma: int = 9     # command words read + status write
    assist_accesses_per_mac_frame: int = 8

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("need at least one core")
        for name in ("core_frequency_hz", "sdram_frequency_hz"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not (math.isfinite(self.dma_latency_s) and self.dma_latency_s >= 0):
            raise ValueError(
                f"dma_latency_s must be finite and non-negative, got {self.dma_latency_s}"
            )
        if self.scratchpad_banks < 1:
            raise ValueError("need at least one scratchpad bank")
        if self.send_batch_max < 1 or self.recv_batch_max < 1:
            raise ValueError("batch sizes must be positive")
        if self.ordering_ring < 32 or self.ordering_ring % 32:
            raise ValueError(
                f"ordering_ring must be a positive multiple of 32, "
                f"got {self.ordering_ring}"
            )
        if self.interrupt_coalesce_frames < 1:
            raise ValueError(
                f"interrupt_coalesce_frames must be >= 1, "
                f"got {self.interrupt_coalesce_frames}"
            )
        if self.send_ring_capacity < BDS_PER_SENT_FRAME:
            raise ValueError(
                f"send_ring_capacity must hold one frame's "
                f"{BDS_PER_SENT_FRAME} descriptors, got {self.send_ring_capacity}"
            )
        if self.recv_ring_capacity < 1:
            raise ValueError(
                f"recv_ring_capacity must be >= 1, got {self.recv_ring_capacity}"
            )
        if self.checksum_offload not in ("none", "assist", "firmware"):
            raise ValueError(
                f"checksum_offload must be none/assist/firmware, "
                f"got {self.checksum_offload!r}"
            )

    @property
    def dma_latency_ps(self) -> int:
        return seconds_to_ps(self.dma_latency_s)

    def with_cores(self, cores: int) -> "NicConfig":
        return replace(self, cores=cores)

    def with_frequency(self, frequency_hz: float) -> "NicConfig":
        return replace(self, core_frequency_hz=frequency_hz)

    def with_ordering(self, mode: OrderingMode) -> "NicConfig":
        return replace(self, ordering_mode=mode)

    @property
    def label(self) -> str:
        mode = "sw" if self.ordering_mode is OrderingMode.SOFTWARE else "rmw"
        return (
            f"{self.cores}x{self.core_frequency_hz / 1e6:.0f}MHz-"
            f"{self.scratchpad_banks}banks-{mode}"
        )


SOFTWARE_200MHZ = NicConfig(
    cores=6,
    core_frequency_hz=mhz(200),
    ordering_mode=OrderingMode.SOFTWARE,
)

RMW_166MHZ = NicConfig(
    cores=6,
    core_frequency_hz=mhz(166),
    ordering_mode=OrderingMode.RMW,
)
