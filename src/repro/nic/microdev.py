"""Memory-mapped hardware assists for the cycle-level micro tier.

The macro tier models the assists as timed servers; this module gives
the *micro* tier the same hardware, visible to real assembly firmware
exactly the way the Tigon-II exposed it: as memory-mapped progress
pointers and command registers (Section 3.3: "a frame-level parallel
firmware must inspect several different hardware-maintained pointers to
detect events").

:class:`DeviceMemory` extends the functional memory with a device
register window.  Device state is *lazily* evaluated against the
reading core's current cycle, so no global stepping is needed and the
lockstep multi-core scheduler stays exact:

* ``RX_PROD`` (read-only) — frames the MAC has landed in the receive
  buffer by now: one every ``rx_interarrival_cycles``.
* ``RX_CONS`` — firmware-owned consumer pointer (plain storage the
  hardware would watch).
* ``DMA_CMD`` (write-only) — writing enqueues one DMA transfer; each
  completes ``dma_latency_cycles`` after issue, any number in flight
  (the pipelined host path of the macro tier).
* ``DMA_PROD`` (read-only) — DMA transfers completed by now.
* ``DMA_CONS`` — firmware-owned consumer pointer.

The transmit side mirrors Figure 1's steps: ``TXBD_CMD`` requests a
16-descriptor fetch DMA (the assist enforces at most two outstanding,
like its staging buffer), ``TXBD_PROD`` counts frames whose descriptors
have arrived, ``TXDMA_CMD``/``TXDMA_PROD`` move frame data into the
transmit buffer, and writing the in-order pointer ``TX_READY`` releases
frames to the MAC, which serializes them onto the wire
(``TX_DONE`` counts wire completions).

Register offsets are importable constants so assembly kernels and tests
share one definition of the map.
"""

from __future__ import annotations

import bisect
from typing import List

from repro.isa.machine import MachineError, Memory

# Device window: inside the 256 KB scratchpad address space, above the
# firmware's data segment, like a real controller's register aperture.
DEVICE_BASE = 0x0003_F000

RX_PROD_OFFSET = 0x00
RX_CONS_OFFSET = 0x04
DMA_CMD_OFFSET = 0x08
DMA_PROD_OFFSET = 0x0C
DMA_CONS_OFFSET = 0x10
# Transmit side.
TXBD_CMD_OFFSET = 0x14    # write: request a 16-frame BD-fetch DMA
TXBD_PROD_OFFSET = 0x18   # read: frames whose BDs have arrived
TXDMA_CMD_OFFSET = 0x1C   # write: frame-data DMA read into the tx buffer
TXDMA_PROD_OFFSET = 0x20  # read: frame-data DMAs completed
TX_READY_OFFSET = 0x24    # write: in-order MAC hand-off pointer
TX_DONE_OFFSET = 0x28     # read: frames the MAC has put on the wire
# Header-inspection window: firmware selects a received frame and reads
# one word of its protocol header (services like filtering/intrusion
# detection need header access without touching the frame SDRAM).
HDR_SEL_OFFSET = 0x2C     # write: frame sequence to inspect
HDR_VAL_OFFSET = 0x38     # read: selected frame's header word
DEVICE_WINDOW_BYTES = 0x40

RX_PROD_ADDR = DEVICE_BASE + RX_PROD_OFFSET
RX_CONS_ADDR = DEVICE_BASE + RX_CONS_OFFSET
DMA_CMD_ADDR = DEVICE_BASE + DMA_CMD_OFFSET
DMA_PROD_ADDR = DEVICE_BASE + DMA_PROD_OFFSET
DMA_CONS_ADDR = DEVICE_BASE + DMA_CONS_OFFSET
TXBD_CMD_ADDR = DEVICE_BASE + TXBD_CMD_OFFSET
TXBD_PROD_ADDR = DEVICE_BASE + TXBD_PROD_OFFSET
TXDMA_CMD_ADDR = DEVICE_BASE + TXDMA_CMD_OFFSET
TXDMA_PROD_ADDR = DEVICE_BASE + TXDMA_PROD_OFFSET
TX_READY_ADDR = DEVICE_BASE + TX_READY_OFFSET
TX_DONE_ADDR = DEVICE_BASE + TX_DONE_OFFSET
HDR_SEL_ADDR = DEVICE_BASE + HDR_SEL_OFFSET
HDR_VAL_ADDR = DEVICE_BASE + HDR_VAL_OFFSET

TX_BDS_PER_FETCH = 16

#: Register address → mnemonic, for trace events and debugging dumps.
REGISTER_NAMES = {
    RX_PROD_ADDR: "RX_PROD",
    RX_CONS_ADDR: "RX_CONS",
    DMA_CMD_ADDR: "DMA_CMD",
    DMA_PROD_ADDR: "DMA_PROD",
    DMA_CONS_ADDR: "DMA_CONS",
    TXBD_CMD_ADDR: "TXBD_CMD",
    TXBD_PROD_ADDR: "TXBD_PROD",
    TXDMA_CMD_ADDR: "TXDMA_CMD",
    TXDMA_PROD_ADDR: "TXDMA_PROD",
    TX_READY_ADDR: "TX_READY",
    TX_DONE_ADDR: "TX_DONE",
    HDR_SEL_ADDR: "HDR_SEL",
    HDR_VAL_ADDR: "HDR_VAL",
}


def header_word(seq: int) -> int:
    """Deterministic pseudo-header of received frame ``seq``.

    Stands in for the first word of the frame's protocol headers (e.g.
    source address bits); deterministic so tests and firmware agree on
    which frames a filter should match.
    """
    value = (seq * 2654435761) & 0xFFFFFFFF
    return (value ^ (value >> 13)) & 0xFFFFFFFF


class DeviceMemory(Memory):
    """Functional memory with the assist register window mapped in.

    ``cycle`` must be advanced by the executing core model (the
    :class:`~repro.cpu.core.PipelinedCore` does this before every
    instruction); functional-only runs can set it manually or leave the
    devices in their t=0 state.
    """

    def __init__(
        self,
        size_bytes: int = 1 << 20,
        total_rx_frames: int = 64,
        rx_interarrival_cycles: int = 25,
        dma_latency_cycles: int = 40,
        rx_start_cycle: int = 0,
        total_tx_frames: int = 0,
        tx_wire_cycles: int = 25,
        tracer=None,
    ) -> None:
        """``tracer`` (a :class:`repro.obs.Tracer`) records every device
        register access as an instant event on the ``microdev`` track,
        timestamped in core cycles — the micro tier's time base."""
        super().__init__(size_bytes)
        if tracer is None:
            from repro.obs.tracer import NULL_TRACER

            tracer = NULL_TRACER
        self.tracer = tracer
        if total_rx_frames < 0 or total_tx_frames < 0:
            raise ValueError("frame counts must be non-negative")
        if rx_interarrival_cycles < 1 or dma_latency_cycles < 0 or tx_wire_cycles < 1:
            raise ValueError("device timing parameters out of range")
        self.total_rx_frames = total_rx_frames
        self.rx_interarrival_cycles = rx_interarrival_cycles
        self.dma_latency_cycles = dma_latency_cycles
        self.rx_start_cycle = rx_start_cycle
        self.total_tx_frames = total_tx_frames
        self.tx_wire_cycles = tx_wire_cycles
        self.cycle = 0
        self._dma_completion_cycles: List[int] = []  # sorted
        self.dma_commands_issued = 0
        self.device_reads = 0
        self.device_writes = 0
        # Transmit-side state.
        self._txbd_completion_cycles: List[int] = []   # one per 16-frame batch
        self._txdma_completion_cycles: List[int] = []
        self.txdma_commands_issued = 0
        self._tx_ready = 0                   # firmware's in-order pointer
        self._tx_wire_free_cycle = 0         # MAC serialization
        self._tx_wire_completions: List[int] = []

    # ------------------------------------------------------------------
    def _is_device(self, address: int) -> bool:
        return DEVICE_BASE <= address < DEVICE_BASE + DEVICE_WINDOW_BYTES

    def _rx_landed(self) -> int:
        elapsed = self.cycle - self.rx_start_cycle
        if elapsed < 0:
            return 0
        return min(self.total_rx_frames, elapsed // self.rx_interarrival_cycles)

    def _dma_completed(self) -> int:
        return bisect.bisect_right(self._dma_completion_cycles, self.cycle)

    def _txbd_frames_available(self) -> int:
        batches = bisect.bisect_right(self._txbd_completion_cycles, self.cycle)
        return min(self.total_tx_frames, batches * TX_BDS_PER_FETCH)

    def _txbd_outstanding(self) -> int:
        return len(self._txbd_completion_cycles) - bisect.bisect_right(
            self._txbd_completion_cycles, self.cycle
        )

    def _txdma_completed(self) -> int:
        return bisect.bisect_right(self._txdma_completion_cycles, self.cycle)

    def _tx_wire_done(self) -> int:
        return bisect.bisect_right(self._tx_wire_completions, self.cycle)

    # ------------------------------------------------------------------
    def load_word(self, address: int) -> int:
        if not self._is_device(address):
            return super().load_word(address)
        self.device_reads += 1
        if self.tracer.enabled:
            name = REGISTER_NAMES.get(address, f"{address:#x}")
            self.tracer.instant("microdev", f"rd {name}", self.cycle, cycle=self.cycle)
        if address == RX_PROD_ADDR:
            return self._rx_landed()
        if address == DMA_PROD_ADDR:
            return self._dma_completed()
        if address in (RX_CONS_ADDR, DMA_CONS_ADDR):
            return super().load_word(address)
        if address == DMA_CMD_ADDR:
            return self.dma_commands_issued  # reads back the issue count
        if address == TXBD_PROD_ADDR:
            return self._txbd_frames_available()
        if address == TXDMA_CMD_ADDR:
            return self.txdma_commands_issued
        if address == TXDMA_PROD_ADDR:
            return self._txdma_completed()
        if address == TX_READY_ADDR:
            return self._tx_ready
        if address == TX_DONE_ADDR:
            return self._tx_wire_done()
        if address == HDR_SEL_ADDR:
            return super().load_word(address)
        if address == HDR_VAL_ADDR:
            return header_word(super().load_word(HDR_SEL_ADDR))
        raise MachineError(f"read from unmapped device register {address:#x}")

    def store_word(self, address: int, value: int) -> None:
        if not self._is_device(address):
            super().store_word(address, value)
            return
        self.device_writes += 1
        if self.tracer.enabled:
            name = REGISTER_NAMES.get(address, f"{address:#x}")
            self.tracer.instant(
                "microdev", f"wr {name}", self.cycle, cycle=self.cycle, value=value
            )
        if address == DMA_CMD_ADDR:
            done = self.cycle + self.dma_latency_cycles
            bisect.insort(self._dma_completion_cycles, done)
            self.dma_commands_issued += 1
            return
        if address in (RX_CONS_ADDR, DMA_CONS_ADDR):
            super().store_word(address, value)
            return
        if address == TXBD_CMD_ADDR:
            # The assist's staging buffer takes at most two outstanding
            # descriptor fetches, and never fetches past the traffic.
            requested = len(self._txbd_completion_cycles) * TX_BDS_PER_FETCH
            if self._txbd_outstanding() >= 2 or requested >= self.total_tx_frames:
                return
            bisect.insort(
                self._txbd_completion_cycles, self.cycle + self.dma_latency_cycles
            )
            return
        if address == TXDMA_CMD_ADDR:
            bisect.insort(
                self._txdma_completion_cycles, self.cycle + self.dma_latency_cycles
            )
            self.txdma_commands_issued += 1
            return
        if address == TX_READY_ADDR:
            self._advance_tx_ready(value)
            return
        if address == HDR_SEL_ADDR:
            super().store_word(address, value)
            return
        if address in (RX_PROD_ADDR, DMA_PROD_ADDR, TXBD_PROD_ADDR,
                       TXDMA_PROD_ADDR, TX_DONE_ADDR, HDR_VAL_ADDR):
            raise MachineError(
                f"write to read-only device register {address:#x}"
            )
        raise MachineError(f"write to unmapped device register {address:#x}")

    def _advance_tx_ready(self, value: int) -> None:
        """Release frames [ready, value) to the MAC transmitter."""
        if value <= self._tx_ready:
            return  # stale publish from a racing core; pointer only grows
        for _frame in range(self._tx_ready, min(value, self.total_tx_frames)):
            start = max(self.cycle, self._tx_wire_free_cycle)
            finish = start + self.tx_wire_cycles
            self._tx_wire_free_cycle = finish
            self._tx_wire_completions.append(finish)
        self._tx_ready = min(value, self.total_tx_frames)

    # -- test/introspection helpers ---------------------------------------
    @property
    def rx_consumer(self) -> int:
        return super().load_word(RX_CONS_ADDR)
