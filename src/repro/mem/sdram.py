"""External GDDR SDRAM frame memory.

Paper Sections 2.3 and 4: frame contents are stored in external graphics
DDR SDRAM (the reference part is Micron's MT44H8M32) behind a 128-bit
internal bus shared by the PCI interface and the MAC.  A 64-bit-wide
GDDR device at 500 MHz transfers two 64-bit words per cycle — 64 Gb/s
peak — and sustains the ~40 Gb/s the four 10 Gb/s frame streams need
because the assists buffer up to two maximum-sized frames and burst them
to consecutive addresses, incurring very few row activations.

Two second-order effects from Section 6.2 are modeled:

* *misaligned accesses* — frames that do not start/end on 8-byte
  boundaries waste masked-off SDRAM bandwidth that "cannot be
  recovered", inflating 39.5 Gb/s of useful traffic to 39.7 Gb/s;
* *latency* — up to 27 memory cycles under bank conflicts; high, but
  harmless for streaming frame data (bandwidth matters, not latency).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.check.nullmonitor import NULL_MONITOR
from repro.units import align_down, align_up


class SdramRequest(NamedTuple):
    """Completed-transfer timing for one burst."""

    start_cycle: int
    finish_cycle: int
    useful_bytes: int
    transferred_bytes: int
    row_activated: bool

    @property
    def latency_cycles(self) -> int:
        return self.finish_cycle - self.start_cycle


class GddrSdram:
    """Bank-aware bandwidth/latency model for the frame memory."""

    ACCESS_GRANULARITY_BYTES = 8  # one 64-bit device word

    def __init__(
        self,
        frequency_hz: float = 500e6,
        data_width_bits: int = 64,
        banks: int = 8,
        row_bytes: int = 2048,
        row_activate_cycles: int = 12,
        cas_cycles: int = 5,
    ) -> None:
        if banks < 1 or row_bytes < 1:
            raise ValueError("banks and row size must be positive")
        self.frequency_hz = frequency_hz
        self.data_width_bits = data_width_bits
        self.banks = banks
        self.row_bytes = row_bytes
        self.row_activate_cycles = row_activate_cycles
        self.cas_cycles = cas_cycles
        # DDR: two beats per cycle.
        self.bytes_per_cycle = data_width_bits * 2 // 8
        self._open_row = [-1] * banks
        self._bus_free_cycle = 0
        self.useful_bytes = 0
        self.transferred_bytes = 0
        self.wasted_retry_bytes = 0
        self.row_activations = 0
        self.requests = 0
        #: Invariant monitor (null by default; see ``repro.check``).
        self.monitor = NULL_MONITOR

    # ------------------------------------------------------------------
    def _bank_of(self, address: int) -> int:
        return (address // self.row_bytes) % self.banks

    def _row_of(self, address: int) -> int:
        return address // (self.row_bytes * self.banks)

    def transfer(
        self, address: int, nbytes: int, cycle: int, useful: bool = True
    ) -> SdramRequest:
        """Burst-read or burst-write ``nbytes`` starting at ``address``.

        Reads and writes are symmetric at this modeling level.  The
        transfer is padded out to the 8-byte device granularity on both
        ends; the padding counts as consumed (unrecoverable) bandwidth.

        ``useful=False`` marks a *faulted* burst re-run (fault-injection
        layer): the bus time and transferred bytes are consumed exactly
        as for a good burst, but the payload counts as wasted-retry
        bandwidth instead of useful bytes.
        """
        if nbytes <= 0:
            raise ValueError("transfer size must be positive")
        # Padding to the 8-byte device word, bank and row, computed in
        # line once per burst; misaligned_bytes, _bank_of and _row_of
        # are the reference forms.
        padded = ((address + nbytes + 7) & -8) - (address & -8)
        line = address // self.row_bytes
        bank = line % self.banks
        row = line // self.banks

        start = cycle if cycle > self._bus_free_cycle else self._bus_free_cycle
        activated = False
        open_row = self._open_row
        if open_row[bank] != row:
            start += self.row_activate_cycles
            open_row[bank] = row
            self.row_activations += 1
            activated = True
        burst_cycles = -(-padded // self.bytes_per_cycle)  # ceil
        finish = start + self.cas_cycles + burst_cycles
        self._bus_free_cycle = start + burst_cycles

        if useful:
            self.useful_bytes += nbytes
        else:
            self.wasted_retry_bytes += nbytes
        self.transferred_bytes += padded
        self.requests += 1
        request = SdramRequest(start, finish, nbytes, padded, activated)
        if self.monitor.enabled:
            self.monitor.sdram_transfer(self, request, cycle, nbytes)
        return request

    # -- bandwidth accounting (Table 4) ----------------------------------
    def peak_bandwidth_bps(self) -> float:
        """64 Gb/s for the 64-bit 500 MHz reference configuration."""
        return self.bytes_per_cycle * 8 * self.frequency_hz

    def consumed_bandwidth_bps(self, cycles: int) -> float:
        if cycles <= 0:
            return 0.0
        return self.transferred_bytes * 8 * self.frequency_hz / cycles

    @property
    def misalignment_overhead(self) -> float:
        """Fraction of transferred bytes that were alignment padding."""
        if self.transferred_bytes == 0:
            return 0.0
        return 1.0 - self.useful_bytes / self.transferred_bytes

    @staticmethod
    def misaligned_bytes(address: int, nbytes: int) -> int:
        """Padded size of a transfer, without performing it."""
        first = align_down(address, GddrSdram.ACCESS_GRANULARITY_BYTES)
        last = align_up(address + nbytes, GddrSdram.ACCESS_GRANULARITY_BYTES)
        return last - first
