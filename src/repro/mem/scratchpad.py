"""Banked on-chip scratchpad for control data.

Paper Section 4: "Firmware and assist control data is stored in the
on-chip scratchpad, which has a capacity of 256 KB and is separated into
S independent banks.  The scratchpad is globally visible to all
processors and hardware assist units."

The scratchpad owns the backing :class:`~repro.isa.machine.Memory`
(shared with the functional cores so firmware data is literally the same
bytes) plus the bank/crossbar timing.  Words are interleaved across
banks at word granularity, which spreads the firmware's mostly-streaming
metadata accesses evenly.

The scratchpad is also where the paper's ``setb``/``update``
instructions execute their atomic read-modify-write: the bank performs
the whole operation in its single access slot, which is why the
instructions are atomic without locking the crossbar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.check.nullmonitor import NULL_MONITOR
from repro.isa.machine import Memory, apply_setb, apply_update
from repro.mem.crossbar import Crossbar, TOTAL_ACCESS_LATENCY
from repro.units import KIB


@dataclass(frozen=True)
class ScratchpadAccess:
    """Timing outcome of one scratchpad transaction."""

    bank: int
    request_cycle: int
    grant_cycle: int
    data_cycle: int

    @property
    def conflict_wait(self) -> int:
        return self.grant_cycle - self.request_cycle

    @property
    def latency(self) -> int:
        return self.data_cycle - self.request_cycle


class Scratchpad:
    """S-banked scratchpad behind a word-wide crossbar."""

    def __init__(
        self,
        banks: int = 4,
        capacity_bytes: int = 256 * KIB,
        memory: Optional[Memory] = None,
        base_address: int = 0,
    ) -> None:
        if banks < 1:
            raise ValueError("scratchpad needs at least one bank")
        if capacity_bytes % (4 * banks):
            raise ValueError("capacity must divide evenly across banks")
        self.banks = banks
        self.capacity_bytes = capacity_bytes
        self.base_address = base_address
        self.memory = memory if memory is not None else Memory(capacity_bytes)
        self.crossbar = Crossbar(banks)
        self.accesses = 0
        self.conflict_cycles = 0
        self.rmw_ops = 0
        #: Invariant monitor (null by default; see ``repro.check``).
        self.monitor = NULL_MONITOR

    # -- addressing ------------------------------------------------------
    def bank_of(self, address: int) -> int:
        """Bank holding ``address`` (word-interleaved)."""
        self._check_range(address)
        return ((address - self.base_address) >> 2) % self.banks

    def _check_range(self, address: int) -> None:
        if not self.base_address <= address < self.base_address + self.capacity_bytes:
            raise ValueError(
                f"address {address:#x} outside scratchpad window "
                f"[{self.base_address:#x}, "
                f"{self.base_address + self.capacity_bytes:#x})"
            )

    # -- timing ----------------------------------------------------------
    def access(self, address: int, requester: int, cycle: int) -> ScratchpadAccess:
        """Arbitrate one word transaction and return its timing.

        The paper's minimum latency is 2 cycles (crossbar + bank); bank
        conflicts add waiting cycles on top.
        """
        bank = self.bank_of(address)
        grant = self.crossbar.request(bank, requester, cycle)
        self.accesses += 1
        self.conflict_cycles += grant - cycle
        result = ScratchpadAccess(
            bank=bank,
            request_cycle=cycle,
            grant_cycle=grant,
            data_cycle=grant + TOTAL_ACCESS_LATENCY,
        )
        if self.monitor.enabled:
            self.monitor.scratchpad_access(self, result)
        return result

    # -- data (functional view shared with the ISA machine) --------------
    def load_word(self, address: int) -> int:
        self._check_range(address)
        return self.memory.load_word(address - self.base_address)

    def store_word(self, address: int, value: int) -> None:
        self._check_range(address)
        self.memory.store_word(address - self.base_address, value)

    def setb(self, base_address: int, index: int) -> None:
        """Atomic bit set, executed inside the bank's access slot."""
        self._check_range(base_address)
        apply_setb(self.memory, base_address - self.base_address, index)
        self.rmw_ops += 1

    def update(self, base_address: int, last: int) -> int:
        """Atomic consecutive-bit harvest (see :func:`apply_update`)."""
        self._check_range(base_address)
        result = apply_update(self.memory, base_address - self.base_address, last)
        self.rmw_ops += 1
        return result

    # -- capacity/bandwidth stats ----------------------------------------
    def peak_bandwidth_bps(self, frequency_hz: float) -> float:
        """Aggregate peak bandwidth: one 32-bit word per bank per cycle."""
        return self.banks * 32 * frequency_hz

    def consumed_bandwidth_bps(self, frequency_hz: float, cycles: int) -> float:
        """Average consumed bandwidth over ``cycles`` of operation."""
        if cycles <= 0:
            return 0.0
        return self.accesses * 32 * frequency_hz / cycles
