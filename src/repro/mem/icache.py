"""Per-core instruction cache.

The evaluated configuration (Section 6.1) gives every core "an 8 KB
2-way set associative instruction cache with 32 byte lines".  Table 3
attributes only 0.01 lost IPC to instruction misses: the firmware's code
footprint is small and the caches capture it "even though tasks migrate
from core to core".
"""

from __future__ import annotations

from typing import List

from repro.units import KIB


class InstructionCache:
    """Set-associative cache with true-LRU replacement."""

    def __init__(
        self,
        capacity_bytes: int = 8 * KIB,
        associativity: int = 2,
        line_bytes: int = 32,
    ) -> None:
        if capacity_bytes <= 0 or associativity <= 0 or line_bytes <= 0:
            raise ValueError("cache geometry values must be positive")
        if capacity_bytes % (associativity * line_bytes):
            raise ValueError(
                f"capacity {capacity_bytes} not divisible by "
                f"{associativity} ways x {line_bytes} B lines"
            )
        self.capacity_bytes = capacity_bytes
        self.associativity = associativity
        self.line_bytes = line_bytes
        self.set_count = capacity_bytes // (associativity * line_bytes)
        # Each set is an LRU-ordered list of tags (most recent last).
        self._sets: List[List[int]] = [[] for _ in range(self.set_count)]
        self.hits = 0
        self.misses = 0

    def _locate(self, address: int):
        line = address // self.line_bytes
        return line % self.set_count, line // self.set_count

    def lookup(self, address: int) -> bool:
        """Access one instruction address; returns True on hit.

        On a miss the line is installed (the fill itself is timed by the
        caller against :class:`~repro.mem.imem.InstructionMemory`).
        """
        set_index, tag = self._locate(address)
        ways = self._sets[set_index]
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            self.hits += 1
            return True
        self.misses += 1
        if len(ways) >= self.associativity:
            ways.pop(0)
        ways.append(tag)
        return False

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0

    def invalidate_all(self) -> None:
        self._sets = [[] for _ in range(self.set_count)]
