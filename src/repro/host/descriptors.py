"""Descriptor rings.

Section 2: "the device driver first creates a buffer descriptor, which
contains the starting memory address and length of the packet that is
to be sent, along with additional flags ...  If a packet consists of
multiple non-contiguous regions of memory, the device driver creates
multiple buffer descriptors."  Sent frames use two descriptors (header
region + payload region); receive buffers use one descriptor each.

Nothing reads a descriptor's fields back: the handlers take every DMA
address from :class:`~repro.host.memory.HostMemoryLayout` and every
length from the size model.  So a ring holds only its occupancy, and
the descriptor fetch costs :data:`DESCRIPTOR_BYTES` per descriptor.
"""

from __future__ import annotations

DESCRIPTOR_BYTES = 16  # address, length, flags, cookie — 4 words


class DescriptorRing:
    """A producer/consumer ring of buffer descriptors, as counts.

    The driver produces; the NIC consumes (send ring) or vice versa for
    completion rings.  The producer and consumer indices grow without
    bound (a hardware ring would address its slots modulo capacity, the
    standard lock-free ring idiom), so fullness is
    ``produced - consumed == capacity``.
    """

    def __init__(self, capacity: int, name: str = "ring") -> None:
        if capacity < 1:
            raise ValueError("ring capacity must be positive")
        self.capacity = capacity
        self.name = name
        self.produced = 0
        self.consumed = 0

    def __len__(self) -> int:
        return self.produced - self.consumed

    @property
    def free_slots(self) -> int:
        return self.capacity - self.produced + self.consumed

    @property
    def is_full(self) -> bool:
        return self.produced - self.consumed == self.capacity

    @property
    def is_empty(self) -> bool:
        return self.produced == self.consumed

    def post(self, count: int) -> None:
        """Produce ``count`` descriptors; all or nothing."""
        if not 0 <= count <= self.capacity - (self.produced - self.consumed):
            if count < 0:
                raise ValueError(f"{self.name}: cannot post {count}")
            raise OverflowError(
                f"{self.name}: cannot post {count}; "
                f"only {self.free_slots} free"
            )
        self.produced += count

    def take(self, count: int) -> None:
        """Consume ``count`` descriptors; all or nothing."""
        if not 0 <= count <= self.produced - self.consumed:
            if count < 0:
                raise ValueError(f"{self.name}: cannot take {count}")
            raise IndexError(
                f"{self.name}: cannot take {count}; only {len(self)} held"
            )
        self.consumed += count
