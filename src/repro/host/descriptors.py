"""Buffer descriptors and descriptor rings.

Section 2: "the device driver first creates a buffer descriptor, which
contains the starting memory address and length of the packet that is
to be sent, along with additional flags ...  If a packet consists of
multiple non-contiguous regions of memory, the device driver creates
multiple buffer descriptors."  Sent frames use two descriptors (header
region + payload region); receive buffers use one descriptor each.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

# Flag bits (Tigon-style).
FLAG_END_OF_FRAME = 0x1
FLAG_HEADER_REGION = 0x2
FLAG_RECV_BUFFER = 0x4

DESCRIPTOR_BYTES = 16  # address, length, flags, cookie — 4 words


class _DescriptorFields(NamedTuple):
    address: int
    length: int
    flags: int = 0
    cookie: int = 0  # driver-private tag (frame sequence number here)


class BufferDescriptor(_DescriptorFields):
    """One host-memory region, as the driver describes it to the NIC."""

    # typing.NamedTuple forbids overriding __new__, so the checks live
    # on this subclass; empty slots keep it an immutable tuple.
    __slots__ = ()

    def __new__(cls, address: int, length: int, flags: int = 0, cookie: int = 0):
        if address < 0:
            raise ValueError("descriptor address must be non-negative")
        if length <= 0:
            raise ValueError(f"descriptor length must be positive, got {length}")
        return tuple.__new__(cls, (address, length, flags, cookie))

    @classmethod
    def _make(cls, iterable) -> "BufferDescriptor":
        # _replace builds through _make: route it through the checks.
        return cls(*iterable)

    @property
    def is_end_of_frame(self) -> bool:
        return bool(self.flags & FLAG_END_OF_FRAME)

    @property
    def is_header(self) -> bool:
        return bool(self.flags & FLAG_HEADER_REGION)


class DescriptorRing:
    """A producer/consumer ring of buffer descriptors.

    The driver produces; the NIC consumes (send ring) or vice versa for
    completion rings.  Indices grow without bound and wrap modulo
    capacity, the standard lock-free ring idiom, so fullness is
    ``produced - consumed == capacity``.
    """

    def __init__(self, capacity: int, name: str = "ring") -> None:
        if capacity < 1:
            raise ValueError("ring capacity must be positive")
        self.capacity = capacity
        self.name = name
        self._slots: List[Optional[BufferDescriptor]] = [None] * capacity
        self.produced = 0
        self.consumed = 0

    def __len__(self) -> int:
        return self.produced - self.consumed

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self)

    @property
    def is_full(self) -> bool:
        return len(self) == self.capacity

    @property
    def is_empty(self) -> bool:
        return self.produced == self.consumed

    def push(self, descriptor: BufferDescriptor) -> None:
        if self.is_full:
            raise OverflowError(f"{self.name}: ring full at {self.capacity}")
        self._slots[self.produced % self.capacity] = descriptor
        self.produced += 1

    def push_many(self, descriptors: List[BufferDescriptor]) -> None:
        if len(descriptors) > self.free_slots:
            raise OverflowError(
                f"{self.name}: cannot push {len(descriptors)}; "
                f"only {self.free_slots} free"
            )
        for descriptor in descriptors:
            self.push(descriptor)

    def pop(self) -> BufferDescriptor:
        if self.is_empty:
            raise IndexError(f"{self.name}: pop from empty ring")
        descriptor = self._slots[self.consumed % self.capacity]
        assert descriptor is not None
        self._slots[self.consumed % self.capacity] = None
        self.consumed += 1
        return descriptor

    def pop_many(self, count: int) -> List[BufferDescriptor]:
        if count > len(self):
            raise IndexError(f"{self.name}: cannot pop {count}; only {len(self)} held")
        return [self.pop() for _ in range(count)]

    def peek_count(self) -> int:
        """Descriptors available to consume (what the NIC polls)."""
        return len(self)
