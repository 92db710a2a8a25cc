"""Workload frame sizes.

The paper's evaluation drives the NIC with simultaneous transmit and
receive streams of fixed-size UDP datagrams (Section 5: "the proposed
architecture is tested ... by simultaneously sending and receiving
Ethernet frames of various sizes").  Sends and receives are deliberately
*not* correlated, matching the paper's modeling choice.

A :class:`FrameSizeModel` gives each direction's frame sizes by
sequence number; the line-rate edge paces arrivals from them at line
rate or at a fixed offered load.
"""

from __future__ import annotations

from repro.net.ethernet import EthernetTiming, frame_bytes_for_udp_payload


class FrameSizeModel:
    """Deterministic per-sequence frame sizes for one direction.

    The paper's experiments use uniform sizes (:class:`ConstantSize`);
    :class:`ImixSize` adds the classic Internet-mix pattern as an
    extension, exercising the same code paths with realistic variance.

    The aggregate properties (``mean_payload_bytes``, ``max_frame_bytes``,
    ...) are memoized on first access: sizes are immutable once a model
    is constructed, and the fabric's pacing clocks read them per frame,
    so the O(pattern_length) pattern walk must not repeat per access.
    ``mean_wire_bytes`` memoizes per :class:`EthernetTiming` (frozen,
    hashable); subclasses overriding the underlying ``payload_bytes``
    after construction would be a bug, not a supported pattern.

    ``pattern_length`` is the size period: ``payload_bytes(seq)`` equals
    ``payload_bytes(seq % pattern_length)``.  The mean properties average
    over one period, and the line-rate edge builds its receive-gap table
    over lcm(``pattern_length``, burst length) arrival slots, so a model
    whose sizes do not repeat with that period is mistimed.
    """

    def payload_bytes(self, seq: int) -> int:
        raise NotImplementedError

    def frame_bytes(self, seq: int) -> int:
        return frame_bytes_for_udp_payload(self.payload_bytes(seq))

    @property
    def pattern_length(self) -> int:
        return 1

    @property
    def mean_payload_bytes(self) -> float:
        cached = self.__dict__.get("_mean_payload_bytes")
        if cached is None:
            n = self.pattern_length
            cached = sum(self.payload_bytes(i) for i in range(n)) / n
            self.__dict__["_mean_payload_bytes"] = cached
        return cached

    @property
    def mean_frame_bytes(self) -> float:
        cached = self.__dict__.get("_mean_frame_bytes")
        if cached is None:
            n = self.pattern_length
            cached = sum(self.frame_bytes(i) for i in range(n)) / n
            self.__dict__["_mean_frame_bytes"] = cached
        return cached

    @property
    def max_frame_bytes(self) -> int:
        cached = self.__dict__.get("_max_frame_bytes")
        if cached is None:
            cached = max(self.frame_bytes(i) for i in range(self.pattern_length))
            self.__dict__["_max_frame_bytes"] = cached
        return cached

    def mean_wire_bytes(self, timing: "EthernetTiming") -> float:
        cache = self.__dict__.setdefault("_mean_wire_bytes", {})
        cached = cache.get(timing)
        if cached is None:
            n = self.pattern_length
            cached = sum(
                timing.wire_bytes(self.frame_bytes(i)) for i in range(n)
            ) / n
            cache[timing] = cached
        return cached

    def line_rate_fps(self, timing: "EthernetTiming") -> float:
        """Back-to-back frame rate of this mix in one direction."""
        return timing.link_bits_per_second / (8 * self.mean_wire_bytes(timing))


class ConstantSize(FrameSizeModel):
    """Every frame carries the same UDP payload (the paper's setup)."""

    def __init__(self, udp_payload_bytes: int) -> None:
        # Validate once via the conversion, and keep its result: the
        # simulators ask for the frame size several times per frame.
        self._frame_bytes = frame_bytes_for_udp_payload(udp_payload_bytes)
        self._payload = udp_payload_bytes

    def payload_bytes(self, seq: int) -> int:
        return self._payload

    def frame_bytes(self, seq: int) -> int:
        return self._frame_bytes


class ImixSize(FrameSizeModel):
    """The classic 7:4:1 Internet mix (64 B : 594 B : 1518 B frames).

    Sizes repeat in a fixed interleaved pattern so runs stay
    deterministic; custom ``pattern`` entries are (udp_payload, count)
    pairs.
    """

    DEFAULT_PATTERN = ((18, 7), (548, 4), (1472, 1))

    def __init__(self, pattern=DEFAULT_PATTERN) -> None:
        if not pattern:
            raise ValueError("pattern must be non-empty")
        expanded = []
        for payload, count in pattern:
            frame_bytes_for_udp_payload(payload)
            if count < 1:
                raise ValueError("pattern counts must be positive")
            expanded.extend([payload] * count)
        # Interleave deterministically so large frames spread out: walk
        # the sorted sizes with a stride coprime to the pattern length
        # (a fixed permutation, so every entry appears exactly once).
        import math

        expanded.sort()
        length = len(expanded)
        stride = max(1, length // 3)
        while math.gcd(stride, length) != 1:
            stride += 1
        self._sizes = [expanded[(i * stride) % length] for i in range(length)]

    def payload_bytes(self, seq: int) -> int:
        return self._sizes[seq % len(self._sizes)]

    @property
    def pattern_length(self) -> int:
        return len(self._sizes)
