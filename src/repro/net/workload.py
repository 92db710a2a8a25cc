"""Workload generators.

The paper's evaluation drives the NIC with simultaneous transmit and
receive streams of fixed-size UDP datagrams (Section 5: "the proposed
architecture is tested ... by simultaneously sending and receiving
Ethernet frames of various sizes").  Sends and receives are deliberately
*not* correlated, matching the paper's modeling choice.

:class:`UdpStreamWorkload` produces deterministic per-direction frame
streams; :class:`WorkloadShaper` turns a stream into arrival times at
either line rate (saturation tests) or a fixed offered load.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, Tuple

from repro.net.ethernet import (
    EthernetTiming,
    MAX_UDP_PAYLOAD_BYTES,
    MIN_UDP_PAYLOAD_BYTES,
    frame_bytes_for_udp_payload,
)


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


class RecordedSizeModel(FrameSizeModel):
    """Per-sequence sizes recorded as frames are posted or accepted.

    The nominal payload feeds the mean/line-rate properties (used only
    for result normalization and the initial contention estimate);
    per-frame timing always reads the recorded value.  Looking up an
    unrecorded (or released) sequence is a programming error and raises
    ``KeyError`` rather than silently substituting the nominal size.

    Each record is released at its last reader, so the model holds only
    frames in flight, however long the run.
    """

    def __init__(self, nominal_payload_bytes: int = 1472) -> None:
        self._nominal = nominal_payload_bytes
        self._sizes: Dict[int, Tuple[int, int]] = {}

    def record(self, seq: int, udp_payload_bytes: int) -> None:
        """Record ``seq``'s payload; an invalid payload raises here."""
        self._sizes[seq] = (
            frame_bytes_for_udp_payload(udp_payload_bytes), udp_payload_bytes
        )

    def release(self, seq: int) -> Tuple[int, int]:
        """Forget ``seq`` at its last size read, which this is: returns
        its ``(frame bytes, UDP payload bytes)``."""
        return self._sizes.pop(seq)

    @property
    def records(self) -> int:
        """Number of sequences recorded and not yet released."""
        return len(self._sizes)

    def payload_bytes(self, seq: int) -> int:
        return self._sizes[seq][1]

    def frame_bytes(self, seq: int) -> int:
        return self._sizes[seq][0]

    @property
    def mean_payload_bytes(self) -> float:
        return float(self._nominal)

    @property
    def mean_frame_bytes(self) -> float:
        return float(frame_bytes_for_udp_payload(self._nominal))

    @property
    def max_frame_bytes(self) -> int:
        return frame_bytes_for_udp_payload(self._nominal)

    def mean_wire_bytes(self, timing: "EthernetTiming") -> float:
        return float(timing.wire_bytes(frame_bytes_for_udp_payload(self._nominal)))


@dataclass(frozen=True)
class FrameSpec:
    """One frame's identity within a workload stream."""

    sequence: int
    udp_payload_bytes: int
    frame_bytes: int
    direction: str  # "tx" (host -> network) or "rx" (network -> host)

    def __post_init__(self) -> None:
        if self.direction not in ("tx", "rx"):
            raise ValueError(f"direction must be 'tx' or 'rx', got {self.direction!r}")


@dataclass
class UdpStreamWorkload:
    """A fixed-size UDP datagram stream in one direction.

    ``udp_payload_bytes`` spans the x-axis of Figure 8 (18 B minimum
    through the 1472 B maximum used for Figure 7).
    """

    udp_payload_bytes: int
    direction: str
    name: str = ""

    def __post_init__(self) -> None:
        if self.direction not in ("tx", "rx"):
            raise ValueError(f"direction must be 'tx' or 'rx', got {self.direction!r}")
        if not MIN_UDP_PAYLOAD_BYTES <= self.udp_payload_bytes <= MAX_UDP_PAYLOAD_BYTES:
            raise ValueError(
                f"UDP payload {self.udp_payload_bytes} outside "
                f"[{MIN_UDP_PAYLOAD_BYTES}, {MAX_UDP_PAYLOAD_BYTES}]"
            )
        if not self.name:
            self.name = f"udp{self.udp_payload_bytes}-{self.direction}"

    @property
    def frame_bytes(self) -> int:
        return frame_bytes_for_udp_payload(self.udp_payload_bytes)

    def frames(self) -> Iterator[FrameSpec]:
        """Endless deterministic stream of frame specs."""
        frame_size = self.frame_bytes
        for sequence in itertools.count():
            yield FrameSpec(
                sequence=sequence,
                udp_payload_bytes=self.udp_payload_bytes,
                frame_bytes=frame_size,
                direction=self.direction,
            )


@dataclass
class WorkloadShaper:
    """Assigns arrival instants to a workload's frames.

    ``offered_fraction_of_line_rate`` of 1.0 is a saturation test: every
    frame arrives back to back at exactly the link's frame time.  Lower
    fractions space arrivals proportionally (used to find the knee of
    the throughput curves without overload).
    """

    workload: UdpStreamWorkload
    timing: EthernetTiming = field(default_factory=EthernetTiming)
    offered_fraction_of_line_rate: float = 1.0
    start_ps: int = 0

    def __post_init__(self) -> None:
        if self.offered_fraction_of_line_rate <= 0:
            raise ValueError("offered load must be positive")
        if self.offered_fraction_of_line_rate > 1.0:
            raise ValueError("cannot offer more than line rate on a physical link")

    @property
    def interarrival_ps(self) -> int:
        wire_time = self.timing.frame_time_ps(self.workload.frame_bytes)
        return round(wire_time / self.offered_fraction_of_line_rate)

    def arrivals(self) -> Iterator[tuple]:
        """Yield ``(arrival_time_ps, FrameSpec)`` pairs, endlessly."""
        gap = self.interarrival_ps
        for spec in self.workload.frames():
            yield self.start_ps + spec.sequence * gap, spec

    def offered_fps(self) -> float:
        """Offered frame rate for this direction."""
        line = self.timing.frames_per_second(self.workload.frame_bytes)
        return line * self.offered_fraction_of_line_rate


def duplex_saturation_workload(udp_payload_bytes: int) -> tuple:
    """Convenience: matched tx and rx saturation streams (the standard
    experiment setup for Figures 7 and 8)."""
    tx = UdpStreamWorkload(udp_payload_bytes, "tx")
    rx = UdpStreamWorkload(udp_payload_bytes, "rx")
    return WorkloadShaper(tx), WorkloadShaper(rx)
