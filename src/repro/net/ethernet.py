"""Ethernet frame geometry and 10 Gb/s line-rate arithmetic.

This module encodes the closed-form requirements analysis of the paper's
Section 2.1:

* a full-duplex 10 Gb/s link delivers maximum-sized (1518 B) frames at
  812,744 frames per second *in each direction*;
* sending + receiving at that rate needs 435 MIPS of control processing
  and 4.8 Gb/s of control-data bandwidth;
* frame contents cross the NIC's local frame memory twice per direction,
  requiring 39.5 Gb/s — slightly under 4 x 10 Gb/s because nothing is
  transferred during the preamble and interframe gap.

Frame layout on the wire (no VLAN tag, as in the paper)::

    preamble+SFD (8) | dst(6) src(6) type(2) | payload | CRC (4) | IFG (12)

The Ethernet header (14 B) + IP header (20 B) + UDP header (8 B) = 42 B of
headers, which is why a 1472 B UDP datagram yields a 1518 B frame and why
the paper's transmit path DMAs a 42 B header region separately from the
payload region.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.units import gbps, transfer_time_ps

PREAMBLE_BYTES = 8  # preamble (7) + start-of-frame delimiter (1)
INTERFRAME_GAP_BYTES = 12
ETHERNET_HEADER_BYTES = 14
ETHERNET_CRC_BYTES = 4
IP_HEADER_BYTES = 20
UDP_HEADER_BYTES = 8
PROTOCOL_HEADER_BYTES = ETHERNET_HEADER_BYTES + IP_HEADER_BYTES + UDP_HEADER_BYTES  # 42

MIN_FRAME_BYTES = 64
MAX_FRAME_BYTES = 1518
MIN_UDP_PAYLOAD_BYTES = MIN_FRAME_BYTES - PROTOCOL_HEADER_BYTES - ETHERNET_CRC_BYTES  # 18
MAX_UDP_PAYLOAD_BYTES = MAX_FRAME_BYTES - PROTOCOL_HEADER_BYTES - ETHERNET_CRC_BYTES  # 1472

# The transmit path fetches each frame as two discontiguous host regions:
# the 42 B protocol header and the payload (Section 2.1).
TX_HEADER_REGION_BYTES = PROTOCOL_HEADER_BYTES


def frame_bytes_for_udp_payload(udp_payload_bytes: int) -> int:
    """Wire frame size (excluding preamble/IFG) for a UDP datagram.

    Frames below the Ethernet minimum are padded to 64 B, exactly as a
    real MAC would.
    """
    if udp_payload_bytes < 0:
        raise ValueError(f"payload must be non-negative, got {udp_payload_bytes}")
    if udp_payload_bytes > MAX_UDP_PAYLOAD_BYTES:
        raise ValueError(
            f"payload {udp_payload_bytes} exceeds the maximum "
            f"{MAX_UDP_PAYLOAD_BYTES} for an untagged 1518 B frame"
        )
    raw = udp_payload_bytes + PROTOCOL_HEADER_BYTES + ETHERNET_CRC_BYTES
    return max(raw, MIN_FRAME_BYTES)


def udp_payload_for_frame_bytes(frame_bytes: int) -> int:
    """Inverse of :func:`frame_bytes_for_udp_payload` for unpadded frames."""
    if not MIN_FRAME_BYTES <= frame_bytes <= MAX_FRAME_BYTES:
        raise ValueError(
            f"frame size {frame_bytes} outside [{MIN_FRAME_BYTES}, {MAX_FRAME_BYTES}]"
        )
    return frame_bytes - PROTOCOL_HEADER_BYTES - ETHERNET_CRC_BYTES


@dataclass(frozen=True)
class EthernetTiming:
    """Line-rate math for one direction of an Ethernet link."""

    link_bits_per_second: float = gbps(10)

    def __post_init__(self) -> None:
        # frame_time_ps by frame size, filled on first use.  Not a field:
        # equality, hashing, repr and describe() see only the link rate.
        object.__setattr__(self, "_frame_times", {})

    def wire_bytes(self, frame_bytes: int) -> int:
        """Bytes of link occupancy per frame, counting preamble and IFG."""
        return frame_bytes + PREAMBLE_BYTES + INTERFRAME_GAP_BYTES

    def frame_time_ps(self, frame_bytes: int) -> int:
        """Link occupancy time of one frame including preamble and IFG."""
        time_ps = self._frame_times.get(frame_bytes)
        if time_ps is None:
            time_ps = self._frame_times[frame_bytes] = transfer_time_ps(
                self.wire_bytes(frame_bytes), self.link_bits_per_second
            )
        return time_ps

    def frames_per_second(self, frame_bytes: int) -> float:
        """Back-to-back frame rate in one direction.

        For 1518 B frames at 10 Gb/s this is the paper's 812,744 fps
        (1538 wire bytes per frame).
        """
        return self.link_bits_per_second / (self.wire_bytes(frame_bytes) * 8)

    def payload_throughput_bps(self, udp_payload_bytes: int) -> float:
        """UDP goodput of one saturated direction, in bits per second."""
        frame = frame_bytes_for_udp_payload(udp_payload_bytes)
        return self.frames_per_second(frame) * udp_payload_bytes * 8

    def duplex_payload_limit_bps(self, udp_payload_bytes: int) -> float:
        """The 'Ethernet Limit (Duplex)' curve of Figures 7 and 8."""
        return 2 * self.payload_throughput_bps(udp_payload_bytes)

    def frame_data_bandwidth_bps(self, frame_bytes: int) -> float:
        """Frame-memory bandwidth needed for full-duplex line rate.

        Every sent and every received frame is written once to and read
        once from the NIC's frame memory: 4 streams of frame bytes at the
        per-direction frame rate.  For maximum-sized frames this is the
        paper's 39.5 Gb/s (less than 40 Gb/s because preamble and IFG
        bytes never touch memory).
        """
        fps = self.frames_per_second(frame_bytes)
        return 4 * fps * frame_bytes * 8

    def utilization(self, achieved_fps: float, frame_bytes: int) -> float:
        """Fraction of one direction's line rate achieved."""
        limit = self.frames_per_second(frame_bytes)
        return achieved_fps / limit if limit else 0.0


def control_mips_required(
    instructions_per_sent_frame: float,
    instructions_per_received_frame: float,
    timing: EthernetTiming = EthernetTiming(),
    frame_bytes: int = MAX_FRAME_BYTES,
) -> float:
    """Total MIPS to sustain full-duplex line rate (paper: 435 MIPS)."""
    fps = timing.frames_per_second(frame_bytes)
    total = (instructions_per_sent_frame + instructions_per_received_frame) * fps
    return total / 1e6


def control_bandwidth_required_bps(
    accesses_per_sent_frame: float,
    accesses_per_received_frame: float,
    access_bytes: int = 4,
    timing: EthernetTiming = EthernetTiming(),
    frame_bytes: int = MAX_FRAME_BYTES,
) -> float:
    """Control-data bandwidth to sustain line rate (paper: 4.8 Gb/s)."""
    fps = timing.frames_per_second(frame_bytes)
    accesses = (accesses_per_sent_frame + accesses_per_received_frame) * fps
    return accesses * access_bytes * 8
