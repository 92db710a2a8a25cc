"""Ethernet link model and workload frame sizes."""

from repro.net.ethernet import (
    ETHERNET_HEADER_BYTES,
    ETHERNET_CRC_BYTES,
    INTERFRAME_GAP_BYTES,
    MAX_FRAME_BYTES,
    MAX_UDP_PAYLOAD_BYTES,
    MIN_FRAME_BYTES,
    PREAMBLE_BYTES,
    EthernetTiming,
    frame_bytes_for_udp_payload,
    udp_payload_for_frame_bytes,
)

__all__ = [
    "ETHERNET_HEADER_BYTES",
    "ETHERNET_CRC_BYTES",
    "EthernetTiming",
    "INTERFRAME_GAP_BYTES",
    "MAX_FRAME_BYTES",
    "MAX_UDP_PAYLOAD_BYTES",
    "MIN_FRAME_BYTES",
    "PREAMBLE_BYTES",
    "frame_bytes_for_udp_payload",
    "udp_payload_for_frame_bytes",
]
