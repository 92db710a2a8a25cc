"""Ethernet line-rate arithmetic (Section 2.1)."""

import dataclasses

import pytest

from repro.net import (
    EthernetTiming,
    MAX_FRAME_BYTES,
    MAX_UDP_PAYLOAD_BYTES,
    MIN_FRAME_BYTES,
    frame_bytes_for_udp_payload,
    udp_payload_for_frame_bytes,
)
from repro.net.ethernet import (
    PROTOCOL_HEADER_BYTES,
    control_bandwidth_required_bps,
    control_mips_required,
)
from repro.exp.spec import describe
from repro.units import to_gbps, transfer_time_ps


class TestFrameGeometry:
    def test_max_udp_payload_is_1472(self):
        assert MAX_UDP_PAYLOAD_BYTES == 1472

    def test_1472_payload_gives_1518_frame(self):
        assert frame_bytes_for_udp_payload(1472) == 1518

    def test_protocol_headers_are_42_bytes(self):
        assert PROTOCOL_HEADER_BYTES == 42

    def test_small_payload_padded_to_minimum(self):
        assert frame_bytes_for_udp_payload(1) == MIN_FRAME_BYTES

    def test_18_byte_payload_exactly_minimum(self):
        assert frame_bytes_for_udp_payload(18) == 64

    def test_payload_roundtrip(self):
        for payload in (18, 100, 800, 1472):
            frame = frame_bytes_for_udp_payload(payload)
            assert udp_payload_for_frame_bytes(frame) == payload

    def test_oversized_payload_rejected(self):
        with pytest.raises(ValueError):
            frame_bytes_for_udp_payload(1473)

    def test_bad_frame_size_rejected(self):
        with pytest.raises(ValueError):
            udp_payload_for_frame_bytes(63)


class TestLineRateArithmetic:
    """The exact numbers of Section 2.1."""

    def test_frame_rate_is_812744_fps(self):
        timing = EthernetTiming()
        assert timing.frames_per_second(MAX_FRAME_BYTES) == pytest.approx(812_744, abs=2)

    def test_wire_bytes_include_preamble_and_ifg(self):
        assert EthernetTiming().wire_bytes(1518) == 1538

    def test_frame_data_bandwidth_is_39_5_gbps(self):
        bandwidth = EthernetTiming().frame_data_bandwidth_bps(MAX_FRAME_BYTES)
        assert to_gbps(bandwidth) == pytest.approx(39.5, abs=0.1)

    def test_frame_data_below_4x_link(self):
        bandwidth = EthernetTiming().frame_data_bandwidth_bps(MAX_FRAME_BYTES)
        assert bandwidth < 40e9

    def test_control_processing_435_mips(self):
        # Paper: 229 send + 206 receive = 435 MIPS.
        total = control_mips_required(281.8, 253.5)
        assert total == pytest.approx(435, abs=3)

    def test_control_bandwidth_4_8_gbps(self):
        bandwidth = control_bandwidth_required_bps(100.0, 84.6)
        assert to_gbps(bandwidth) == pytest.approx(4.8, abs=0.05)

    def test_duplex_udp_limit_for_max_frames(self):
        limit = EthernetTiming().duplex_payload_limit_bps(1472)
        assert to_gbps(limit) == pytest.approx(19.14, abs=0.05)

    def test_payload_efficiency_drops_with_size(self):
        timing = EthernetTiming()
        large = timing.payload_throughput_bps(1472)
        small = timing.payload_throughput_bps(18)
        assert small < large / 3

    def test_utilization(self):
        timing = EthernetTiming()
        line = timing.frames_per_second(1518)
        assert timing.utilization(line / 2, 1518) == pytest.approx(0.5)


class TestFrameTimeMemo:
    def test_memoized_times_equal_the_formula(self):
        timing = EthernetTiming(link_bits_per_second=1e9)
        for frame_bytes in (64, 1518, 64, 777, 1518):
            assert timing.frame_time_ps(frame_bytes) == transfer_time_ps(
                timing.wire_bytes(frame_bytes), 1e9
            )

    def test_memo_is_not_part_of_the_value(self):
        used, fresh = EthernetTiming(), EthernetTiming()
        used.frame_time_ps(1518)
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert describe(used) == describe(fresh)
        assert [field.name for field in dataclasses.fields(used)] == [
            "link_bits_per_second"
        ]
        with pytest.raises(dataclasses.FrozenInstanceError):
            used.link_bits_per_second = 1e9
