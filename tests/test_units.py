"""Unit helpers: time/frequency/bandwidth conversions."""

import pytest

from repro import units


class TestFrequencies:
    def test_mhz(self):
        assert units.mhz(166) == 166_000_000

    def test_ghz(self):
        assert units.ghz(1.5) == 1_500_000_000

    def test_cycle_time_200mhz(self):
        assert units.cycle_time_ps(units.mhz(200)) == 5000

    def test_cycle_time_166mhz_rounds(self):
        # 1/166 MHz = 6024.096... ps -> 6024
        assert units.cycle_time_ps(units.mhz(166)) == 6024

    def test_cycle_time_rejects_zero(self):
        with pytest.raises(ValueError):
            units.cycle_time_ps(0)

    def test_cycle_time_rejects_negative(self):
        with pytest.raises(ValueError):
            units.cycle_time_ps(-1)

    @pytest.mark.parametrize("frequency_hz", [float("inf"), float("nan"), 2.5e12])
    def test_cycle_time_rejects_periods_below_1ps(self, frequency_hz):
        # Used to clamp to a silent 1 ps clock (or fail converting NaN).
        with pytest.raises(ValueError):
            units.cycle_time_ps(frequency_hz)

    def test_cycle_time_shortest_period(self):
        assert units.cycle_time_ps(1.5e12) == 1


class TestBandwidth:
    def test_gbps(self):
        assert units.gbps(10) == 10_000_000_000

    def test_to_gbps_roundtrip(self):
        assert units.to_gbps(units.gbps(39.5)) == pytest.approx(39.5)

    def test_transfer_time_1500_bytes_at_10gbps(self):
        # 1500 B * 8 / 10 Gb/s = 1.2 us = 1_200_000 ps
        assert units.transfer_time_ps(1500, units.gbps(10)) == 1_200_000

    def test_transfer_time_zero_bytes(self):
        assert units.transfer_time_ps(0, units.gbps(10)) == 0

    def test_transfer_time_rejects_negative_bytes(self):
        with pytest.raises(ValueError):
            units.transfer_time_ps(-1, units.gbps(10))

    def test_transfer_time_rejects_zero_bandwidth(self):
        with pytest.raises(ValueError):
            units.transfer_time_ps(100, 0)


class TestConversions:
    def test_seconds_roundtrip(self):
        assert units.ps_to_seconds(units.seconds_to_ps(1e-3)) == pytest.approx(1e-3)

    def test_bits_to_bytes(self):
        assert units.bits_to_bytes(128) == 16

    def test_bits_to_bytes_rejects_unaligned(self):
        with pytest.raises(ValueError):
            units.bits_to_bytes(12)


class TestAlignment:
    def test_align_up_already_aligned(self):
        assert units.align_up(16, 8) == 16

    def test_align_up(self):
        assert units.align_up(17, 8) == 24

    def test_align_down(self):
        assert units.align_down(17, 8) == 16

    def test_align_rejects_bad_alignment(self):
        with pytest.raises(ValueError):
            units.align_up(17, 0)
        with pytest.raises(ValueError):
            units.align_down(17, -4)
