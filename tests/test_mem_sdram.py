"""GDDR SDRAM frame-memory model."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.mem import GddrSdram


class TestGeometry:
    def test_peak_bandwidth_paper_config(self):
        # 64-bit DDR at 500 MHz = 64 Gb/s peak (Section 4).
        sdram = GddrSdram()
        assert sdram.peak_bandwidth_bps() == pytest.approx(64e9)

    def test_bytes_per_cycle(self):
        assert GddrSdram().bytes_per_cycle == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            GddrSdram(banks=0)


class TestTransfers:
    def test_aligned_transfer_no_padding(self):
        sdram = GddrSdram()
        request = sdram.transfer(0, 1600, cycle=0)
        assert request.transferred_bytes == 1600
        assert request.useful_bytes == 1600

    def test_misaligned_start_pads(self):
        sdram = GddrSdram()
        request = sdram.transfer(2, 1518, cycle=0)
        # [2, 1520) -> padded to [0, 1520): 1520 bytes
        assert request.transferred_bytes == 1520

    def test_misaligned_both_ends(self):
        sdram = GddrSdram()
        request = sdram.transfer(3, 42, cycle=0)
        # [3, 45) -> [0, 48)
        assert request.transferred_bytes == 48

    def test_misaligned_bytes_static(self):
        assert GddrSdram.misaligned_bytes(2, 1518) == 1520
        assert GddrSdram.misaligned_bytes(0, 1518) == 1520  # end pads to 1520
        assert GddrSdram.misaligned_bytes(0, 1520) == 1520

    def test_row_activation_charged_once_per_row(self):
        sdram = GddrSdram(row_bytes=2048)
        first = sdram.transfer(0, 512, cycle=0)
        second = sdram.transfer(512, 512, cycle=first.finish_cycle)
        assert first.row_activated
        assert not second.row_activated

    def test_row_change_reactivates(self):
        sdram = GddrSdram(row_bytes=2048, banks=8)
        sdram.transfer(0, 64, cycle=0)
        other_row = 2048 * 8  # same bank, next row
        request = sdram.transfer(other_row, 64, cycle=100)
        assert request.row_activated

    def test_bus_serialization(self):
        sdram = GddrSdram()
        first = sdram.transfer(0, 1600, cycle=0)
        second = sdram.transfer(4096, 1600, cycle=0)
        assert second.start_cycle >= first.start_cycle + 100  # 1600/16 cycles

    def test_burst_duration(self):
        sdram = GddrSdram(row_activate_cycles=0, cas_cycles=0)
        request = sdram.transfer(0, 160, cycle=0)
        assert request.finish_cycle - request.start_cycle == 10

    def test_zero_bytes_rejected(self):
        with pytest.raises(ValueError):
            GddrSdram().transfer(0, 0, 0)


class _ReferenceSdram:
    """The burst timing rules written out with the model's reference
    helpers: ``misaligned_bytes``, ``_bank_of`` and ``_row_of``."""

    def __init__(self, model):
        self.model = model
        self.open_row = [-1] * model.banks
        self.bus_free = 0
        self.activations = 0

    def transfer(self, address, nbytes, cycle):
        model = self.model
        padded = GddrSdram.misaligned_bytes(address, nbytes)
        bank = model._bank_of(address)
        row = model._row_of(address)
        start = max(cycle, self.bus_free)
        if self.open_row[bank] != row:
            start += model.row_activate_cycles
            self.open_row[bank] = row
            self.activations += 1
        burst = -(-padded // model.bytes_per_cycle)
        self.bus_free = start + burst
        return start, start + model.cas_cycles + burst, padded


class TestTransferMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(
        geometry=st.tuples(st.sampled_from([1, 2, 8]), st.sampled_from([64, 2048, 3000])),
        bursts=st.lists(
            st.tuples(
                st.integers(0, 1 << 20), st.integers(1, 1600), st.integers(0, 400)
            ),
            min_size=1,
            max_size=40,
        ),
    )
    def test_cycles_bytes_and_activations(self, geometry, bursts):
        banks, row_bytes = geometry
        sdram = GddrSdram(banks=banks, row_bytes=row_bytes)
        reference = _ReferenceSdram(sdram)
        cycle = 0
        for address, nbytes, gap in bursts:
            cycle += gap
            activations = reference.activations
            request = sdram.transfer(address, nbytes, cycle)
            start, finish, padded = reference.transfer(address, nbytes, cycle)
            assert (request.start_cycle, request.finish_cycle) == (start, finish)
            assert request.row_activated == (reference.activations > activations)
            assert request.transferred_bytes == padded
            assert request.useful_bytes == nbytes
        assert sdram.row_activations == reference.activations
        assert sdram.transferred_bytes == sum(
            GddrSdram.misaligned_bytes(address, nbytes) for address, nbytes, _ in bursts
        )


class TestAccounting:
    def test_misalignment_overhead(self):
        sdram = GddrSdram()
        sdram.transfer(2, 1518, 0)   # 1520 moved for 1518 useful
        assert sdram.misalignment_overhead == pytest.approx(2 / 1520)

    def test_consumed_bandwidth(self):
        sdram = GddrSdram()
        sdram.transfer(0, 1600, 0)
        consumed = sdram.consumed_bandwidth_bps(cycles=1000)
        assert consumed == pytest.approx(1600 * 8 * 500e6 / 1000)

    def test_streaming_efficiency_near_peak(self):
        # Back-to-back maximum-sized frame bursts to consecutive
        # addresses should sustain close to peak bandwidth (Section 2.3).
        sdram = GddrSdram()
        cycle = 0
        for index in range(64):
            request = sdram.transfer(index * 1520, 1520, cycle)
            cycle = request.start_cycle + 1520 // 16
        efficiency = sdram.consumed_bandwidth_bps(cycle) / sdram.peak_bandwidth_bps()
        assert efficiency > 0.90

    def test_latency_tens_of_cycles(self):
        # Section 6.2: up to ~27 cycles under bank conflicts; our worst
        # single-transfer latency (activation + CAS + burst) is in the
        # same regime for a small transfer.
        sdram = GddrSdram()
        request = sdram.transfer(8, 64, 0)
        assert 5 <= request.latency_cycles <= 30
