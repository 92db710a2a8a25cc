"""Hardware assists: PCI latency model, DMA engines, MAC timing."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.assists import DmaAssist, MacReceiver, MacTransmitter, PciInterface
from repro.mem import GddrSdram
from repro.net.ethernet import EthernetTiming
from repro.sim import Simulator
from repro.units import mhz, seconds_to_ps


def _rig():
    sim = Simulator()
    sdram_clock = sim.add_clock("sdram", mhz(500))
    sdram = GddrSdram()
    pci = PciInterface(dma_latency_ps=seconds_to_ps(1.2e-6))
    return sim, sdram_clock, sdram, pci


class TestPciInterface:
    def test_latency_only(self):
        pci = PciInterface(dma_latency_ps=1000)
        assert pci.host_phase(500, 1518) == 1500

    def test_unlimited_pipelining_by_default(self):
        pci = PciInterface(dma_latency_ps=1000)
        first = pci.host_phase(0, 1518)
        second = pci.host_phase(0, 1518)
        assert first == second == 1000

    def test_optional_bandwidth_cap_serializes(self):
        pci = PciInterface(dma_latency_ps=0, bandwidth_bps=8e9)  # 1 GB/s
        first = pci.host_phase(0, 1000)   # 1 us
        second = pci.host_phase(0, 1000)
        assert second == first + first

    def test_stats(self):
        pci = PciInterface(dma_latency_ps=10)
        pci.host_phase(0, 100)
        pci.host_phase(0, 50)
        assert pci.transfers == 2
        assert pci.bytes_moved == 150

    def test_validation(self):
        with pytest.raises(ValueError):
            PciInterface(dma_latency_ps=-1)
        with pytest.raises(ValueError):
            PciInterface().host_phase(0, 0)


class TestDmaAssist:
    def test_read_completion_after_host_and_sdram(self):
        sim, clock, sdram, pci = _rig()
        dma = DmaAssist("rd", sim, pci, sdram, clock, to_nic=True)
        completions = []
        dma.frame_transfer(0, 0x10000002, 0, 1518, completions.append)
        sim.run()
        assert len(completions) == 1
        # at least the host latency plus the ~100-cycle (200 ns) burst
        assert completions[0] >= pci.dma_latency_ps

    def test_write_goes_sdram_then_host(self):
        sim, clock, sdram, pci = _rig()
        dma = DmaAssist("wr", sim, pci, sdram, clock, to_nic=False)
        completions = []
        dma.frame_transfer(0, 0x30000002, 4096, 1518, completions.append)
        sim.run()
        assert completions[0] >= pci.dma_latency_ps
        assert sdram.requests == 1

    def test_misaligned_host_buffer_pads_sdram(self):
        sim, clock, sdram, pci = _rig()
        dma = DmaAssist("rd", sim, pci, sdram, clock, to_nic=True)
        dma.frame_transfer(0, 0x10000003, 0, 1518, lambda _t: None)
        sim.run()
        assert sdram.transferred_bytes > sdram.useful_bytes

    def test_bursts_serialize_through_staging(self):
        sim, clock, sdram, pci = _rig()
        dma = DmaAssist("rd", sim, pci, sdram, clock, to_nic=True)
        done = []
        for index in range(4):
            dma.frame_transfer(0, 0x10000000, index * 2048, 1518, done.append)
        sim.run()
        assert len(done) == 4
        assert done == sorted(done)
        # four ~1520 B bursts at 16 B/cycle: at least 95 cycles apart
        deltas = [b - a for a, b in zip(done[:-1], done[1:])]
        assert all(delta >= 95 * clock.period_ps for delta in deltas)

    def test_descriptor_transfer_skips_sdram(self):
        sim, clock, sdram, pci = _rig()
        dma = DmaAssist("rd", sim, pci, sdram, clock, to_nic=True)
        transfer = dma.descriptor_transfer(0, 512)
        assert transfer.complete_ps == pci.dma_latency_ps
        assert not transfer.touched_sdram
        assert sdram.requests == 0

    def test_zero_bytes_rejected(self):
        sim, clock, sdram, pci = _rig()
        dma = DmaAssist("rd", sim, pci, sdram, clock, to_nic=True)
        with pytest.raises(ValueError):
            dma.frame_transfer(0, 0, 0, 0, lambda _t: None)

    def test_scratchpad_access_tracking(self):
        sim, clock, sdram, pci = _rig()
        dma = DmaAssist("rd", sim, pci, sdram, clock, to_nic=True)
        dma.note_scratchpad_accesses(9)
        assert dma.scratchpad_accesses == 9


class TestMacTransmitter:
    def test_wire_time_includes_preamble_and_ifg(self):
        sim, clock, sdram, pci = _rig()
        mac = MacTransmitter(sdram, clock)
        event = mac.transmit(0, 0, 0, 1518)
        wire = event.wire_end_ps - event.wire_start_ps
        assert wire == EthernetTiming().frame_time_ps(1518)

    def test_back_to_back_frames_serialize_on_wire(self):
        sim, clock, sdram, pci = _rig()
        mac = MacTransmitter(sdram, clock)
        first = mac.transmit(0, 0, 0, 1518)
        second = mac.transmit(0, 1, 2048, 1518)
        assert second.wire_start_ps >= first.wire_end_ps

    def test_sdram_read_precedes_wire(self):
        sim, clock, sdram, pci = _rig()
        mac = MacTransmitter(sdram, clock)
        event = mac.transmit(0, 0, 0, 1518)
        assert event.wire_start_ps >= event.sdram_done_ps

    def test_counters(self):
        sim, clock, sdram, pci = _rig()
        mac = MacTransmitter(sdram, clock)
        mac.transmit(0, 0, 0, 1518)
        assert mac.frames_sent == 1
        assert mac.bytes_sent == 1518


class TestMacReceiver:
    def _receiver(self, fraction=1.0):
        sim, clock, sdram, pci = _rig()
        timing = EthernetTiming()
        gap = round(timing.frame_time_ps(1518) / fraction)
        return MacReceiver(sdram, clock, interarrival_ps=gap), sdram

    def test_arrivals_periodic(self):
        mac, _ = self._receiver()
        first = mac.next_arrival_ps()
        mac.take_frame(first, 1518)
        second = mac.next_arrival_ps()
        assert second - first == mac.interarrival_ps

    def test_cannot_take_early(self):
        mac, _ = self._receiver()
        mac.take_frame(0, 1518)
        with pytest.raises(ValueError):
            mac.take_frame(0, 1518)  # next frame hasn't arrived

    def test_store_consumes_sdram(self):
        mac, sdram = self._receiver()
        event = mac.take_frame(0, 1518)
        done = mac.store(event.wire_end_ps, 0, 1518)
        assert sdram.requests == 1
        assert done > event.wire_end_ps

    def test_skip_backlog_drops_expired_slots(self):
        mac, _ = self._receiver()
        now = 10 * mac.interarrival_ps
        dropped = mac.skip_backlog(now)
        assert dropped == 9  # the 10th frame is still receivable

    def test_offered_frames_window(self):
        mac, _ = self._receiver()
        count = mac.offered_frames(0, 10 * mac.interarrival_ps)
        assert count == 10

    def test_validation(self):
        sim, clock, sdram, pci = _rig()
        with pytest.raises(ValueError):
            MacReceiver(sdram, clock, interarrival_ps=0)

    @pytest.mark.parametrize("gaps", [(), (0,), (5, -1, 7), (3, 0)])
    def test_gap_period_entries_must_be_positive(self, gaps):
        sim, clock, sdram, pci = _rig()
        with pytest.raises(ValueError):
            MacReceiver(sdram, clock, gaps=gaps)

    def test_gap_period_paces_arrivals(self):
        sim, clock, sdram, pci = _rig()
        mac = MacReceiver(sdram, clock, start_ps=10, gaps=(3, 5, 100))
        arrivals = []
        for _ in range(7):
            arrivals.append(mac.next_arrival_ps())
            mac.take_frame(arrivals[-1], 64)
        assert arrivals == [10, 13, 18, 118, 121, 126, 226]
        assert mac.period_ps == 108
        with pytest.raises(ValueError, match="constant pacing"):
            mac.offered_frames(0, 1000)

    @staticmethod
    def _reference_skip(gaps, seq, arrival, now_ps):
        """The frame-by-frame walk: frame ``seq`` is dropped when frame
        ``seq + 1`` arrived before ``now_ps``."""
        first = seq
        while arrival + gaps[seq % len(gaps)] < now_ps:
            arrival += gaps[seq % len(gaps)]
            seq += 1
        return seq - first, seq, arrival

    @settings(max_examples=300, deadline=None)
    @given(
        gaps=st.lists(st.integers(1, 5000), min_size=1, max_size=24),
        start_ps=st.integers(0, 10_000),
        taken=st.integers(0, 60),
        data=st.data(),
    )
    def test_skip_backlog_matches_frame_walk(self, gaps, start_ps, taken, data):
        sim, clock, sdram, pci = _rig()
        mac = MacReceiver(sdram, clock, start_ps=start_ps, gaps=gaps)
        for _ in range(taken):
            mac.take_frame(mac.next_arrival_ps(), 64)
        arrival = mac.next_arrival_ps()
        period = sum(gaps)
        now_ps = arrival + data.draw(st.integers(-period, 50 * period + 1))
        expected = self._reference_skip(gaps, taken, arrival, now_ps)
        dropped = mac.skip_backlog(now_ps)
        assert (dropped, mac._next_seq, mac.next_arrival_ps()) == expected
        assert mac.skip_backlog(now_ps) == 0
