"""Hardware assists: PCI latency model, DMA engines, MAC timing."""

from collections import deque

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.assists import DmaAssist, MacReceiver, MacTransmitter, PciInterface
from repro.faults import FaultInjector, FaultPlan
from repro.mem import GddrSdram
from repro.net.ethernet import EthernetTiming
from repro.net.workload import ImixSize
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
        dma.frame_transfer(0, [(0x10000002, 0, 1518)], completions.append)
        sim.run()
        assert len(completions) == 1
        # at least the host latency plus the ~100-cycle (200 ns) burst
        assert completions[0] >= pci.dma_latency_ps

    def test_write_goes_sdram_then_host(self):
        sim, clock, sdram, pci = _rig()
        dma = DmaAssist("wr", sim, pci, sdram, clock, to_nic=False)
        completions = []
        dma.frame_transfer(0, [(0x30000002, 4096, 1518)], completions.append)
        sim.run()
        assert completions[0] >= pci.dma_latency_ps
        assert sdram.requests == 1

    def test_misaligned_host_buffer_pads_sdram(self):
        sim, clock, sdram, pci = _rig()
        dma = DmaAssist("rd", sim, pci, sdram, clock, to_nic=True)
        dma.frame_transfer(0, [(0x10000003, 0, 1518)], lambda _t: None)
        sim.run()
        assert sdram.transferred_bytes > sdram.useful_bytes

    def test_bursts_serialize_through_staging(self):
        sim, clock, sdram, pci = _rig()
        dma = DmaAssist("rd", sim, pci, sdram, clock, to_nic=True)
        done = []
        for index in range(4):
            dma.frame_transfer(0, [(0x10000000, index * 2048, 1518)], done.append)
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
            dma.frame_transfer(0, [(0, 0, 0)], lambda _t: None)

    def test_scratchpad_access_tracking(self):
        sim, clock, sdram, pci = _rig()
        dma = DmaAssist("rd", sim, pci, sdram, clock, to_nic=True)
        dma.note_scratchpad_accesses(9)
        assert dma.scratchpad_accesses == 9

    @pytest.mark.parametrize("to_nic", [True, False])
    def test_bundle_calls_back_once(self, to_nic):
        sim, clock, sdram, pci = _rig()
        dma = DmaAssist("dma", sim, pci, sdram, clock, to_nic=to_nic)
        regions = [(0x10000000 + 2048 * i + i, 2048 * i, 64 + 100 * i) for i in range(5)]
        completions = []
        dma.frame_transfer(0, regions, completions.append)
        sim.run()
        assert completions == [sim.now_ps]
        assert sdram.requests == pci.transfers == dma.transfers == 5
        assert dma.bytes_moved == sum(nbytes for _h, _n, nbytes in regions)

    def test_write_job_waits_for_a_stalled_host_phase(self):
        """A PCI stall on an early region's host phase can end it after
        the last region's: the job completes on the later of the two."""

        class StallFirst:
            calls = 0

            def pci_stall(self, now_ps):
                self.calls += 1
                return 5_000_000 if self.calls == 1 else 0

        sim, clock, _sdram, pci = _rig()
        sdram = _LoggedSdram()
        pci.injector = StallFirst()
        dma = DmaAssist("wr", sim, pci, sdram, clock, to_nic=False)
        completions = []
        dma.frame_transfer(0, [(8 * i, 2048 * i, 1518) for i in range(3)], completions.append)
        sim.run()
        finishes = [finish * clock.period_ps for _start, finish, *_rest in sdram.log]
        assert completions == [finishes[0] + pci.dma_latency_ps + 5_000_000]
        assert completions[0] > finishes[-1] + pci.dma_latency_ps

    def test_bad_region_rejects_whole_bundle(self):
        sim, clock, sdram, pci = _rig()
        dma = DmaAssist("rd", sim, pci, sdram, clock, to_nic=True)
        with pytest.raises(ValueError):
            dma.frame_transfer(0, [(0, 0, 1518), (0, 2048, 0)], lambda _t: None)
        with pytest.raises(ValueError):
            dma.frame_transfer(0, [], lambda _t: None)
        assert (dma.transfers, dma.bytes_moved, pci.transfers) == (0, 0, 0)
        assert sim.pending_events == 0


class _ReferenceDma:
    """The per-region DMA engine the bundle engine replaced: one
    transfer, host-phase event, burst closure and completion callback
    per region.  Kept as the differential reference."""

    def __init__(self, name, sim, pci, sdram, sdram_clock, to_nic):
        self.name = name
        self.sim = sim
        self.pci = pci
        self.sdram = sdram
        self.sdram_clock = sdram_clock
        self.to_nic = to_nic
        self._pending = deque()
        self._draining = False
        self.injector = None

    def frame_transfer(self, now_ps, host_address, nic_address, nbytes, on_complete):
        burst_address = nic_address | (host_address & 7)
        if self.to_nic:
            host_done = self.pci.host_phase(now_ps, nbytes)
            self.sim.schedule_at(
                host_done,
                lambda: self._enqueue_burst(burst_address, nbytes, on_complete),
            )
        else:
            def after_burst(finish_ps):
                host_done = self.pci.host_phase(finish_ps, nbytes)
                self.sim.schedule_at(host_done, lambda: on_complete(host_done))

            self.sim.schedule_at(
                max(now_ps, self.sim.now_ps),
                lambda: self._enqueue_burst(burst_address, nbytes, after_burst),
            )

    def _enqueue_burst(self, address, nbytes, done):
        self._pending.append((address, nbytes, done))
        self._drain()

    def _drain(self):
        if self._draining or not self._pending:
            return
        self._draining = True
        address, nbytes, done = self._pending.popleft()
        if self.injector is not None:
            failures, exhausted = self.injector.sdram_plan(self.name, self.sim.now_ps)
            if failures:
                self._burst_attempt(address, nbytes, done, failures, exhausted, 0)
                return
        self._issue_burst(address, nbytes, done)

    def _issue_burst(self, address, nbytes, done):
        cycle = self.sdram_clock.current_cycle(self.sim.now_ps)
        request = self.sdram.transfer(address, nbytes, cycle)
        finish_ps = self.sdram_clock.cycles_to_ps(request.finish_cycle)
        self.sim.schedule_at(finish_ps, lambda: self._burst_done(done))

    def _burst_attempt(self, address, nbytes, done, failures, exhausted, attempt):
        cycle = self.sdram_clock.current_cycle(self.sim.now_ps)
        request = self.sdram.transfer(address, nbytes, cycle, useful=False)
        finish_ps = self.sdram_clock.cycles_to_ps(request.finish_cycle)
        if attempt + 1 >= failures:
            if exhausted:
                self.sim.schedule_at(finish_ps, lambda: self._burst_done(done))
                return
            backoff = self.injector.sdram_backoff_ps(attempt)
            self.sim.schedule_at(
                finish_ps + backoff,
                lambda: self._issue_burst(address, nbytes, done),
            )
            return
        backoff = self.injector.sdram_backoff_ps(attempt)
        self.sim.schedule_at(
            finish_ps + backoff,
            lambda: self._burst_attempt(
                address, nbytes, done, failures, exhausted, attempt + 1
            ),
        )

    def _burst_done(self, done):
        self._draining = False
        done(self.sim.now_ps)
        self._drain()


class _LoggedSdram(GddrSdram):
    """Frame memory that logs every request it serves."""

    def __init__(self):
        super().__init__()
        self.log = []

    def transfer(self, address, nbytes, cycle, useful=True):
        request = super().transfer(address, nbytes, cycle, useful)
        self.log.append(
            (request.start_cycle, request.finish_cycle, nbytes,
             request.transferred_bytes, useful)
        )
        return request


_REGION = st.tuples(
    st.integers(0, 1 << 32),                    # host address, any alignment
    st.integers(0, 1 << 16).map(lambda word: 8 * word),  # NIC address
    st.integers(1, 1518),
)
_FAULT_PLANS = st.one_of(
    st.none(),
    st.builds(
        FaultPlan,
        seed=st.integers(0, 1000),
        pci_stall_rate=st.sampled_from([0.0, 0.3, 0.6]),
        pci_stall_ps=st.sampled_from([1, 2000, 150_000, 700_000]),
        sdram_error_rate=st.sampled_from([0.0, 0.2, 0.5]),
        sdram_max_retries=st.integers(0, 3),
        sdram_retry_backoff_ps=st.sampled_from([1, 4000, 200_000]),
    ),
)


class TestDmaBundleDifferential:
    """The bundle engine against the per-region reference engine."""

    @staticmethod
    def _rig(engine, plan):
        sim = Simulator()
        clock = sim.add_clock("sdram", mhz(500))
        sdram = _LoggedSdram()
        pci = PciInterface(dma_latency_ps=seconds_to_ps(1.2e-6))
        engines = {
            to_nic: engine("rd" if to_nic else "wr", sim, pci, sdram, clock, to_nic)
            for to_nic in (True, False)
        }
        injector = None
        if plan is not None:
            injector = FaultInjector(plan)
            pci.injector = injector
            for dma in engines.values():
                dma.injector = injector
        return sim, sdram, pci, engines, injector

    @settings(max_examples=300, deadline=None)
    @given(
        regions=st.lists(_REGION, min_size=1, max_size=16),
        plan=_FAULT_PLANS,
        data=st.data(),
    )
    def test_same_sdram_requests_and_completion_instants(self, regions, plan, data):
        count = data.draw(st.integers(1, min(4, len(regions))))
        cuts = sorted(data.draw(st.lists(
            st.integers(1, len(regions) - 1), min_size=count - 1,
            max_size=count - 1, unique=True,
        ))) if count > 1 else []
        bounds = [0] + cuts + [len(regions)]
        bundles = [
            (
                regions[lo:hi],
                data.draw(st.integers(0, 4_000_000)),  # event instant
                data.draw(st.sampled_from([0, 1, 777, 30_000])),  # issue lead
                data.draw(st.booleans()),  # to_nic
            )
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]

        # Reference: one transfer per region; a bundle completes at the
        # instant its last region's callback fires.
        ref_sim, ref_sdram, ref_pci, ref_engines, ref_injector = self._rig(
            _ReferenceDma, plan
        )
        expected = [[] for _ in bundles]
        for index, (group, instant, lead, to_nic) in enumerate(bundles):
            def issue(group=group, lead=lead, dma=ref_engines[to_nic], done=expected[index]):
                for host, nic, nbytes in group:
                    dma.frame_transfer(ref_sim.now_ps + lead, host, nic, nbytes, done.append)
            ref_sim.schedule_at(instant, issue)
        ref_sim.run()
        assert all(len(done) == len(group) for done, (group, *_rest) in zip(expected, bundles))

        sim, sdram, pci, engines, injector = self._rig(DmaAssist, plan)
        actual = [[] for _ in bundles]
        for index, (group, instant, lead, to_nic) in enumerate(bundles):
            def issue(group=group, lead=lead, dma=engines[to_nic], done=actual[index]):
                dma.frame_transfer(
                    sim.now_ps + lead, group,
                    lambda finish_ps, done=done: done.append((finish_ps, sim.now_ps)),
                )
            sim.schedule_at(instant, issue)
        sim.run()

        assert sdram.log == ref_sdram.log
        for done, reference in zip(actual, expected):
            assert done == [(reference[-1], reference[-1])]
            assert reference[-1] == max(reference)
        assert (pci.transfers, pci.bytes_moved) == (ref_pci.transfers, ref_pci.bytes_moved)
        if plan is not None:
            assert injector.counters == ref_injector.counters


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
    #: One 1518 B frame's wire time at line rate.
    GAP = EthernetTiming().frame_time_ps(1518)

    def _receiver(self):
        sim, clock, sdram, pci = _rig()
        return MacReceiver(sdram, clock, interarrival_ps=self.GAP), sdram

    def test_arrivals_periodic(self):
        mac, _ = self._receiver()
        first = mac.next_arrival_ps()
        mac.take_frame(first, 1518)
        second = mac.next_arrival_ps()
        assert second - first == self.GAP

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
        now = 10 * self.GAP
        dropped = mac.skip_backlog(now)
        assert dropped == 9  # the 10th frame is still receivable

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

    def test_peek_reads_the_size_pattern_by_arrival_slot(self):
        sim, clock, sdram, pci = _rig()
        sizes = ImixSize()
        mac = MacReceiver(sdram, clock, gaps=(100,), sizes=sizes)
        assert mac.has_pending
        mac.take_frame(0, mac.peek_frame()[0])
        dropped = mac.skip_backlog(1000)
        slot = 1 + dropped
        assert dropped > 0
        assert mac.peek_frame() == (sizes.frame_bytes(slot), sizes.payload_bytes(slot), None)

    @staticmethod
    def _reference_skip(gaps, slot, arrival, now_ps):
        """The frame-by-frame walk: the frame in ``slot`` is dropped when
        the frame in ``slot + 1`` arrived before ``now_ps``."""
        first = slot
        while arrival + gaps[slot % len(gaps)] < now_ps:
            arrival += gaps[slot % len(gaps)]
            slot += 1
        return slot - first, slot, arrival

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
        # The drops advance the arrival slot; only accepted frames are
        # numbered, so the sequence counter stays put.
        assert (dropped, mac._slot, mac.next_arrival_ps()) == expected
        assert mac._next_seq == mac.frames_accepted == taken
        assert mac.skip_backlog(now_ps) == 0
        # The next accepted frame takes the next number, whatever the
        # number of drops before it.
        assert mac.take_frame(mac.next_arrival_ps(), 64).seq == taken
