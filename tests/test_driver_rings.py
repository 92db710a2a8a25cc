"""DriverModel ring wraparound and refill/consume interleavings.

The send and receive rings use unbounded produced/consumed indices that
wrap modulo capacity; these tests drive both rings far past several
wraps under the interleavings the firmware actually produces (refill
after partial consume, consume-to-empty, flow-driven frame budgets) and
pin the zero-interrupt completions guard.

The multi-queue classes drive the same properties through
:class:`repro.host.rss.HostQueueModel`: per-ring wraparound, refill
interleaving across steered rings, and a chi-squared bound on the
Toeplitz steering distribution.
"""

import dataclasses

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.host import DescriptorRing, DriverModel
from repro.host.driver import DriverStats
from repro.host.rss import HostQueueModel, RssSpec
from repro.sim import Simulator


def _driver(send_capacity=8, recv_capacity=6, max_frames=None):
    return DriverModel(
        send_ring_capacity=send_capacity,
        recv_ring_capacity=recv_capacity,
        max_frames=max_frames,
    )


class TestRingWraparound:
    def test_indices_grow_past_capacity(self):
        ring = DescriptorRing(4)
        for index in range(25):
            ring.post(1)
            ring.take(1)
            assert ring.consumed == index + 1
        assert ring.produced == ring.consumed == 25
        assert ring.produced > ring.capacity  # genuinely wrapped

    def test_send_ring_wraps_under_refill_consume(self):
        driver = _driver(send_capacity=8)
        # 50 iterations x 2 frames x 2 BDs = 200 BDs through an 8-slot
        # ring: > 25 full wraps.
        for _ in range(50):
            driver.refill_send_ring()
            driver.consume_send_bds(4)  # two frames
            # Two BDs (header, payload) per frame: whole frames only.
            assert driver.send_ring.produced % 2 == 0
        assert driver.send_ring.consumed == 2 * 100
        # The first refill filled 4 frames; each later one topped up the
        # 2 frames just consumed.
        assert driver.stats.frames_posted == driver._next_send_seq == 4 + 49 * 2
        assert len(driver.send_ring) == 2 * (driver._next_send_seq - 100)

    def test_recv_ring_wraps_under_replenish_consume(self):
        driver = _driver(recv_capacity=6)
        driver.replenish_recv_ring()
        for _ in range(30):
            driver.consume_recv_bds(3)
            driver.replenish_recv_ring()
            assert driver.recv_ring.is_full  # replenish always tops up
        assert driver.recv_ring.consumed == 90
        assert driver.stats.recv_buffers_posted == 90 + 6


class TestRefillConsumeInterleavings:
    def test_refill_after_partial_consume_posts_only_free_slots(self):
        driver = _driver(send_capacity=8)
        assert driver.refill_send_ring() == 4  # 8 slots / 2 BDs per frame
        driver.consume_send_bds(2)  # one frame leaves
        assert driver.refill_send_ring() == 1  # exactly one frame of room
        assert driver.send_bds_available() == 8
        # One more BD of room is not enough for a 2-BD frame.
        driver.consume_send_bds(1)
        assert driver.refill_send_ring() == 0

    def test_consume_to_empty_then_refill(self):
        driver = _driver(send_capacity=4)
        driver.refill_send_ring()
        driver.consume_send_bds(driver.send_bds_available())
        assert driver.send_ring.is_empty
        assert driver.refill_send_ring() == 2
        assert driver.send_bds_available() == 4

    def test_flow_driven_budget_gates_refill(self):
        # The fabric endpoint pattern: max_frames grows one post at a
        # time and refill must never manufacture frames beyond it.
        driver = _driver(send_capacity=16, max_frames=0)
        assert driver.refill_send_ring() == 0
        for budget in range(1, 6):
            driver.max_frames = budget
            assert driver.refill_send_ring() == 1
            assert driver.refill_send_ring() == 0  # idempotent at budget
        assert driver.send_bds_available() == 10
        assert driver.stats.frames_posted == 5

    def test_overconsume_raises(self):
        driver = _driver(send_capacity=4)
        driver.refill_send_ring()
        with pytest.raises(IndexError):
            driver.consume_send_bds(5)


# ----------------------------------------------------------------------
# Closed-form posting against the per-frame loops it replaced
# ----------------------------------------------------------------------
def _loop_refill_send_ring(driver, limit=None):
    """``DriverModel.refill_send_ring`` as a per-frame loop: the
    reference the closed form must match."""
    posted = 0
    while driver.send_ring.free_slots >= 2:
        if limit is not None and posted >= limit:
            break
        if driver.max_frames is not None and driver._next_send_seq >= driver.max_frames:
            break
        driver.send_ring.post(2)  # header region + payload region
        driver._next_send_seq += 1
        posted += 1
    driver.stats.frames_posted += posted
    return posted


def _loop_replenish_recv_ring(driver, limit=None):
    """``DriverModel.replenish_recv_ring`` as a per-buffer loop."""
    posted = 0
    while not driver.recv_ring.is_full:
        if limit is not None and posted >= limit:
            break
        driver.recv_ring.post(1)
        posted += 1
    driver.stats.recv_buffers_posted += posted
    return posted


class TestClosedFormPosting:
    @given(
        send_capacity=st.integers(min_value=1, max_value=64),
        recv_capacity=st.integers(min_value=1, max_value=64),
        steps=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=64),  # prior takes
                st.one_of(st.none(), st.integers(min_value=-2, max_value=40)),
                st.one_of(st.none(), st.integers(min_value=0, max_value=200)),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_per_frame_loops(self, send_capacity, recv_capacity, steps):
        closed = _driver(send_capacity, recv_capacity)
        loop = _driver(send_capacity, recv_capacity)
        for takes, limit, max_frames in steps:
            for driver in (closed, loop):
                driver.max_frames = max_frames
                driver.consume_send_bds(min(takes, driver.send_bds_available()))
                driver.consume_recv_bds(min(takes, driver.recv_bds_available()))
            assert closed.refill_send_ring(limit) == _loop_refill_send_ring(loop, limit)
            assert closed.replenish_recv_ring(limit) == _loop_replenish_recv_ring(
                loop, limit
            )
            assert closed.refill_send_ring() == _loop_refill_send_ring(loop)
            assert closed.replenish_recv_ring() == _loop_replenish_recv_ring(loop)
            assert len(closed.send_ring) == len(loop.send_ring)
            assert len(closed.recv_ring) == len(loop.recv_ring)
            assert closed._next_send_seq == loop._next_send_seq
            assert closed.stats == loop.stats


class TestRefillWithTheBudgetPosted:
    @given(
        capacity=st.integers(min_value=2, max_value=64),
        budget=st.integers(min_value=0, max_value=40),
        takes=st.lists(st.integers(min_value=0, max_value=64), max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_refill_posts_nothing_and_changes_nothing(self, capacity, budget, takes):
        driver = _driver(send_capacity=capacity, max_frames=budget)
        for count in takes:
            driver.consume_send_bds(min(count, driver.send_bds_available()))
            driver.refill_send()
        while driver._next_send_seq < budget:
            driver.consume_send_bds(driver.send_bds_available())
            driver.refill_send()
        ring = driver.send_ring
        driver.consume_send_bds(driver.send_bds_available() // 2)
        before = (ring.produced, ring.consumed, dataclasses.replace(driver.stats))
        assert driver.refill_send() == 0
        assert (ring.produced, ring.consumed, driver.stats) == before
        assert driver._next_send_seq == budget
        driver.complete_tx(0, 1, 0)  # completes, and refills nothing
        assert (ring.produced, ring.consumed) == before[:2]
        assert driver._next_send_seq == driver.stats.frames_posted == budget

    def test_endless_driver_still_posts(self):
        driver = _driver(send_capacity=8)
        assert driver.refill_send() == 4
        assert driver.refill_send() == 0  # the ring is full
        driver.consume_send_bds(4)
        assert driver.refill_send() == 2
        driver.consume_send_bds(2)
        driver.complete_tx(0, 1, 0)
        assert driver._next_send_seq == 7 and driver.stats.frames_posted == 7


class TestCompletionsPerInterrupt:
    def test_zero_interrupts_reports_zero(self):
        # Completion counts without a single interrupt (coalescing
        # window never closed) must not divide by zero.
        stats = DriverStats()
        assert stats.completions_per_interrupt == 0.0
        driver = _driver()
        driver.complete_sends(3, interrupt=False)
        driver.complete_receives(2, interrupt=False)
        assert driver.stats.interrupts == 0
        assert driver.stats.completions_per_interrupt == 0.0

    def test_coalescing_ratio(self):
        driver = _driver()
        driver.complete_sends(6, interrupt=True)
        driver.complete_receives(4, interrupt=True)
        assert driver.stats.completions_per_interrupt == 5.0


class TestWindowReset:
    def test_reset_between_batch_and_interrupt(self):
        # Regression: a measurement-window reset landing between a
        # completion batch and its coalesced interrupt used to snapshot
        # the raw totals, crediting the batch to the old window and its
        # interrupt to the new one — the new window then reported 0
        # completions against 1 interrupt.  The fix attributes pending
        # (not-yet-interrupted) completions to the window their
        # interrupt lands in.
        stats = DriverStats()
        stats.record_sends(5)       # coalescing window still open...
        stats.reset_window()        # ...when the measured window starts
        stats.note_interrupt()      # interrupt fires inside the window
        assert stats.window_send_completions == 5
        assert stats.window_interrupts == 1
        assert stats.window_completions_per_interrupt == 5.0

    def test_reset_after_interrupt_excludes_closed_batches(self):
        stats = DriverStats()
        stats.record_sends(8)
        stats.note_interrupt()      # batch fully closed pre-window
        stats.reset_window()
        assert stats.window_send_completions == 0
        assert stats.window_interrupts == 0
        assert stats.window_completions_per_interrupt == 0.0

    def test_mixed_directions_split_at_reset(self):
        stats = DriverStats()
        stats.record_sends(4)
        stats.note_interrupt()      # closed: stays in the old window
        stats.record_receives(3)    # open: moves to the new window
        stats.reset_window()
        stats.note_interrupt()
        stats.record_sends(2)
        stats.note_interrupt()
        assert stats.window_send_completions == 2
        assert stats.window_recv_completions == 3
        assert stats.window_interrupts == 2
        assert stats.window_completions_per_interrupt == 2.5


# ----------------------------------------------------------------------
# Multi-queue host rings
# ----------------------------------------------------------------------
class _Steering:
    """A test's traffic edge: frame ``seq`` travels on a flow that the
    host's hash sends to ring ``ring_of(seq)``."""

    def __init__(self, ring_of):
        self.ring_of = ring_of
        self.flows = {}

    def learn(self, host):
        port = 0x8000
        while len(self.flows) < len(host.rings):
            flow = (0x0A00_0001, 0x0A00_0002, port, 9999)
            self.flows.setdefault(host.ring_for(*flow), flow)
            port += 1

    def tx_flow(self, seq):
        return self.flows[self.ring_of(seq)]

    def rx_flow(self, seq, identity):
        return self.tx_flow(seq)


def _host(rings=4, send_capacity=8, recv_capacity=6, driver=None,
          steering=None, **spec_kwargs):
    spec = RssSpec(rings=rings, completion_ps=100, interrupt_ps=0,
                   **spec_kwargs)
    if driver is None:
        driver = DriverModel(send_ring_capacity=512, recv_ring_capacity=16)
    if steering is None:
        steering = _Steering(lambda seq: 0)
    host = HostQueueModel(
        spec, Simulator(), driver, steering.tx_flow, steering.rx_flow,
        send_ring_capacity=send_capacity, recv_ring_capacity=recv_capacity,
    )
    steering.learn(host)
    return host


class TestMultiRingWraparound:
    def test_send_rings_wrap_under_steered_refill(self):
        # Round-robin steering across 4 rings, 8-slot (4-frame) send
        # rings: 80 frames are 20 per ring = 5 full ring generations.
        host = _host(rings=4, send_capacity=8,
                     steering=_Steering(lambda seq: seq % 4))
        completed = 0
        while completed < 80:
            host.refill_send()
            # NIC completes the oldest 4 frames (one per ring); running
            # the sim lets the host cores process the batches and
            # return the transmit credit the next refill needs.
            host.complete_tx(completed, 4, host.sim.now_ps)
            host.sim.run()
            completed += 4
        for ring in host.rings:
            assert ring.tx_completed == 20
            # 20 completed frames = 40 BDs through an 8-slot ring: the
            # indices wrapped at least 5 times (the trailing refill may
            # have posted a few frames beyond the completed 80).
            assert ring.send_ring.produced >= 40
            assert ring.tx_posted == ring.tx_completed + len(ring.send_ring) // 2

    def test_recv_rings_wrap_under_backlog_recycle(self):
        host = _host(rings=2, recv_capacity=4)
        ring = host.rings[0]
        for round_ in range(1, 11):
            host.complete_rx(0, 4, now_ps=host.sim.now_ps)
            host.sim.run()
            assert ring.rx_completed == 4 * round_
        # 40 completions through a 4-buffer ring: 10 full generations,
        # refill-on-poll kept conservation exact the whole way.
        assert ring.recv_ring.produced == 4 + 40  # initial fill + recycles
        assert ring.rx_posted == ring.rx_completed + len(ring.recv_ring)

    def test_skewed_steering_keeps_other_rings_live(self):
        # All traffic on ring 0 must not consume ring 1's credit.
        host = _host(rings=2, recv_capacity=4)
        host.complete_rx(0, 12, now_ps=0)
        host.sim.run()
        assert host.rings[0].rx_completed == 12
        assert host.rings[1].rx_completed == 0
        assert len(host.rings[1].recv_ring) == 4  # untouched, fully posted


class TestMultiRingRefillInterleaving:
    def test_refill_interleaves_across_rings(self):
        # Frames steer 0,1,0,1,...; posting must land alternately and
        # stop the moment the *steered* ring is full (head-of-line in
        # frame order), not when the aggregate ring is.
        steering = _Steering(lambda seq: seq % 2)
        host = _host(rings=2, send_capacity=4, steering=steering)  # 2 frames per ring
        posted = host.refill_send()
        assert posted == 4  # 2 frames per ring, strictly alternating
        assert [len(r.send_ring) for r in host.rings] == [4, 4]
        # Complete one frame on ring 1 only: the next frame in sequence
        # steers to ring 0 (still full), so nothing posts.
        steering.ring_of = lambda seq: 1
        host.complete_tx(0, 1, 0)
        host.sim.run()
        steering.ring_of = lambda seq: 0
        assert host.refill_send() == 0
        # A ring-1-steered refill fits exactly one frame.
        steering.ring_of = lambda seq: 1
        assert host.refill_send() == 1

    def test_tx_credit_bounds_total_outstanding(self):
        host = _host(rings=2, send_capacity=4,
                     steering=_Steering(lambda seq: seq % 2))
        assert host.tx_credit == 4  # 2 rings x (4 slots // 2)
        host.refill_send()
        assert host.tx_credit == 0
        host.complete_tx(0, 2, 0)
        host.sim.run()  # host cores process, credit returns
        assert host.tx_credit == 2

    def test_flow_budget_respected(self):
        driver = DriverModel(
            send_ring_capacity=512, recv_ring_capacity=16, max_frames=3,
        )
        host = _host(rings=4, send_capacity=64, driver=driver,
                     steering=_Steering(lambda seq: seq % 4))
        assert host.refill_send() == 3
        assert host.refill_send() == 0
        driver.max_frames = 5
        assert host.refill_send() == 2


class TestSteeringDistribution:
    def test_chi_squared_bound_over_rings(self):
        # 1024 distinct flow tuples over >= 4 rings: the Toeplitz hash +
        # indirection table must spread flows close to uniformly.  The
        # chi-squared statistic over k=rings cells with expected n/k per
        # cell is compared against the 99.9% quantile of chi2(k-1) —
        # a deterministic check (fixed key, fixed flows), generous
        # enough to be stable, tight enough to catch a broken hash
        # (e.g. all-one-ring collapses are thousands of sigma out).
        quantiles = {4: 16.27, 8: 24.32}  # chi2_{0.999}(k-1)
        for rings in (4, 8):
            host = _host(rings=rings, send_capacity=64)
            counts = [0] * rings
            flows = 1024
            for i in range(flows):
                counts[host.ring_for(
                    0x0A00_0001 + (i % 7), 0x0A00_0100 + (i % 11),
                    0x8000 + i, 9999,
                )] += 1
            expected = flows / rings
            chi2 = sum((c - expected) ** 2 / expected for c in counts)
            assert chi2 < quantiles[rings], (
                f"{rings} rings: chi2={chi2:.1f}, counts={counts}"
            )
            assert all(counts)  # no starved ring
