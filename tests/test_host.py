"""Host side: descriptor rings, driver, memory layout."""

import pytest

from repro.host import DescriptorRing, DriverModel, HostMemoryLayout


class TestDescriptorRing:
    def test_full_rejects(self):
        ring = DescriptorRing(2)
        ring.post(2)
        assert ring.is_full
        with pytest.raises(OverflowError):
            ring.post(1)
        assert len(ring) == 2

    def test_empty_pop_rejects(self):
        ring = DescriptorRing(2)
        with pytest.raises(IndexError):
            ring.take(1)
        assert ring.is_empty and ring.consumed == 0

    def test_wraparound(self):
        ring = DescriptorRing(2)
        for round_index in range(10):
            ring.post(1)
            ring.take(1)
            assert ring.consumed == round_index + 1
        assert ring.is_empty and ring.produced == 10

    def test_push_many_atomic(self):
        ring = DescriptorRing(3)
        ring.post(1)
        with pytest.raises(OverflowError):
            ring.post(3)
        assert len(ring) == 1  # nothing partially posted
        assert ring.produced == 1

    def test_pop_many(self):
        ring = DescriptorRing(8)
        ring.post(5)
        ring.take(3)
        assert ring.consumed == 3
        assert len(ring) == 2

    def test_pop_many_too_many(self):
        ring = DescriptorRing(8)
        with pytest.raises(IndexError):
            ring.take(1)
        ring.post(2)
        with pytest.raises(IndexError):
            ring.take(3)
        assert len(ring) == 2  # nothing partially taken

    def test_free_slots(self):
        ring = DescriptorRing(4)
        ring.post(1)
        assert ring.free_slots == 3

    def test_negative_counts_rejected(self):
        ring = DescriptorRing(4)
        ring.post(2)
        with pytest.raises(ValueError):
            ring.post(-1)
        with pytest.raises(ValueError):
            ring.take(-1)
        assert (ring.produced, ring.consumed) == (2, 0)


class TestHostMemoryLayout:
    def test_headers_are_misaligned(self):
        layout = HostMemoryLayout()
        offsets = {layout.tx_header_address(seq) % 8 for seq in range(16)}
        assert offsets - {0}, "some header starts must be misaligned"

    def test_slots_do_not_collide(self):
        layout = HostMemoryLayout()
        a = layout.tx_header_address(0)
        b = layout.tx_header_address(1)
        assert abs(b - a) >= layout.slot_bytes - 16

    def test_payload_after_header(self):
        layout = HostMemoryLayout()
        assert layout.tx_payload_address(3) > layout.tx_header_address(3)

    def test_rx_region_separate(self):
        layout = HostMemoryLayout()
        assert layout.rx_buffer_address(0) >= layout.rx_region_base


class TestDriverModel:
    def _driver(self, **kwargs):
        return DriverModel(**kwargs)

    def test_refill_posts_two_bds_per_frame(self):
        driver = self._driver(send_ring_capacity=8)
        frames = driver.refill_send_ring()
        assert frames == 4
        assert driver.send_bds_available() == 8

    def test_finite_traffic_stops(self):
        driver = DriverModel(max_frames=3)
        assert driver.refill_send_ring() == 3
        assert driver.refill_send_ring() == 0

    def test_saturation_refills_after_consume(self):
        driver = self._driver(send_ring_capacity=8)
        driver.refill_send_ring()
        driver.consume_send_bds(4)
        assert driver.refill_send_ring() == 2

    def test_recv_replenish(self):
        driver = self._driver(recv_ring_capacity=16)
        assert driver.replenish_recv_ring() == 16
        driver.consume_recv_bds(5)
        assert driver.replenish_recv_ring() == 5

    def test_interrupt_coalescing_stats(self):
        driver = self._driver()
        driver.complete_sends(8, interrupt=True)
        driver.complete_receives(8, interrupt=False)
        assert driver.stats.interrupts == 1
        assert driver.stats.completions_per_interrupt == 16
