"""Host side: descriptor rings, driver, memory layout."""

import pytest

from repro.host import BufferDescriptor, DescriptorRing, DriverModel, HostMemoryLayout
from repro.host.descriptors import FLAG_HEADER_REGION


class TestBufferDescriptor:
    def test_flags(self):
        header = BufferDescriptor(address=0x1000, length=42, flags=FLAG_HEADER_REGION)
        assert header.is_header and not header.is_end_of_frame

    def test_validation(self):
        with pytest.raises(ValueError):
            BufferDescriptor(address=-1, length=10)
        with pytest.raises(ValueError):
            BufferDescriptor(address=0, length=0)

    def test_positional_fields_and_defaults(self):
        descriptor = BufferDescriptor(0x1000, 42)
        assert (descriptor.address, descriptor.length) == (0x1000, 42)
        assert (descriptor.flags, descriptor.cookie) == (0, 0)
        assert BufferDescriptor(1, 2, FLAG_HEADER_REGION, 9) == BufferDescriptor(
            address=1, length=2, flags=FLAG_HEADER_REGION, cookie=9
        )

    def test_replace_keeps_the_checks(self):
        descriptor = BufferDescriptor(address=1, length=1)
        assert descriptor._replace(length=5).length == 5
        with pytest.raises(ValueError):
            descriptor._replace(length=0)


class TestDescriptorRing:
    def test_fifo_order(self):
        ring = DescriptorRing(4)
        for index in range(3):
            ring.push(BufferDescriptor(address=0x1000 + index, length=1, cookie=index))
        cookies = [ring.pop().cookie for _ in range(3)]
        assert cookies == [0, 1, 2]

    def test_full_rejects(self):
        ring = DescriptorRing(2)
        ring.push(BufferDescriptor(address=1, length=1))
        ring.push(BufferDescriptor(address=2, length=1))
        assert ring.is_full
        with pytest.raises(OverflowError):
            ring.push(BufferDescriptor(address=3, length=1))

    def test_empty_pop_rejects(self):
        with pytest.raises(IndexError):
            DescriptorRing(2).pop()

    def test_wraparound(self):
        ring = DescriptorRing(2)
        for round_index in range(10):
            ring.push(BufferDescriptor(address=round_index + 1, length=1, cookie=round_index))
            assert ring.pop().cookie == round_index

    def test_push_many_atomic(self):
        ring = DescriptorRing(3)
        ring.push(BufferDescriptor(address=1, length=1))
        batch = [BufferDescriptor(address=i + 2, length=1) for i in range(3)]
        with pytest.raises(OverflowError):
            ring.push_many(batch)
        assert len(ring) == 1  # nothing partially pushed

    def test_pop_many(self):
        ring = DescriptorRing(8)
        for index in range(5):
            ring.push(BufferDescriptor(address=index + 1, length=1, cookie=index))
        batch = ring.pop_many(3)
        assert [d.cookie for d in batch] == [0, 1, 2]
        assert len(ring) == 2

    def test_pop_many_too_many(self):
        ring = DescriptorRing(8)
        with pytest.raises(IndexError):
            ring.pop_many(1)

    def test_free_slots(self):
        ring = DescriptorRing(4)
        ring.push(BufferDescriptor(address=1, length=1))
        assert ring.free_slots == 3


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
        return DriverModel(1472, 1518, **kwargs)

    def test_refill_posts_two_bds_per_frame(self):
        driver = self._driver(send_ring_capacity=8)
        frames = driver.refill_send_ring()
        assert frames == 4
        assert driver.send_bds_available() == 8

    def test_send_bd_pairs_share_cookie(self):
        driver = self._driver()
        driver.refill_send_ring()
        header, payload = driver.consume_send_bds(2)
        assert header.is_header
        assert payload.is_end_of_frame
        assert header.cookie == payload.cookie

    def test_finite_traffic_stops(self):
        driver = DriverModel(1472, 1518, max_frames=3)
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

    def test_payload_length_accounts_for_headers(self):
        driver = self._driver()
        driver.refill_send_ring()
        header, payload = driver.consume_send_bds(2)
        # 42 B header region + payload + 4 B CRC = frame
        assert header.length + payload.length + 4 == 1518

    def test_interrupt_coalescing_stats(self):
        driver = self._driver()
        driver.complete_sends(8, interrupt=True)
        driver.complete_receives(8, interrupt=False)
        assert driver.stats.interrupts == 1
        assert driver.stats.completions_per_interrupt == 16
