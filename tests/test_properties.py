"""Property-based tests (hypothesis) on the core data structures."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.firmware.ordering import OrderingBoard, OrderingMode
from repro.host.descriptors import DescriptorRing
from repro.isa.machine import Memory, apply_setb, apply_update, update_run
from repro.mem.coherence import CoherentCacheSystem, MesiState, TraceAccess
from repro.mem.crossbar import Crossbar
from repro.net.ethernet import frame_bytes_for_udp_payload, udp_payload_for_frame_bytes


# ----------------------------------------------------------------------
# setb/update vs a reference big-int bitmap
# ----------------------------------------------------------------------
class _ReferenceBitmap:
    """Big-int model of the RMW semantics."""

    def __init__(self) -> None:
        self.bits = 0

    def setb(self, index: int) -> None:
        self.bits |= 1 << index

    def update(self, last: int) -> int:
        start = last + 1
        word_end = (start // 32) * 32 + 32
        position = start
        while position < word_end and self.bits & (1 << position):
            position += 1
        count = position - start
        if count == 0:
            return last
        mask = ((1 << count) - 1) << start
        self.bits &= ~mask
        return last + count


@st.composite
def rmw_operations(draw):
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("set"), st.integers(min_value=0, max_value=255)),
                st.tuples(st.just("update"), st.integers(min_value=-1, max_value=254)),
            ),
            min_size=1,
            max_size=60,
        )
    )
    return ops


class TestRmwSemantics:
    @given(rmw_operations())
    @settings(max_examples=200)
    def test_matches_reference_bitmap(self, ops):
        memory = Memory(64)  # 512 bits
        reference = _ReferenceBitmap()
        for op, argument in ops:
            if op == "set":
                apply_setb(memory, 0, argument)
                reference.setb(argument)
            else:
                got = apply_update(memory, 0, argument)
                expected = reference.update(argument)
                assert got == expected
        # Final bitmap state must agree word for word.
        for word_index in range(16):
            model_word = (reference.bits >> (32 * word_index)) & 0xFFFFFFFF
            assert memory.load_word(4 * word_index) == model_word

    @given(st.integers(min_value=0, max_value=0xFFFFFFFF), st.integers(min_value=0, max_value=31))
    def test_update_run_matches_bit_loop(self, word, bit):
        count = 0
        while bit + count < 32 and word >> (bit + count) & 1:
            count += 1
        assert update_run(word, bit) == count

    @given(st.integers(min_value=0, max_value=511))
    def test_setb_sets_exactly_one_bit(self, index):
        memory = Memory(64)
        apply_setb(memory, 0, index)
        total = sum(
            bin(memory.load_word(4 * w)).count("1") for w in range(16)
        )
        assert total == 1

    @given(st.integers(min_value=-1, max_value=510))
    def test_update_never_crosses_word_boundary(self, last):
        memory = Memory(64)
        for word_index in range(16):
            memory.store_word(4 * word_index, 0xFFFFFFFF)
        result = apply_update(memory, 0, last)
        # Progress is bounded by the distance to the word boundary.
        boundary = ((last + 1) // 32) * 32 + 32
        assert result <= boundary - 1


# ----------------------------------------------------------------------
# Ordering board invariants
# ----------------------------------------------------------------------
@st.composite
def mark_permutations(draw):
    count = draw(st.integers(min_value=1, max_value=96))
    order = draw(st.permutations(list(range(count))))
    return list(order)


class TestOrderingProperties:
    @given(mark_permutations())
    @settings(max_examples=100)
    def test_everything_marked_eventually_commits(self, order):
        board = OrderingBoard(128, OrderingMode.RMW)
        total = 0
        for seq in order:
            board.mark_done(seq)
            count, _ = board.commit()
            total += count
        count, _ = board.commit()
        total += count
        assert total == len(order)
        assert board.commit_seq == len(order)

    @given(mark_permutations())
    @settings(max_examples=100)
    def test_commit_pointer_monotonic_and_gapless(self, order):
        board = OrderingBoard(128, OrderingMode.SOFTWARE)
        marked = set()
        previous = 0
        for seq in order:
            board.mark_done(seq)
            marked.add(seq)
            board.commit()
            assert board.commit_seq >= previous
            # The commit pointer never passes an unmarked frame.
            assert all(s in marked for s in range(board.commit_seq))
            previous = board.commit_seq

    @given(mark_permutations())
    @settings(max_examples=60)
    def test_modes_agree(self, order):
        software = OrderingBoard(128, OrderingMode.SOFTWARE)
        rmw = OrderingBoard(128, OrderingMode.RMW)
        for seq in order:
            software.mark_done(seq)
            rmw.mark_done(seq)
            sw_count, _ = software.commit()
            rmw_count, _ = rmw.commit()
            assert sw_count == rmw_count
        assert software.commit_seq == rmw.commit_seq


# ----------------------------------------------------------------------
# Descriptor ring vs a deque reference
# ----------------------------------------------------------------------
@st.composite
def ring_scripts(draw):
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(["post", "take"]),
                st.integers(min_value=0, max_value=10),
            ),
            min_size=1,
            max_size=200,
        )
    )


class TestRingProperties:
    @given(ring_scripts())
    @settings(max_examples=100)
    def test_matches_deque(self, script):
        # Reference: a plain occupancy integer.  A call the reference
        # would overflow or underflow must raise and change nothing.
        capacity = 8
        ring = DescriptorRing(capacity)
        held = produced = 0
        for action, count in script:
            if action == "post":
                if held + count > capacity:
                    with pytest.raises(OverflowError):
                        ring.post(count)
                else:
                    ring.post(count)
                    held += count
                    produced += count
            else:
                if count > held:
                    with pytest.raises(IndexError):
                        ring.take(count)
                else:
                    ring.take(count)
                    held -= count
            assert len(ring) == held
            assert ring.free_slots == capacity - held
            assert ring.is_full == (held == capacity)
            assert ring.is_empty == (held == 0)
            assert (ring.produced, ring.consumed) == (produced, produced - held)


# ----------------------------------------------------------------------
# Crossbar: one grant per resource per cycle
# ----------------------------------------------------------------------
class TestCrossbarProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),   # resource
                st.integers(min_value=0, max_value=50),  # request cycle
            ),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=100)
    def test_no_double_grants(self, requests):
        crossbar = Crossbar(4)
        granted = set()
        ordered = sorted(requests, key=lambda r: r[1])
        for requester, (resource, cycle) in enumerate(ordered):
            grant = crossbar.request(resource, requester, cycle)
            assert grant >= cycle
            assert (resource, grant) not in granted
            granted.add((resource, grant))


# ----------------------------------------------------------------------
# MESI: single-writer, no M+S coexistence
# ----------------------------------------------------------------------
@st.composite
def coherence_traces(draw):
    return draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),      # cache
                st.integers(min_value=0, max_value=15),     # line index
                st.booleans(),                              # write?
            ),
            min_size=1,
            max_size=150,
        )
    )


class TestMesiProperties:
    @given(coherence_traces())
    @settings(max_examples=100)
    def test_single_writer_invariant(self, raw_trace):
        system = CoherentCacheSystem(4, 256, line_bytes=16)
        for cache_id, line_index, is_write in raw_trace:
            system.access(TraceAccess(cache_id, line_index * 16, is_write))
            for line in range(16):
                states = [
                    cache.lines.get(line, MesiState.INVALID)
                    for cache in system.caches
                ]
                modified = states.count(MesiState.MODIFIED)
                exclusive = states.count(MesiState.EXCLUSIVE)
                shared = states.count(MesiState.SHARED)
                assert modified <= 1
                assert exclusive <= 1
                if modified or exclusive:
                    assert shared == 0

    @given(coherence_traces())
    @settings(max_examples=50)
    def test_accounting_consistent(self, raw_trace):
        system = CoherentCacheSystem(4, 256, line_bytes=16)
        for cache_id, line_index, is_write in raw_trace:
            system.access(TraceAccess(cache_id, line_index * 16, is_write))
        stats = system.stats
        assert stats.hits + stats.misses == len(raw_trace)
        assert stats.reads + stats.writes == len(raw_trace)
        assert stats.write_accesses_causing_invalidation <= stats.writes


# ----------------------------------------------------------------------
# Ethernet frame geometry roundtrips
# ----------------------------------------------------------------------
class TestEthernetProperties:
    @given(st.integers(min_value=18, max_value=1472))
    def test_payload_frame_roundtrip(self, payload):
        frame = frame_bytes_for_udp_payload(payload)
        assert 64 <= frame <= 1518
        assert udp_payload_for_frame_bytes(frame) == payload

    @given(st.integers(min_value=18, max_value=1472))
    def test_frame_monotonic_in_payload(self, payload):
        if payload < 1472:
            assert frame_bytes_for_udp_payload(payload) <= frame_bytes_for_udp_payload(
                payload + 1
            )
