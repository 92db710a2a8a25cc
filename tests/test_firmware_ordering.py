"""Frame-ordering boards: software-only vs RMW-enhanced."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.firmware import OrderingBoard, OrderingMode, ordering
from repro.isa.machine import Memory, apply_setb

SW = OrderingMode.SOFTWARE
RMW = OrderingMode.RMW


class TestBoardBasics:
    @pytest.mark.parametrize("mode", [SW, RMW])
    def test_in_order_completion_commits_immediately(self, mode):
        board = OrderingBoard(64, mode)
        board.mark_done(0)
        board.mark_done(1)
        count, _cost = board.commit()
        assert count == 2
        assert board.commit_seq == 2

    @pytest.mark.parametrize("mode", [SW, RMW])
    def test_gap_blocks_commit(self, mode):
        board = OrderingBoard(64, mode)
        board.mark_done(1)  # frame 0 not done yet
        count, _cost = board.commit()
        assert count == 0
        assert board.commit_seq == 0

    @pytest.mark.parametrize("mode", [SW, RMW])
    def test_gap_fill_releases_run(self, mode):
        board = OrderingBoard(64, mode)
        for seq in (1, 2, 3):
            board.mark_done(seq)
        board.mark_done(0)
        count, _cost = board.commit()
        assert count == 4

    @pytest.mark.parametrize("mode", [SW, RMW])
    def test_out_of_order_marks_commit_in_order(self, mode):
        board = OrderingBoard(64, mode)
        for seq in (5, 3, 0, 1, 4, 2):
            board.mark_done(seq)
        count, _cost = board.commit()
        assert count == 6
        assert board.commit_seq == 6

    @pytest.mark.parametrize("mode", [SW, RMW])
    def test_commit_crosses_word_boundaries(self, mode):
        board = OrderingBoard(128, mode)
        for seq in range(70):
            board.mark_done(seq)
        count, _cost = board.commit()
        assert count == 70

    @pytest.mark.parametrize("mode", [SW, RMW])
    def test_ring_wraparound(self, mode):
        board = OrderingBoard(32, mode)
        for wrap in range(4):
            for offset in range(32):
                board.mark_done(wrap * 32 + offset)
            count, _cost = board.commit()
            assert count == 32
        assert board.commit_seq == 128

    @pytest.mark.parametrize("mode", [SW, RMW])
    def test_double_commit_idempotent(self, mode):
        board = OrderingBoard(64, mode)
        board.mark_done(0)
        board.commit()
        count, _cost = board.commit()
        assert count == 0

    def test_lap_protection(self):
        board = OrderingBoard(32, RMW)
        with pytest.raises(ValueError):
            board.mark_done(32)  # would alias bit 0 while seq 0 pending

    def test_already_committed_rejected(self):
        board = OrderingBoard(32, RMW)
        board.mark_done(0)
        board.commit()
        with pytest.raises(ValueError):
            board.mark_done(0)

    def test_ring_size_validation(self):
        with pytest.raises(ValueError):
            OrderingBoard(33, RMW)
        with pytest.raises(ValueError):
            OrderingBoard(0, RMW)

    def test_requires_lock_flag(self):
        assert OrderingBoard(32, SW).requires_lock
        assert not OrderingBoard(32, RMW).requires_lock

    def test_pending_counts_whole_ring(self):
        # Regression: `pending` used to stop scanning at the first
        # unmarked slot, undercounting frames marked behind a gap.
        board = OrderingBoard(64, RMW)
        board.mark_done(0)
        board.mark_done(1)
        board.mark_done(3)
        assert board.pending == 3

    def test_pending_counts_gapped_bitmap(self):
        board = OrderingBoard(64, RMW)
        for seq in (0, 2, 5, 9, 33, 63):
            board.mark_done(seq)
        assert board.pending == 6
        committed, _ = board.commit()
        assert committed == 1  # only seq 0 was consecutive
        assert board.pending == 5  # the gapped marks all still pending

    def test_pending_after_partial_commit_behind_gap(self):
        board = OrderingBoard(32, RMW)
        board.mark_done(0)
        board.mark_done(1)
        board.mark_done(4)
        board.commit()
        assert board.commit_seq == 2
        assert board.pending == 1  # seq 4 waits behind the 2-3 gap


class TestSkipRecovery:
    """Fault recovery: holes resequence past without wedging the pointer."""

    @pytest.mark.parametrize("mode", [SW, RMW])
    def test_skip_lets_commit_cross_the_hole(self, mode):
        board = OrderingBoard(64, mode)
        board.mark_done(0)
        board.skip(1)  # frame 1 dropped at the MAC
        board.mark_done(2)
        count, _cost = board.commit()
        assert count == 3
        assert board.commit_seq == 3
        assert board.marked == 2
        assert board.skipped == 1

    @pytest.mark.parametrize("mode", [SW, RMW])
    def test_skip_behind_gap_waits_like_a_mark(self, mode):
        board = OrderingBoard(64, mode)
        board.skip(1)
        count, _cost = board.commit()
        assert count == 0  # still gated on frame 0
        board.mark_done(0)
        count, _cost = board.commit()
        assert count == 2

    def test_skip_respects_lap_protection(self):
        board = OrderingBoard(32, RMW)
        with pytest.raises(ValueError):
            board.skip(32)


class TestModeEquivalence:
    """Both implementations must express identical ordering semantics."""

    def test_same_commit_sequence_for_any_interleaving(self):
        import random
        rng = random.Random(42)
        for _trial in range(20):
            order = list(range(48))
            rng.shuffle(order)
            boards = {mode: OrderingBoard(64, mode) for mode in (SW, RMW)}
            commits = {mode: [] for mode in (SW, RMW)}
            for seq in order:
                for mode, board in boards.items():
                    board.mark_done(seq)
                    count, _ = board.commit()
                    commits[mode].append(count)
            assert commits[SW] == commits[RMW]
            assert boards[SW].commit_seq == boards[RMW].commit_seq == 48

    def test_same_commit_sequence_across_ring_wraps(self):
        """Windowed random interleaving driven far past the ring size, so
        the RMW ``last = index - 1`` boundary case (-1 at every ring and
        word wrap) is exercised against the software scan."""
        import random
        rng = random.Random(7)
        ring = 32
        total = 5 * ring + 17
        boards = {mode: OrderingBoard(ring, mode) for mode in (SW, RMW)}
        commits = {mode: [] for mode in (SW, RMW)}
        next_seq = 0
        window = []
        while next_seq < total or window:
            # Keep an in-flight window inside the lap-protection bound:
            # never issue a sequence a full ring ahead of the commit
            # pointer (the earliest unmarked frame pins that pointer).
            frontier = boards[SW].commit_seq
            while (next_seq < total and len(window) < ring // 2
                   and next_seq < frontier + ring):
                window.append(next_seq)
                next_seq += 1
            seq = window.pop(rng.randrange(len(window)))
            for mode, board in boards.items():
                board.mark_done(seq)
                count, _ = board.commit()
                commits[mode].append(count)
        assert commits[SW] == commits[RMW]
        assert boards[SW].commit_seq == boards[RMW].commit_seq == total

    def test_skip_equivalence_with_random_holes(self):
        import random
        rng = random.Random(13)
        ring = 64
        total = 3 * ring
        holes = {seq for seq in range(total) if rng.random() < 0.2}
        boards = {mode: OrderingBoard(ring, mode) for mode in (SW, RMW)}
        for start in range(0, total, ring // 2):
            chunk = list(range(start, start + ring // 2))
            rng.shuffle(chunk)
            for seq in chunk:
                for board in boards.values():
                    if seq in holes:
                        board.skip(seq)
                    else:
                        board.mark_done(seq)
            counts = {mode: board.commit()[0] for mode, board in boards.items()}
            assert counts[SW] == counts[RMW]
        assert boards[SW].commit_seq == boards[RMW].commit_seq == total
        assert boards[SW].skipped == boards[RMW].skipped == len(holes)


class TestRmwRingWrap:
    """Regression coverage for ``_commit_rmw``'s word/ring boundary
    arithmetic (``last = index - 1`` is -1 exactly at a ring wrap)."""

    def test_commit_starting_exactly_at_ring_boundary(self):
        ring = 32
        board = OrderingBoard(ring, RMW)
        for seq in range(ring):
            board.mark_done(seq)
        assert board.commit()[0] == ring
        assert board.commit_seq % ring == 0  # pointer parked on the wrap
        for seq in range(ring, ring + 5):
            board.mark_done(seq)
        count, _cost = board.commit()
        assert count == 5
        assert board.commit_seq == ring + 5

    def test_run_spanning_the_wrap_commits_in_two_calls(self):
        ring = 32
        board = OrderingBoard(ring, RMW)
        for seq in range(ring - 4):
            board.mark_done(seq)
        board.commit()
        # Mark a run crossing the wrap: 28..31 then 32..35.
        for seq in range(ring - 4, ring + 4):
            board.mark_done(seq)
        count, _cost = board.commit()
        assert count == 8  # the loop follows the run across the wrap
        assert board.commit_seq == ring + 4

    def test_many_laps_stay_consistent(self):
        ring = 32
        board = OrderingBoard(ring, RMW)
        for lap in range(8):
            base = lap * ring
            for offset in (1, 0, 3, 2):  # small out-of-order shuffle
                for seq in range(base + offset, base + ring, 4):
                    board.mark_done(seq)
            count, _cost = board.commit()
            assert count == ring
        assert board.commit_seq == 8 * ring
        assert board.pending == 0


class TestCostAsymmetry:
    """The RMW instructions exist to make ordering cheap."""

    def _total_cost(self, mode, frames=64):
        board = OrderingBoard(128, mode)
        instructions = 0.0
        accesses = 0.0
        for seq in range(frames):
            cost = board.mark_done(seq)
            instructions += cost.instructions
            accesses += cost.loads + cost.stores
        _count, cost = board.commit()
        instructions += cost.instructions
        accesses += cost.loads + cost.stores
        return instructions, accesses

    def test_rmw_marks_cheaper(self):
        sw_mark = OrderingBoard(64, SW).mark_done(0)
        rmw_mark = OrderingBoard(64, RMW).mark_done(0)
        assert rmw_mark.instructions < sw_mark.instructions
        assert (rmw_mark.loads + rmw_mark.stores) < (sw_mark.loads + sw_mark.stores)

    def test_rmw_commit_scales_per_word_not_per_frame(self):
        sw_board = OrderingBoard(128, SW)
        rmw_board = OrderingBoard(128, RMW)
        for seq in range(64):
            sw_board.mark_done(seq)
            rmw_board.mark_done(seq)
        _c, sw_cost = sw_board.commit()
        _c, rmw_cost = rmw_board.commit()
        # 64 frames: software pays ~64 loop trips, RMW pays ~3 updates.
        assert rmw_cost.instructions < sw_cost.instructions / 5

    def test_overall_reduction_exceeds_half(self):
        sw_instructions, sw_accesses = self._total_cost(SW)
        rmw_instructions, rmw_accesses = self._total_cost(RMW)
        assert rmw_instructions < 0.5 * sw_instructions
        assert rmw_accesses < 0.5 * sw_accesses

    def test_hw_pointer_board_costs_more_in_software(self):
        plain = OrderingBoard(64, SW)
        hw = OrderingBoard(64, SW, hw_pointer=True)
        for seq in range(8):
            plain.mark_done(seq)
            hw.mark_done(seq)
        _c, plain_cost = plain.commit()
        _c, hw_cost = hw.commit()
        assert hw_cost.instructions > plain_cost.instructions


class TestCommitCost:
    """A commit's cost is the base, one per-step term per loop trip
    (per frame in software, per examined word with RMW) and the pointer
    update when anything committed: the repeated ``+`` of the module's
    constants, equal bit for bit."""

    RING = 64

    @pytest.mark.parametrize("mode", [SW, RMW])
    @pytest.mark.parametrize("hw_pointer", [False, True])
    @pytest.mark.parametrize("start", [0, 7])
    def test_cost_equals_repeated_sum(self, mode, hw_pointer, start):
        for frames in range(self.RING + 1):
            board = OrderingBoard(self.RING, mode, hw_pointer=hw_pointer)
            for seq in range(start):
                board.mark_done(seq)
            board.commit()
            for seq in range(start, start + frames):
                board.mark_done(seq)
            count, cost = board.commit()
            assert count == frames
            if mode is RMW:
                base, step = ordering._RMW_COMMIT_BASE, ordering._RMW_COMMIT_PER_WORD
                # Every word the run touches, then the word whose next
                # bit is clear.
                steps = len({seq // 32 for seq in range(start, start + frames)}) + 1
            else:
                base = ordering._SW_COMMIT_BASE
                step = (ordering._SW_COMMIT_PER_FRAME_HW if hw_pointer
                        else ordering._SW_COMMIT_PER_FRAME)
                steps = frames
            expected = base
            for _ in range(steps):
                expected = expected + step
            if frames:
                expected = expected + ordering._POINTER_UPDATE
            assert cost == expected, (frames, cost, expected)


# ----------------------------------------------------------------------
# Integer-word board vs the Memory-backed board it replaced
# ----------------------------------------------------------------------
class _MemoryBoard:
    """The ordering board as it was before its bitmap became Python-int
    words: a byte-addressed ISA :class:`Memory`, one ``setb`` per mark,
    a per-bit ``update`` loop per word (RMW) and a per-frame
    load/test/clear/store scan (software)."""

    def __init__(self, ring_size, mode, hw_pointer=False):
        self.ring_size = ring_size
        self.mode = mode
        self._bitmap = Memory(ring_size // 8)
        self.commit_seq = 0
        self.marked = 0
        self.committed = 0
        self.commit_calls = 0
        self.skipped = 0
        if mode is OrderingMode.RMW:
            self._base, self._step = ordering._RMW_COMMIT_BASE, ordering._RMW_COMMIT_PER_WORD
        else:
            self._base = ordering._SW_COMMIT_BASE
            self._step = (ordering._SW_COMMIT_PER_FRAME_HW if hw_pointer
                          else ordering._SW_COMMIT_PER_FRAME)

    def mark_done(self, seq):
        if seq < self.commit_seq:
            raise ValueError(f"sequence {seq} already committed")
        if seq >= self.commit_seq + self.ring_size:
            raise ValueError(
                f"sequence {seq} would lap the {self.ring_size}-entry ring "
                f"(commit pointer at {self.commit_seq})"
            )
        apply_setb(self._bitmap, 0, seq % self.ring_size)
        self.marked += 1
        return ordering._SW_MARK if self.mode is OrderingMode.SOFTWARE else ordering._RMW_MARK

    def skip(self, seq):
        cost = self.mark_done(seq)
        self.marked -= 1
        self.skipped += 1
        return cost

    def is_marked(self, seq):
        index = seq % self.ring_size
        word = self._bitmap.load_word(4 * (index // 32))
        return bool(word & (1 << (index % 32)))

    def _update(self, last):
        start = last + 1
        address = 4 * (start // 32)
        word = self._bitmap.load_word(address)
        bit = start % 32
        count = 0
        while bit + count < 32 and word & (1 << (bit + count)):
            count += 1
        if count == 0:
            return last
        self._bitmap.store_word(address, word & ~(((1 << count) - 1) << bit))
        return last + count

    def commit(self):
        self.commit_calls += 1
        total = 0
        if self.mode is OrderingMode.RMW:
            words = 0
            while True:
                last = self.commit_seq % self.ring_size - 1
                progress = self._update(last) - last
                words += 1
                if progress <= 0:
                    break
                self.commit_seq += progress
                total += progress
            steps = words
        else:
            while self.is_marked(self.commit_seq):
                index = self.commit_seq % self.ring_size
                address = 4 * (index // 32)
                word = self._bitmap.load_word(address)
                self._bitmap.store_word(address, word & ~(1 << (index % 32)))
                self.commit_seq += 1
                total += 1
            steps = total
        self.committed += total
        return total, ordering._commit_cost(self._base, self._step, steps, total > 0)

    @property
    def pending(self):
        return sum(
            1
            for seq in range(self.commit_seq, self.commit_seq + self.ring_size)
            if self.is_marked(seq)
        )


@st.composite
def board_scripts(draw):
    ring = draw(st.sampled_from([32, 64, 1024]))
    mode = draw(st.sampled_from([SW, RMW]))
    hw_pointer = draw(st.booleans())
    # Offsets from the commit pointer: mostly near it (runs that cross
    # words and wrap the ring), some past either end of the window.
    offset = st.one_of(st.integers(0, 40), st.integers(-3, ring + 2))
    ops = draw(st.lists(
        st.one_of(
            st.tuples(st.just("mark"), offset),
            st.tuples(st.just("skip"), offset),
            st.tuples(st.just("run"), offset, st.integers(1, 70)),
            st.tuples(st.just("commit")),
        ),
        max_size=60,
    ))
    return ring, mode, hw_pointer, ops


def _step(board, op, seq):
    try:
        return getattr(board, op)(seq)
    except ValueError as error:
        return ("error", str(error))


class TestBoardDifferential:
    @given(board_scripts())
    @settings(max_examples=300, deadline=None)
    def test_matches_memory_board(self, script):
        ring, mode, hw_pointer, ops = script
        board = OrderingBoard(ring, mode, hw_pointer=hw_pointer)
        reference = _MemoryBoard(ring, mode, hw_pointer=hw_pointer)
        for op in ops:
            if op[0] == "commit":
                assert board.commit() == reference.commit()
            else:
                first = reference.commit_seq + op[1]
                count = op[2] if op[0] == "run" else 1
                name = "skip" if op[0] == "skip" else "mark_done"
                for seq in range(first, first + count):
                    assert _step(board, name, seq) == _step(reference, name, seq)
            for attr in ("commit_seq", "marked", "committed", "skipped", "commit_calls"):
                assert getattr(board, attr) == getattr(reference, attr), attr
        assert board.pending == reference.pending
        window = range(board.commit_seq - 2, board.commit_seq + ring + 2)
        assert [board.is_marked(s) for s in window] == [reference.is_marked(s) for s in window]
