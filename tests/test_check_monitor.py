"""InvariantMonitor shadow-state lifetime: the id-reuse staleness fix.

The monitor keys shadow state (board commit pointers, ring descriptor
counts, lock grant fronts) by ``id(obj)``.  CPython ``id()`` values are
only unique among *live* objects: once a watched object is garbage
collected, its id can be handed to a replacement object, which would
then inherit the dead object's shadow and trip a phantom violation.
The fix pins a strong reference to every identity-keyed object in
``InvariantMonitor._pins``.

``TestUnpinnedMutation`` is the mutation test referenced from
``repro/check/monitor.py``: it disables the pin and demonstrates the
pre-fix failure, proving the pin is load-bearing.
"""

import gc

import pytest

from repro.check.monitor import InvariantMonitor, InvariantViolation
from repro.host.rss import HostQueueModel, RssSpec
from repro.sim import Simulator


class _FakeBoard:
    """Duck-typed OrderingBoard: just what ``_board()`` reads."""

    def __init__(self, name, commit_seq=0, ring_size=8):
        self.name = name
        self.commit_seq = commit_seq
        self.ring_size = ring_size


def _commit_one(monitor, board):
    monitor.board_marked(board, board.commit_seq)
    old = board.commit_seq
    board.commit_seq += 1
    monitor.board_committed(board, old, board.commit_seq, 1)


def _churn_until_id_reuse(dead_id, attempts=1000):
    """Allocate boards until the allocator hands back ``dead_id``.

    CPython returns a freed object's slot to the next same-size
    allocation, so when the dead board really was collected this hits
    on the first attempt; a pinned (still-referenced) board's id is
    never handed out.
    """
    for _ in range(attempts):
        replacement = _FakeBoard("replacement")
        if id(replacement) == dead_id:
            return replacement
        del replacement
    return None


class TestShadowPinning:
    def test_board_churn_keeps_shadows_distinct(self):
        # N boards created and dropped against one shared monitor: each
        # must get a fresh shadow (no inherited commit pointers), which
        # only holds because the monitor pins every watched board.
        monitor = InvariantMonitor()
        for round_ in range(32):
            board = _FakeBoard(f"board{round_}")
            _commit_one(monitor, board)
            del board
            gc.collect()
        assert not monitor.violations
        assert len(monitor._pins) == 32  # every dead board stays pinned

    def test_ring_host_churn_keeps_shadows_distinct(self):
        monitor = InvariantMonitor()
        for _ in range(8):
            host = HostQueueModel(
                RssSpec(rings=2, completion_ps=100, interrupt_ps=0),
                sim=Simulator(),
                send_ring_capacity=8, recv_ring_capacity=4,
            )
            host.monitor = monitor
            host.complete_rx(0, 2, now_ps=0)
            host.sim.run()
            del host
            gc.collect()
        assert not monitor.violations

    def test_pin_is_idempotent(self):
        monitor = InvariantMonitor()
        board = _FakeBoard("b")
        _commit_one(monitor, board)
        _commit_one(monitor, board)
        assert list(monitor._pins.values()) == [board]


class TestUnpinnedMutation:
    def test_unpinned_shadow_inherits_dead_board_state(self, monkeypatch):
        # The mutation: neuter the pin and reproduce the pre-fix bug.
        # A watched board dies, the allocator reuses its id for a fresh
        # board, and the monitor misattributes the dead board's shadow
        # — a phantom "already-committed" violation on a brand-new
        # board's very first mark.
        monkeypatch.setattr(
            InvariantMonitor, "_pin", lambda self, obj: None
        )
        monitor = InvariantMonitor()
        board = _FakeBoard("victim")
        _commit_one(monitor, board)  # shadow commit_seq advances to 1
        dead_id = id(board)
        del board
        replacement = _churn_until_id_reuse(dead_id)
        if replacement is None:
            pytest.skip("allocator never reused the id; mutation unprovable")
        with pytest.raises(InvariantViolation, match="already-committed"):
            # seq 0 on a fresh board is legal; the inherited shadow
            # (commit_seq == 1) makes the monitor reject it.
            monitor.board_marked(replacement, 0)

    def test_pinned_shadow_survives_identical_churn(self):
        # Control arm: the exact same churn with the pin active cannot
        # reuse the id (the dead board is still referenced), so the
        # replacement gets a fresh shadow and the same mark is legal.
        monitor = InvariantMonitor()
        board = _FakeBoard("victim")
        _commit_one(monitor, board)
        dead_id = id(board)
        del board
        replacement = _churn_until_id_reuse(dead_id, attempts=64)
        assert replacement is None  # the pin keeps the id occupied
        fresh = _FakeBoard("fresh")
        monitor.board_marked(fresh, 0)
        assert not monitor.violations
