"""Total frame ordering over out-of-order frame processing.

Concurrent event processing completes frames out of order, but TCP
performance requires in-order delivery (Section 3.3).  The firmware
therefore keeps, per direction, a *status bitmap* indexed by frame
sequence number modulo the in-flight ring: a handler that finishes a
frame's stage sets that frame's bit, and a commit step advances the
hardware-visible pointer across the longest run of consecutive set bits
starting at the current commit point.

Two implementations of the same contract:

``OrderingMode.SOFTWARE``
    Lock-based: acquire the ordering lock, read-modify-write the flag
    word to set a bit, and loop load/test/clear/store to harvest
    consecutive bits.  The paper calls out these "synchronized, looping
    memory accesses" as a significant overhead.

``OrderingMode.RMW``
    The paper's ``setb`` instruction sets a bit in one atomic slot and
    ``update`` harvests an entire word's run of consecutive bits in one
    atomic slot, with no lock at all.

Both keep the bitmap as ``ring_size // 32`` Python-int words, set a
slot's bit with the ``setb`` word operation, and harvest a word's run of
set bits through :func:`~repro.isa.rmw.update_run`, the closed form
the ISA's ``update`` uses too, so the functional behaviour here and in
assembly firmware kernels cannot diverge.  Each operation returns an
:class:`OrderingCost` with the instruction/load/store counts the
operation would execute on a core, which is what the throughput
simulator charges.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.check.nullmonitor import NULL_MONITOR
from repro.cpu.costmodel import OpProfile
from repro.isa.rmw import update_run


class OrderingMode(enum.Enum):
    SOFTWARE = "software-only"
    RMW = "rmw-enhanced"


@dataclass(frozen=True)
class OrderingCost:
    """Core-side cost of one ordering operation."""

    instructions: float
    loads: float
    stores: float

    # Ordering code has the firmware's default branch and load-use mix.
    # With these two, an OrderingCost carries every attribute
    # CoreCostModel.cost reads from an OpProfile, so it is charged as is.
    taken_branch_fraction = OpProfile.taken_branch_fraction
    load_use_fraction = OpProfile.load_use_fraction

    def __add__(self, other: "OrderingCost") -> "OrderingCost":
        return OrderingCost(
            self.instructions + other.instructions,
            self.loads + other.loads,
            self.stores + other.stores,
        )

ZERO_COST = OrderingCost(0.0, 0.0, 0.0)

# Software path: setting a status bit means computing the word/bit
# index, then a load/or/store read-modify-write — performed inside the
# ordering lock's critical section (the caller charges the lock).
# Each committed (scanned) frame is a load/test/clear/store loop trip,
# and every commit attempt pays a base scan (plus the final failed
# check) even when nothing commits — the "synchronized, looping memory
# accesses" of Section 3.3.
_SW_MARK = OrderingCost(instructions=11.0, loads=4.0, stores=1.0)
_SW_COMMIT_BASE = OrderingCost(instructions=12.0, loads=5.0, stores=0.0)
_SW_COMMIT_PER_FRAME = OrderingCost(instructions=9.0, loads=3.0, stores=1.0)
# Boards that drive a *hardware* pointer (the MAC consumer pointer)
# need a validated consecutive range before the pointer may move: the
# software path scans the flags once to establish the range and a
# second time to clear it (Section 3.3's range-check-then-update).
_SW_COMMIT_PER_FRAME_HW = OrderingCost(instructions=12.0, loads=5.0, stores=1.0)
# RMW path: index computation + one `setb`; commits are one `update`
# per aligned word examined, lock-free.
_RMW_MARK = OrderingCost(instructions=4.0, loads=0.0, stores=1.0)
_RMW_COMMIT_BASE = OrderingCost(instructions=4.0, loads=0.0, stores=0.0)
_RMW_COMMIT_PER_WORD = OrderingCost(instructions=3.0, loads=1.0, stores=0.0)
# Advancing the hardware pointer once something committed (both modes).
_POINTER_UPDATE = OrderingCost(instructions=3.0, loads=0.0, stores=1.0)


def _commit_cost(
    base: OrderingCost, step: OrderingCost, steps: int, committed: bool
) -> OrderingCost:
    """``base`` plus ``steps`` loop trips of ``step``, plus the pointer
    update when anything committed, built as one record.  Every term is
    a small whole number, so each product equals the repeated sum bit
    for bit."""
    pointer = _POINTER_UPDATE if committed else ZERO_COST
    return OrderingCost(
        base.instructions + steps * step.instructions + pointer.instructions,
        base.loads + steps * step.loads + pointer.loads,
        base.stores + steps * step.stores + pointer.stores,
    )


class OrderingBoard:
    """One direction's status bitmap + commit pointer."""

    def __init__(
        self,
        ring_size: int,
        mode: OrderingMode,
        hw_pointer: bool = False,
        name: str = "board",
    ) -> None:
        if ring_size < 32 or ring_size % 32:
            raise ValueError(
                f"ring size must be a positive multiple of 32, got {ring_size}"
            )
        self.ring_size = ring_size
        self.mode = mode
        #: Whether mark/commit must run under the ordering lock.  A
        #: field, not a property: ``mode`` is fixed at construction.
        self.requires_lock = mode is OrderingMode.SOFTWARE
        self.hw_pointer = hw_pointer
        self.name = name
        #: Invariant monitor (null by default; see ``repro.check``).
        self.monitor = NULL_MONITOR
        #: The status bitmap, one int per 32-slot word (slot ``i`` is
        #: bit ``i % 32`` of word ``i // 32``).
        self._words = [0] * (ring_size // 32)
        self.commit_seq = 0          # next sequence number to commit
        self.marked = 0
        self.committed = 0
        self.commit_calls = 0
        self.skipped = 0             # holes resequenced past (fault recovery)
        if mode is OrderingMode.RMW:
            self._commit_base, self._commit_step = _RMW_COMMIT_BASE, _RMW_COMMIT_PER_WORD
        else:
            self._commit_base = _SW_COMMIT_BASE
            self._commit_step = _SW_COMMIT_PER_FRAME_HW if hw_pointer else _SW_COMMIT_PER_FRAME
        # One record per commit shape (loop trips, committed), built on
        # first use: a commit builds no record, and the simulator's
        # charge table finds the same object again.
        self._commit_costs: Dict[Tuple[int, bool], OrderingCost] = {}

    # ------------------------------------------------------------------
    def mark_done(self, seq: int) -> OrderingCost:
        """Record that ``seq`` finished its stage (still uncommitted)."""
        if seq < self.commit_seq:
            raise ValueError(f"sequence {seq} already committed")
        if seq >= self.commit_seq + self.ring_size:
            raise ValueError(
                f"sequence {seq} would lap the {self.ring_size}-entry ring "
                f"(commit pointer at {self.commit_seq})"
            )
        index = seq % self.ring_size
        self._words[index >> 5] |= 1 << (index & 31)
        self.marked += 1
        if self.monitor.enabled:
            self.monitor.board_marked(self, seq)
        return _SW_MARK if self.mode is OrderingMode.SOFTWARE else _RMW_MARK

    def skip(self, seq: int) -> OrderingCost:
        """Resequence past ``seq`` without a frame ever completing.

        Fault recovery: when the MAC drops a corrupt frame its sequence
        number is already consumed, so the firmware marks the slot done
        anyway — a *hole* — and the normal commit scan advances the
        pointer across it instead of wedging forever at the gap.  Costs
        the same as a mark (it is the same bitmap write); the board
        counts it under :attr:`skipped` rather than :attr:`marked` so
        goodput accounting can tell holes from real frames.
        """
        cost = self.mark_done(seq)
        self.marked -= 1
        self.skipped += 1
        if self.monitor.enabled:
            self.monitor.board_skipped(self, seq)
        return cost

    def is_marked(self, seq: int) -> bool:
        index = seq % self.ring_size
        return bool(self._words[index >> 5] >> (index & 31) & 1)

    # ------------------------------------------------------------------
    def commit(self) -> tuple:
        """Advance the commit pointer across consecutive done frames.

        Returns ``(newly_committed_count, OrderingCost)``.
        """
        self.commit_calls += 1
        old_seq = self.commit_seq
        if self.mode is OrderingMode.RMW:
            result = self._commit_rmw()
        else:
            result = self._commit_software()
        if self.monitor.enabled:
            self.monitor.board_committed(self, old_seq, self.commit_seq, result[0])
        return result

    def _harvest(self) -> Tuple[int, int]:
        """Clear the run of set bits at the commit pointer and move the
        pointer past it; returns ``(frames, words examined)``.

        One ``update`` per word: it clears the word's run from the
        pointer's bit and stops at the word boundary, so the loop lets a
        run continue into the next word (or wrap the ring), and the word
        that ends the run is examined too.
        """
        words = self._words
        ring = self.ring_size
        seq = self.commit_seq
        examined = 0
        while True:
            index = seq % ring
            bit = index & 31
            word = words[index >> 5]
            run = update_run(word, bit)
            examined += 1
            if not run:
                break
            words[index >> 5] = word & ~(((1 << run) - 1) << bit)
            seq += run
        total = seq - self.commit_seq
        self.commit_seq = seq
        self.committed += total
        return total, examined

    def _commit_rmw(self) -> tuple:
        # One `update` loop trip per word examined.
        total, examined = self._harvest()
        return total, self._commit_record(examined, total > 0)

    def _commit_software(self) -> tuple:
        # The lock-based scan pays one load/test/clear/store trip per
        # committed frame.
        total, _examined = self._harvest()
        return total, self._commit_record(total, total > 0)

    def _commit_record(self, steps: int, committed: bool) -> OrderingCost:
        key = (steps, committed)
        cost = self._commit_costs.get(key)
        if cost is None:
            cost = self._commit_costs[key] = _commit_cost(
                self._commit_base, self._commit_step, steps, committed
            )
        return cost

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Marked-but-uncommitted frames (an O(ring / 32) debugging helper).

        Scans the *whole* ring: frames marked behind a gap (done out of
        order, waiting on an earlier frame) count too.  An earlier
        version stopped at the first unmarked slot and so undercounted
        exactly the frames this helper exists to expose.
        """
        return sum(bin(word).count("1") for word in self._words)
