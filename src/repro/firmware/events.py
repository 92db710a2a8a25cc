"""Event mechanisms: the Tigon-II event register and the paper's
distributed event queue.

Task-level parallel firmware (Section 3.2) dispatches off a hardware
*event register*: a bit vector with one bit per event type.  While any
processor is handling a type, no other processor may handle that same
type — the register only says "DMAs are ready", not *which* DMAs — so
parallelism is capped at the number of event types with pending work.

Frame-level parallel firmware (Section 3.3) instead inspects
hardware-maintained progress pointers, carves the new work into *event
structures* (bundles of frames needing one kind of processing), and
pushes them on a software event queue that any idle core may pop.  Two
instances of the same handler can then run concurrently on different
bundles, which is what lets many slow cores fill a 10 Gb/s pipe.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, Dict, List, Mapping, Optional

from repro.check.nullmonitor import NULL_MONITOR


class EventKind(enum.Enum):
    """Processing steps from Figures 1 and 2, as event types."""

    FETCH_SEND_BD = "fetch_send_bd"
    SEND_FRAME = "send_frame"
    SEND_COMPLETE = "send_complete"
    FETCH_RECV_BD = "fetch_recv_bd"
    RECV_FRAME = "recv_frame"
    RECV_COMPLETE = "recv_complete"
    SW_RETRY = "sw_retry"


class FrameEvent:
    """One bundle of work units (the paper's 'event data structure').

    ``first_seq``/``count`` identify the contiguous frame range this
    event covers; handlers for pointer-driven hardware (DMA, MAC) build
    these ranges straight from the progress pointers.  A plain
    ``__slots__`` record: one is built per handler bundle, and nothing
    compares, hashes or prints one.
    """

    __slots__ = ("kind", "first_seq", "count", "payload", "retries")

    def __init__(
        self,
        kind: EventKind,
        first_seq: int = 0,
        count: int = 0,
        payload: Optional[object] = None,
        retries: int = 0,
    ) -> None:
        if count < 0:
            raise ValueError(f"event frame count must be non-negative, got {count}")
        self.kind = kind
        self.first_seq = first_seq
        self.count = count
        self.payload = payload
        self.retries = retries


class DistributedEventQueue:
    """Software event queue shared by all cores (frame-level model).

    The queue is the firmware's own data structure living in scratchpad
    memory; hardware never touches it.  Besides FIFO pops it supports
    *retry* requeueing: a handler that runs out of a NIC resource
    (SDRAM buffer space, host buffers) re-enqueues its event to be
    retried later (Section 3.3).
    """

    def __init__(self, max_depth: int = 512) -> None:
        if max_depth < 1:
            raise ValueError("queue depth must be positive")
        self.max_depth = max_depth
        #: The queued events, oldest first.
        self.events: Deque[FrameEvent] = deque()
        self.enqueues = 0
        self.dequeues = 0
        self.retries = 0
        self.high_water = 0
        #: Invariant monitor (null by default; see ``repro.check``).
        self.monitor = NULL_MONITOR

    def __len__(self) -> int:
        return len(self.events)

    @property
    def empty(self) -> bool:
        return not self.events

    @property
    def is_full(self) -> bool:
        """Whether a :meth:`push` right now would overflow the queue."""
        return len(self.events) >= self.max_depth

    def all_claimed(self, claims: Mapping[EventKind, bool]) -> bool:
        """Whether every queued event's kind is currently claimed.

        Task-level dispatch uses this to decide that a core has nothing
        runnable: popping would only cycle claimed events through
        ``push_retry``, reordering them and spinning the scheduler
        without progress.  Returns ``True`` for an empty queue.
        """
        return all(claims[event.kind] for event in self.events)

    def push(self, event: FrameEvent) -> None:
        if len(self.events) >= self.max_depth:
            raise OverflowError(
                f"event queue overflow at depth {self.max_depth}; "
                "the firmware sizes the queue for worst-case in-flight frames"
            )
        self.events.append(event)
        self.enqueues += 1
        self.high_water = max(self.high_water, len(self.events))
        if self.monitor.enabled:
            self.monitor.queue_pushed(self)

    def push_retry(self, event: FrameEvent) -> None:
        event.retries += 1
        self.retries += 1
        self.push(event)

    def pop(self) -> Optional[FrameEvent]:
        if not self.events:
            return None
        self.dequeues += 1
        event = self.events.popleft()
        if self.monitor.enabled:
            self.monitor.queue_popped(self)
        return event


class EventRegister:
    """Hardware event register (task-level baseline, Section 3.2).

    One bit per :class:`EventKind`.  A core *claims* a set bit to run
    its handler; while claimed, no other core may process that type.
    The hardware keeps the bit set as long as work of that type remains.
    """

    def __init__(self) -> None:
        self._pending: Dict[EventKind, bool] = {kind: False for kind in EventKind}
        self._claimed_by: Dict[EventKind, Optional[int]] = {
            kind: None for kind in EventKind
        }
        self.set_operations = 0
        self.blocked_claims = 0
        #: Invariant monitor (null by default; see ``repro.check``).
        self.monitor = NULL_MONITOR

    def raise_event(self, kind: EventKind) -> None:
        """Hardware (or firmware) signals that work of ``kind`` exists."""
        self._pending[kind] = True
        self.set_operations += 1

    def clear_event(self, kind: EventKind) -> None:
        """Handler signals that no work of ``kind`` remains."""
        self._pending[kind] = False

    def pending(self, kind: EventKind) -> bool:
        return self._pending[kind]

    def claim(self, kind: EventKind, core_id: int) -> bool:
        """Try to start handling ``kind`` on ``core_id``.

        Fails when the bit is clear or another core already runs this
        handler — the serialization the paper identifies as the
        task-level model's scalability limit.
        """
        if not self._pending[kind]:
            return False
        holder = self._claimed_by[kind]
        if holder is not None and holder != core_id:
            self.blocked_claims += 1
            return False
        self._claimed_by[kind] = core_id
        if self.monitor.enabled:
            self.monitor.register_claimed(self, kind, core_id)
        return True

    def release(self, kind: EventKind, core_id: int) -> None:
        if self._claimed_by[kind] != core_id:
            raise RuntimeError(
                f"core {core_id} releasing {kind} held by {self._claimed_by[kind]}"
            )
        if self.monitor.enabled:
            self.monitor.register_released(self, kind, core_id)
        self._claimed_by[kind] = None

    def claimable_kinds(self, core_id: int) -> List[EventKind]:
        """Event types this core could start handling right now."""
        kinds = []
        for kind in EventKind:
            if self._pending[kind]:
                holder = self._claimed_by[kind]
                if holder is None or holder == core_id:
                    kinds.append(kind)
        return kinds
