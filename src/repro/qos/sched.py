"""Pluggable per-port schedulers draining per-class queues.

One :class:`Scheduler` instance serves one switch output port (ports
do not share round/deficit state).  The port's service loop calls
:meth:`Scheduler.select` each time the line goes free; the scheduler
returns the index of the class whose head frame the port must
serialize next (the caller pops it), or ``None`` only when every queue
is empty.  That contract *is* work conservation — the invariant
monitor's ``qos.work_conserving`` check fails any scheduler that
returns ``None`` against a non-empty backlog.

Queue entries expose the frame's wire footprint via a ``frame_bytes``
attribute (DRR is byte-fair, so it needs sizes; strict priority and
WRR ignore them).  All three disciplines are pure integer state
machines: deterministic and interleaving-independent.
"""

from __future__ import annotations

from typing import Deque, List, Optional, Sequence

from repro.qos.spec import SCHEDULER_NAMES, QosSpec

#: Re-exported canonical discipline names (see ``QosSpec.scheduler``).
SCHEDULERS = SCHEDULER_NAMES


class Scheduler:
    """Interface: pick the class whose head frame is served next."""

    name = "scheduler"

    def select(self, queues: Sequence[Deque]) -> Optional[int]:
        """Index of the class to dequeue from, or ``None`` iff all
        queues are empty.  The caller pops exactly the head of the
        returned queue before the next ``select`` call."""
        raise NotImplementedError


class StrictPriorityScheduler(Scheduler):
    """Always serve the most urgent backlogged class.

    Urgency is ``(priority, declaration index)`` ascending, so equal
    priorities break ties deterministically by declaration order.
    Starves lower classes under saturation by design — the guarantee a
    latency-critical lane wants, and the hazard the property tests pin.
    """

    name = "strict"

    def __init__(self, priorities: Sequence[int]) -> None:
        # Class indices pre-sorted by urgency: select is one scan.
        self._order: List[int] = sorted(
            range(len(priorities)), key=lambda i: (priorities[i], i)
        )

    def select(self, queues: Sequence[Deque]) -> Optional[int]:
        for index in self._order:
            if queues[index]:
                return index
        return None


class DrrScheduler(Scheduler):
    """Deficit round robin (Shreedhar & Varghese): byte-fair shares.

    Each round a backlogged class's deficit grows by its quantum; the
    class serves head frames while the head fits the deficit, then the
    pointer moves on.  An emptied class forfeits its deficit (classic
    DRR), so idle classes cannot bank credit.  Fairness bound: over any
    interval where two classes stay backlogged their served bytes per
    quantum differ by less than one max frame (``deficits`` and
    ``rounds`` are exposed so the property tests assert exactly that).
    """

    name = "drr"

    def __init__(self, quanta: Sequence[int]) -> None:
        if any(q < 1 for q in quanta):
            raise ValueError("DRR quanta must be >= 1 byte")
        self.quanta: List[int] = list(quanta)
        self.deficits: List[int] = [0] * len(quanta)
        self.rounds: List[int] = [0] * len(quanta)
        self._pointer = 0
        # True when the pointer just moved onto a class (grant point).
        self._entering = True

    def select(self, queues: Sequence[Deque]) -> Optional[int]:
        backlog = [index for index, queue in enumerate(queues) if queue]
        if not backlog:
            # Idle classes forfeit their deficit between busy periods.
            for index in range(len(self.deficits)):
                self.deficits[index] = 0
            self._entering = True
            return None
        count = len(queues)
        while True:
            index = self._pointer
            queue = queues[index]
            if not queue:
                self.deficits[index] = 0
                self._pointer = (index + 1) % count
                self._entering = True
                continue
            if self._entering:
                self.deficits[index] += self.quanta[index]
                self.rounds[index] += 1
                self._entering = False
            head_bytes = queue[0].frame_bytes
            if head_bytes <= self.deficits[index]:
                self.deficits[index] -= head_bytes
                return index
            self._pointer = (index + 1) % count
            self._entering = True
            # Termination: every full lap adds one quantum (>= 1 byte)
            # to each backlogged class, so some head eventually fits.


class WrrScheduler(Scheduler):
    """Weighted round robin: ``weight`` frames per class per round.

    Frame-fair rather than byte-fair — cheaper state than DRR, the
    classic network-processor discipline when frames are near-uniform
    (Papaefstathiou et al.).
    """

    name = "wrr"

    def __init__(self, weights: Sequence[int]) -> None:
        if any(w < 1 for w in weights):
            raise ValueError("WRR weights must be >= 1 frame")
        self.weights: List[int] = list(weights)
        self.credits: List[int] = [0] * len(weights)
        self._pointer = 0
        self._entering = True

    def select(self, queues: Sequence[Deque]) -> Optional[int]:
        if not any(queues):
            for index in range(len(self.credits)):
                self.credits[index] = 0
            self._entering = True
            return None
        count = len(queues)
        while True:
            index = self._pointer
            queue = queues[index]
            if not queue:
                self.credits[index] = 0
                self._pointer = (index + 1) % count
                self._entering = True
                continue
            if self._entering:
                self.credits[index] = self.weights[index]
                self._entering = False
            if self.credits[index] > 0:
                self.credits[index] -= 1
                return index
            self._pointer = (index + 1) % count
            self._entering = True


def make_scheduler(qos: QosSpec) -> Scheduler:
    """Build one port's scheduler instance from the spec."""
    if qos.scheduler == "strict":
        return StrictPriorityScheduler([tc.priority for tc in qos.classes])
    if qos.scheduler == "drr":
        return DrrScheduler([tc.drr_quantum_bytes for tc in qos.classes])
    if qos.scheduler == "wrr":
        return WrrScheduler([tc.weight for tc in qos.classes])
    raise ValueError(f"unknown scheduler {qos.scheduler!r}")


__all__ = [
    "SCHEDULERS",
    "DrrScheduler",
    "Scheduler",
    "StrictPriorityScheduler",
    "WrrScheduler",
    "make_scheduler",
]
