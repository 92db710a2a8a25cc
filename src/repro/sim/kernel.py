"""Event-driven simulation kernel.

Time is a global integer picosecond counter.  Each :class:`ClockDomain`
maps that global time base onto its own cycle counter, so modules that
logically live in different domains (cores at 166/200 MHz, SDRAM at
500 MHz, the Ethernet bit clock) can interact without rounding drift.

Events scheduled for the same picosecond run in (priority, insertion
order), which gives deterministic simulations — a property the test
suite relies on heavily.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.check.nullmonitor import NULL_MONITOR
from repro.units import cycle_time_ps


def _coerce_delay(value, what: str = "delay_ps"):
    """Normalize a scheduling delay/timestamp to a built-in ``int``.

    Heap keys must stay homogeneous: a float ``delay_ps`` would produce
    a float ``when`` that compares against int keys and then leaks into
    ``now_ps`` the moment the event fires, silently turning every
    downstream timestamp into a float.  Whole-valued floats (and any
    ``__index__``-able integer type, e.g. ``numpy.int64``) are accepted
    and converted; fractional values are rejected loudly.
    """
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
        raise TypeError(
            f"{what} must be a whole number of picoseconds, got {value!r}"
        )
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(
            f"{what} must be an integer picosecond count, got "
            f"{type(value).__name__} {value!r}"
        ) from None


class ClockDomain:
    """A named clock with its own frequency.

    Provides conversions between global picosecond time and local cycle
    counts, and cycle-aligned scheduling helpers.
    """

    def __init__(self, name: str, frequency_hz: float) -> None:
        self.name = name
        self.frequency_hz = frequency_hz
        self.period_ps = cycle_time_ps(frequency_hz)

    def cycles_to_ps(self, cycles: float) -> int:
        """Duration of ``cycles`` clock cycles, in picoseconds.

        Rounding policy: **round half up**.  Costs landing exactly on a
        half picosecond always round to the *later* picosecond, for any
        clock.  Python's built-in ``round`` (banker's rounding, half to
        even) is deliberately not used: it rounds half-cycle costs to
        the nearest even picosecond, so two otherwise-symmetric
        configurations whose costs straddle an odd/even boundary drift
        apart by ±1 ps — an invisible asymmetry.  Durations are
        non-negative, so ``floor(x + 0.5)`` implements the policy
        exactly.
        """
        return math.floor(cycles * self.period_ps + 0.5)

    def ps_to_cycles(self, time_ps: int) -> float:
        """Express a picosecond duration in (fractional) cycles."""
        return time_ps / self.period_ps

    def current_cycle(self, now_ps: int) -> int:
        """Number of full cycles elapsed at global time ``now_ps``."""
        return now_ps // self.period_ps

    def next_edge(self, now_ps: int) -> int:
        """Global time of the next rising edge at or after ``now_ps``."""
        remainder = now_ps % self.period_ps
        if remainder == 0:
            return now_ps
        return now_ps + self.period_ps - remainder

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClockDomain({self.name!r}, {self.frequency_hz / 1e6:.1f} MHz)"


class Simulator:
    """The event loop.

    Usage::

        sim = Simulator()
        core_clk = sim.add_clock("core", mhz(166))
        sim.schedule(core_clk.cycles_to_ps(10), lambda: ...)
        sim.run(until_ps=seconds_to_ps(1e-3))

    The queue is a heap of ``[when_ps, priority, ticket, callback]``
    entries.  Tickets are unique, so entries order by (time, priority,
    insertion) and the callback is never compared.  Each entry doubles
    as its event's cancel handle, after the lazy-deletion recipe in the
    :mod:`heapq` documentation: cancelling (or firing) an event sets its
    callback to ``None``, and a cancelled entry stays in the heap as a
    *ghost* until it is popped or compacted away.
    """

    def __init__(self) -> None:
        self.now_ps: int = 0
        self.clocks: Dict[str, ClockDomain] = {}
        self._queue: List[list] = []
        self._tickets = itertools.count()
        self._ghosts = 0  # cancelled entries still in the heap
        self._stopped = False
        self.events_processed = 0
        self._profiler = None  # duck-typed: .record(callback, wall_seconds)
        #: Invariant monitor (null by default; see ``repro.check``).
        self.monitor = NULL_MONITOR

    # ------------------------------------------------------------------
    # Clock management
    # ------------------------------------------------------------------
    def add_clock(self, name: str, frequency_hz: float) -> ClockDomain:
        """Register (or fetch, if identical) a clock domain."""
        existing = self.clocks.get(name)
        if existing is not None:
            if existing.frequency_hz != frequency_hz:
                raise ValueError(
                    f"clock {name!r} already registered at "
                    f"{existing.frequency_hz} Hz, not {frequency_hz} Hz"
                )
            return existing
        domain = ClockDomain(name, frequency_hz)
        self.clocks[name] = domain
        return domain

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay_ps: int,
        callback: Callable[[], None],
        priority: int = 0,
    ) -> list:
        """Run ``callback`` after ``delay_ps`` picoseconds.

        Lower ``priority`` runs first among events at the same instant.
        ``delay_ps`` must be a whole number of picoseconds: whole-valued
        floats and ``__index__``-able integers (e.g. ``numpy.int64``)
        are normalized to ``int`` at this boundary, fractional values
        raise ``TypeError`` (see :func:`_coerce_delay`).

        Returns the event's heap entry, the handle :meth:`cancel`
        takes.  Treat it as opaque: the kernel mutates it when the
        event fires or is cancelled.
        """
        if type(delay_ps) is not int:
            delay_ps = _coerce_delay(delay_ps)
        if delay_ps < 0:
            raise ValueError(f"cannot schedule in the past (delay {delay_ps})")
        if callback is None:
            # ``None`` marks a dead entry; queueing it would corrupt the
            # ghost count behind ``pending_events``.
            raise TypeError("callback must be callable, got None")
        ticket = next(self._tickets)
        when = self.now_ps + delay_ps
        entry = [when, priority, ticket, callback]
        heapq.heappush(self._queue, entry)
        if self.monitor.enabled:
            self.monitor.event_scheduled(ticket, when, self.now_ps)
        return entry

    def schedule_at(
        self,
        time_ps: int,
        callback: Callable[[], None],
        priority: int = 0,
    ) -> list:
        """Run ``callback`` at absolute global time ``time_ps``."""
        return self.schedule(time_ps - self.now_ps, callback, priority)

    def schedule_cycles(
        self,
        clock: ClockDomain,
        cycles: float,
        callback: Callable[[], None],
        priority: int = 0,
    ) -> list:
        """Run ``callback`` after ``cycles`` cycles of ``clock``."""
        return self.schedule(clock.cycles_to_ps(cycles), callback, priority)

    def cancel(self, event: list) -> None:
        """Cancel a pending event.  Cancelling a fired event is a no-op.

        ``event`` is the entry :meth:`schedule` returned.  Cancelling
        sets its callback to ``None`` and leaves it in the heap as a
        ghost, which costs O(1); :meth:`run` and :meth:`peek_next_time`
        drop ghosts when they reach the head.  A fired entry's callback
        is ``None`` too, so cancelling it again, or after it fired, does
        nothing.
        """
        if event[3] is None:
            return
        event[3] = None
        self._ghosts += 1
        if self.monitor.enabled:
            self.monitor.event_cancelled(event[2])
        # Opportunistic ghost compaction: once cancelled entries
        # dominate the heap, one O(n) rebuild reclaims them all — the
        # same work ``peek_next_time``'s pruning loop does at the head,
        # applied to the whole queue.  Amortized O(1) per cancel, and it
        # keeps cancel-heavy runs from dragging a heap full of dead
        # weight through every push and pop.
        if self._ghosts > 64 and 2 * self._ghosts > len(self._queue):
            self._compact_ghosts()

    def _compact_ghosts(self) -> None:
        """Drop every cancelled entry from the heap in one pass.

        Mutates ``_queue`` in place (slice assignment) so any local
        alias held by a running ``run()`` loop stays valid.
        """
        queue = self._queue
        if self.monitor.enabled:
            for entry in queue:
                if entry[3] is None:
                    self.monitor.event_discarded(entry[2])
        queue[:] = [entry for entry in queue if entry[3] is not None]
        heapq.heapify(queue)
        self._ghosts = 0

    def stop(self) -> None:
        """Stop the event loop after the current callback returns."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------
    def attach_profiler(self, profiler) -> None:
        """Attribute each callback's host wall time to ``profiler``.

        ``profiler`` needs one method, ``record(callback, wall_seconds)``
        (see :class:`repro.obs.profiler.SimProfiler`).  Profiling never
        alters simulated time or event order — only host-side cost.
        Pass ``None`` to detach.
        """
        self._profiler = profiler

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until_ps: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Drain the event queue.

        Stops when the queue empties, when simulated time would pass
        ``until_ps``, when ``max_events`` (a whole number) callbacks have
        run, or when a callback calls :meth:`stop`.  Returns the number
        of events processed during this call; :attr:`events_processed`
        adds them when the call returns or raises.
        """
        self._stopped = False
        queue = self._queue
        if max_events is not None and max_events <= 0 and queue:
            return 0
        # Fired callbacks at which to stop; -1 never matches.
        budget = -1 if max_events is None else max_events
        limit = math.inf if until_ps is None else until_ps
        fired = 0
        profiler = self._profiler
        monitor = self.monitor
        heappop = heapq.heappop
        try:
            while queue:
                # Pop first: keys are unique, so pushing back an entry
                # that is not due leaves the pop order as it was.
                entry = heappop(queue)
                when = entry[0]
                if when > limit:
                    heapq.heappush(queue, entry)
                    # Clamp: ``until_ps < now_ps`` must not move
                    # simulated time backwards.
                    if self.now_ps < until_ps:
                        self.now_ps = until_ps
                    break
                callback = entry[3]
                if callback is None:
                    self._ghosts -= 1
                    if monitor.enabled:
                        monitor.event_discarded(entry[2])
                    continue
                entry[3] = None  # fired: a later cancel() is a no-op
                if monitor.enabled:
                    monitor.event_fired(entry[2], when, self.now_ps)
                self.now_ps = when
                if profiler is None:
                    callback()
                else:
                    started = perf_counter()
                    callback()
                    profiler.record(callback, perf_counter() - started)
                fired += 1
                # A drained queue falls through to the clause below.
                if (fired == budget or self._stopped) and queue:
                    break
            else:
                # Queue drained completely.
                if until_ps is not None and self.now_ps < until_ps:
                    self.now_ps = until_ps
        finally:
            self.events_processed += fired
        return fired

    def peek_next_time(self) -> Optional[int]:
        """Global time of the next pending event, or None if idle."""
        queue = self._queue
        while queue and queue[0][3] is None:
            ghost = heapq.heappop(queue)
            self._ghosts -= 1
            if self.monitor.enabled:
                self.monitor.event_discarded(ghost[2])
        return queue[0][0] if queue else None

    @property
    def pending_events(self) -> int:
        """Number of *live* events still queued — O(1).

        Cancelled events linger in the heap as ghosts until their pop
        (or a compaction); counting them would make observability
        reports overstate queue depth, so they are excluded.  The count
        is an exact subtraction rather than a scan: an entry's callback
        is ``None`` exactly when it was cancelled or has fired, a fired
        entry is never in the heap, and ``_ghosts`` moves with every
        cancel, ghost pop and compaction.
        """
        return len(self._queue) - self._ghosts
