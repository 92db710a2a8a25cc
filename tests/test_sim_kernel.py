"""Event kernel: scheduling order, clock domains, cancellation."""

import heapq
from time import perf_counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import ClockDomain, Simulator
from repro.units import mhz


class TestClockDomain:
    def test_period(self):
        clock = ClockDomain("core", mhz(200))
        assert clock.period_ps == 5000

    def test_cycles_to_ps(self):
        clock = ClockDomain("core", mhz(200))
        assert clock.cycles_to_ps(3) == 15000

    def test_fractional_cycles(self):
        clock = ClockDomain("core", mhz(200))
        assert clock.cycles_to_ps(2.5) == 12500

    def test_ps_to_cycles(self):
        clock = ClockDomain("core", mhz(200))
        assert clock.ps_to_cycles(15000) == pytest.approx(3.0)

    def test_current_cycle(self):
        clock = ClockDomain("core", mhz(200))
        assert clock.current_cycle(14999) == 2
        assert clock.current_cycle(15000) == 3

    def test_next_edge_on_edge(self):
        clock = ClockDomain("core", mhz(200))
        assert clock.next_edge(10000) == 10000

    def test_next_edge_between(self):
        clock = ClockDomain("core", mhz(200))
        assert clock.next_edge(10001) == 15000

    def test_cycles_to_ps_rounds_half_up(self):
        # Regression: round() uses banker's rounding, which maps 2.5 to
        # 2 — a half-quantum that silently shortens every other odd
        # half-cycle charge.  The policy is round-half-up.
        clock = ClockDomain("core", mhz(200))  # 5000 ps period
        assert clock.cycles_to_ps(0.0005) == 3   # 2.5 ps -> 3, not 2
        assert clock.cycles_to_ps(0.0007) == 4   # 3.5 ps -> 4 (agrees)
        assert clock.cycles_to_ps(0.0004) == 2   # 2.0 ps exact


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(30, lambda: order.append("c"))
        sim.schedule(10, lambda: order.append("a"))
        sim.schedule(20, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_respects_priority(self):
        sim = Simulator()
        order = []
        sim.schedule(10, lambda: order.append("late"), priority=5)
        sim.schedule(10, lambda: order.append("early"), priority=0)
        sim.run()
        assert order == ["early", "late"]

    def test_same_time_same_priority_fifo(self):
        sim = Simulator()
        order = []
        for index in range(5):
            sim.schedule(10, lambda i=index: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_now_advances(self):
        sim = Simulator()
        times = []
        sim.schedule(100, lambda: times.append(sim.now_ps))
        sim.schedule(250, lambda: times.append(sim.now_ps))
        sim.run()
        assert times == [100, 250]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1, lambda: None)

    def test_schedule_from_callback(self):
        sim = Simulator()
        seen = []
        def first():
            sim.schedule(5, lambda: seen.append(sim.now_ps))
        sim.schedule(10, first)
        sim.run()
        assert seen == [15]

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(10, lambda: sim.schedule_at(50, lambda: seen.append(sim.now_ps)))
        sim.run()
        assert seen == [50]

    def test_run_until_stops_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(10, lambda: seen.append(1))
        sim.schedule(100, lambda: seen.append(2))
        sim.run(until_ps=50)
        assert seen == [1]
        assert sim.now_ps == 50
        sim.run()
        assert seen == [1, 2]

    def test_cancel(self):
        sim = Simulator()
        seen = []
        event = sim.schedule(10, lambda: seen.append("cancelled"))
        sim.schedule(20, lambda: seen.append("kept"))
        sim.cancel(event)
        sim.run()
        assert seen == ["kept"]

    def test_stop_from_callback(self):
        sim = Simulator()
        seen = []
        sim.schedule(10, lambda: (seen.append(1), sim.stop()))
        sim.schedule(20, lambda: seen.append(2))
        sim.run()
        assert seen == [1]
        sim.run()
        assert seen == [1, 2]

    def test_max_events(self):
        sim = Simulator()
        seen = []
        for index in range(10):
            sim.schedule(index + 1, lambda i=index: seen.append(i))
        sim.run(max_events=3)
        assert seen == [0, 1, 2]

    def test_events_processed_counter(self):
        sim = Simulator()
        for index in range(7):
            sim.schedule(index, lambda: None)
        sim.run()
        assert sim.events_processed == 7

    def test_peek_next_time(self):
        sim = Simulator()
        sim.schedule(42, lambda: None)
        assert sim.peek_next_time() == 42

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        event = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        sim.cancel(event)
        assert sim.peek_next_time() == 20

    def test_peek_empty(self):
        assert Simulator().peek_next_time() is None

    def test_pending_events_counts_live(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        assert sim.pending_events == 2

    def test_pending_events_excludes_cancelled_ghosts(self):
        sim = Simulator()
        ghost = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        sim.cancel(ghost)
        # The ghost is still physically queued, but must not be counted.
        assert len(sim._queue) == 2
        assert sim.pending_events == 1
        sim.run()
        assert sim.pending_events == 0

    def test_pending_events_after_cancel_of_fired_event(self):
        sim = Simulator()
        event = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        sim.run(until_ps=15)
        sim.cancel(event)  # documented no-op: event already fired
        assert sim.pending_events == 1


class TestCancelAfterFire:
    """Regression: cancelling fired events must not pollute the kernel.

    A fired entry never re-enters the heap.  Counting a cancel of it as
    a ghost would leave ``pending_events`` short for the rest of the
    run, and reporting it to the monitor would cancel a ticket that is
    no longer live.  Every test runs under an armed monitor, which
    raises on such a cancel and checks ticket conservation.
    """

    @staticmethod
    def _sim():
        from repro.check.monitor import InvariantMonitor

        sim = Simulator()
        sim.monitor = InvariantMonitor()
        return sim

    def test_cancel_after_fire_leaves_no_residue(self):
        sim = self._sim()
        event = sim.schedule(10, lambda: None)
        sim.run()
        sim.cancel(event)
        assert sim.pending_events == 0
        assert len(sim._queue) == 0
        sim.monitor.check_ticket_conservation()
        assert sim.monitor.ok

    def test_cancel_after_fire_does_not_accumulate(self):
        sim = self._sim()
        events = [sim.schedule(i + 1, lambda: None) for i in range(100)]
        sim.run()
        for event in events:
            sim.cancel(event)
        assert sim.pending_events == 0
        # The live count stays an exact O(1) subtraction (no ghosts).
        sim.schedule(5, lambda: None)
        assert sim.pending_events == 1
        assert len(sim._queue) == 1
        sim.monitor.check_ticket_conservation()
        assert sim.monitor.ok

    def test_cancel_twice_then_pop_leaves_no_residue(self):
        sim = self._sim()
        event = sim.schedule(10, lambda: None)
        sim.cancel(event)
        sim.cancel(event)  # idempotent while still queued
        assert sim.pending_events == 0
        assert len(sim._queue) == 1  # one ghost, counted once
        sim.run()
        assert sim.events_processed == 0
        assert len(sim._queue) == 0
        assert sim.pending_events == 0
        # Cancelling again after the ghost was popped is a no-op too.
        sim.cancel(event)
        assert sim.pending_events == 0
        sim.monitor.check_ticket_conservation()
        assert sim.monitor.ok

    def test_cancel_after_peek_pops_ghost(self):
        sim = self._sim()
        ghost = sim.schedule(10, lambda: None)
        sim.cancel(ghost)
        assert sim.peek_next_time() is None
        assert len(sim._queue) == 0  # the peek popped the ghost
        sim.cancel(ghost)  # ghost already physically removed
        assert sim.pending_events == 0
        sim.monitor.check_ticket_conservation()
        assert sim.monitor.ok

    def test_live_set_tracks_heap(self):
        sim = self._sim()
        sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        assert sim.pending_events == 2
        sim.run(until_ps=15)
        assert sim.events_processed == 1
        assert sim.pending_events == 1
        assert len(sim._queue) == 1
        assert sim.peek_next_time() == 20
        sim.monitor.check_ticket_conservation()
        sim.run()
        assert sim.events_processed == 2
        assert sim.pending_events == 0
        assert len(sim._queue) == 0
        sim.monitor.check_ticket_conservation()
        assert sim.monitor.ok


class TestRunUntilClamping:
    """Regression: ``run(until_ps < now_ps)`` must not rewind time."""

    def test_until_in_past_does_not_move_time_backwards(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.run()
        assert sim.now_ps == 100
        sim.schedule(50, lambda: None)  # pending at 150
        processed = sim.run(until_ps=40)
        assert processed == 0
        assert sim.now_ps == 100  # clamped, not rewound to 40

    def test_until_in_past_with_empty_queue(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.run()
        sim.run(until_ps=10)  # drained-queue path already guarded
        assert sim.now_ps == 100

    def test_until_between_now_and_head_still_advances(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.schedule(100, lambda: None)
        sim.run(until_ps=50)
        assert sim.now_ps == 50
        sim.run(until_ps=60)
        assert sim.now_ps == 60


class TestProfilerHook:
    def test_profiler_records_every_callback(self):
        class Recorder:
            def __init__(self):
                self.calls = []

            def record(self, callback, wall_s):
                self.calls.append((callback, wall_s))

        sim = Simulator()
        recorder = Recorder()
        sim.attach_profiler(recorder)
        for index in range(5):
            sim.schedule(index, lambda: None)
        sim.run()
        assert len(recorder.calls) == 5
        assert all(wall >= 0 for _cb, wall in recorder.calls)

    def test_detach_profiler(self):
        class Recorder:
            def __init__(self):
                self.calls = 0

            def record(self, callback, wall_s):
                self.calls += 1

        sim = Simulator()
        recorder = Recorder()
        sim.attach_profiler(recorder)
        sim.schedule(0, lambda: None)
        sim.run()
        sim.attach_profiler(None)
        sim.schedule(0, lambda: None)
        sim.run()
        assert recorder.calls == 1


class TestClocks:
    def test_add_clock_registers(self):
        sim = Simulator()
        clock = sim.add_clock("core", mhz(166))
        assert sim.clocks["core"] is clock

    def test_add_clock_idempotent(self):
        sim = Simulator()
        first = sim.add_clock("core", mhz(166))
        second = sim.add_clock("core", mhz(166))
        assert first is second

    def test_add_clock_conflict_raises(self):
        sim = Simulator()
        sim.add_clock("core", mhz(166))
        with pytest.raises(ValueError):
            sim.add_clock("core", mhz(200))

    def test_schedule_cycles(self):
        sim = Simulator()
        clock = sim.add_clock("core", mhz(200))
        seen = []
        sim.schedule_cycles(clock, 4, lambda: seen.append(sim.now_ps))
        sim.run()
        assert seen == [20000]

    def test_multi_clock_interleaving(self):
        sim = Simulator()
        core = sim.add_clock("core", mhz(200))    # 5000 ps
        sdram = sim.add_clock("sdram", mhz(500))  # 2000 ps
        order = []
        sim.schedule_cycles(core, 1, lambda: order.append("core"))
        sim.schedule_cycles(sdram, 2, lambda: order.append("sdram"))
        sim.run()
        assert order == ["sdram", "core"]  # 4000 ps before 5000 ps


class TestDelayNormalization:
    """Regression: float delays used to flow into the heap unchecked,
    splitting the integer-ps timeline into float timestamps."""

    def test_whole_float_delay_normalizes_to_int(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now_ps))
        sim.run()
        assert seen == [5]
        assert type(seen[0]) is int

    def test_fractional_float_delay_raises(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.schedule(5.5, lambda: None)

    def test_fractional_absolute_time_raises(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.schedule_at(10.25, lambda: None)

    def test_integer_like_types_accepted(self):
        numpy = pytest.importorskip("numpy")
        sim = Simulator()
        seen = []
        sim.schedule(numpy.int64(7), lambda: seen.append(sim.now_ps))
        sim.run()
        assert seen == [7]
        assert type(sim.now_ps) is int

    def test_bool_and_junk_rejected(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.schedule("10", lambda: None)

    def test_none_callback_rejected(self):
        # A None callback is the kernel's mark of a dead entry.
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.schedule(10, None)
        assert sim.pending_events == 0


class TestGhostCompaction:
    """``pending_events`` is O(1) and mass cancellation physically
    shrinks the heap instead of leaving ghost entries behind."""

    def test_pending_events_is_live_count(self):
        sim = Simulator()
        events = [sim.schedule(k + 1, lambda: None) for k in range(200)]
        for event in events[:150]:
            sim.cancel(event)
        assert sim.pending_events == 50

    def test_mass_cancel_compacts_the_heap(self):
        sim = Simulator()
        events = [sim.schedule(k + 1, lambda: None) for k in range(200)]
        for event in events[:150]:
            sim.cancel(event)
        # Compaction is amortized (it runs when ghosts outnumber half
        # the heap), so at least one sweep must have fired by now.
        assert len(sim._queue) < 150
        assert len(sim._queue) - sim.pending_events < 64  # ghosts left
        seen = []
        sim.schedule(500, lambda: seen.append(sim.now_ps))
        sim.run()
        assert sim.events_processed == 51
        assert seen == [500]

    def test_compaction_under_monitor_conserves_tickets(self):
        from repro.check.monitor import InvariantMonitor

        sim = Simulator()
        sim.monitor = InvariantMonitor()
        events = [sim.schedule(k + 1, lambda: None) for k in range(200)]
        for event in events[::2]:
            sim.cancel(event)
        sim.run()
        sim.monitor.check_ticket_conservation()
        assert not sim.monitor.violations


class TestKernelEdgeCases:
    def test_max_events_and_until_interleave(self):
        sim = Simulator()
        seen = []
        for index in range(10):
            sim.schedule(10 * (index + 1), lambda i=index: seen.append(i))
        # Budget binds first...
        assert sim.run(until_ps=85, max_events=3) == 3
        assert seen == [0, 1, 2]
        assert sim.now_ps == 30
        # ...then the horizon binds, clamping the clock between events.
        assert sim.run(until_ps=85, max_events=50) == 5
        assert seen == [0, 1, 2, 3, 4, 5, 6, 7]
        assert sim.now_ps == 85
        sim.run()
        assert seen == list(range(10))

    def test_schedule_at_exactly_now_fires_this_run(self):
        sim = Simulator()
        seen = []

        def first():
            sim.schedule_at(sim.now_ps, lambda: seen.append("same-instant"))
            seen.append("first")

        sim.schedule(10, first)
        sim.run()
        assert seen == ["first", "same-instant"]
        assert sim.now_ps == 10

    def test_cancel_then_reschedule_with_monitor(self):
        from repro.check.monitor import InvariantMonitor

        sim = Simulator()
        sim.monitor = InvariantMonitor()
        seen = []
        event = sim.schedule(10, lambda: seen.append("old"))
        sim.cancel(event)
        sim.schedule(10, lambda: seen.append("new"))
        sim.run()
        sim.monitor.check_ticket_conservation()
        assert not sim.monitor.violations
        assert seen == ["new"]


def _reference_run(self, until_ps=None, max_events=None):
    """The kernel loop as it was before it popped first and counted in
    a local: the reference :meth:`Simulator.run` must match."""
    self._stopped = False
    processed = 0
    profiler = self._profiler
    monitor = self.monitor
    queue = self._queue
    heappop = heapq.heappop
    while queue:
        if self._stopped:
            break
        if max_events is not None and processed >= max_events:
            break
        entry = queue[0]
        when = entry[0]
        if until_ps is not None and when > until_ps:
            self.now_ps = max(self.now_ps, until_ps)
            break
        heappop(queue)
        callback = entry[3]
        if callback is None:
            self._ghosts -= 1
            if monitor.enabled:
                monitor.event_discarded(entry[2])
            continue
        entry[3] = None
        if monitor.enabled:
            monitor.event_fired(entry[2], when, self.now_ps)
        self.now_ps = when
        if profiler is None:
            callback()
        else:
            started = perf_counter()
            callback()
            profiler.record(callback, perf_counter() - started)
        processed += 1
        self.events_processed += 1
    else:
        if until_ps is not None and self.now_ps < until_ps:
            self.now_ps = until_ps
    return processed


class _Boom(Exception):
    pass


class _Recorder:
    """A monitor and a profiler that log every hook the kernel calls."""

    enabled = True

    def __init__(self):
        self.log = []

    def event_scheduled(self, ticket, when, now):
        self.log.append(("scheduled", ticket, when, now))

    def event_cancelled(self, ticket):
        self.log.append(("cancelled", ticket))

    def event_fired(self, ticket, when, now):
        self.log.append(("fired", ticket, when, now))

    def event_discarded(self, ticket):
        self.log.append(("discarded", ticket))

    def record(self, callback, _wall_seconds):
        self.log.append(("profiled", callback.index))


_ACTIONS = st.one_of(
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(st.just("spawn"), st.integers(0, 30), st.integers(0, 2)),
    st.just(("stop",)),
)
_EVENTS = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 2), st.lists(_ACTIONS, max_size=3)),
    max_size=14,
)
_RUNS = st.lists(
    st.tuples(st.none() | st.integers(0, 90), st.none() | st.integers(-1, 6), st.booleans()),
    min_size=1,
    max_size=6,
)


def _build(events, cancelled, raiser, profiled):
    """A kernel holding ``events``: each fires its actions in order
    (cancel the event with that index, spawn an action-less event, or
    stop), and event ``raiser`` then raises."""
    sim = Simulator()
    recorder = _Recorder()
    sim.monitor = recorder
    if profiled:
        sim.attach_profiler(recorder)
    handles = []

    def make(index, actions):
        def callback():
            recorder.log.append(("ran", index, sim.now_ps))
            for action in actions:
                if action[0] == "cancel":
                    if action[1] < len(handles):
                        sim.cancel(handles[action[1]])
                elif action[0] == "spawn":
                    handles.append(sim.schedule(action[1], make(len(handles), ()), action[2]))
                else:
                    sim.stop()
            if index == raiser:
                raise _Boom(index)

        callback.index = index
        return callback

    for delay, priority, actions in events:
        handles.append(sim.schedule(delay, make(len(handles), actions), priority))
    for index in cancelled:
        if index < len(handles):
            sim.cancel(handles[index])
    return sim, recorder


def _state(sim):
    return (
        sim.now_ps,
        sim.events_processed,
        sim.pending_events,
        sim._ghosts,
        sorted((entry[0], entry[1], entry[2], entry[3] is None) for entry in sim._queue),
    )


class TestRunMatchesReference:
    """``Simulator.run`` fires the callbacks of the reference loop in the
    same order, returns the same counts and leaves the same state, over
    random schedules with ties, cancels, ghosts, stops, spawns, a
    raising callback and random horizons and budgets."""

    @settings(max_examples=300, deadline=None)
    @given(
        events=_EVENTS,
        cancelled=st.lists(st.integers(0, 14), max_size=5),
        raiser=st.none() | st.integers(0, 20),
        profiled=st.booleans(),
        runs=_RUNS,
    )
    # A raising callback; max_events=0 on a live queue; a cancelled
    # ghost past the horizon, then a drain.
    @example(events=[(5, 0, []), (5, 0, [])], cancelled=[], raiser=0,
             profiled=False, runs=[(None, None, False), (None, None, False)])
    @example(events=[(5, 0, [])], cancelled=[], raiser=None, profiled=False,
             runs=[(10, 0, False), (None, 0, False), (10, None, False)])
    @example(events=[(5, 0, []), (50, 0, [])], cancelled=[1], raiser=None,
             profiled=False, runs=[(20, None, False), (None, None, False)])
    def test_same_callbacks_counts_and_state(self, events, cancelled, raiser, profiled, runs):
        reference, expected = _build(events, cancelled, raiser, profiled)
        sim, recorder = _build(events, cancelled, raiser, profiled)
        for until_ps, max_events, stop_first in runs:
            outcomes = []
            for kernel, loop in ((reference, _reference_run), (sim, Simulator.run)):
                if stop_first:
                    kernel.stop()
                try:
                    outcomes.append(loop(kernel, until_ps, max_events))
                except _Boom as exc:
                    outcomes.append(("raised", exc.args))
            assert outcomes[0] == outcomes[1]
            assert recorder.log == expected.log
            assert _state(sim) == _state(reference)
