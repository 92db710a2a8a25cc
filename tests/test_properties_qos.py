"""Property-based tests (hypothesis) for the QoS subsystem.

The ISSUE 9 properties:

* **DRR** is work-conserving and byte-fair within the deficit bound —
  over any serve sequence where classes stay backlogged, the rounds
  granted to two classes differ by at most one lap and each class's
  served bytes satisfy the exposed deficit identity
  ``served == rounds * quantum - deficit``;
* **strict priority** starves lower classes while a higher class stays
  backlogged (the guarantee *and* the hazard);
* **RED**'s drop probability is monotone non-decreasing in occupancy,
  and its keyed decisions are pure functions of ``(seed, port, class,
  index)`` — independent of call order;
* **pause/backpressure conserves frames**: driving the QoS wire
  directly with a time-ordered stub kernel, every injected frame is
  forwarded, RED/tail-dropped, or still queued; pause and resume
  events alternate and pair up; the armed invariant monitor stays
  silent.
"""

import dataclasses
import heapq
from collections import deque

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.assists.mac import WireEvent
from repro.check.monitor import InvariantMonitor
from repro.fabric.flows import FabricFrame
from repro.fabric.spec import FabricSpec, StreamFlowSpec
from repro.fabric.wire import FabricWire
from repro.net.ethernet import EthernetTiming
from repro.qos.red import RedSpec, red_decide, red_drop_probability
from repro.qos.sched import DrrScheduler, StrictPriorityScheduler
from repro.qos.spec import QosSpec, TrafficClassSpec


# ----------------------------------------------------------------------
# Scheduler harness: drive select/pop against synthetic backlogs
# ----------------------------------------------------------------------
class _Entry:
    __slots__ = ("frame_bytes",)

    def __init__(self, frame_bytes: int) -> None:
        self.frame_bytes = frame_bytes


_FRAME_BYTES = st.sampled_from([84, 320, 1538])


@given(
    quanta=st.lists(st.integers(min_value=1538, max_value=4 * 1538),
                    min_size=2, max_size=4),
    backlogs=st.data(),
    # Backlogs are one frame deeper than the slot budget, so even if
    # every slot lands on one class its queue cannot empty — the exact
    # deficit identity below requires nothing forfeits mid-sequence.
    slots=st.integers(min_value=1, max_value=90),
)
@settings(max_examples=100, deadline=None)
def test_drr_work_conserving_and_byte_fair(quanta, backlogs, slots):
    classes = len(quanta)
    queues = [
        deque(_Entry(size) for size in backlogs.draw(
            st.lists(_FRAME_BYTES, min_size=slots + 1, max_size=slots + 1)
        ))
        for _ in range(classes)
    ]
    scheduler = DrrScheduler(quanta)
    served = [0] * classes
    for _ in range(slots):
        index = scheduler.select(queues)
        # Work conservation: backlog present ⇒ a class is selected.
        assert index is not None
        assert queues[index], "selected an empty class queue"
        served[index] += queues[index].popleft().frame_bytes
    # Deep backlogs: nothing emptied, so no deficit was forfeited and
    # the exposed identity holds exactly for every class.
    assert all(queues)
    for cls in range(classes):
        assert served[cls] == (scheduler.rounds[cls] * quanta[cls]
                               - scheduler.deficits[cls])
        # ... and deficits never go negative or run away: after a
        # grant, the residual stays below quantum + one max frame.
        assert 0 <= scheduler.deficits[cls] < quanta[cls] + 1538
    # Byte-fairness bound: continuously backlogged classes are granted
    # rounds within one lap of each other.
    assert max(scheduler.rounds) - min(scheduler.rounds) <= 1


@given(
    priorities=st.lists(st.integers(min_value=0, max_value=3),
                        min_size=2, max_size=4, unique=True),
    slots=st.integers(min_value=1, max_value=50),
)
@settings(max_examples=100, deadline=None)
def test_strict_priority_starves_lower_classes(priorities, slots):
    classes = len(priorities)
    urgent = min(range(classes), key=lambda i: priorities[i])
    scheduler = StrictPriorityScheduler(priorities)
    # Every class holds a deep backlog the whole time: the urgent class
    # monopolizes the port, the rest are starved completely.
    queues = [deque(_Entry(1000) for _ in range(slots + 1))
              for _ in range(classes)]
    for _ in range(slots):
        index = scheduler.select(queues)
        assert index == urgent
        queues[index].popleft()


@given(
    min_frames=st.integers(min_value=0, max_value=32),
    span=st.integers(min_value=1, max_value=64),
    max_probability=st.floats(min_value=0.01, max_value=1.0),
    occupancies=st.lists(st.integers(min_value=0, max_value=128),
                         min_size=2, max_size=16),
)
@settings(max_examples=200, deadline=None)
def test_red_probability_monotone_in_occupancy(
    min_frames, span, max_probability, occupancies
):
    red = RedSpec(
        min_frames=min_frames,
        max_frames=min_frames + span,
        max_drop_probability=max_probability,
    )
    ordered = sorted(occupancies)
    probabilities = [red_drop_probability(o, red) for o in ordered]
    assert probabilities == sorted(probabilities)
    assert all(0.0 <= p <= 1.0 for p in probabilities)


@given(
    seed=st.integers(min_value=0, max_value=2**31),
    port=st.integers(min_value=0, max_value=7),
    indices=st.lists(st.integers(min_value=0, max_value=10_000),
                     min_size=1, max_size=32),
    probability=st.floats(min_value=0.01, max_value=0.99),
)
@settings(max_examples=100, deadline=None)
def test_red_decisions_are_order_independent(seed, port, indices, probability):
    forward = [red_decide(seed, port, "be", i, probability) for i in indices]
    backward = [red_decide(seed, port, "be", i, probability)
                for i in reversed(indices)]
    assert forward == list(reversed(backward))


# ----------------------------------------------------------------------
# Wire-level: pause/resume conserves frames (time-ordered stub kernel)
# ----------------------------------------------------------------------
class _TimedStubSim:
    """Minimal (time, ticket)-ordered event loop — the kernel contract
    the QoS service chains rely on."""

    def __init__(self) -> None:
        self._heap = []
        self._ticket = 0
        self.now_ps = 0

    def schedule_at(self, when_ps, callback):
        heapq.heappush(self._heap, (when_ps, self._ticket, callback))
        self._ticket += 1

    def drain(self):
        while self._heap:
            when, _ticket, callback = heapq.heappop(self._heap)
            self.now_ps = when
            callback()


class _StubEndpoint:
    faults = None

    def __init__(self) -> None:
        self.arrivals = []

    def rx_arrive(self, frame, available_ps):
        self.arrivals.append((frame, available_ps))


class _StubTracer:
    enabled = False


class _StubFabric:
    def __init__(self, spec) -> None:
        self.endpoints = [_StubEndpoint() for _ in range(spec.nics)]
        self.sim = _TimedStubSim()
        self.tracer = _StubTracer()
        self.timing = EthernetTiming()
        self.lost = []
        self.pauses = []

    def frame_lost(self, frame, now_ps, reason):
        self.lost.append((frame, now_ps, reason))

    def qos_pause(self, port, cls, now_ps):
        self.pauses.append(("xoff", port, cls, now_ps))

    def qos_resume(self, port, cls, now_ps):
        self.pauses.append(("xon", port, cls, now_ps))


def _pause_qos(xoff, xon, queue_frames, scheduler):
    return QosSpec(
        classes=(
            TrafficClassSpec(
                name="only",
                queue_frames=queue_frames,
                pause_xoff_frames=xoff,
                pause_xon_frames=xon,
            ),
        ),
        scheduler=scheduler,
        seed=0,
    )


@st.composite
def _paused_schedules(draw):
    queue_frames = draw(st.integers(min_value=4, max_value=16))
    xoff = draw(st.integers(min_value=2, max_value=queue_frames))
    xon = draw(st.integers(min_value=0, max_value=xoff - 1))
    scheduler = draw(st.sampled_from(["strict", "drr", "wrr"]))
    spec = dataclasses.replace(
        FabricSpec(
            nics=3,
            switch=True,
            qos=_pause_qos(xoff, xon, queue_frames, scheduler),
            stream_flows=(StreamFlowSpec(src=0, dst=2, qos_class="only"),),
        ),
        propagation_delay_ps=draw(st.sampled_from([0, 100_000])),
        switch_latency_ps=draw(st.sampled_from([0, 250_000])),
    )
    frames = draw(st.lists(
        st.tuples(
            st.sampled_from([0, 1]),                        # src
            st.sampled_from([18, 256, 1472]),               # udp payload
            st.integers(min_value=0, max_value=2_500_000),  # pre-frame gap
        ),
        min_size=1,
        max_size=48,
    ))
    return spec, frames


@given(_paused_schedules())
@settings(max_examples=80, deadline=None)
def test_pause_resume_conserves_frames(case):
    spec, frames = case
    fabric = _StubFabric(spec)
    wire = FabricWire(fabric, spec)
    monitor = InvariantMonitor()
    wire.monitor = monitor

    clocks = [0] * spec.nics
    for seq, (src, payload, gap) in enumerate(frames):
        frame = FabricFrame(
            flow="prop", src=src, dst=2, udp_payload_bytes=payload,
            kind="stream", request_id=seq, created_ps=clocks[src],
            qos_class="only",
        )
        start = clocks[src] + gap
        end = start + fabric.timing.frame_time_ps(frame.frame_bytes)
        clocks[src] = end
        wire.transmit(src, frame, WireEvent(
            seq=seq, wire_start_ps=start, wire_end_ps=end, sdram_done_ps=end,
        ))
    fabric.sim.drain()

    port = wire.ports[2]
    delivered = sum(len(ep.arrivals) for ep in fabric.endpoints)
    # Conservation: injected == forwarded + dropped + still-queued, and
    # after a full drain the backlog must be empty (work conservation).
    assert port.backlog() == 0
    assert port.enqueued[0] == port.forwarded[0]
    assert delivered == wire.forwarded == port.forwarded[0]
    assert delivered + wire.drops == len(frames)
    assert len(fabric.lost) == wire.drops == port.tail_drops[0]
    # Pause/resume alternate, pair up, and end resumed.
    events = [kind for kind, _port, _cls, _now in fabric.pauses]
    assert events == ["xoff", "xon"] * (len(events) // 2)
    assert port.pause_events[0] == port.resume_events[0] == len(events) // 2
    assert not port.paused[0]
    # The armed monitor saw the same schedule and stayed silent.
    assert monitor.ok, monitor.violations
