"""Property-based tests (hypothesis) for the fabric wire/switch model.

These drive :class:`repro.fabric.wire.FabricWire` directly against a
stub fabric on the real event kernel (no NIC endpoints), so hypothesis
can explore thousands of frame schedules per second.  Properties:

* conservation: ``injected == delivered + switch_tail_drops`` on every
  schedule, and direct links never drop;
* ordering: per-source FIFO on direct links (each source MAC
  serializes), per-destination-port FIFO once a switch serializes;
* the armed :class:`InvariantMonitor` agrees (its wire hooks see the
  same schedule and must stay silent).
"""

import dataclasses

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.assists.mac import WireEvent
from repro.check.monitor import InvariantMonitor
from repro.fabric.flows import FabricFrame
from repro.fabric.spec import FabricSpec
from repro.fabric.wire import FabricWire
from repro.net.ethernet import EthernetTiming
from repro.sim.kernel import Simulator


# ----------------------------------------------------------------------
# Stub fabric: records arrivals and losses instead of simulating NICs
# ----------------------------------------------------------------------
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
        self.sim = Simulator()
        self.tracer = _StubTracer()
        self.timing = EthernetTiming()
        self.lost = []

    def frame_lost(self, frame, now_ps, reason):
        self.lost.append((frame, now_ps, reason))

    def drain(self):
        # Every hop and delivery the wire scheduled, in time order.
        self.sim.run()


# ----------------------------------------------------------------------
# Schedules: (spec, [(src, dst_offset, payload, gap_ps), ...])
# ----------------------------------------------------------------------
@st.composite
def _schedules(draw):
    nics = draw(st.integers(min_value=2, max_value=4))
    spec = dataclasses.replace(
        FabricSpec.rpc_pair(seed=0),
        nics=nics,
        switch=draw(st.booleans()),
        port_queue_frames=draw(st.integers(min_value=1, max_value=4)),
        propagation_delay_ps=draw(st.sampled_from([0, 100_000, 1_000_000])),
        switch_latency_ps=draw(st.sampled_from([0, 250_000])),
    )
    frames = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=nics - 1),   # src
            st.integers(min_value=1, max_value=nics - 1),   # dst offset
            st.sampled_from([18, 256, 1472]),               # udp payload
            st.integers(min_value=0, max_value=3_000_000),  # pre-frame gap
        ),
        min_size=1,
        max_size=40,
    ))
    return spec, frames


def _run_schedule(spec, frames):
    fabric = _StubFabric(spec)
    wire = FabricWire(fabric, spec)
    monitor = InvariantMonitor()
    wire.monitor = monitor

    # Each source MAC serializes its own frames back-to-back.
    clocks = [0] * spec.nics
    timed = []
    for seq, (src, offset, payload, gap) in enumerate(frames):
        dst = (src + offset) % spec.nics
        frame = FabricFrame(
            flow="prop", src=src, dst=dst, udp_payload_bytes=payload,
            kind="stream", request_id=seq, created_ps=clocks[src],
        )
        start = clocks[src] + gap
        end = start + fabric.timing.frame_time_ps(frame.frame_bytes)
        clocks[src] = end
        timed.append((start, seq, src, frame, end))
    # The kernel presents transmits in global time order.
    for start, seq, src, frame, end in sorted(timed, key=lambda t: t[:2]):
        wire.transmit(src, frame, WireEvent(
            seq=seq, wire_start_ps=start, wire_end_ps=end, sdram_done_ps=end,
        ))
    fabric.drain()
    return fabric, wire, monitor


@given(_schedules())
@settings(max_examples=80, deadline=None)
def test_wire_conservation(case):
    spec, frames = case
    fabric, wire, monitor = _run_schedule(spec, frames)
    delivered = sum(len(ep.arrivals) for ep in fabric.endpoints)
    # injected == delivered + switch_tail_drops
    assert wire.forwarded + wire.drops == len(frames)
    assert delivered == wire.forwarded
    assert len(fabric.lost) == wire.drops
    if not spec.switch:
        assert wire.drops == 0, "direct links must never drop"
    assert monitor.ok, monitor.violations
    assert monitor.checks.get("wire.inject", 0) == len(frames)


@given(_schedules())
@settings(max_examples=80, deadline=None)
def test_wire_delivery_order(case):
    spec, frames = case
    fabric, _wire, monitor = _run_schedule(spec, frames)
    for endpoint in fabric.endpoints:
        if spec.switch:
            # One output port serializes everything for this NIC: the
            # whole arrival stream is FIFO.
            times = [when for _frame, when in endpoint.arrivals]
            assert times == sorted(times)
        else:
            # Dedicated links: FIFO per source.
            per_source = {}
            for frame, when in endpoint.arrivals:
                per_source.setdefault(frame.src, []).append(when)
            for times in per_source.values():
                assert times == sorted(times)
    assert monitor.ok


def test_saturated_port_tail_drops():
    """Directed: a 1-deep port fed back-to-back from 3 sources drops."""
    spec = dataclasses.replace(
        FabricSpec.rpc_pair(seed=0), nics=4, switch=True,
        port_queue_frames=1, propagation_delay_ps=0, switch_latency_ps=0,
    )
    # Every source floods destination 0 with full frames at t=0.
    frames = [(src, (0 - src) % 4, 1472, 0) for src in (1, 2, 3) for _ in range(4)]
    fabric, wire, monitor = _run_schedule(spec, frames)
    assert wire.drops > 0
    assert wire.forwarded + wire.drops == len(frames)
    assert len(fabric.lost) == wire.drops
    # Drop reasons are reported to the flow layer.
    assert {reason for _f, _t, reason in fabric.lost} == {"switch_tail_drop"}
    assert monitor.ok


def test_empty_port_never_drops():
    """Directed: a deep port under light load forwards everything."""
    spec = dataclasses.replace(
        FabricSpec.rpc_pair(seed=0), nics=2, switch=True,
        port_queue_frames=64,
    )
    frames = [(0, 1, 1472, 5_000_000) for _ in range(10)]
    fabric, wire, monitor = _run_schedule(spec, frames)
    assert wire.drops == 0
    assert sum(len(ep.arrivals) for ep in fabric.endpoints) == len(frames)
    assert monitor.ok
