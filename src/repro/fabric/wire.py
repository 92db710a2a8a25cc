"""The deterministic wire/switch model connecting fabric endpoints.

Every frame follows a *route*: the tuple of egress-port keys
:meth:`FabricWire.route_ports` returns for its ``(flow, src, dst)``
tuple.

* ``()`` — **direct links** (``switch=False``): a dedicated link per
  source→destination pair.  The first bit reaches the destination MAC
  ``propagation_delay_ps`` after it left the source MAC
  (``wire_start_ps``); serialization happens once, modeled by the
  receiving MAC.
* ``(dst,)`` — the **single implicit switch** (``switch=True``): one
  output port per destination, named by the destination's index.
* ``("leaf0->spine1", …, "leaf1->h3")`` — a **composed topology**
  (:class:`~repro.fabric.topology.TopologySpec`): one port per switch
  egress link on the flow's keyed-blake2b ECMP path
  (:class:`~repro.fabric.topology.TopologyRouter`).

One hop loop serves every non-empty route, store-and-forward in full:
a frame is in flight until its last bit reaches the next switch (the
upstream serialization end plus one propagation — never a reused
source ``wire_end_ps`` stamp), pays ``switch_latency_ps`` for the
forwarding decision, then contends for its egress port.  The last
port of a route delivers: the destination MAC re-serializes from the
first bit leaving that port.  Any other port puts the frame in flight
to the next switch.

Ports live in one dict, created on first use (a 1024-endpoint
leaf-spine declares thousands of links; only the ones traffic crosses
pay for state), and each counts ``[entered, forwarded, dropped]``.
Without a :class:`~repro.qos.QosSpec` a port is a :class:`_SwitchPort`:
one FIFO serialized back-to-back at line rate, resolved analytically,
holding at most ``port_queue_frames`` frames queued or in flight; the
newest arrival beyond that is *tail-dropped*.  With one, a port is a
:class:`_QosPort`: arrivals are classified by the DSCP-style tag their
flow stamped, admitted against the *class* queue capacity (tail drop)
and its optional RED AQM (keyed, replayable decisions drawn from the
``red:<port>:<class>`` stream — see :mod:`repro.qos.red`), and drained
one frame per serialization slot by the port's scheduler (strict
priority / DRR / WRR, :mod:`repro.qos.sched`).  Crossing a class's
XOFF watermark pauses, PFC-style, the stream pacers of that class
whose route crosses the port; draining to XON resumes them.

Every drop is counted in :attr:`FabricWire.drops` and in the
destination NIC's ``switch_tail_drops`` fault counter (tail drops,
when that NIC carries a fault injector), and is reported to its flow
as a loss.

All arithmetic is integer picoseconds, so two identically configured
runs are byte-identical.
"""

from __future__ import annotations

from typing import Deque, Dict, List, Optional, Union
from collections import deque

from repro.assists.mac import WireEvent
from repro.check.nullmonitor import NULL_MONITOR
from repro.fabric.flows import FabricFrame
from repro.fabric.spec import FabricSpec
from repro.fabric.topology import TopologyRouter
from repro.qos.red import red_decide, red_drop_probability
from repro.qos.sched import Scheduler, make_scheduler

#: Per-class counters every :class:`_QosPort` keeps.
_QOS_COUNTERS = (
    "enqueued", "forwarded", "tail_drops", "red_drops",
    "pause_events", "resume_events",
)


class _SwitchPort:
    """FIFO egress port: serialization point plus occupancy queue."""

    __slots__ = ("counts", "free_ps", "departures")

    def __init__(self) -> None:
        #: Cumulative [entered, forwarded, dropped] frames.
        self.counts = [0, 0, 0]
        self.free_ps = 0
        # Departure (end-of-serialization) times of frames that are
        # queued or currently serializing on this port.
        self.departures: Deque[int] = deque()

    def occupancy(self, now_ps: int) -> int:
        departures = self.departures
        while departures and departures[0] <= now_ps:
            departures.popleft()
        return len(departures)


class _QueuedFrame:
    """One frame parked in a class queue, with the rest of its route."""

    __slots__ = ("frame", "frame_bytes", "route", "hop", "span_start_ps")

    def __init__(self, frame: FabricFrame, route: tuple, hop: int,
                 span_start_ps: int) -> None:
        self.frame = frame
        self.frame_bytes = frame.frame_bytes
        self.route = route
        self.hop = hop
        self.span_start_ps = span_start_ps


class _QosPort:
    """Per-class queues + scheduler in place of one port's single FIFO.

    Unlike :class:`_SwitchPort` (whose analytic arithmetic fixes a
    frame's serialization slot when it enters), a QoS port is served
    event-by-event: the scheduler's pick for a serialization slot
    depends on which classes are backlogged *at that instant*, so the
    port runs a service chain — one event per frame at its
    serialization end — and ``busy`` marks a chain in flight.
    """

    __slots__ = (
        "index", "scheduler", "queues", "paused", "busy", "counts",
        "free_ps", "red_index",
    ) + _QOS_COUNTERS

    def __init__(self, index: Union[int, str], scheduler: Scheduler,
                 classes: int) -> None:
        #: The port's route key (names its RED decision streams).
        self.index = index
        self.scheduler = scheduler
        self.queues: List[Deque[_QueuedFrame]] = [deque() for _ in range(classes)]
        self.paused: List[bool] = [False] * classes
        self.busy = False
        self.counts = [0, 0, 0]
        self.free_ps = 0
        for name in _QOS_COUNTERS:
            setattr(self, name, [0] * classes)
        # Per-class RED decision indices: each (port, class) is an
        # independent keyed decision stream (repro.qos.red).
        self.red_index = [0] * classes

    def backlog(self) -> int:
        return sum(len(queue) for queue in self.queues)


class FabricWire:
    """Connects :class:`~repro.fabric.endpoint.NicEndpoint` instances."""

    def __init__(self, fabric, spec: FabricSpec) -> None:
        self.fabric = fabric
        self.spec = spec
        self.forwarded = 0
        self.drops = 0
        #: Invariant monitor (null by default; see ``repro.check``).
        self.monitor = NULL_MONITOR
        #: Per-class queue management (``None`` = FIFO ports).
        self.qos = spec.qos
        self._class_index: Dict[str, int] = (
            {tc.name: index for index, tc in enumerate(self.qos.classes)}
            if self.qos is not None else {}
        )
        #: ECMP routing over a composed topology (``None`` = direct
        #: links or the single implicit switch).
        self.router: Optional[TopologyRouter] = (
            TopologyRouter(spec.topology) if spec.topology is not None else None
        )
        #: Egress ports by route key, created on first use.
        self.ports: Dict[Union[int, str], Union[_SwitchPort, _QosPort]] = {}

    # ------------------------------------------------------------------
    def route_ports(self, flow: str, src: int, dst: int) -> tuple:
        """The egress-port keys a flow tuple traverses: ``()`` on direct
        links, ``(dst,)`` on the implicit switch, the ECMP link names on
        a topology.  The invariant monitor audits every topology route
        it sees resolved: loop-free, within the shortest-path hop bound,
        and never re-resolved differently."""
        router = self.router
        if router is None:
            return (dst,) if self.spec.switch else ()
        ports = router.route_ports(flow, src, dst)
        if self.monitor.enabled:
            self.monitor.topo_route(
                self, flow, src, dst,
                router.route(flow, src, dst), router.hop_bound(),
            )
        return ports

    def transmit(self, src: int, frame: FabricFrame, wire: WireEvent) -> None:
        """Source NIC ``src`` put ``frame`` on the wire (``wire`` is its
        MAC timing).  Routes, queues, possibly drops, and ultimately
        schedules the destination's :meth:`rx_arrive`."""
        if self.monitor.enabled:
            self.monitor.wire_injected(self, src, frame.dst)
        route = self.route_ports(frame.flow, src, frame.dst)
        if not route:
            self._deliver(frame, wire.wire_start_ps + self.spec.propagation_delay_ps,
                          wire.wire_start_ps)
        else:
            self._fly(frame, route, 0, wire.wire_end_ps, wire.wire_start_ps)

    # -- the hop loop ---------------------------------------------------
    def _add_port(self, key: Union[int, str]) -> Union[_SwitchPort, _QosPort]:
        if self.qos is None:
            port = _SwitchPort()
        else:
            port = _QosPort(key, make_scheduler(self.qos), len(self.qos.classes))
        self.ports[key] = port
        return port

    def _fly(self, frame: FabricFrame, route: tuple, hop: int,
             out_end_ps: int, span_start_ps: int) -> None:
        """Put ``frame`` in flight to the switch owning ``route[hop]``.

        Its last bit left the upstream serialization point at
        ``out_end_ps``, so the switch holds the full frame one
        propagation later and completes its forwarding decision
        ``switch_latency_ps`` after that, at ``ready_ps``.  A QoS port
        admits at ``ready_ps``, against its class queues as they stand
        then.  A FIFO port's arithmetic needs only ``ready_ps``, so it
        resolves the hop at the arrival instant; moving that event would
        reorder same-instant events and move the golden
        ``fabric-topology-incast`` digest.
        """
        if self.monitor.enabled:
            self.monitor.topo_transit(self, 1)
        spec = self.spec
        arrive_ps = out_end_ps + spec.propagation_delay_ps
        ready_ps = arrive_ps + spec.switch_latency_ps
        if self.qos is None:
            enter, when_ps = self._fifo_hop, arrive_ps
        else:
            enter, when_ps = self._qos_admit, ready_ps

        def arrive() -> None:
            if self.monitor.enabled:
                self.monitor.topo_transit(self, -1)
            enter(frame, route, hop, ready_ps, span_start_ps)

        self.fabric.sim.schedule_at(when_ps, arrive)

    def _fifo_hop(self, frame: FabricFrame, route: tuple, hop: int,
                  ready_ps: int, span_start_ps: int) -> None:
        """Enter the FIFO port ``route[hop]`` with the forwarding
        decision done at ``ready_ps``: tail-drop a full port, else fix
        the frame's serialization slot behind the port's backlog."""
        key = route[hop]
        port = self.ports.get(key) or self._add_port(key)
        port.counts[0] += 1
        if self.monitor.enabled:
            self.monitor.topo_link_entered(self, key)
        if port.occupancy(ready_ps) >= self.spec.port_queue_frames:
            self._drop(port, key, frame, ready_ps, "switch_tail_drop")
            return
        out_start = max(ready_ps, port.free_ps)
        out_end = out_start + self.fabric.timing.frame_time_ps(frame.frame_bytes)
        port.departures.append(out_end)
        self._forward(port, key, frame, route, hop, out_start, out_end,
                      span_start_ps)

    def _qos_admit(self, frame: FabricFrame, route: tuple, hop: int,
                   ready_ps: int, span_start_ps: int) -> None:
        """Classify and admit ``frame`` at the QoS port ``route[hop]``
        (runs at ``ready_ps``): tail drop, then RED, else enqueue —
        pausing the class at XOFF — and start an idle port's chain."""
        key = route[hop]
        port = self.ports.get(key) or self._add_port(key)
        cls = self._class_index[frame.qos_class]
        tc = self.qos.classes[cls]
        port.counts[0] += 1
        if self.monitor.enabled:
            self.monitor.topo_link_entered(self, key)
            self.monitor.qos_injected(self, key, cls)
        queue = port.queues[cls]
        occupancy = len(queue)
        reason = None
        if occupancy >= tc.queue_frames:
            reason = "switch_tail_drop"
            port.tail_drops[cls] += 1
        elif tc.red is not None:
            probability = red_drop_probability(occupancy, tc.red)
            if probability > 0.0:
                index = port.red_index[cls]
                port.red_index[cls] = index + 1
                if red_decide(self.qos.seed, key, tc.name, index, probability):
                    reason = "switch_red_drop"
                    port.red_drops[cls] += 1
        if reason is not None:
            if self.monitor.enabled:
                self.monitor.qos_dropped(
                    self, key, cls, "tail" if reason == "switch_tail_drop" else "red"
                )
            self._drop(port, key, frame, ready_ps, reason)
            return
        queue.append(_QueuedFrame(frame, route, hop, span_start_ps))
        port.enqueued[cls] += 1
        if self.monitor.enabled:
            self.monitor.qos_enqueued(self, key, cls, len(queue))
        # PFC-style XOFF (zero-delay control message — docs/qos.md
        # documents the simplification).
        if (tc.pause_xoff_frames and not port.paused[cls]
                and len(queue) >= tc.pause_xoff_frames):
            self._pause(port, cls, True, ready_ps)
        if not port.busy:
            port.busy = True
            self._qos_service(port)

    def _qos_service(self, port: _QosPort) -> None:
        """Serve one serialization slot: the scheduler picks a class,
        the port serializes its head frame, and the chain re-arms at
        the frame's serialization end.  ``port.busy`` is True exactly
        while a chain is in flight, so arrivals during service only
        enqueue."""
        sim = self.fabric.sim
        now_ps = sim.now_ps
        cls = port.scheduler.select(port.queues)
        if cls is None:
            if self.monitor.enabled:
                # Work conservation: a scheduler may only go idle
                # against an empty backlog.
                self.monitor.qos_port_idle(self, port.index, port.backlog())
            port.busy = False
            return
        queue = port.queues[cls]
        entry = queue.popleft()
        out_start = now_ps if now_ps >= port.free_ps else port.free_ps
        out_end = out_start + self.fabric.timing.frame_time_ps(entry.frame_bytes)
        port.forwarded[cls] += 1
        if self.monitor.enabled:
            self.monitor.qos_forwarded(self, port.index, cls, len(queue))
        # PFC-style XON: drained to the low watermark — resume pacers.
        if port.paused[cls] and len(queue) <= self.qos.classes[cls].pause_xon_frames:
            self._pause(port, cls, False, now_ps)
        self._forward(port, port.index, entry.frame, entry.route, entry.hop,
                      out_start, out_end, entry.span_start_ps)

        def serve_next(port=port) -> None:
            self._qos_service(port)

        sim.schedule_at(out_end, serve_next)

    def _pause(self, port: _QosPort, cls: int, paused: bool, now_ps: int) -> None:
        port.paused[cls] = paused
        if paused:
            port.pause_events[cls] += 1
        else:
            port.resume_events[cls] += 1
        if self.monitor.enabled:
            self.monitor.qos_pause(self, port.index, cls, paused)
        notify = self.fabric.qos_pause if paused else self.fabric.qos_resume
        notify(port.index, cls, now_ps)

    def _forward(self, port, key, frame: FabricFrame, route: tuple, hop: int,
                 out_start_ps: int, out_end_ps: int, span_start_ps: int) -> None:
        """``frame`` serializes on ``key`` over [out_start, out_end): the
        last port of its route delivers, any other flies on."""
        if self.monitor.enabled:
            self.monitor.wire_port_departure(
                self, key, out_start_ps, out_end_ps, port.free_ps
            )
            self.monitor.topo_link_forwarded(self, key)
        port.free_ps = out_end_ps
        port.counts[1] += 1
        if hop == len(route) - 1:
            self._deliver(
                frame, out_start_ps + self.spec.propagation_delay_ps, span_start_ps
            )
        else:
            self._fly(frame, route, hop + 1, out_end_ps, span_start_ps)

    def _drop(self, port, key, frame: FabricFrame, ready_ps: int,
              reason: str) -> None:
        """Count a drop at ``key`` and report the loss at ``ready_ps``.
        A QoS port decides at that instant; an analytic FIFO hop decides
        earlier, so it reports from an event at ``ready_ps``."""
        port.counts[2] += 1
        self.drops += 1
        if self.monitor.enabled:
            self.monitor.topo_link_dropped(self, key)
            self.monitor.wire_dropped(self, frame.dst)
        fabric = self.fabric

        def lose() -> None:
            faults = fabric.endpoints[frame.dst].faults
            if reason == "switch_tail_drop" and faults is not None:
                faults.note_switch_drop(ready_ps, port=frame.dst)
            elif fabric.tracer.enabled:
                fabric.tracer.instant(
                    "fabric", reason, ready_ps,
                    dst=frame.dst, flow=frame.flow, link=key,
                )
            fabric.frame_lost(frame, ready_ps, reason)

        if self.qos is None:
            fabric.sim.schedule_at(ready_ps, lose)
        else:
            lose()

    def _deliver(self, frame: FabricFrame, available_ps: int, span_start_ps: int) -> None:
        self.forwarded += 1
        if self.monitor.enabled:
            self.monitor.wire_forwarded(
                self, frame.src, frame.dst, available_ps, self.spec.switch
            )
        fabric = self.fabric
        destination = fabric.endpoints[frame.dst]

        def arrive(frame=frame, available_ps=available_ps) -> None:
            destination.rx_arrive(frame, available_ps)

        fabric.sim.schedule_at(available_ps, arrive)
        if fabric.tracer.enabled:
            fabric.tracer.complete(
                "fabric",
                f"{frame.flow}:{frame.kind}#{frame.request_id}",
                span_start_ps,
                max(0, available_ps - span_start_ps),
                src=frame.src,
                dst=frame.dst,
                bytes=frame.frame_bytes,
            )

    # ------------------------------------------------------------------
    def window_snapshot(self) -> Dict[str, int]:
        return {"forwarded": self.forwarded, "drops": self.drops}

    @property
    def link_counts(self) -> Dict[Union[int, str], List[int]]:
        """Cumulative per-port [entered, forwarded, dropped] counters."""
        return {key: port.counts for key, port in self.ports.items()}

    def topology_window_snapshot(self) -> Optional[Dict[str, List[int]]]:
        """Copy of :attr:`link_counts` (``None`` without a topology);
        the measured window reports deltas."""
        if self.router is None:
            return None
        return {key: list(port.counts) for key, port in self.ports.items()}

    def qos_window_snapshot(self) -> Optional[Dict[str, List[int]]]:
        """Cumulative per-class counters summed across ports (``None``
        without a QoS config); the measured window reports deltas."""
        if self.qos is None:
            return None
        classes = len(self.qos.classes)
        totals = {key: [0] * classes for key in _QOS_COUNTERS}
        for port in self.ports.values():
            for key, counts in totals.items():
                for cls, value in enumerate(getattr(port, key)):
                    counts[cls] += value
        return totals
