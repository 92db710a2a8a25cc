"""The deterministic wire/switch model connecting fabric endpoints.

Two topologies, both pure integer-picosecond arithmetic (so two
identically configured runs are byte-identical):

* **Direct links** (``switch=False``): every source→destination pair
  has a dedicated link.  A frame's first bit reaches the destination
  MAC ``propagation_delay_ps`` after its first bit left the source
  MAC (``wire_start_ps``); serialization happens once, modeled by the
  receiving MAC.
* **Store-and-forward switch** (``switch=True``): the full frame must
  arrive at the switch (source ``wire_end_ps`` + propagation), pays
  ``switch_latency_ps`` for the forwarding decision, then contends for
  the destination's output port.  The port serializes frames
  back-to-back at line rate; at most ``port_queue_frames`` frames may
  be queued or in flight on a port — beyond that the newest arrival is
  *tail-dropped*, counted in :attr:`drops` and (when the destination
  NIC carries a fault injector) the ``switch_tail_drops`` fault
  counter, and reported to its flow as a loss.

With a :class:`~repro.qos.QosSpec` on the spec the switched ports grow
per-traffic-class queues (:class:`_QosPort`): arrivals are classified
by the DSCP-style tag their flow stamped on the frame, admitted
against the *class* queue capacity (tail-drop) and its optional RED
AQM (keyed, replayable drop decisions — see :mod:`repro.qos.red`),
and drained one frame per serialization slot by the port's pluggable
scheduler (strict priority / DRR / WRR, :mod:`repro.qos.sched`).
Crossing a class's XOFF watermark pauses the transmitting stream
pacers of that class PFC-style; draining to XON resumes them.  The
legacy single-FIFO arithmetic is untouched when ``qos is None``.

With a :class:`~repro.fabric.topology.TopologySpec` on the spec the
single implicit switch generalizes to a **graph** of store-and-forward
switches: every switch egress link owns its own serialization port
(the same :class:`_SwitchPort` — or :class:`_QosPort` when a QoS config
is present, so per-class queueing/RED/PFC compose per hop), frames
follow the deterministic keyed-blake2b ECMP route of their flow tuple
(:class:`~repro.fabric.topology.TopologyRouter`), and each hop pays
store-and-forward in full: the downstream switch sees the frame one
propagation after its serialization *end* on the upstream port — never
a reused source ``wire_end_ps`` stamp.  ``topology=None`` keeps both
legacy paths byte-identical.
"""

from __future__ import annotations

from typing import Deque, Dict, List, Optional
from collections import deque

from repro.assists.mac import WireEvent
from repro.check.monitor import NULL_MONITOR
from repro.fabric.flows import FabricFrame
from repro.fabric.spec import FabricSpec
from repro.fabric.topology import TopologyRouter
from repro.qos.red import red_decide, red_drop_probability
from repro.qos.sched import Scheduler, make_scheduler


class _SwitchPort:
    """Output-port state: serialization point plus occupancy queue."""

    __slots__ = ("free_ps", "departures")

    def __init__(self) -> None:
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
    """One frame parked in a class queue awaiting its serialization slot."""

    __slots__ = ("frame", "frame_bytes", "span_start_ps")

    def __init__(self, frame: FabricFrame, span_start_ps: int) -> None:
        self.frame = frame
        self.frame_bytes = frame.frame_bytes
        self.span_start_ps = span_start_ps


class _TopoQueuedFrame(_QueuedFrame):
    """A parked frame that still knows the rest of its route: a QoS
    port on a composed topology must forward a served frame to its next
    hop rather than always delivering it."""

    __slots__ = ("ports", "hop")

    def __init__(self, frame: FabricFrame, span_start_ps: int,
                 ports: tuple, hop: int) -> None:
        super().__init__(frame, span_start_ps)
        self.ports = ports
        self.hop = hop


class _QosPort:
    """Per-class queues + scheduler replacing one port's single FIFO.

    Unlike :class:`_SwitchPort` (whose analytic arithmetic resolves a
    frame's full port transit at transmit time), a QoS port is served
    event-by-event: the scheduler's pick for a serialization slot
    depends on which classes are backlogged *at that instant*, so the
    port runs a service chain — one event per frame at its
    serialization end — and ``busy`` marks a chain in flight.
    """

    __slots__ = (
        "index", "scheduler", "queues", "paused", "busy", "free_ps",
        "enqueued", "forwarded", "tail_drops", "red_drops",
        "pause_events", "resume_events", "red_index",
    )

    def __init__(self, index: int, scheduler: Scheduler, classes: int) -> None:
        self.index = index
        self.scheduler = scheduler
        self.queues: List[Deque[_QueuedFrame]] = [deque() for _ in range(classes)]
        self.paused: List[bool] = [False] * classes
        self.busy = False
        self.free_ps = 0
        self.enqueued = [0] * classes
        self.forwarded = [0] * classes
        self.tail_drops = [0] * classes
        self.red_drops = [0] * classes
        self.pause_events = [0] * classes
        self.resume_events = [0] * classes
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
        self._ports: List[_SwitchPort] = [_SwitchPort() for _ in range(spec.nics)]
        #: Invariant monitor (null by default; see ``repro.check``).
        self.monitor = NULL_MONITOR
        #: Per-class queue management (``None`` = legacy single FIFO).
        self.qos = spec.qos
        self._qos_ports: List[_QosPort] = []
        self._class_index: Dict[str, int] = {}
        #: Composed multi-switch graph (``None`` = the legacy single
        #: implicit switch / direct links).
        self.topology = spec.topology
        self.router: Optional[TopologyRouter] = (
            TopologyRouter(spec.topology) if spec.topology is not None else None
        )
        # Per-egress-link ports, created lazily (a 1024-endpoint
        # leaf-spine declares thousands of access links; only the ones
        # traffic crosses pay for state).  Keys are the router's
        # ``"leaf0->spine1"`` / ``"leaf1->h7"`` port names.
        self._topo_ports: Dict[str, _SwitchPort] = {}
        self._topo_qos_ports: Dict[str, _QosPort] = {}
        #: Cumulative per-link [entered, forwarded, dropped] counters
        #: (topology mode only; the per-link conservation identity).
        self.link_counts: Dict[str, List[int]] = {}
        self._port_routes: Dict[tuple, tuple] = {}
        if self.qos is not None:
            classes = len(self.qos.classes)
            if self.topology is None:
                # One independent scheduler instance per output port.
                self._qos_ports = [
                    _QosPort(index, make_scheduler(self.qos), classes)
                    for index in range(spec.nics)
                ]
            self._class_index = {
                tc.name: index for index, tc in enumerate(self.qos.classes)
            }

    # ------------------------------------------------------------------
    def transmit(self, src: int, frame: FabricFrame, wire: WireEvent) -> None:
        """Source NIC ``src`` put ``frame`` on the wire (``wire`` is its
        MAC timing).  Routes, queues, possibly drops, and ultimately
        schedules the destination's :meth:`rx_arrive`."""
        if self.monitor.enabled:
            self.monitor.wire_injected(self, src, frame.dst)
        if self.topology is not None:
            self._transmit_topology(src, frame, wire)
        elif self.spec.switch:
            self._transmit_switched(src, frame, wire)
        else:
            self._deliver(frame, wire.wire_start_ps + self.spec.propagation_delay_ps,
                          wire.wire_start_ps)

    # -- direct links ---------------------------------------------------
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

    # -- store-and-forward switch ---------------------------------------
    def _transmit_switched(self, src: int, frame: FabricFrame, wire: WireEvent) -> None:
        if self.qos is not None:
            self._transmit_qos(frame, wire)
            return
        spec = self.spec
        # Full frame at the switch, then the forwarding decision.
        ready_ps = wire.wire_end_ps + spec.propagation_delay_ps + spec.switch_latency_ps
        port = self._ports[frame.dst]
        if port.occupancy(ready_ps) >= spec.port_queue_frames:
            self.drops += 1
            if self.monitor.enabled:
                self.monitor.wire_dropped(self, frame.dst)
            fabric = self.fabric
            destination = fabric.endpoints[frame.dst]

            def drop(frame=frame, ready_ps=ready_ps, dst=frame.dst) -> None:
                if destination.faults is not None:
                    destination.faults.note_switch_drop(ready_ps, port=dst)
                elif fabric.tracer.enabled:
                    fabric.tracer.instant(
                        "fabric", "switch_tail_drop", ready_ps,
                        dst=dst, flow=frame.flow,
                    )
                fabric.frame_lost(frame, ready_ps, "switch_tail_drop")

            fabric.sim.schedule_at(ready_ps, drop)
            return
        out_start = max(ready_ps, port.free_ps)
        out_end = out_start + self.fabric.timing.frame_time_ps(frame.frame_bytes)
        if self.monitor.enabled:
            self.monitor.wire_port_departure(
                self, frame.dst, out_start, out_end, port.free_ps
            )
        port.free_ps = out_end
        port.departures.append(out_end)
        # The destination MAC re-serializes from the first bit leaving
        # the switch port: first bit at out_start + propagation.
        self._deliver(frame, out_start + spec.propagation_delay_ps, wire.wire_start_ps)

    # -- per-class (QoS) switch ports -----------------------------------
    def _transmit_qos(self, frame: FabricFrame, wire: WireEvent) -> None:
        spec = self.spec
        ready_ps = wire.wire_end_ps + spec.propagation_delay_ps + spec.switch_latency_ps
        span_start_ps = wire.wire_start_ps
        if self.monitor.enabled:
            self.monitor.qos_injected(
                self, frame.dst, self._class_index[frame.qos_class]
            )

        # Admission and scheduling depend on queue state *at arrival*,
        # so the decision runs as its own event (the kernel orders
        # same-instant arrivals by schedule ticket, so it is
        # deterministic).
        def arrive(frame=frame, ready_ps=ready_ps,
                   span_start_ps=span_start_ps) -> None:
            self._qos_arrive(frame, ready_ps, span_start_ps)

        self.fabric.sim.schedule_at(ready_ps, arrive)

    def _qos_arrive(self, frame: FabricFrame, now_ps: int,
                    span_start_ps: int) -> None:
        qos = self.qos
        port = self._qos_ports[frame.dst]
        cls = self._class_index[frame.qos_class]
        tc = qos.classes[cls]
        queue = port.queues[cls]
        occupancy = len(queue)
        if occupancy >= tc.queue_frames:
            self._qos_drop(port, cls, frame, now_ps, "switch_tail_drop")
            return
        if tc.red is not None:
            probability = red_drop_probability(occupancy, tc.red)
            if probability > 0.0:
                index = port.red_index[cls]
                port.red_index[cls] = index + 1
                if red_decide(qos.seed, port.index, tc.name, index, probability):
                    self._qos_drop(port, cls, frame, now_ps, "switch_red_drop")
                    return
        queue.append(_QueuedFrame(frame, span_start_ps))
        port.enqueued[cls] += 1
        if self.monitor.enabled:
            self.monitor.qos_enqueued(self, port.index, cls, len(queue))
        # PFC-style XOFF: crossing the watermark pauses this class's
        # transmitting stream pacers (zero-delay control message —
        # docs/qos.md documents the simplification).
        if (tc.pause_xoff_frames and not port.paused[cls]
                and len(queue) >= tc.pause_xoff_frames):
            port.paused[cls] = True
            port.pause_events[cls] += 1
            if self.monitor.enabled:
                self.monitor.qos_pause(self, port.index, cls, True)
            self.fabric.qos_pause(port.index, cls, now_ps)
        if not port.busy:
            port.busy = True
            self._qos_service(port)

    def _qos_drop(self, port: _QosPort, cls: int, frame: FabricFrame,
                  now_ps: int, reason: str) -> None:
        self.drops += 1
        if reason == "switch_tail_drop":
            port.tail_drops[cls] += 1
        else:
            port.red_drops[cls] += 1
        if self.monitor.enabled:
            self.monitor.qos_dropped(
                self, port.index, cls,
                "tail" if reason == "switch_tail_drop" else "red",
            )
            self.monitor.wire_dropped(self, frame.dst)
        fabric = self.fabric
        destination = fabric.endpoints[frame.dst]
        if reason == "switch_tail_drop" and destination.faults is not None:
            destination.faults.note_switch_drop(now_ps, port=frame.dst)
        elif fabric.tracer.enabled:
            fabric.tracer.instant(
                "fabric", reason, now_ps, dst=frame.dst, flow=frame.flow,
            )
        fabric.frame_lost(frame, now_ps, reason)

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
        if self.monitor.enabled:
            self.monitor.qos_forwarded(self, port.index, cls, len(queue))
            self.monitor.wire_port_departure(
                self, port.index, out_start, out_end, port.free_ps
            )
        port.free_ps = out_end
        port.forwarded[cls] += 1
        # PFC-style XON: drained to the low watermark — resume pacers.
        tc = self.qos.classes[cls]
        if port.paused[cls] and len(queue) <= tc.pause_xon_frames:
            port.paused[cls] = False
            port.resume_events[cls] += 1
            if self.monitor.enabled:
                self.monitor.qos_pause(self, port.index, cls, False)
            self.fabric.qos_resume(port.index, cls, now_ps)
        self._deliver(
            entry.frame,
            out_start + self.spec.propagation_delay_ps,
            entry.span_start_ps,
        )

        def serve_next(port=port) -> None:
            self._qos_service(port)

        sim.schedule_at(out_end, serve_next)

    # -- composed topologies (graph of switches) ------------------------
    def route_ports(self, flow: str, src: int, dst: int) -> tuple:
        """The egress ports a flow tuple traverses (memoized).  The
        invariant monitor audits each route once, when first resolved:
        loop-free, within the topology's shortest-path hop bound, and
        never re-resolved differently."""
        key = (flow, src, dst)
        ports = self._port_routes.get(key)
        if ports is None:
            ports = self.router.route_ports(flow, src, dst)
            if self.monitor.enabled:
                self.monitor.topo_route(
                    self, flow, src, dst,
                    self.router.route(flow, src, dst),
                    self.router.hop_bound(),
                )
            self._port_routes[key] = ports
        return ports

    def _topo_port(self, key: str) -> _SwitchPort:
        port = self._topo_ports.get(key)
        if port is None:
            port = self._topo_ports[key] = _SwitchPort()
        return port

    def _topo_qos_port(self, key: str) -> _QosPort:
        port = self._topo_qos_ports.get(key)
        if port is None:
            port = _QosPort(key, make_scheduler(self.qos), len(self.qos.classes))
            self._topo_qos_ports[key] = port
        return port

    def _link(self, key: str) -> List[int]:
        counts = self.link_counts.get(key)
        if counts is None:
            counts = self.link_counts[key] = [0, 0, 0]
        return counts

    def _transmit_topology(self, src: int, frame: FabricFrame,
                           wire: WireEvent) -> None:
        ports = self.route_ports(frame.flow, src, frame.dst)
        # Store-and-forward at the access switch: the full frame is on
        # the wire at the source MAC's wire_end_ps, and lands one
        # propagation later.  Every subsequent hop re-derives its own
        # serialization end — the source stamp is never reused.
        self._topo_next(frame, ports, 0, wire.wire_end_ps, wire.wire_start_ps)

    def _topo_next(self, frame: FabricFrame, ports: tuple, index: int,
                   out_end_ps: int, span_start_ps: int) -> None:
        """Put ``frame`` in flight toward the switch owning
        ``ports[index]``: its last bit left the upstream serialization
        point at ``out_end_ps``, so the downstream switch holds the full
        frame one propagation later (store-and-forward per link)."""
        if self.monitor.enabled:
            self.monitor.topo_transit(self, 1)
        arrive_ps = out_end_ps + self.spec.propagation_delay_ps
        if self.qos is not None:
            # Classification/admission sees queue state at the instant
            # the forwarding decision completes, as on the single-switch
            # QoS path.
            when = arrive_ps + self.spec.switch_latency_ps

            def admit(frame=frame, ports=ports, index=index,
                      span_start_ps=span_start_ps) -> None:
                self._topo_qos_admit(frame, ports, index, span_start_ps)

            self.fabric.sim.schedule_at(when, admit)
            return

        def hop(frame=frame, ports=ports, index=index,
                span_start_ps=span_start_ps) -> None:
            self._topo_hop(frame, ports, index, span_start_ps)

        self.fabric.sim.schedule_at(arrive_ps, hop)

    def _topo_hop(self, frame: FabricFrame, ports: tuple, index: int,
                  span_start_ps: int) -> None:
        """One analytic store-and-forward hop, run at the frame's
        arrival-end instant: pay the forwarding latency, contend for the
        egress link's port, then deliver (last hop) or fly onward."""
        spec = self.spec
        key = ports[index]
        ready_ps = self.fabric.sim.now_ps + spec.switch_latency_ps
        port = self._topo_port(key)
        counts = self._link(key)
        counts[0] += 1
        if self.monitor.enabled:
            self.monitor.topo_transit(self, -1)
            self.monitor.topo_link_entered(self, key)
        if port.occupancy(ready_ps) >= spec.port_queue_frames:
            counts[2] += 1
            self.drops += 1
            if self.monitor.enabled:
                self.monitor.topo_link_dropped(self, key)
                self.monitor.wire_dropped(self, frame.dst)
            fabric = self.fabric
            destination = fabric.endpoints[frame.dst]

            def drop(frame=frame, ready_ps=ready_ps, key=key) -> None:
                if destination.faults is not None:
                    destination.faults.note_switch_drop(ready_ps, port=frame.dst)
                elif fabric.tracer.enabled:
                    fabric.tracer.instant(
                        "fabric", "switch_tail_drop", ready_ps,
                        dst=frame.dst, flow=frame.flow, link=key,
                    )
                fabric.frame_lost(frame, ready_ps, "switch_tail_drop")

            fabric.sim.schedule_at(ready_ps, drop)
            return
        out_start = max(ready_ps, port.free_ps)
        out_end = out_start + self.fabric.timing.frame_time_ps(frame.frame_bytes)
        if self.monitor.enabled:
            self.monitor.wire_port_departure(
                self, key, out_start, out_end, port.free_ps
            )
        port.free_ps = out_end
        port.departures.append(out_end)
        counts[1] += 1
        if self.monitor.enabled:
            self.monitor.topo_link_forwarded(self, key)
        if index == len(ports) - 1:
            # Final (access) link: the destination MAC re-serializes
            # from the first bit leaving the switch port, as on the
            # single-switch path.
            self._deliver(
                frame, out_start + spec.propagation_delay_ps, span_start_ps
            )
            return
        self._topo_next(frame, ports, index + 1, out_end, span_start_ps)

    def _topo_qos_admit(self, frame: FabricFrame, ports: tuple, index: int,
                        span_start_ps: int) -> None:
        """Per-hop classification/admission on a QoS graph port —
        the :meth:`_qos_arrive` logic keyed by egress link, with the
        keyed RED decision stream named after the link."""
        now_ps = self.fabric.sim.now_ps
        qos = self.qos
        key = ports[index]
        port = self._topo_qos_port(key)
        cls = self._class_index[frame.qos_class]
        tc = qos.classes[cls]
        counts = self._link(key)
        counts[0] += 1
        if self.monitor.enabled:
            self.monitor.topo_transit(self, -1)
            self.monitor.topo_link_entered(self, key)
            self.monitor.qos_injected(self, key, cls)
        queue = port.queues[cls]
        occupancy = len(queue)
        if occupancy >= tc.queue_frames:
            self._topo_qos_drop(port, cls, frame, now_ps, "switch_tail_drop")
            return
        if tc.red is not None:
            probability = red_drop_probability(occupancy, tc.red)
            if probability > 0.0:
                red_index = port.red_index[cls]
                port.red_index[cls] = red_index + 1
                if red_decide(qos.seed, port.index, tc.name, red_index,
                              probability):
                    self._topo_qos_drop(
                        port, cls, frame, now_ps, "switch_red_drop"
                    )
                    return
        queue.append(_TopoQueuedFrame(frame, span_start_ps, ports, index))
        port.enqueued[cls] += 1
        if self.monitor.enabled:
            self.monitor.qos_enqueued(self, key, cls, len(queue))
        if (tc.pause_xoff_frames and not port.paused[cls]
                and len(queue) >= tc.pause_xoff_frames):
            port.paused[cls] = True
            port.pause_events[cls] += 1
            if self.monitor.enabled:
                self.monitor.qos_pause(self, key, cls, True)
            self.fabric.qos_pause(port.index, cls, now_ps)
        if not port.busy:
            port.busy = True
            self._topo_qos_service(port)

    def _topo_qos_drop(self, port: _QosPort, cls: int, frame: FabricFrame,
                       now_ps: int, reason: str) -> None:
        key = port.index
        self._link(key)[2] += 1
        self.drops += 1
        if reason == "switch_tail_drop":
            port.tail_drops[cls] += 1
        else:
            port.red_drops[cls] += 1
        if self.monitor.enabled:
            self.monitor.topo_link_dropped(self, key)
            self.monitor.qos_dropped(
                self, key, cls,
                "tail" if reason == "switch_tail_drop" else "red",
            )
            self.monitor.wire_dropped(self, frame.dst)
        fabric = self.fabric
        destination = fabric.endpoints[frame.dst]
        if reason == "switch_tail_drop" and destination.faults is not None:
            destination.faults.note_switch_drop(now_ps, port=frame.dst)
        elif fabric.tracer.enabled:
            fabric.tracer.instant(
                "fabric", reason, now_ps, dst=frame.dst, flow=frame.flow,
                link=key,
            )
        fabric.frame_lost(frame, now_ps, reason)

    def _topo_qos_service(self, port: _QosPort) -> None:
        """One serialization slot on a QoS graph port: identical
        scheduler/pause arithmetic to :meth:`_qos_service`, but a served
        frame continues along its route instead of always delivering."""
        sim = self.fabric.sim
        now_ps = sim.now_ps
        cls = port.scheduler.select(port.queues)
        if cls is None:
            if self.monitor.enabled:
                self.monitor.qos_port_idle(self, port.index, port.backlog())
            port.busy = False
            return
        queue = port.queues[cls]
        entry = queue.popleft()
        out_start = now_ps if now_ps >= port.free_ps else port.free_ps
        out_end = out_start + self.fabric.timing.frame_time_ps(entry.frame_bytes)
        if self.monitor.enabled:
            self.monitor.qos_forwarded(self, port.index, cls, len(queue))
            self.monitor.wire_port_departure(
                self, port.index, out_start, out_end, port.free_ps
            )
        port.free_ps = out_end
        port.forwarded[cls] += 1
        self._link(port.index)[1] += 1
        if self.monitor.enabled:
            self.monitor.topo_link_forwarded(self, port.index)
        tc = self.qos.classes[cls]
        if port.paused[cls] and len(queue) <= tc.pause_xon_frames:
            port.paused[cls] = False
            port.resume_events[cls] += 1
            if self.monitor.enabled:
                self.monitor.qos_pause(self, port.index, cls, False)
            self.fabric.qos_resume(port.index, cls, now_ps)
        if entry.hop == len(entry.ports) - 1:
            self._deliver(
                entry.frame,
                out_start + self.spec.propagation_delay_ps,
                entry.span_start_ps,
            )
        else:
            self._topo_next(
                entry.frame, entry.ports, entry.hop + 1, out_end,
                entry.span_start_ps,
            )

        def serve_next(port=port) -> None:
            self._topo_qos_service(port)

        sim.schedule_at(out_end, serve_next)

    # ------------------------------------------------------------------
    def window_snapshot(self) -> Dict[str, int]:
        return {"forwarded": self.forwarded, "drops": self.drops}

    def qos_ports(self) -> List[_QosPort]:
        """Every live QoS port: the per-destination ports of the single
        implicit switch, or the per-egress-link ports of a composed
        topology (in deterministic link-name order)."""
        if self.topology is None:
            return self._qos_ports
        return [self._topo_qos_ports[key]
                for key in sorted(self._topo_qos_ports)]

    def topology_window_snapshot(self) -> Optional[Dict[str, List[int]]]:
        """Cumulative per-link [entered, forwarded, dropped] counters
        (``None`` without a topology); the measured window reports
        deltas."""
        if self.topology is None:
            return None
        return {key: list(counts) for key, counts in self.link_counts.items()}

    def qos_window_snapshot(self) -> Optional[Dict[str, List[int]]]:
        """Cumulative per-class counters summed across ports (``None``
        without a QoS config); the measured window reports deltas."""
        if self.qos is None:
            return None
        classes = len(self.qos.classes)
        totals = {
            key: [0] * classes
            for key in ("enqueued", "forwarded", "tail_drops", "red_drops",
                        "pause_events", "resume_events")
        }
        for port in self.qos_ports():
            for cls in range(classes):
                totals["enqueued"][cls] += port.enqueued[cls]
                totals["forwarded"][cls] += port.forwarded[cls]
                totals["tail_drops"][cls] += port.tail_drops[cls]
                totals["red_drops"][cls] += port.red_drops[cls]
                totals["pause_events"][cls] += port.pause_events[cls]
                totals["resume_events"][cls] += port.resume_events[cls]
        return totals
