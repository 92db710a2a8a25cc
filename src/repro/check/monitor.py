"""Runtime invariant monitors (null-object pattern, like ``Tracer``).

The simulator's correctness story rests on properties that are easy to
break silently: the kernel clock must never move backwards, every
scheduled event ticket must be fired / cancelled / discarded exactly
once, the ordering boards' commit pointers must advance monotonically
and only across marked-or-skipped slots, locks must grant in FIFO
reservation order, the distributed event queue must conserve
``enqueues - dequeues == depth``, and the fabric wire must conserve
``injected == forwarded + dropped + queued`` (``queued`` is only
non-zero while a QoS-configured switch holds frames in per-class
queues; the legacy wire resolves every frame at transmit time).

This module provides the *monitoring* half of ``repro.check``:

* :class:`NullInvariantMonitor` — the always-off default, defined in
  :mod:`repro.check.nullmonitor` and re-exported here.  Every
  instrumented object holds :data:`NULL_MONITOR` unless a monitor is
  explicitly attached, and every hook site is gated by
  ``if self.monitor.enabled:`` so a disabled run executes exactly the
  same instruction stream (and produces byte-identical results) as a
  build without monitors.
* :class:`InvariantMonitor` — the armed monitor.  Hooks record shadow
  state (live ticket sets, per-board outstanding slots, per-lock grant
  fronts) and raise :exc:`InvariantViolation` the moment an invariant
  breaks, with enough context to localize the bug.

The instrumented layers import only :mod:`repro.check.nullmonitor`, so
a run that never attaches a monitor does not compile this module.
Neither imports anything else from ``repro``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.check.nullmonitor import NULL_MONITOR, NullInvariantMonitor  # noqa: F401


class InvariantViolation(AssertionError):
    """An armed :class:`InvariantMonitor` detected a broken invariant.

    Subclasses :class:`AssertionError` so test harnesses and pytest
    treat it as an assertion failure, while still being catchable
    specifically (the fuzz harness catches exactly this).
    """

    def __init__(self, invariant: str, message: str, **context: Any) -> None:
        self.invariant = invariant
        self.context = dict(context)
        detail = ", ".join(f"{k}={v!r}" for k, v in sorted(self.context.items()))
        super().__init__(f"[{invariant}] {message}" + (f" ({detail})" if detail else ""))


class _BoardShadow:
    """Monitor-side mirror of one :class:`OrderingBoard`."""

    __slots__ = ("name", "ring_size", "commit_seq", "outstanding")

    def __init__(self, name: str, ring_size: int, commit_seq: int) -> None:
        self.name = name
        self.ring_size = ring_size
        self.commit_seq = commit_seq
        # seq -> "mark" | "skip" for marked-but-uncommitted slots.
        self.outstanding: Dict[int, str] = {}


class InvariantMonitor(NullInvariantMonitor):
    """Records shadow state and raises on the first broken invariant.

    One monitor instance may watch an arbitrary set of objects — a whole
    :class:`~repro.fabric.sim.FabricSimulator` with N endpoints sharing
    one kernel is fine — because all shadow state is keyed by object
    identity.  Attach with :func:`repro.check.attach_monitor`.

    ``strict`` (default) raises :exc:`InvariantViolation` immediately;
    with ``strict=False`` violations are collected in
    :attr:`violations` instead, which the differential oracles use to
    report *all* broken properties of a run rather than the first.
    """

    enabled = True

    def __init__(self, strict: bool = True) -> None:
        self.strict = strict
        self.violations: List[InvariantViolation] = []
        self.checks: Dict[str, int] = {}
        # Kernel shadow: tickets physically live in some heap.
        self._live_tickets: set = set()
        self._cancelled_tickets: set = set()
        self._last_fire_ps: int = 0
        self.events_scheduled = 0
        self.events_fired = 0
        self.events_cancelled = 0
        self.events_discarded = 0
        # Ordering boards / locks / cores / memories, keyed by identity.
        self._boards: Dict[int, _BoardShadow] = {}
        self._lock_free: Dict[int, int] = {}
        self._cores_busy: Dict[int, set] = {}
        self._register_holders: Dict[Tuple[int, Any], int] = {}
        self._sdram_bus_free: Dict[int, int] = {}
        # Fabric wires, keyed by identity.
        # [injected, forwarded, dropped, queued] — queued is the shadow
        # of frames in flight to a switch or parked in per-class QoS
        # queues (always 0 on direct links and on the implicit FIFO
        # switch, which resolves frames at transmit time).
        self._wire_counts: Dict[int, List[int]] = {}
        self._wire_delivery: Dict[Tuple[int, str, int], int] = {}
        self._wire_port_free: Dict[Tuple[int, int], int] = {}
        # Per-(wire, port, class) QoS shadows:
        # [enqueued, forwarded, tail drops, red drops] and pause state.
        self._qos_counts: Dict[Tuple[int, int, int], List[int]] = {}
        self._qos_paused: Dict[Tuple[int, int, int], bool] = {}
        # Switch-port shadows: per-(wire, port) [entered, forwarded,
        # dropped] counters and resolved topology routes.
        self._topo_links: Dict[Tuple[int, str], List[int]] = {}
        self._topo_routes: Dict[Tuple[int, str, int, int], Any] = {}
        # Multi-queue host rings: (host id, ring, direction) ->
        # [posted, completed] descriptor counts.
        self._ring_counts: Dict[Tuple[int, int, str], List[int]] = {}
        # Strong references to every object with identity-keyed shadow
        # state.  ``id()`` values are only unique among *live* objects:
        # without the pin, a garbage-collected board's id can be reused
        # by a replacement board (N rings/boards churning against one
        # shared monitor make this likely), which would then inherit the
        # dead object's shadow and fail with a phantom violation.  The
        # mutation test in tests/test_check_monitor.py demonstrates the
        # pre-fix failure.
        self._pins: Dict[int, Any] = {}

    def _pin(self, obj: Any) -> None:
        self._pins.setdefault(id(obj), obj)

    # ------------------------------------------------------------------
    def _fail(self, invariant: str, message: str, **context: Any) -> None:
        violation = InvariantViolation(invariant, message, **context)
        self.violations.append(violation)
        if self.strict:
            raise violation

    def _count(self, invariant: str) -> None:
        self.checks[invariant] = self.checks.get(invariant, 0) + 1

    # ------------------------------------------------------------------
    # Kernel: clock monotonicity + ticket conservation
    # ------------------------------------------------------------------
    def event_scheduled(self, ticket: int, when_ps: int, now_ps: int) -> None:
        self._count("kernel.schedule")
        self.events_scheduled += 1
        if when_ps < now_ps:
            self._fail("kernel.schedule", "event scheduled in the past",
                       ticket=ticket, when_ps=when_ps, now_ps=now_ps)
        if ticket in self._live_tickets:
            self._fail("kernel.schedule", "ticket reused while still live",
                       ticket=ticket)
        self._live_tickets.add(ticket)

    def event_fired(self, ticket: int, when_ps: int, now_ps: int) -> None:
        self._count("kernel.fire")
        self.events_fired += 1
        if when_ps < now_ps:
            self._fail("kernel.clock", "clock would move backwards",
                       ticket=ticket, when_ps=when_ps, now_ps=now_ps)
        if when_ps < self._last_fire_ps:
            self._fail("kernel.clock", "fire time precedes previous fire",
                       ticket=ticket, when_ps=when_ps,
                       last_fire_ps=self._last_fire_ps)
        self._last_fire_ps = when_ps
        if ticket not in self._live_tickets:
            self._fail("kernel.ticket", "fired a ticket that was never live",
                       ticket=ticket)
        else:
            self._live_tickets.discard(ticket)
        if ticket in self._cancelled_tickets:
            self._fail("kernel.ticket", "fired a cancelled ticket",
                       ticket=ticket)

    def event_cancelled(self, ticket: int) -> None:
        self._count("kernel.cancel")
        self.events_cancelled += 1
        if ticket not in self._live_tickets:
            self._fail("kernel.ticket", "cancelled a ticket not in the heap",
                       ticket=ticket)
        self._cancelled_tickets.add(ticket)

    def event_discarded(self, ticket: int) -> None:
        self._count("kernel.discard")
        self.events_discarded += 1
        if ticket not in self._cancelled_tickets:
            self._fail("kernel.ticket", "discarded a ticket never cancelled",
                       ticket=ticket)
        else:
            self._cancelled_tickets.discard(ticket)
        self._live_tickets.discard(ticket)

    def check_ticket_conservation(self) -> None:
        """Post-run: scheduled == fired + discarded + still-live."""
        self._count("kernel.conservation")
        still_live = len(self._live_tickets)
        if self.events_scheduled != (
            self.events_fired + self.events_discarded + still_live
        ):
            self._fail(
                "kernel.conservation",
                "event tickets not conserved",
                scheduled=self.events_scheduled,
                fired=self.events_fired,
                discarded=self.events_discarded,
                live=still_live,
            )

    # ------------------------------------------------------------------
    # Ordering boards: commit-pointer monotonicity + hole-skip safety
    # ------------------------------------------------------------------
    def _board(self, board: Any) -> _BoardShadow:
        shadow = self._boards.get(id(board))
        if shadow is None:
            self._pin(board)
            shadow = _BoardShadow(
                getattr(board, "name", "board"),
                board.ring_size,
                board.commit_seq,
            )
            self._boards[id(board)] = shadow
        return shadow

    def board_marked(self, board: Any, seq: int) -> None:
        self._count("board.mark")
        shadow = self._board(board)
        if seq < shadow.commit_seq:
            self._fail("board.mark", "marked an already-committed sequence",
                       board=shadow.name, seq=seq, commit_seq=shadow.commit_seq)
        if seq >= shadow.commit_seq + shadow.ring_size:
            self._fail("board.mark", "mark would lap the ring",
                       board=shadow.name, seq=seq, commit_seq=shadow.commit_seq,
                       ring_size=shadow.ring_size)
        shadow.outstanding[seq] = "mark"

    def board_skipped(self, board: Any, seq: int) -> None:
        """Reclassify the just-marked ``seq`` as a hole (fault recovery)."""
        self._count("board.skip")
        shadow = self._board(board)
        if shadow.outstanding.get(seq) != "mark":
            self._fail("board.skip", "skip of a slot that was not just marked",
                       board=shadow.name, seq=seq)
        shadow.outstanding[seq] = "skip"

    def board_committed(self, board: Any, old_seq: int, new_seq: int,
                        count: int) -> None:
        self._count("board.commit")
        shadow = self._board(board)
        if old_seq != shadow.commit_seq:
            self._fail("board.commit", "commit pointer moved outside commit()",
                       board=shadow.name, observed=old_seq,
                       shadow=shadow.commit_seq)
        if new_seq < old_seq:
            self._fail("board.commit", "commit pointer moved backwards",
                       board=shadow.name, old=old_seq, new=new_seq)
        if new_seq - old_seq != count:
            self._fail("board.commit", "committed count disagrees with pointer",
                       board=shadow.name, old=old_seq, new=new_seq, count=count)
        if new_seq - old_seq > shadow.ring_size:
            self._fail("board.commit", "commit advanced more than one ring",
                       board=shadow.name, old=old_seq, new=new_seq)
        for seq in range(old_seq, new_seq):
            kind = shadow.outstanding.pop(seq, None)
            if kind is None:
                self._fail("board.commit",
                           "committed a slot never marked or skipped",
                           board=shadow.name, seq=seq)
        # Hole-skip safety / liveness: if the head slot is done (marked
        # or skipped — including a hole), the scan must advance past it.
        if count == 0 and old_seq in shadow.outstanding:
            self._fail("board.commit",
                       "commit scan wedged at a done slot",
                       board=shadow.name, seq=old_seq,
                       kind=shadow.outstanding[old_seq])
        shadow.commit_seq = new_seq
        if board.commit_seq != new_seq:
            self._fail("board.commit", "board pointer disagrees with commit",
                       board=shadow.name, pointer=board.commit_seq, new=new_seq)

    # ------------------------------------------------------------------
    # Distributed event queue: claim/complete conservation
    # ------------------------------------------------------------------
    def _check_queue(self, queue: Any, op: str) -> None:
        depth = len(queue)
        if queue.enqueues - queue.dequeues != depth:
            self._fail("queue.conservation",
                       "enqueues - dequeues != depth",
                       op=op, enqueues=queue.enqueues,
                       dequeues=queue.dequeues, depth=depth)
        if depth > queue.max_depth:
            self._fail("queue.depth", "queue deeper than its bound",
                       depth=depth, max_depth=queue.max_depth)

    def queue_pushed(self, queue: Any) -> None:
        self._count("queue.push")
        self._check_queue(queue, "push")

    def queue_popped(self, queue: Any) -> None:
        self._count("queue.pop")
        self._check_queue(queue, "pop")

    # ------------------------------------------------------------------
    # Event register: claim/release pairing
    # ------------------------------------------------------------------
    def register_claimed(self, register: Any, kind: Any, core_id: int) -> None:
        self._count("register.claim")
        self._pin(register)
        key = (id(register), kind)
        holder = self._register_holders.get(key)
        if holder is not None and holder != core_id:
            self._fail("register.claim", "event type claimed by two cores",
                       kind=str(kind), holder=holder, claimant=core_id)
        self._register_holders[key] = core_id

    def register_released(self, register: Any, kind: Any, core_id: int) -> None:
        self._count("register.release")
        key = (id(register), kind)
        holder = self._register_holders.pop(key, None)
        if holder != core_id:
            self._fail("register.release",
                       "release by a core that does not hold the claim",
                       kind=str(kind), holder=holder, releaser=core_id)

    # ------------------------------------------------------------------
    # Locks: FIFO grant discipline
    # ------------------------------------------------------------------
    def lock_acquired(self, lock: Any, request_ps: int, grant_ps: int,
                      free_at_ps: int) -> None:
        self._count("lock.acquire")
        self._pin(lock)
        prev_free = self._lock_free.get(id(lock), 0)
        expected = request_ps if request_ps > prev_free else prev_free
        if grant_ps != expected:
            self._fail("lock.fifo", "grant is not max(request, previous-free)",
                       lock=lock.name, request_ps=request_ps,
                       grant_ps=grant_ps, prev_free_ps=prev_free)
        if free_at_ps < grant_ps:
            self._fail("lock.hold", "lock freed before it was granted",
                       lock=lock.name, grant_ps=grant_ps, free_at_ps=free_at_ps)
        if free_at_ps < prev_free:
            self._fail("lock.fifo", "lock free point moved backwards",
                       lock=lock.name, free_at_ps=free_at_ps,
                       prev_free_ps=prev_free)
        self._lock_free[id(lock)] = free_at_ps

    # ------------------------------------------------------------------
    # Cores: claim/complete conservation
    # ------------------------------------------------------------------
    def core_claimed(self, owner: Any, core_id: int) -> None:
        self._count("core.claim")
        self._pin(owner)
        busy = self._cores_busy.setdefault(id(owner), set())
        if core_id in busy:
            self._fail("core.claim", "core dispatched while already busy",
                       core_id=core_id)
        busy.add(core_id)

    def core_released(self, owner: Any, core_id: int) -> None:
        self._count("core.release")
        self._pin(owner)
        busy = self._cores_busy.setdefault(id(owner), set())
        if core_id not in busy:
            self._fail("core.release", "idle core released", core_id=core_id)
        busy.discard(core_id)

    # ------------------------------------------------------------------
    # Memories
    # ------------------------------------------------------------------
    def scratchpad_access(self, scratchpad: Any, access: Any) -> None:
        self._count("scratchpad.access")
        if not 0 <= access.bank < scratchpad.banks:
            self._fail("scratchpad.bank", "bank index out of range",
                       bank=access.bank, banks=scratchpad.banks)
        if access.grant_cycle < access.request_cycle:
            self._fail("scratchpad.grant", "granted before requested",
                       request=access.request_cycle, grant=access.grant_cycle)
        if access.data_cycle <= access.grant_cycle:
            self._fail("scratchpad.data", "data returned at or before grant",
                       grant=access.grant_cycle, data=access.data_cycle)

    def sdram_transfer(self, sdram: Any, request: Any, cycle: int,
                       nbytes: int) -> None:
        self._count("sdram.transfer")
        gran = sdram.ACCESS_GRANULARITY_BYTES
        if request.transferred_bytes < nbytes:
            self._fail("sdram.padding", "padded burst smaller than payload",
                       nbytes=nbytes, padded=request.transferred_bytes)
        if request.transferred_bytes % gran:
            self._fail("sdram.padding", "burst not device-word aligned",
                       padded=request.transferred_bytes, granularity=gran)
        if request.start_cycle < cycle:
            self._fail("sdram.timing", "burst started before it was issued",
                       cycle=cycle, start=request.start_cycle)
        if request.finish_cycle <= request.start_cycle:
            self._fail("sdram.timing", "burst finished at or before start",
                       start=request.start_cycle, finish=request.finish_cycle)
        self._pin(sdram)
        prev_free = self._sdram_bus_free.get(id(sdram), 0)
        if sdram._bus_free_cycle < prev_free:
            self._fail("sdram.bus", "bus free point moved backwards",
                       free=sdram._bus_free_cycle, prev_free=prev_free)
        self._sdram_bus_free[id(sdram)] = sdram._bus_free_cycle

    # ------------------------------------------------------------------
    # Multi-queue host rings: per-ring descriptor conservation
    # ------------------------------------------------------------------
    def _ring(self, host: Any, ring_index: int, direction: str,
              posted_delta: int, completed_delta: int) -> List[int]:
        key = (id(host), ring_index, direction)
        counts = self._ring_counts.get(key)
        if counts is None:
            # Monitors attach after construction (and the initial
            # receive fill), so the baseline is the live counters minus
            # the delta being reported by this very hook.
            self._pin(host)
            ring = host.rings[ring_index]
            if direction == "rx":
                posted, completed = ring.rx_posted, ring.rx_completed
            else:
                posted, completed = ring.tx_posted, ring.tx_completed
            counts = [posted - posted_delta, completed - completed_delta]
            self._ring_counts[key] = counts
        return counts

    def _check_ring(self, host: Any, ring_index: int, direction: str,
                    counts: List[int]) -> None:
        ring = host.rings[ring_index]
        posted, completed = counts
        in_flight = posted - completed
        if in_flight < 0:
            self._fail("ring.conservation",
                       "completed descriptors exceed posted",
                       ring=ring_index, direction=direction,
                       posted=posted, completed=completed)
        if direction == "rx":
            live = (ring.rx_posted, ring.rx_completed)
            capacity = ring.recv_ring.capacity
            held = len(ring.recv_ring)
        else:
            live = (ring.tx_posted, ring.tx_completed)
            capacity = ring.send_ring.capacity // 2
            held = len(ring.send_ring) // 2
        if live != (posted, completed):
            self._fail("ring.conservation",
                       "ring counters disagree with observed hooks",
                       ring=ring_index, direction=direction,
                       live_posted=live[0], live_completed=live[1],
                       posted=posted, completed=completed)
        # The conservation identity itself: every posted descriptor is
        # either completed or still held in the ring (in flight).
        if in_flight != held:
            self._fail("ring.conservation",
                       "posted != completed + in-flight",
                       ring=ring_index, direction=direction,
                       posted=posted, completed=completed, in_flight=held)
        if in_flight > capacity:
            self._fail("ring.bound", "in-flight descriptors exceed capacity",
                       ring=ring_index, direction=direction,
                       in_flight=in_flight, capacity=capacity)

    def ring_posted(self, host: Any, ring_index: int, direction: str,
                    count: int) -> None:
        self._count("ring.post")
        counts = self._ring(host, ring_index, direction, count, 0)
        counts[0] += count
        self._check_ring(host, ring_index, direction, counts)

    def ring_completed(self, host: Any, ring_index: int, direction: str,
                       count: int) -> None:
        self._count("ring.complete")
        counts = self._ring(host, ring_index, direction, 0, count)
        counts[1] += count
        self._check_ring(host, ring_index, direction, counts)

    # ------------------------------------------------------------------
    # Fabric wire: conservation + per-port FIFO
    # ------------------------------------------------------------------
    def _wire(self, wire: Any) -> List[int]:
        counts = self._wire_counts.get(id(wire))
        if counts is None:
            self._pin(wire)
            counts = [0, 0, 0, 0]
            self._wire_counts[id(wire)] = counts
        return counts

    def _check_wire_conservation(self, wire: Any, counts: List[int]) -> None:
        injected, forwarded, dropped, queued = counts
        if queued < 0:
            self._fail("wire.conservation",
                       "more frames left QoS queues than entered",
                       queued=queued)
        if injected != forwarded + dropped + queued:
            self._fail("wire.conservation",
                       "injected != forwarded + dropped + queued",
                       injected=injected, forwarded=forwarded,
                       dropped=dropped, queued=queued)
        if wire.forwarded != forwarded or wire.drops != dropped:
            self._fail("wire.conservation",
                       "wire counters disagree with observed hooks",
                       wire_forwarded=wire.forwarded, wire_drops=wire.drops,
                       forwarded=forwarded, dropped=dropped)

    def wire_injected(self, wire: Any, src: int, dst: int) -> None:
        self._count("wire.inject")
        self._wire(wire)[0] += 1

    def wire_forwarded(self, wire: Any, src: int, dst: int, deliver_ps: int,
                       switched: bool) -> None:
        self._count("wire.forward")
        counts = self._wire(wire)
        counts[1] += 1
        self._check_wire_conservation(wire, counts)
        # Delivery order: per-source for direct links (each src MAC
        # serializes), per-destination-port once a switch serializes.
        key = (id(wire), "dst" if switched else "src", dst if switched else src)
        prev = self._wire_delivery.get(key)
        if prev is not None and deliver_ps < prev:
            self._fail("wire.fifo", "delivery order inverted",
                       switched=switched, src=src, dst=dst,
                       deliver_ps=deliver_ps, prev_ps=prev)
        self._wire_delivery[key] = deliver_ps

    def wire_dropped(self, wire: Any, dst: int) -> None:
        self._count("wire.drop")
        counts = self._wire(wire)
        counts[2] += 1
        self._check_wire_conservation(wire, counts)

    def wire_port_departure(self, wire: Any, port: int, out_start_ps: int,
                            out_end_ps: int, prev_free_ps: int) -> None:
        self._count("wire.port")
        if out_end_ps <= out_start_ps:
            self._fail("wire.port", "zero-time serialization",
                       port=port, start=out_start_ps, end=out_end_ps)
        if out_start_ps < prev_free_ps:
            self._fail("wire.port", "port serialized two frames at once",
                       port=port, start=out_start_ps, prev_free=prev_free_ps)
        shadow_key = (id(wire), port)
        shadow_free = self._wire_port_free.get(shadow_key, 0)
        if prev_free_ps != shadow_free:
            self._fail("wire.port", "port free point disagrees with shadow",
                       port=port, prev_free=prev_free_ps, shadow=shadow_free)
        self._wire_port_free[shadow_key] = out_end_ps

    # ------------------------------------------------------------------
    # Per-class (QoS) switch ports
    # ------------------------------------------------------------------
    # A QoS-configured switch resolves frames asynchronously: injection,
    # classification/admission, and the scheduler's serialization slot
    # are separate events.  The wire-level ``queued`` shadow covers the
    # whole unresolved window (switch-bound in flight *or* parked in a
    # class queue), so the global conservation identity holds at every
    # hook, and per-(port, class) shadows pin the queue-depth identity
    # ``depth == enqueued - forwarded`` on every move.
    def _qos(self, wire: Any, port: int, cls: int) -> List[int]:
        key = (id(wire), port, cls)
        counts = self._qos_counts.get(key)
        if counts is None:
            self._pin(wire)
            # [injected, enqueued, forwarded, tail drops, red drops]
            counts = [0, 0, 0, 0, 0]
            self._qos_counts[key] = counts
        return counts

    def _check_qos_class(self, port: int, cls: int, counts: List[int],
                         depth: int) -> None:
        injected, enqueued, forwarded, tail, red = counts
        if depth != enqueued - forwarded:
            self._fail("qos.conservation",
                       "class queue depth != enqueued - forwarded",
                       port=port, cls=cls, depth=depth,
                       enqueued=enqueued, forwarded=forwarded)
        if enqueued + tail + red > injected:
            self._fail("qos.conservation",
                       "class resolved more frames than arrived",
                       port=port, cls=cls, injected=injected,
                       enqueued=enqueued, tail=tail, red=red)

    def qos_injected(self, wire: Any, port: int, cls: int) -> None:
        self._count("qos.inject")
        self._wire(wire)[3] += 1
        self._qos(wire, port, cls)[0] += 1

    def qos_enqueued(self, wire: Any, port: int, cls: int, depth: int) -> None:
        self._count("qos.enqueue")
        counts = self._qos(wire, port, cls)
        counts[1] += 1
        self._check_qos_class(port, cls, counts, depth)

    def qos_forwarded(self, wire: Any, port: int, cls: int, depth: int) -> None:
        self._count("qos.forward")
        self._wire(wire)[3] -= 1
        counts = self._qos(wire, port, cls)
        counts[2] += 1
        self._check_qos_class(port, cls, counts, depth)

    def qos_dropped(self, wire: Any, port: int, cls: int, kind: str) -> None:
        self._count("qos.drop")
        self._wire(wire)[3] -= 1
        counts = self._qos(wire, port, cls)
        counts[3 if kind == "tail" else 4] += 1
        self._check_qos_class(port, cls, counts,
                              counts[1] - counts[2])

    def qos_pause(self, wire: Any, port: int, cls: int, paused: bool) -> None:
        self._count("qos.pause")
        key = (id(wire), port, cls)
        previous = self._qos_paused.get(key, False)
        if previous == paused:
            self._fail("qos.pause",
                       "pause state did not alternate (double XOFF/XON)",
                       port=port, cls=cls, paused=paused)
        self._qos_paused[key] = paused

    def qos_port_idle(self, wire: Any, port: int, backlog: int) -> None:
        self._count("qos.work_conserving")
        if backlog != 0:
            self._fail("qos.work_conserving",
                       "scheduler went idle against a non-empty backlog",
                       port=port, backlog=backlog)

    # ------------------------------------------------------------------
    # Switch hops and composed-topology routes
    # ------------------------------------------------------------------
    # A switched wire resolves frames hop by hop along their route of
    # egress ports; ``topo_transit`` shadows each flight to the next
    # switch in the wire-level ``queued`` slot so the global
    # conservation identity (checked inside ``wire_forwarded``/
    # ``wire_dropped``) holds at every hook.  Per-port shadows pin that
    # no frame leaves an egress port it never entered, and every
    # resolved topology route is checked loop-free and within the
    # topology's shortest-path hop bound.
    def topo_route(self, wire: Any, flow: str, src: int, dst: int,
                   path: Any, hop_bound: int) -> None:
        self._count("topo.route")
        self._pin(wire)
        if len(set(path)) != len(path):
            self._fail("topo.route", "forwarding loop: route repeats a switch",
                       flow=flow, src=src, dst=dst, path=tuple(path))
        if len(path) > hop_bound:
            self._fail("topo.route", "route exceeds the shortest-path hop bound",
                       flow=flow, src=src, dst=dst, path=tuple(path),
                       hop_bound=hop_bound)
        key = (id(wire), flow, src, dst)
        previous = self._topo_routes.get(key)
        if previous is not None and previous != tuple(path):
            self._fail("topo.route", "flow tuple re-resolved to a new route",
                       flow=flow, src=src, dst=dst,
                       previous=previous, path=tuple(path))
        self._topo_routes[key] = tuple(path)

    def topo_transit(self, wire: Any, delta: int) -> None:
        self._count("topo.transit")
        counts = self._wire(wire)
        counts[3] += delta
        if counts[3] < 0:
            self._fail("topo.transit",
                       "more frames left the fabric than entered it",
                       queued=counts[3])

    def _topo_link(self, wire: Any, link: str) -> List[int]:
        key = (id(wire), link)
        counts = self._topo_links.get(key)
        if counts is None:
            self._pin(wire)
            counts = [0, 0, 0]
            self._topo_links[key] = counts
        return counts

    def _check_topo_link(self, link: str, counts: List[int]) -> None:
        entered, forwarded, dropped = counts
        if forwarded + dropped > entered:
            self._fail("topo.link",
                       "link resolved more frames than entered it",
                       link=link, entered=entered, forwarded=forwarded,
                       dropped=dropped)

    def topo_link_entered(self, wire: Any, link: str) -> None:
        self._count("topo.link")
        self._topo_link(wire, link)[0] += 1

    def topo_link_forwarded(self, wire: Any, link: str) -> None:
        self._count("topo.link")
        counts = self._topo_link(wire, link)
        counts[1] += 1
        self._check_topo_link(link, counts)

    def topo_link_dropped(self, wire: Any, link: str) -> None:
        self._count("topo.link")
        counts = self._topo_link(wire, link)
        counts[2] += 1
        self._check_topo_link(link, counts)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        return not self.violations

    def report(self) -> Dict[str, int]:
        """Checks exercised per invariant family (for CLI summaries)."""
        return dict(sorted(self.checks.items()))

    def total_checks(self) -> int:
        return sum(self.checks.values())

    def summary(self) -> str:
        families = len(self.checks)
        return (
            f"{self.total_checks()} checks across {families} invariant "
            f"families, {len(self.violations)} violation(s)"
        )
