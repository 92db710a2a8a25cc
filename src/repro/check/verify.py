"""Attaching monitors to simulators and post-run conservation checks.

Two entry points:

* :func:`attach_monitor` wires one monitor instance into every
  instrumented object a simulator owns — the event kernel, the ordering
  boards, the distributed event queue, the SDRAM model, and (for a
  fabric) the wire plus every endpoint, all sharing one monitor so
  cross-object invariants (ticket conservation on a shared kernel) hold
  globally.
* :func:`verify_conservation` checks the *end-state* identities that
  per-event hooks cannot see: frame/byte conservation through the
  queue → boards → MAC datapath, buffer-space bounds, the faulted
  accounting identity ``delivered + holes + drops + in_flight`` against
  the MAC's own count of the frames it took or dropped, and the exact
  integer statistics (function sums against run totals).

Both work on :class:`~repro.nic.throughput.ThroughputSimulator` and
:class:`~repro.fabric.sim.FabricSimulator` (duck-typed on
``.endpoints``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.check.monitor import (
    NULL_MONITOR,
    InvariantMonitor,
    InvariantViolation,
    NullInvariantMonitor,
)


def _is_fabric(simulator: Any) -> bool:
    return hasattr(simulator, "endpoints") and hasattr(simulator, "wire")


def attach_monitor(simulator: Any, monitor: NullInvariantMonitor) -> None:
    """Install ``monitor`` on every instrumented object of ``simulator``.

    Pass :data:`~repro.check.monitor.NULL_MONITOR` to detach.  Safe to
    call before :meth:`start`/:meth:`run`; attaching mid-run is not
    supported (shadow state would disagree with live state).
    """
    if _is_fabric(simulator):
        simulator.sim.monitor = monitor
        simulator.wire.monitor = monitor
        for endpoint in simulator.endpoints:
            _attach_throughput(endpoint, monitor)
        return
    _attach_throughput(simulator, monitor)


def _attach_throughput(simulator: Any, monitor: NullInvariantMonitor) -> None:
    simulator.monitor = monitor
    simulator.sim.monitor = monitor
    simulator.queue.monitor = monitor
    simulator.sdram.monitor = monitor
    for board in (
        simulator.board_tx_mac,
        simulator.board_tx_notify,
        simulator.board_rx,
    ):
        board.monitor = monitor
    rss_host = getattr(simulator, "rss_host", None)
    if rss_host is not None:
        rss_host.monitor = monitor


# ----------------------------------------------------------------------
# Post-run conservation identities
# ----------------------------------------------------------------------
class _Checker:
    def __init__(self, label: str) -> None:
        self.label = label
        self.checked: Dict[str, Any] = {}
        self.failures: List[str] = []

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checked[name] = bool(ok)
        if not ok:
            self.failures.append(f"{self.label}{name}: {detail}")

    def equal(self, name: str, lhs: Any, rhs: Any, formula: str) -> None:
        self.check(name, lhs == rhs, f"{formula} ({lhs!r} != {rhs!r})")


def _verify_throughput(simulator: Any, checker: _Checker) -> None:
    """End-state identities of one NIC.  Both MAC receivers number only
    the frames they accept; a tail drop gets no sequence number."""
    board_rx = simulator.board_rx
    mac_rx = simulator.mac_rx
    config = simulator.config
    accepted = mac_rx.frames_accepted

    # Receive-side frame conservation.
    checker.equal(
        "rx.commit_accounting",
        board_rx.commit_seq,
        simulator._rx_done_frames + simulator._rx_hole_frames,
        "commit_seq == rx_done + rx_holes",
    )
    checker.equal(
        "rx.seq_conservation",
        mac_rx._next_seq,
        accepted,
        "next_seq == accepted",
    )
    # Accepted frames (holes included — FCS drops happen after the MAC
    # numbered the frame) not yet committed are in flight.
    in_flight = accepted - board_rx.commit_seq
    checker.check(
        "rx.in_flight",
        in_flight >= 0,
        f"accepted frames behind deliveries (in_flight={in_flight})",
    )
    # Faulted accounting identity (also holds fault-free with holes=0):
    # every frame the MAC took or tail-dropped, by the MAC's own count,
    # is delivered, a hole, a drop the core counted, or still in flight.
    checker.equal(
        "rx.fault_identity",
        mac_rx.frames_disposed,
        simulator._rx_done_frames
        + simulator._rx_hole_frames
        + simulator._rx_dropped
        + in_flight,
        "MAC frames taken or dropped == delivered + holes + drops + in_flight",
    )
    # Each accepted frame has one receive record, keyed by its sequence
    # number, from acceptance to commit: a key outside that window
    # belongs to no frame in flight.
    stray = sorted(
        seq for seq in simulator._rx_records
        if not board_rx.commit_seq <= seq < accepted
    )
    checker.check(
        "rx.records_in_window",
        not stray,
        f"{len(stray)} receive record(s) outside [commit_seq "
        f"{board_rx.commit_seq}, accepted {accepted}): {stray[:8]}",
    )

    # Transmit-side conservation.
    checker.equal(
        "tx.outstanding",
        simulator._tx_mac_seq - simulator._tx_done_frames,
        simulator._tx_outstanding_mac,
        "mac_seq - done == outstanding",
    )
    checker.check(
        "tx.outstanding_bound",
        0 <= simulator._tx_outstanding_mac <= 2,
        f"MAC double-buffer bound violated ({simulator._tx_outstanding_mac})",
    )

    # Buffer-byte conservation (claims are refunded exactly once).
    checker.check(
        "tx.buffer_bounds",
        0 <= simulator._tx_space <= config.tx_buffer_bytes,
        f"tx buffer space {simulator._tx_space} outside "
        f"[0, {config.tx_buffer_bytes}]",
    )
    checker.check(
        "rx.buffer_bounds",
        0 <= simulator._rx_space <= config.rx_buffer_bytes,
        f"rx buffer space {simulator._rx_space} outside "
        f"[0, {config.rx_buffer_bytes}]",
    )

    # Event queue claim/complete conservation.
    queue = simulator.queue
    checker.equal(
        "queue.conservation",
        queue.enqueues - queue.dequeues,
        len(queue),
        "enqueues - dequeues == depth",
    )

    # Ordering boards: bitmap population == marked + skipped - committed.
    for board in (
        simulator.board_tx_mac,
        simulator.board_tx_notify,
        simulator.board_rx,
    ):
        outstanding = board.marked + board.skipped - board.committed
        checker.equal(
            f"board.{board.name}.pending",
            board.pending,
            outstanding,
            "pending == marked + skipped - committed",
        )
        checker.check(
            f"board.{board.name}.window",
            0 <= outstanding <= board.ring_size,
            f"outstanding {outstanding} outside ring window",
        )

    # Core scheduling conservation.
    checker.equal(
        "cores.free_list",
        simulator._idle_cores,
        len(simulator._free_core_ids),
        "idle count == free-list length",
    )
    checker.check(
        "cores.bound",
        0 <= simulator._idle_cores <= config.cores,
        f"idle cores {simulator._idle_cores} outside [0, {config.cores}]",
    )

    # SDRAM byte conservation: every transferred byte is useful payload,
    # wasted retry payload, or alignment padding — never negative padding.
    sdram = simulator.sdram
    checker.check(
        "sdram.bytes",
        sdram.transferred_bytes >= sdram.useful_bytes + sdram.wasted_retry_bytes,
        f"transferred {sdram.transferred_bytes} < useful "
        f"{sdram.useful_bytes} + retries {sdram.wasted_retry_bytes}",
    )

    # Exact statistics: the per-function sums and the run totals are
    # accumulated separately from the same integer terms, so after a
    # fold they agree exactly.
    charges = simulator._charges
    charges.fold()
    functions = charges.sums.functions.values()
    execution, imiss, load, conflict, pipeline, accesses = charges.sums.run
    checker.equal(
        "stats.cycles",
        sum(sums[3] for sums in functions),
        execution + imiss + load + conflict + pipeline,
        "sum of function cycles == sum of the five Table 3 run totals",
    )
    checker.equal(
        "stats.instructions",
        sum(sums[0] for sums in functions),
        execution,
        "sum of function instructions == run execution total",
    )
    checker.equal(
        "stats.accesses",
        sum(sums[1] + sums[2] for sums in functions),
        accesses,
        "sum of function loads + stores == scratchpad core accesses",
    )

    # Multi-queue host rings: per-ring descriptor conservation — every
    # posted descriptor is completed or still held in the ring.
    rss_host = getattr(simulator, "rss_host", None)
    if rss_host is not None:
        for ring in rss_host.rings:
            checker.equal(
                f"rss.ring{ring.index}.rx_conservation",
                ring.rx_posted,
                ring.rx_completed + len(ring.recv_ring),
                "rx posted == completed + in_flight",
            )
            checker.equal(
                f"rss.ring{ring.index}.tx_conservation",
                2 * ring.tx_posted,
                2 * ring.tx_completed + len(ring.send_ring),
                "tx posted BDs == completed + in_flight",
            )


def _verify_fabric(fabric: Any, checker: _Checker) -> None:
    wire = fabric.wire
    checker.check(
        "wire.counters",
        wire.forwarded >= 0 and wire.drops >= 0,
        f"negative wire counters ({wire.forwarded}, {wire.drops})",
    )
    for flow in fabric.flows.values():
        accounted = flow.delivered + flow.lost
        checker.check(
            f"flow.{flow.name}.accounting",
            0 <= accounted <= flow.posted,
            f"delivered {flow.delivered} + lost {flow.lost} vs "
            f"posted {flow.posted}",
        )
    checker.equal(
        "fabric.mac_drops",
        fabric.mac_drops,
        sum(endpoint._rx_dropped for endpoint in fabric.endpoints),
        "mac_drops == sum(endpoint rx tail drops)",
    )
    _verify_ports(wire, checker)
    if wire.qos is not None:
        _verify_qos(wire, checker)
    for index, endpoint in enumerate(fabric.endpoints):
        sub = _Checker(f"{checker.label}nic{index}.")
        _verify_throughput(endpoint, sub)
        checker.checked.update(
            {f"nic{index}.{k}": v for k, v in sub.checked.items()}
        )
        checker.failures.extend(sub.failures)


def _verify_qos(wire: Any, checker: _Checker) -> None:
    """Per-(port, class) end-state identities of the QoS switch ports.

    ``enqueued == forwarded + still-queued`` (no frame vanishes from a
    class queue), pause/resume events pair up with the live pause flag,
    and a class still paused at end of run must hold more than its XON
    watermark — a paused-below-XON state would mean a missed resume,
    the deadlock the PFC layer must never produce.
    """
    qos = wire.qos
    for port in wire.ports.values():
        for cls, tc in enumerate(qos.classes):
            label = f"qos.port{port.index}.{tc.name}"
            depth = len(port.queues[cls])
            checker.equal(
                f"{label}.conservation",
                port.enqueued[cls],
                port.forwarded[cls] + depth,
                "enqueued == forwarded + queued",
            )
            checker.equal(
                f"{label}.pause_pairing",
                port.pause_events[cls] - port.resume_events[cls],
                1 if port.paused[cls] else 0,
                "pauses - resumes == currently-paused",
            )
            if tc.pause_xoff_frames:
                checker.check(
                    f"{label}.no_pause_deadlock",
                    not port.paused[cls] or depth > tc.pause_xon_frames,
                    f"paused with depth {depth} <= XON "
                    f"{tc.pause_xon_frames} (missed resume)",
                )


def _verify_ports(wire: Any, checker: _Checker) -> None:
    """Per-port end-state identity of every switch egress port.

    Every frame that entered a port was forwarded on, dropped, or (QoS
    ports only) is still parked in a class queue.  Analytic FIFO ports
    resolve each frame when it enters, so they carry no backlog.
    """
    for key, port in wire.ports.items():
        entered, forwarded, dropped = port.counts
        backlog = port.backlog() if wire.qos is not None else 0
        checker.equal(
            f"wire.port.{key}.conservation",
            entered,
            forwarded + dropped + backlog,
            "entered == forwarded + dropped + queued",
        )


def verify_conservation(
    simulator: Any,
    monitor: Optional[InvariantMonitor] = None,
    raise_on_failure: bool = True,
) -> Dict[str, Any]:
    """Check end-state conservation identities of a finished run.

    Returns the dict of identities checked (name → ok).  With
    ``raise_on_failure`` (default) an :exc:`InvariantViolation` listing
    every broken identity is raised instead of returning failures.

    When the run's armed ``monitor`` is passed, kernel event-ticket
    conservation (scheduled == fired + discarded + live) is checked too.
    """
    checker = _Checker("")
    if _is_fabric(simulator):
        _verify_fabric(simulator, checker)
    else:
        _verify_throughput(simulator, checker)

    if monitor is not None and monitor.enabled:
        before = len(monitor.violations)
        strict, monitor.strict = monitor.strict, False
        try:
            monitor.check_ticket_conservation()
        finally:
            monitor.strict = strict
        new = monitor.violations[before:]
        checker.check(
            "kernel.ticket_conservation",
            not new,
            "; ".join(str(v) for v in new),
        )

    if checker.failures and raise_on_failure:
        raise InvariantViolation(
            "conservation",
            f"{len(checker.failures)} identity(ies) broken: "
            + " | ".join(checker.failures),
        )
    return checker.checked
