"""The always-off invariant monitor every instrumented object holds.

:class:`NullInvariantMonitor` defines every monitor hook and does
nothing in any of them; :data:`NULL_MONITOR` is the shared instance the
event kernel, the ordering boards, the event queue, the memories, the
RSS host, the NIC core and the fabric wire hold unless an armed
:class:`~repro.check.monitor.InvariantMonitor` is attached.  Every hook
site is gated by ``if self.monitor.enabled:``, so a disabled run
executes exactly the same instruction stream (and produces
byte-identical results) as a build without monitors.

The class lives apart from the armed monitor so that a run that never
attaches one does not compile it.  It imports nothing from ``repro``:
it sits *below* the layers that import it, like
:mod:`repro.obs.tracer`.  :mod:`repro.check.monitor` re-exports both
names.
"""

from __future__ import annotations

from typing import Any, Dict


class NullInvariantMonitor:
    """Does nothing, as fast as possible.

    ``enabled`` is a class attribute so the hot-path gate
    ``if self.monitor.enabled:`` costs one attribute load and a branch
    — the same pattern (and cost) as :class:`repro.obs.tracer.NullTracer`.
    """

    enabled = False

    # -- kernel ---------------------------------------------------------
    def event_scheduled(self, ticket: int, when_ps: int, now_ps: int) -> None:
        pass

    def event_fired(self, ticket: int, when_ps: int, now_ps: int) -> None:
        pass

    def event_cancelled(self, ticket: int) -> None:
        pass

    def event_discarded(self, ticket: int) -> None:
        pass

    # -- ordering boards ------------------------------------------------
    def board_marked(self, board: Any, seq: int) -> None:
        pass

    def board_skipped(self, board: Any, seq: int) -> None:
        pass

    def board_committed(self, board: Any, old_seq: int, new_seq: int, count: int) -> None:
        pass

    # -- distributed event queue / event register -----------------------
    def queue_pushed(self, queue: Any) -> None:
        pass

    def queue_popped(self, queue: Any) -> None:
        pass

    def register_claimed(self, register: Any, kind: Any, core_id: int) -> None:
        pass

    def register_released(self, register: Any, kind: Any, core_id: int) -> None:
        pass

    # -- locks / cores --------------------------------------------------
    def lock_acquired(self, lock: Any, request_ps: int, grant_ps: int,
                      free_at_ps: int) -> None:
        pass

    def core_claimed(self, owner: Any, core_id: int) -> None:
        pass

    def core_released(self, owner: Any, core_id: int) -> None:
        pass

    # -- memories -------------------------------------------------------
    def scratchpad_access(self, scratchpad: Any, access: Any) -> None:
        pass

    def sdram_transfer(self, sdram: Any, request: Any, cycle: int,
                       nbytes: int) -> None:
        pass

    # -- multi-queue host rings -----------------------------------------
    def ring_posted(self, host: Any, ring_index: int, direction: str,
                    count: int) -> None:
        pass

    def ring_completed(self, host: Any, ring_index: int, direction: str,
                       count: int) -> None:
        pass

    # -- fabric wire ----------------------------------------------------
    def wire_injected(self, wire: Any, src: int, dst: int) -> None:
        pass

    def wire_forwarded(self, wire: Any, src: int, dst: int, deliver_ps: int,
                       switched: bool) -> None:
        pass

    def wire_dropped(self, wire: Any, dst: int) -> None:
        pass

    def wire_port_departure(self, wire: Any, port: int, out_start_ps: int,
                            out_end_ps: int, prev_free_ps: int) -> None:
        pass

    # -- per-class (QoS) switch ports -----------------------------------
    def qos_injected(self, wire: Any, port: int, cls: int) -> None:
        pass

    def qos_enqueued(self, wire: Any, port: int, cls: int, depth: int) -> None:
        pass

    def qos_forwarded(self, wire: Any, port: int, cls: int, depth: int) -> None:
        pass

    def qos_dropped(self, wire: Any, port: int, cls: int, kind: str) -> None:
        pass

    def qos_pause(self, wire: Any, port: int, cls: int, paused: bool) -> None:
        pass

    def qos_port_idle(self, wire: Any, port: int, backlog: int) -> None:
        pass

    # -- composed topologies (multi-switch graph wire) ------------------
    def topo_route(self, wire: Any, flow: str, src: int, dst: int,
                   path: Any, hop_bound: int) -> None:
        pass

    def topo_transit(self, wire: Any, delta: int) -> None:
        pass

    def topo_link_entered(self, wire: Any, link: str) -> None:
        pass

    def topo_link_forwarded(self, wire: Any, link: str) -> None:
        pass

    def topo_link_dropped(self, wire: Any, link: str) -> None:
        pass

    # -- reporting ------------------------------------------------------
    def report(self) -> Dict[str, int]:
        return {}


#: Shared no-op instance installed by default on every instrumented object.
NULL_MONITOR = NullInvariantMonitor()
