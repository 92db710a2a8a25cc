"""Differential oracles: paired runs diffed field-by-field.

Each oracle runs two configurations that must agree on some functional
contract even though their *performance* differs, and reports every
compared field:

* :func:`run_ordering_oracle` — the paper's two ordering
  implementations (``SOFTWARE`` lock-based scan vs ``RMW``
  ``setb``/``update``) applied to one randomized mark/skip/commit
  schedule must produce identical board state after every commit.
  This is the oracle that catches a corrupted commit scan.
* :func:`run_loopback_oracle` — a 1-NIC fabric loopback drives the
  same firmware/assist/memory pipeline as a bare
  :class:`~repro.nic.throughput.ThroughputSimulator`; delivered
  goodput must agree within a small in-flight residual.
* :func:`run_fault_oracle` — a faulted run and its clean twin: the
  clean run must show zero holes and no fault counters, and the
  faulted run must satisfy the accounting identity
  ``delivered + holes + drops (+ in-flight) == injected``.

All oracles run with an armed :class:`InvariantMonitor` attached, so a
run that *completes* but passed through an illegal intermediate state
still fails.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.check.monitor import InvariantMonitor, InvariantViolation
from repro.check.verify import attach_monitor, verify_conservation

#: Delivered-goodput tolerance for the loopback oracle: the residual is
#: a constant few frames in flight across window boundaries, so it
#: shrinks with the measure window (see benchmarks/bench_fabric_overhead).
LOOPBACK_TOLERANCE = 0.05


@dataclass
class OracleCheck:
    """One compared field."""

    name: str
    ok: bool
    left: Any
    right: Any
    detail: str = ""

    def __str__(self) -> str:
        mark = "ok " if self.ok else "FAIL"
        extra = f" [{self.detail}]" if self.detail else ""
        return f"  {mark} {self.name}: {self.left!r} vs {self.right!r}{extra}"


@dataclass
class OracleReport:
    """Outcome of one oracle (all compared fields, pass/fail)."""

    oracle: str
    checks: List[OracleCheck] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    @property
    def failures(self) -> List[OracleCheck]:
        return [check for check in self.checks if not check.ok]

    def add(self, name: str, left: Any, right: Any, ok: Optional[bool] = None,
            detail: str = "") -> None:
        self.checks.append(OracleCheck(
            name=name,
            ok=(left == right) if ok is None else ok,
            left=left,
            right=right,
            detail=detail,
        ))

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return (
            f"[{status}] {self.oracle}: "
            f"{sum(c.ok for c in self.checks)}/{len(self.checks)} fields agree"
        )


# ----------------------------------------------------------------------
# Oracle 1: software vs RMW ordering equivalence
# ----------------------------------------------------------------------
def run_ordering_oracle(
    seed: int = 0,
    rounds: int = 200,
    ring_size: int = 64,
    skip_rate: float = 0.1,
) -> OracleReport:
    """Drive both ordering implementations through one random schedule.

    Every round marks a shuffled batch of in-window sequences (a
    fraction become fault holes via :meth:`skip`) on *both* boards,
    commits both, and diffs the functional state field-by-field.  The
    boards use the same :class:`~repro.isa.machine.Memory` bitmap
    semantics as the assembly firmware, so divergence here means one
    implementation's mark or commit scan is wrong.
    """
    from repro.firmware.ordering import OrderingBoard, OrderingMode

    rng = random.Random(f"ordering-oracle:{seed}")
    monitor = InvariantMonitor()
    sw = OrderingBoard(ring_size, OrderingMode.SOFTWARE, name="sw")
    rmw = OrderingBoard(ring_size, OrderingMode.RMW, name="rmw")
    sw.monitor = monitor
    rmw.monitor = monitor

    report = OracleReport("ordering sw-vs-rmw")
    next_seq = 0
    outstanding: List[int] = []
    for round_index in range(rounds):
        # Issue a batch of new sequence numbers (bounded by the window).
        window_left = ring_size - (next_seq - sw.commit_seq)
        batch = rng.randint(0, max(0, min(8, window_left)))
        fresh = list(range(next_seq, next_seq + batch))
        next_seq += batch
        outstanding.extend(fresh)
        # Complete a random subset, out of order.
        rng.shuffle(outstanding)
        complete = outstanding[: rng.randint(0, len(outstanding))]
        outstanding = outstanding[len(complete):]
        for seq in complete:
            if rng.random() < skip_rate:
                sw.skip(seq)
                rmw.skip(seq)
            else:
                sw.mark_done(seq)
                rmw.mark_done(seq)
        sw_committed, _ = sw.commit()
        rmw_committed, _ = rmw.commit()
        state_ok = (
            sw_committed == rmw_committed
            and sw.commit_seq == rmw.commit_seq
            and sw.committed == rmw.committed
            and sw.marked == rmw.marked
            and sw.skipped == rmw.skipped
            and sw.pending == rmw.pending
        )
        if not state_ok:
            report.add(
                f"round[{round_index}].state",
                {
                    "committed_now": sw_committed,
                    "commit_seq": sw.commit_seq,
                    "committed": sw.committed,
                    "marked": sw.marked,
                    "skipped": sw.skipped,
                    "pending": sw.pending,
                },
                {
                    "committed_now": rmw_committed,
                    "commit_seq": rmw.commit_seq,
                    "committed": rmw.committed,
                    "marked": rmw.marked,
                    "skipped": rmw.skipped,
                    "pending": rmw.pending,
                },
                detail="software board vs RMW board",
            )
            break
    else:
        report.add("rounds", rounds, rounds, ok=True)
        report.add("final.commit_seq", sw.commit_seq, rmw.commit_seq)
        report.add("final.committed", sw.committed, rmw.committed)
        report.add("final.marked", sw.marked, rmw.marked)
        report.add("final.skipped", sw.skipped, rmw.skipped)
        report.add("final.pending", sw.pending, rmw.pending)
    report.add("monitor.violations", len(monitor.violations), 0)
    report.notes.append(monitor.summary())
    # The oracle must not be vacuous: real commits must have happened.
    report.add("progress", sw.commit_seq > 0, True,
               detail=f"commit pointer reached {sw.commit_seq}")
    return report


# ----------------------------------------------------------------------
# Oracle 2: fabric loopback vs bare simulator
# ----------------------------------------------------------------------
def run_loopback_oracle(
    config=None,
    warmup_s: float = 0.2e-3,
    measure_s: float = 0.8e-3,
    tolerance: float = LOOPBACK_TOLERANCE,
) -> OracleReport:
    """1-NIC fabric loopback vs bare ``ThroughputSimulator``."""
    from repro.fabric import FabricSimulator, FabricSpec
    from repro.nic.config import NicConfig
    from repro.nic.throughput import ThroughputSimulator
    from repro.units import mhz

    if config is None:
        # Compute-bound point so both paths hit the same bottleneck.
        config = NicConfig(cores=2, core_frequency_hz=mhz(133))

    report = OracleReport("fabric-loopback vs bare")

    bare_monitor = InvariantMonitor()
    bare_sim = ThroughputSimulator(config, 1472)
    attach_monitor(bare_sim, bare_monitor)
    bare = bare_sim.run(warmup_s=warmup_s, measure_s=measure_s)
    verify_conservation(bare_sim, monitor=bare_monitor)

    loop_monitor = InvariantMonitor()
    fabric = FabricSimulator(config, FabricSpec.loopback())
    attach_monitor(fabric, loop_monitor)
    fabric_result = fabric.run(warmup_s=warmup_s, measure_s=measure_s)
    verify_conservation(fabric, monitor=loop_monitor)

    flow = fabric_result.primary_flow
    bare_gbps = bare.rx_payload_bytes * 8 / measure_s / 1e9
    divergence = (
        abs(flow.goodput_gbps - bare_gbps) / bare_gbps if bare_gbps else 1.0
    )
    report.add("loopback.lost", flow.lost, 0)
    report.add(
        "goodput_gbps",
        round(flow.goodput_gbps, 4),
        round(bare_gbps, 4),
        ok=divergence <= tolerance,
        detail=f"divergence {divergence:.2%} (limit {tolerance:.0%})",
    )
    report.add("loopback.delivered_nonzero", flow.delivered > 0, True)
    report.add("monitor.violations",
               len(bare_monitor.violations) + len(loop_monitor.violations), 0)
    report.notes.append(f"bare: {bare_monitor.summary()}")
    report.notes.append(f"loopback: {loop_monitor.summary()}")
    return report


# ----------------------------------------------------------------------
# Oracle 3: faulted vs clean accounting identities
# ----------------------------------------------------------------------
def run_fault_oracle(
    config=None,
    fault_plan=None,
    warmup_s: float = 0.0,
    measure_s: float = 0.6e-3,
) -> OracleReport:
    """A faulted run against its clean twin.

    With no warmup the measured window covers the whole run, so the
    result-level identity ``injected == delivered + holes + drops +
    in_flight`` is exact (the in-flight population at the end of the
    run is bounded by the ordering ring).
    """
    from repro.faults import FaultPlan
    from repro.nic.config import NicConfig
    from repro.nic.throughput import ThroughputSimulator
    from repro.units import mhz

    if config is None:
        config = NicConfig(cores=2, core_frequency_hz=mhz(133))
    if fault_plan is None:
        fault_plan = FaultPlan(
            seed=7, rx_fcs_rate=0.01, sdram_error_rate=0.002,
            pci_stall_rate=0.001,
        )

    report = OracleReport("faulted vs clean accounting")

    clean_monitor = InvariantMonitor()
    clean_sim = ThroughputSimulator(config, 1472)
    attach_monitor(clean_sim, clean_monitor)
    clean = clean_sim.run(warmup_s=warmup_s, measure_s=measure_s)
    verify_conservation(clean_sim, monitor=clean_monitor)

    fault_monitor = InvariantMonitor()
    fault_sim = ThroughputSimulator(config, 1472, fault_plan=fault_plan)
    attach_monitor(fault_sim, fault_monitor)
    faulted = fault_sim.run(warmup_s=warmup_s, measure_s=measure_s)
    verify_conservation(fault_sim, monitor=fault_monitor)

    # Clean twin: no fault artifacts at all.
    report.add("clean.rx_holes", clean.rx_holes, 0)
    report.add("clean.fault_counters",
               {k: v for k, v in clean.fault_counters.items() if v}, {})

    # Faulted run: exact conservation identity over run *totals* (every
    # offered frame is delivered, a hole, a tail drop, or still in
    # flight at the end).
    accepted = fault_sim.mac_rx.frames_accepted
    in_flight = accepted - fault_sim.board_rx.commit_seq
    report.add(
        "faulted.identity",
        accepted + fault_sim._rx_dropped,
        fault_sim._rx_done_frames
        + fault_sim._rx_hole_frames
        + fault_sim._rx_dropped
        + in_flight,
        detail="offered == delivered + holes + drops + in_flight",
    )
    report.add("faulted.in_flight_bound",
               0 <= in_flight <= config.ordering_ring, True,
               detail=f"in_flight={in_flight}")
    # Windowed result fields obey the same identity up to the in-flight
    # populations at the two window edges (each bounded by the ring).
    window_slack = faulted.rx_offered - (
        faulted.rx_frames + faulted.rx_holes + faulted.rx_dropped
    )
    report.add("faulted.window_identity",
               abs(window_slack) <= config.ordering_ring, True,
               detail=f"window in-flight delta {window_slack} "
                      f"(bound ±{config.ordering_ring})")
    report.add("faulted.holes_nonzero", faulted.rx_holes > 0, True,
               detail="fault plan must actually inject (non-vacuous oracle)")
    report.add("faulted.holes_counted",
               faulted.rx_holes
               <= faulted.fault_counters.get("rx_fcs_drops", 0.0), True,
               detail="committed holes never exceed injected FCS drops")
    report.add("monitor.violations",
               len(clean_monitor.violations) + len(fault_monitor.violations),
               0)
    report.notes.append(f"clean: {clean_monitor.summary()}")
    report.notes.append(f"faulted: {fault_monitor.summary()}")
    return report


# ----------------------------------------------------------------------
def run_all_oracles(seed: int = 0) -> List[OracleReport]:
    """The full oracle battery (CLI ``repro check`` default)."""
    reports = [run_ordering_oracle(seed=seed)]
    try:
        reports.append(run_loopback_oracle())
        reports.append(run_fault_oracle())
    except InvariantViolation as violation:
        failed = OracleReport("conservation")
        failed.add("verify_conservation", str(violation), None, ok=False)
        reports.append(failed)
    return reports
