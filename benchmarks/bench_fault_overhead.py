"""Fault-layer overhead guard.

The fault-injection layer's contract (docs/faults.md) is that a run
without an *enabled* :class:`~repro.faults.FaultPlan` never attaches a
:class:`~repro.faults.FaultInjector`: every hook is a single
``self.faults is not None`` / ``self.injector is not None`` check, and
the simulation is byte-identical to a pre-fault-layer build.  The guard
counts those checks on one run of each guarded workload with a line
tracer (``benchmarks/_gates.py``: one NIC at line rate, and a
leaf-spine QoS fabric) and asserts that their estimated cost stays
under 2% of that workload's bare run time per kernel event.  A failure
names the workload and the calling sites.
"""

from __future__ import annotations

from benchmarks import _gates
from benchmarks._helpers import emit, run_once
from repro.faults import FaultPlan


def test_disabled_fault_plan_overhead_under_two_percent(benchmark):
    measured = run_once(benchmark, _gates.measure)
    emit(_gates.report("faults", measured))
    failures = _gates.budget_failures("faults", measured)
    assert not failures, "\n".join(failures)
    # Sanity both ways: a disabled plan must not attach the layer, an
    # enabled one must actually inject (the guard is not vacuous).
    assert _gates.guarded_simulator(fault_plan=FaultPlan()).faults is None
    simulator = _gates.guarded_simulator(fault_plan=FaultPlan(
        rx_fcs_rate=0.01, sdram_error_rate=0.002, pci_stall_rate=0.001,
    ))
    _gates.run_guarded(simulator)
    assert simulator.faults is not None
    assert any(simulator.faults.counters.values()), "enabled plan injected nothing"
