"""Disabled-monitor overhead guard.

The conformance layer's contract (docs/validation.md) is that a run
without a monitor attached pays essentially nothing for the hook
sites: every site is ``if self.monitor.enabled:`` against the shared
``NULL_MONITOR`` null object — the same pattern (and budget) as the
tracer's.  The guard counts those gates on one run of each guarded
workload (``benchmarks/_gates.py``: one NIC at line rate, and a
leaf-spine QoS fabric whose wire, QoS and topology hooks the
standalone NIC never reaches) and asserts two bounds on each: no
null-monitor method is called, and the gates' estimated cost stays
under 2% of that workload's bare run time per kernel event.  A failure
names the workload and the calling sites.
"""

from __future__ import annotations

from benchmarks import _gates
from benchmarks._helpers import emit, run_once
from repro.check import InvariantMonitor, attach_monitor


def test_null_monitor_overhead_under_two_percent(benchmark):
    measured = run_once(benchmark, _gates.measure)
    emit(_gates.report("monitor", measured))
    failures = _gates.budget_failures("monitor", measured)
    assert not failures, "\n".join(failures)
    # Sanity: the armed monitor actually checks (guard is not vacuous),
    # and the monitored run is numerically identical to the bare run.
    monitor = InvariantMonitor()
    armed = _gates.guarded_simulator()
    attach_monitor(armed, monitor)
    armed_result = _gates.run_guarded(armed)
    bare_result = _gates.run_guarded(_gates.guarded_simulator())
    assert monitor.total_checks() > 0, "armed monitor checked nothing"
    assert monitor.ok, monitor.violations
    assert armed_result.to_dict() == bare_result.to_dict(), (
        "armed monitor perturbed the simulation"
    )
