"""Null-tracer overhead guard.

The telemetry layer's contract (docs/observability.md) is that a run
without a tracer attached pays essentially nothing for the
instrumentation sites: every site is a single ``tracer.enabled`` check
against the shared ``NULL_TRACER`` null object.  The guard counts those
gates on one run of each guarded workload (``benchmarks/_gates.py``:
one NIC at line rate, and a leaf-spine QoS fabric) and asserts two
bounds on each: no null-tracer method is called, and the gates'
estimated cost stays under 2% of that workload's bare run time per
kernel event.  A failure names the workload and the calling sites.
"""

from __future__ import annotations

from benchmarks import _gates
from benchmarks._helpers import emit, run_once
from repro.obs import Tracer


def test_null_tracer_overhead_under_two_percent(benchmark):
    measured = run_once(benchmark, _gates.measure)
    emit(_gates.report("tracer", measured))
    failures = _gates.budget_failures("tracer", measured)
    assert not failures, "\n".join(failures)
    # Sanity: the enabled tracer actually records (guard is not vacuous).
    tracer = Tracer()
    _gates.run_guarded(_gates.guarded_simulator(tracer=tracer))
    assert tracer.events, "enabled tracer recorded nothing"
