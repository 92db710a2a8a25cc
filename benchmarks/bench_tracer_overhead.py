"""Null-tracer overhead guard.

The telemetry layer's contract (docs/observability.md) is that a run
without a tracer attached pays essentially nothing for the
instrumentation sites: every site is a single ``tracer.enabled`` check
against the shared ``NULL_TRACER`` null object.  The guard counts those
gates on one run of the guarded workload (``benchmarks/_gates.py``)
and asserts two bounds: no null-tracer method is called, and the
gates' estimated cost stays under 2% of the bare run's time per kernel
event.  A failure names the calling sites.
"""

from __future__ import annotations

from benchmarks import _gates
from benchmarks._helpers import emit, run_once
from repro.obs import Tracer


def test_null_tracer_overhead_under_two_percent(benchmark):
    counts, costs = run_once(benchmark, _gates.measure)
    emit(_gates.report("tracer", counts, costs))
    failures = _gates.budget_failures("tracer", counts, costs)
    assert not failures, "\n".join(failures)
    # Sanity: the enabled tracer actually records (guard is not vacuous).
    tracer = Tracer()
    _gates.run_guarded(_gates.guarded_simulator(tracer=tracer))
    assert tracer.events, "enabled tracer recorded nothing"
