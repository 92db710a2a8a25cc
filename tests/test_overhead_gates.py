"""``benchmarks/_gates.py``: the gate counts behind the three
disabled-path overhead guards.

The counts must be deterministic, must leave the null-object classes
and the trace hook as they found them, and must catch what a timed
comparison of two identical runs cannot: a null-object hook called
without its gate on every kernel event.
"""

import sys

from benchmarks import _gates
from repro.check.monitor import NullInvariantMonitor
from repro.obs.tracer import NullTracer
from repro.sim.kernel import Simulator

#: Costs under which bound 2 cannot fail, so bound 1 is seen alone.
FREE = _gates.Costs(gate_s=0.0, event_s=1.0)

_ORIGINAL_RUN = Simulator.run


def _unguarded_run(self, until_ps=None, max_events=None):
    """``Simulator.run`` with the monitor's ``event_fired`` hook called
    on every kernel event without its ``if monitor.enabled:`` gate."""
    processed = 0
    while max_events is None or processed < max_events:
        if not _ORIGINAL_RUN(self, until_ps, max_events=1):
            break
        self.monitor.event_fired(0, self.now_ps, self.now_ps)
        processed += 1
    return processed


def test_counts_are_deterministic_and_restore_everything():
    trace = sys.gettrace()
    first = _gates.count_gates()
    second = _gates.count_gates()
    assert first == second
    assert first.events > 0
    for family in _gates.FAMILIES:
        assert first.reads[family], family
        assert not first.calls.get(family), family
        assert _gates.budget_failures(family, first, FREE) == []
    assert sys.gettrace() is trace
    assert NullInvariantMonitor.__dict__["enabled"] is False
    assert NullTracer.__dict__["enabled"] is False
    assert NullInvariantMonitor.event_fired.__qualname__ == (
        "NullInvariantMonitor.event_fired"
    )


def test_unguarded_null_call_fails_bound_one_and_names_its_site(monkeypatch):
    monkeypatch.setattr(Simulator, "run", _unguarded_run)
    counts = _gates.count_gates()
    assert counts.calls_per_event("monitor") == 1.0
    failures = _gates.budget_failures("monitor", counts, FREE)
    assert len(failures) == 1
    assert "called the null object" in failures[0]
    assert f"{__name__}:_unguarded_run -> event_fired  1.00" in failures[0]
    # The tracer family is untouched by the mutation.
    assert _gates.budget_failures("tracer", counts, FREE) == []


def test_share_failure_lists_sites_largest_first():
    counts = _gates.count_gates()
    dear = _gates.Costs(gate_s=1.0, event_s=1.0)
    (failure,) = _gates.budget_failures("faults", counts, dear)
    assert "limit 2%" in failure
    per_event = [float(line.rsplit(None, 1)[1])
                 for line in failure.splitlines()[1:]]
    assert per_event == sorted(per_event, reverse=True)
    assert len(per_event) == len(counts.reads["faults"])
