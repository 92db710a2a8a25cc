"""``benchmarks/_gates.py``: the gate counts behind the three
disabled-path overhead guards.

The counts must be deterministic, must leave the null-object classes
and the trace hook as they found them, and must catch what a timed
comparison of two identical runs cannot: a null-object hook called
without its gate on every kernel event, or on a fabric hook site that
the standalone NIC never reaches.
"""

import sys

from benchmarks import _gates
from repro.check.monitor import NullInvariantMonitor
from repro.fabric.wire import FabricWire
from repro.obs.tracer import NullTracer
from repro.sim.kernel import Simulator

#: Costs under which bound 2 cannot fail, so bound 1 is seen alone.
FREE = _gates.Costs(gate_s=0.0, event_s=1.0)

_ORIGINAL_QOS_ADMIT = FabricWire._qos_admit


def _free(counts):
    return [(each, FREE) for each in counts]

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
    assert [counts.workload for counts in first] == list(_gates.WORKLOADS)
    for counts in first:
        assert counts.events > 0
        for family in _gates.FAMILIES:
            assert counts.reads[family], (counts.workload, family)
            assert not counts.calls.get(family), (counts.workload, family)
    for family in _gates.FAMILIES:
        assert _gates.budget_failures(family, _free(first)) == []
    # The fabric workload reaches the wire's QoS and topology hooks.
    (fabric,) = [c for c in first if c.workload == "fabric-leafspine-qos"]
    assert fabric.reads["monitor"]["repro.fabric.wire:FabricWire._qos_admit"]
    assert fabric.reads["monitor"]["repro.fabric.wire:FabricWire.route_ports"]
    assert sys.gettrace() is trace
    assert NullInvariantMonitor.__dict__["enabled"] is False
    assert NullTracer.__dict__["enabled"] is False
    assert NullInvariantMonitor.event_fired.__qualname__ == (
        "NullInvariantMonitor.event_fired"
    )


def test_unguarded_null_call_fails_bound_one_and_names_its_site(monkeypatch):
    monkeypatch.setattr(Simulator, "run", _unguarded_run)
    counts = _gates.count_gates()
    failures = _gates.budget_failures("monitor", _free(counts))
    assert len(failures) == len(_gates.WORKLOADS)
    for each, failure in zip(counts, failures):
        assert each.calls_per_event("monitor") == 1.0
        assert f"monitor on {each.workload}: " in failure
        assert "called the null object" in failure
        assert f"{__name__}:_unguarded_run -> event_fired  1.00" in failure
    # The tracer family is untouched by the mutation.
    assert _gates.budget_failures("tracer", _free(counts)) == []


def _unguarded_qos_admit(self, *args, **kwargs):
    """``FabricWire._qos_admit`` with a ``qos_enqueued`` hook called
    without its ``if self.monitor.enabled:`` gate."""
    self.monitor.qos_enqueued(self, None, 0, 0)
    return _ORIGINAL_QOS_ADMIT(self, *args, **kwargs)


def test_unguarded_fabric_hook_fails_on_the_fabric_workload(monkeypatch):
    monkeypatch.setattr(FabricWire, "_qos_admit", _unguarded_qos_admit)
    counts = _gates.count_gates()
    (failure,) = _gates.budget_failures("monitor", _free(counts))
    assert failure.startswith("monitor on fabric-leafspine-qos: ")
    assert f"{__name__}:_unguarded_qos_admit -> qos_enqueued" in failure


def test_share_failure_lists_sites_largest_first():
    counts = _gates.count_gates()
    dear = _gates.Costs(gate_s=1.0, event_s=1.0)
    failures = _gates.budget_failures(
        "faults", [(each, dear) for each in counts]
    )
    assert len(failures) == len(counts)
    for each, failure in zip(counts, failures):
        assert failure.startswith(f"faults on {each.workload}: ")
        assert "limit 2%" in failure
        per_event = [float(line.rsplit(None, 1)[1])
                     for line in failure.splitlines()[1:]]
        assert per_event == sorted(per_event, reverse=True)
        assert len(per_event) == len(each.reads["faults"])
