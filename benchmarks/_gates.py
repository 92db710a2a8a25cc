"""Disabled-path gate counts for the three overhead guards.

A run without a monitor, a tracer or a fault plan still passes every
hook site: ``if monitor.enabled:`` against ``NULL_MONITOR``,
``if tracer.enabled:`` against ``NULL_TRACER``, and
``if self.faults is not None:`` (or ``injector``) in the throughput
simulator and its assists.  Timing such a run against itself cannot see
what those gates cost.  This module counts them instead, on one run of
each guarded workload in :data:`WORKLOADS`, 2-core 133 MHz NICs over a
0.05 + 0.25 ms window:

* ``throughput``: one NIC at full-duplex line rate, 1472 B;
* ``fabric-leafspine-qos``: the spec of the simbench workload of that
  name (seed 1), a 2x2 leaf-spine with DRR and pause carrying RPC mice
  and two 0.7-load streams into one host, so the wire, QoS and topology
  hook sites of ``repro.fabric.wire`` are counted too.

* ``NullInvariantMonitor.enabled`` and ``NullTracer.enabled`` become
  counting properties on the class for that run, and every method of
  both classes a counting wrapper.  Reads and calls are keyed by the
  calling site, ``module:qualified.function``.
* A ``sys.settrace`` line counter counts the executions of every line
  of ``repro`` that tests ``faults`` or ``injector`` against ``None``.

Only the run is counted, not the building of its simulator.  Everything
is restored afterwards, and every count is divided by the run's kernel
events.  Two bounds follow for each workload
(:func:`budget_failures`):

1. The run makes no null-object method call.  An unguarded hook costs
   a call on every pass, and no share bound is as sharp as zero.
2. Per family, gate reads x gate cost per event stays under 2% of the
   workload's bare run time per event.  The gate cost is calibrated
   here, as the minimum over tight loops; the per-event time is the
   minimum over bare runs of that workload.

A failure names the workload and the calling sites.
"""

from __future__ import annotations

import gc
import os
import re
import sys
import time
import timeit
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Tuple

import repro
from repro.check.monitor import NULL_MONITOR, NullInvariantMonitor
from repro.fabric import FabricSimulator
from repro.nic import NicConfig
from repro.nic.throughput import ThroughputSimulator
from repro.obs.tracer import NullTracer
from repro.units import mhz
from simbench.workloads import WORKLOADS as SIMBENCH_WORKLOADS

WARMUP_S = 0.05e-3
MEASURE_S = 0.25e-3
MAX_GATE_SHARE = 0.02  # 2% of the bare run's time per event

#: Family -> the null-object class whose ``enabled`` and methods count.
NULL_CLASSES = {"monitor": NullInvariantMonitor, "tracer": NullTracer}
FAMILIES = ("monitor", "tracer", "faults")

#: A fault-layer gate: ``faults``/``injector`` tested against ``None``.
FAULT_GATE = re.compile(r"\b(?:faults|injector) is (?:not )?None\b")

ROUNDS = 7
ITERATIONS = 10_000  # passes of an unrolled calibration loop
UNROLL = 10


def _config() -> NicConfig:
    return NicConfig(cores=2, core_frequency_hz=mhz(133))


def guarded_simulator(**kwargs) -> ThroughputSimulator:
    """The ``throughput`` workload's simulator; ``kwargs`` attach a
    monitor, tracer or fault plan."""
    return ThroughputSimulator(_config(), 1472, **kwargs)


def _leafspine_qos() -> FabricSimulator:
    spec = SIMBENCH_WORKLOADS["fabric-leafspine-qos"].build(1).spec
    return FabricSimulator(_config(), spec)


#: Name -> builder of a bare simulator, nothing attached.
WORKLOADS = {
    "throughput": guarded_simulator,
    "fabric-leafspine-qos": _leafspine_qos,
}


def run_guarded(simulator):
    return simulator.run(warmup_s=WARMUP_S, measure_s=MEASURE_S)


# ----------------------------------------------------------------------
# Counting
# ----------------------------------------------------------------------
def _site(frame) -> str:
    return f"{frame.f_globals.get('__name__', '?')}:{_qualname(frame.f_code)}"


@lru_cache(maxsize=None)
def _qualname(code) -> str:
    """``code.co_qualname``, which Python 3.11 added; before 3.11, the
    ``__qualname__`` of a function running ``code``, the same name."""
    if hasattr(code, "co_qualname"):
        return code.co_qualname
    for referrer in gc.get_referrers(code):
        if getattr(referrer, "__code__", None) is code:
            return referrer.__qualname__
    return code.co_name


@dataclass
class GateCounts:
    """Gate reads and null-object calls of one workload's run, by
    calling site."""

    workload: str
    events: int = 0
    reads: Dict[str, Counter] = field(
        default_factory=lambda: {family: Counter() for family in FAMILIES}
    )
    #: Per family with a null class; keyed ``"<site> -> <method>"``.
    calls: Dict[str, Counter] = field(
        default_factory=lambda: {family: Counter() for family in NULL_CLASSES}
    )

    def reads_per_event(self, family: str) -> float:
        return sum(self.reads[family].values()) / self.events

    def calls_per_event(self, family: str) -> float:
        return sum(self.calls.get(family, Counter()).values()) / self.events

    def sites(self, family: str) -> List[Tuple[str, float]]:
        """Every read and call site of ``family`` with its count per
        event, largest first."""
        merged = self.reads[family] + self.calls.get(family, Counter())
        return [(site, count / self.events)
                for site, count in merged.most_common()]


def _patch_null_class(cls, counts: GateCounts, family: str) -> Dict[str, object]:
    """Counting ``enabled`` and methods on ``cls``; returns the originals."""
    originals = {"enabled": cls.__dict__["enabled"]}
    reads, calls = counts.reads[family], counts.calls[family]
    disabled = originals["enabled"]

    def enabled(_self):
        reads[_site(sys._getframe(1))] += 1
        return disabled

    cls.enabled = property(enabled)
    for name, method in list(vars(cls).items()):
        if name.startswith("__") or not callable(method):
            continue
        originals[name] = method

        def counted(*args, _name=name, _method=method, **kwargs):
            calls[f"{_site(sys._getframe(1))} -> {_name}"] += 1
            return _method(*args, **kwargs)

        setattr(cls, name, counted)
    return originals


def fault_gate_lines() -> Dict[str, frozenset]:
    """``{filename: line numbers}`` of every fault gate in ``repro``."""
    gates: Dict[str, frozenset] = {}
    for root in repro.__path__:
        for directory, _dirs, files in os.walk(root):
            for name in files:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as handle:
                    lines = frozenset(
                        number
                        for number, text in enumerate(handle, start=1)
                        if FAULT_GATE.search(text.split("#", 1)[0])
                    )
                if lines:
                    gates[path] = lines
    return gates


def _fault_line_tracer(counts: GateCounts):
    gates = fault_gate_lines()
    reads = counts.reads["faults"]

    def on_line(frame, event, _arg):
        if event == "line" and frame.f_lineno in gates[frame.f_code.co_filename]:
            reads[_site(frame)] += 1
        return on_line

    def on_call(frame, _event, _arg):
        return on_line if frame.f_code.co_filename in gates else None

    return on_call


def _count(name: str) -> GateCounts:
    counts = GateCounts(name)
    simulator = WORKLOADS[name]()
    patched = []
    previous_trace = sys.gettrace()
    try:
        for family, cls in NULL_CLASSES.items():
            patched.append((cls, _patch_null_class(cls, counts, family)))
        sys.settrace(_fault_line_tracer(counts))
        run_guarded(simulator)
    finally:
        sys.settrace(previous_trace)
        for cls, originals in patched:
            for name, original in originals.items():
                setattr(cls, name, original)
    counts.events = simulator.sim.events_processed
    return counts


def count_gates() -> List[GateCounts]:
    """Count every gate read and null-object call of one run of each
    guarded workload, per calling site."""
    return [_count(name) for name in WORKLOADS]


# ----------------------------------------------------------------------
# Costs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Costs:
    gate_s: float   # one ``if self.monitor.enabled:`` on the null object
    event_s: float  # the workload's bare run, time per kernel event


class _Holder:
    def __init__(self) -> None:
        self.monitor = NULL_MONITOR


#: The dearer gate shape (a class attribute read through an instance,
#: ~3x an ``is not None`` test), charged to all three families.
_GATE = "if self.monitor.enabled:\n    pass\n"


def _run_s_per_event(build) -> float:
    simulator = build()
    gc.collect()
    started = time.perf_counter()
    run_guarded(simulator)
    return (time.perf_counter() - started) / simulator.sim.events_processed


def calibrate() -> List[Costs]:
    """The per-gate cost and each workload's per-event cost, each the
    minimum over ``ROUNDS`` alternating measurements in this process, so
    a slow stretch of a shared host spreads over all of them."""
    # Unrolled, so the loop adds a tenth of its own cost to each gate.
    gate = timeit.Timer(_GATE * UNROLL, setup="self = _Holder()",
                        globals={"_Holder": _Holder})
    for build in WORKLOADS.values():  # warm caches and interpreter state
        run_guarded(build())
    gate_s = float("inf")
    event_s = [float("inf")] * len(WORKLOADS)
    for _ in range(ROUNDS):
        gate_s = min(gate_s, gate.timeit(ITERATIONS) / (ITERATIONS * UNROLL))
        for index, build in enumerate(WORKLOADS.values()):
            event_s[index] = min(event_s[index], _run_s_per_event(build))
    return [Costs(gate_s=gate_s, event_s=each) for each in event_s]


def measure() -> List[Tuple[GateCounts, Costs]]:
    """Each guarded workload's gate counts and this host's costs."""
    return list(zip(count_gates(), calibrate()))


# ----------------------------------------------------------------------
# Bounds and the report
# ----------------------------------------------------------------------
def gate_share(family: str, counts: GateCounts, costs: Costs) -> float:
    """Estimated cost of ``family``'s gates per event, as a share of the
    bare run's time per event."""
    return counts.reads_per_event(family) * costs.gate_s / costs.event_s


def _site_lines(family: str, counts: GateCounts,
                indent: str = "    ") -> List[str]:
    return [f"{indent}{site}  {per_event:.2f}"
            for site, per_event in counts.sites(family)]


def _failures(family: str, counts: GateCounts, costs: Costs) -> List[str]:
    failures = []
    if counts.calls.get(family):
        failures.append(
            f"{family} on {counts.workload}: the disabled run called the "
            f"null object ({counts.calls_per_event(family):.2f} calls per "
            "event); gate each call site:\n"
            + "\n".join(f"    {site}  {count / counts.events:.2f}"
                        for site, count in counts.calls[family].most_common())
        )
    share = gate_share(family, counts, costs)
    if share >= MAX_GATE_SHARE:
        failures.append(
            f"{family} on {counts.workload}: gates cost an estimated "
            f"{share:.2%} of the bare run (limit {MAX_GATE_SHARE:.0%}); "
            "sites per event:\n"
            + "\n".join(_site_lines(family, counts))
        )
    return failures


def budget_failures(
    family: str, measured: List[Tuple[GateCounts, Costs]]
) -> List[str]:
    """Why ``family`` breaks a bound on any workload, or ``[]``."""
    return [failure for counts, costs in measured
            for failure in _failures(family, counts, costs)]


def report(family: str, measured: List[Tuple[GateCounts, Costs]]) -> str:
    lines = [f"Disabled-path gates: {family}"]
    for counts, costs in measured:
        lines += [
            f"  workload {counts.workload}",
            f"    kernel events:          {counts.events}",
            f"    gate reads per event:   "
            f"{counts.reads_per_event(family):.2f} x {costs.gate_s * 1e9:.1f} ns",
            f"    bare run per event:     {costs.event_s * 1e6:.2f} us",
            f"    estimated share:        "
            f"{gate_share(family, counts, costs):.2%} "
            f"(limit <{MAX_GATE_SHARE:.0%})",
            "    sites per event:",
        ]
        lines += _site_lines(family, counts, "      ") or ["      none"]
    return "\n".join(lines)
