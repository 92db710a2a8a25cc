"""Disabled-path gate counts for the three overhead guards.

A run without a monitor, a tracer or a fault plan still passes every
hook site: ``if monitor.enabled:`` against ``NULL_MONITOR``,
``if tracer.enabled:`` against ``NULL_TRACER``, and
``if self.faults is not None:`` (or ``injector``) in the throughput
simulator and its assists.  Timing such a run against itself cannot see
what those gates cost.  This module counts them instead, on one run of
the guarded workload (2 cores at 133 MHz, 1472 B, 0.05 + 0.25 ms):

* ``NullInvariantMonitor.enabled`` and ``NullTracer.enabled`` become
  counting properties on the class for that run, and every method of
  both classes a counting wrapper.  Reads and calls are keyed by the
  calling site, ``module:function``.
* A ``sys.settrace`` line counter counts the executions of every line
  of ``repro`` that tests ``faults`` or ``injector`` against ``None``.

Everything is restored afterwards, and every count is divided by the
run's kernel events.  Two bounds follow (:func:`budget_failures`):

1. The run makes no null-object method call.  An unguarded hook costs
   a call on every pass, and no share bound is as sharp as zero.
2. Per family, gate reads x gate cost per event stays under 2% of the
   bare run's time per event.  The gate cost is calibrated here, as the
   minimum over tight loops; the per-event time is the minimum over
   bare runs.
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
from typing import Dict, List, Tuple

import repro
from repro.check.monitor import NULL_MONITOR, NullInvariantMonitor
from repro.nic import NicConfig
from repro.nic.throughput import ThroughputSimulator
from repro.obs.tracer import NullTracer
from repro.units import mhz

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


def guarded_simulator(**kwargs) -> ThroughputSimulator:
    """The guarded workload's simulator; ``kwargs`` attach a monitor,
    tracer or fault plan."""
    config = NicConfig(cores=2, core_frequency_hz=mhz(133))
    return ThroughputSimulator(config, 1472, **kwargs)


def run_guarded(simulator: ThroughputSimulator):
    return simulator.run(warmup_s=WARMUP_S, measure_s=MEASURE_S)


# ----------------------------------------------------------------------
# Counting
# ----------------------------------------------------------------------
def _site(frame) -> str:
    code = frame.f_code
    name = getattr(code, "co_qualname", code.co_name)  # Python 3.11+
    return f"{frame.f_globals.get('__name__', '?')}:{name}"


@dataclass
class GateCounts:
    """Gate reads and null-object calls of one run, by calling site."""

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


def count_gates() -> GateCounts:
    """Count every gate read and null-object call of one run of the
    guarded workload, per calling site."""
    counts = GateCounts()
    patched = []
    previous_trace = sys.gettrace()
    try:
        for family, cls in NULL_CLASSES.items():
            patched.append((cls, _patch_null_class(cls, counts, family)))
        sys.settrace(_fault_line_tracer(counts))
        simulator = guarded_simulator()
        run_guarded(simulator)
    finally:
        sys.settrace(previous_trace)
        for cls, originals in patched:
            for name, original in originals.items():
                setattr(cls, name, original)
    counts.events = simulator.sim.events_processed
    return counts


# ----------------------------------------------------------------------
# Costs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Costs:
    gate_s: float   # one ``if self.monitor.enabled:`` on the null object
    event_s: float  # bare guarded run, time per kernel event


class _Holder:
    def __init__(self) -> None:
        self.monitor = NULL_MONITOR


#: The dearer gate shape (a class attribute read through an instance,
#: ~3x an ``is not None`` test), charged to all three families.
_GATE = "if self.monitor.enabled:\n    pass\n"


def _run_s_per_event() -> float:
    simulator = guarded_simulator()
    gc.collect()
    started = time.perf_counter()
    run_guarded(simulator)
    return (time.perf_counter() - started) / simulator.sim.events_processed


def calibrate() -> Costs:
    """Per-gate and per-event costs, each the minimum over ``ROUNDS``
    alternating measurements in this process, so a slow stretch of a
    shared host spreads over both."""
    # Unrolled, so the loop adds a tenth of its own cost to each gate.
    gate = timeit.Timer(_GATE * UNROLL, setup="self = _Holder()",
                        globals={"_Holder": _Holder})
    run_guarded(guarded_simulator())  # warm caches and interpreter state
    gate_s = event_s = float("inf")
    for _ in range(ROUNDS):
        gate_s = min(gate_s, gate.timeit(ITERATIONS) / (ITERATIONS * UNROLL))
        event_s = min(event_s, _run_s_per_event())
    return Costs(gate_s=gate_s, event_s=event_s)


def measure() -> Tuple[GateCounts, Costs]:
    """The guarded workload's gate counts and this host's costs."""
    return count_gates(), calibrate()


# ----------------------------------------------------------------------
# Bounds and the report
# ----------------------------------------------------------------------
def gate_share(family: str, counts: GateCounts, costs: Costs) -> float:
    """Estimated cost of ``family``'s gates per event, as a share of the
    bare run's time per event."""
    return counts.reads_per_event(family) * costs.gate_s / costs.event_s


def _site_lines(family: str, counts: GateCounts) -> List[str]:
    return [f"    {site}  {per_event:.2f}"
            for site, per_event in counts.sites(family)]


def budget_failures(family: str, counts: GateCounts, costs: Costs) -> List[str]:
    """Why ``family`` breaks a bound, or ``[]``."""
    failures = []
    if counts.calls.get(family):
        failures.append(
            f"{family}: the disabled run called the null object "
            f"({counts.calls_per_event(family):.2f} calls per event); "
            "gate each call site:\n"
            + "\n".join(f"    {site}  {count / counts.events:.2f}"
                        for site, count in counts.calls[family].most_common())
        )
    share = gate_share(family, counts, costs)
    if share >= MAX_GATE_SHARE:
        failures.append(
            f"{family}: gates cost an estimated {share:.2%} of the bare "
            f"run (limit {MAX_GATE_SHARE:.0%}); sites per event:\n"
            + "\n".join(_site_lines(family, counts))
        )
    return failures


def report(family: str, counts: GateCounts, costs: Costs) -> str:
    lines = [
        f"Disabled-path gates: {family}",
        f"  kernel events:          {counts.events}",
        f"  gate reads per event:   {counts.reads_per_event(family):.2f} "
        f"x {costs.gate_s * 1e9:.1f} ns",
        f"  bare run per event:     {costs.event_s * 1e6:.2f} us",
        f"  estimated share:        {gate_share(family, counts, costs):.2%} "
        f"(limit <{MAX_GATE_SHARE:.0%})",
        "  sites per event:",
    ]
    return "\n".join(lines + (_site_lines(family, counts) or ["    none"]))
