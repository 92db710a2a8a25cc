"""Per-layer host-time attribution for one traced round.

Spans are recorded from outside the simulator, around calls into each
layer's public functions:

* every kernel callback is a root span, timed by the kernel's own
  profiler hook (``Simulator.attach_profiler``) and attributed to the
  layer of ``phase_of(describe_callback(cb))`` from
  :mod:`repro.obs.profiler`;
* the public entry points in :data:`ENTRY_POINTS` are patched (on the
  class, for the lifetime of the traced round) into child spans of
  their layer — ``Simulator.schedule`` included, as ``sim.kernel``;
* a function or bound method passed as an argument into a patched
  entry point (say ``DmaAssist.frame_transfer``'s ``on_complete``) is
  wrapped as a span of the layer that defined it, so handler work that
  runs inside an assist completion is charged to ``nic``, not to
  ``assists``.

A layer's self time is its span time minus its child spans' time, less
the calibrated cost of the spans themselves.  The kernel's self time is
the run's wall time minus all root spans.  A callback whose module maps
to no layer is reported as an ``other:<phase>`` row, never dropped.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import types
from time import perf_counter
from typing import Callable, Dict, List, Tuple

#: Module or package -> layer, first match wins.  Keys are matched
#: against the callback's phase (``module.Qualified.name``).
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim", "sim.kernel"),
    ("repro.nic", "nic"),
    ("repro.fabric.endpoint", "nic"),
    ("repro.cpu", "cpu.costmodel"),
    ("repro.firmware.ordering", "firmware.ordering"),
    ("repro.firmware.events", "firmware.events"),
    ("repro.assists", "assists"),
    ("repro.mem", "mem.sdram"),
    ("repro.host", "host"),
    ("repro.fabric.wire", "fabric.wire"),
    ("repro.fabric.topology", "fabric.wire"),
    ("repro.fabric.flows", "fabric.flows"),
    ("repro.fabric.sim", "fabric.flows"),
    ("repro.fabric.flowtable", "fabric.flowtable"),
    ("repro.qos", "qos"),
    ("repro.obs.hist", "obs.hist"),
)

LAYERS: Tuple[str, ...] = (
    "sim.kernel",
    "nic",
    "cpu.costmodel",
    "firmware.ordering",
    "firmware.events",
    "assists",
    "mem.sdram",
    "host",
    "fabric.wire",
    "fabric.flows",
    "fabric.flowtable",
    "qos",
    "obs.hist",
)

#: (module, class, methods, layer).  Each method is patched on the
#: class that defines it; subclasses that override a method are listed
#: separately.  A name missing from the simulator is skipped and
#: reported, so a later refactor degrades attribution instead of
#: breaking the round.
ENTRY_POINTS: Tuple[Tuple[str, str, Tuple[str, ...], str], ...] = (
    ("repro.sim.kernel", "Simulator", ("schedule",), "sim.kernel"),
    ("repro.fabric.endpoint", "NicEndpoint", ("post_tx", "rx_arrive"), "nic"),
    ("repro.cpu.costmodel", "CoreCostModel", ("cost",), "cpu.costmodel"),
    ("repro.firmware.ordering", "OrderingBoard",
     ("mark_done", "skip", "commit"), "firmware.ordering"),
    ("repro.firmware.events", "DistributedEventQueue",
     ("push", "pop"), "firmware.events"),
    ("repro.assists.dma", "DmaAssist",
     ("frame_transfer", "descriptor_transfer"), "assists"),
    ("repro.assists.mac", "MacTransmitter", ("transmit",), "assists"),
    ("repro.assists.mac", "MacReceiver",
     ("take_frame", "store", "skip_backlog"), "assists"),
    ("repro.fabric.endpoint", "FabricMacReceiver",
     ("push", "take_frame", "skip_backlog"), "assists"),
    ("repro.assists.pci", "PciInterface", ("host_phase",), "assists"),
    ("repro.mem.sdram", "GddrSdram", ("transfer",), "mem.sdram"),
    ("repro.host.driver", "DriverModel",
     ("refill_send_ring", "consume_send_bds", "replenish_recv_ring",
      "consume_recv_bds", "complete_sends", "complete_receives"), "host"),
    ("repro.host.rss", "HostQueueModel",
     ("ring_for", "refill_send", "complete_tx", "replenish_recv",
      "complete_rx"), "host"),
    ("repro.fabric.wire", "FabricWire", ("transmit", "route_ports"),
     "fabric.wire"),
    ("repro.fabric.flows", "FlowRuntime", ("on_delivered", "on_lost"),
     "fabric.flows"),
    ("repro.fabric.flows", "RpcFlowRuntime", ("on_delivered", "on_lost"),
     "fabric.flows"),
    ("repro.fabric.flows", "StreamFlowRuntime", ("qos_pause", "qos_resume"),
     "fabric.flows"),
    ("repro.fabric.flowtable", "FlowTable",
     ("record_delivery", "record_loss"), "fabric.flowtable"),
    ("repro.qos.sched", "StrictPriorityScheduler", ("select",), "qos"),
    ("repro.qos.sched", "DrrScheduler", ("select",), "qos"),
    ("repro.qos.sched", "WrrScheduler", ("select",), "qos"),
    ("repro.qos.runtime", "QosRuntime", ("on_delivered", "pause", "resume"),
     "qos"),
    ("repro.obs.hist", "StreamingHistogram", ("record",), "obs.hist"),
)

#: Module-level functions; every ``repro`` module that imported one by
#: name gets the wrapped version too.
ENTRY_FUNCTIONS: Tuple[Tuple[str, Tuple[str, ...], str], ...] = (
    ("repro.qos.red", ("red_decide", "red_drop_probability"), "qos"),
)

#: Callback attributes a simulator object calls into from another
#: layer's code (the host model's credit callbacks, the fabric MAC's
#: drop report).  They are set at construction, not passed through an
#: entry point, so they are adopted explicitly: ``(owner path, attr)``.
CALLBACK_ATTRIBUTES: Tuple[Tuple[str, str], ...] = (
    ("rss_host", "on_rx_processed"),
    ("rss_host", "on_tx_processed"),
    ("mac_rx", "drop_fn"),
)

_CALLABLE_TYPES = (types.FunctionType, types.MethodType)


def layer_for_phase(phase: str) -> str:
    for prefix, layer in MODULE_LAYERS:
        if phase.startswith(prefix + "."):
            return layer
    return "other:" + phase


def _noop(*_args) -> None:
    return None


class _Probe:
    """Calibration target shaped like an entry point: a method called
    through an instance with three positional arguments."""

    def call(self, first, second, third) -> None:
        return None


class Tracer:
    """Span stack plus per-layer accumulators for one traced round.

    Each layer keeps ``[spans, raw self seconds, child spans, adopted
    callables, root spans]``; a frame keeps ``[child seconds, child
    spans, adopted callables]`` for the span that is running.
    """

    def __init__(self) -> None:
        self.stats: Dict[str, List[float]] = {}
        self._root = [0.0, 0, 0]
        self.frame = self._root
        self.root_wall_s = 0.0
        self._layer_by_code: Dict[object, str] = {}
        self._patches: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    # -- spans -----------------------------------------------------------
    def _layer_stats(self, layer: str) -> List[float]:
        stats = self.stats.get(layer)
        if stats is None:
            stats = self.stats[layer] = [0, 0.0, 0, 0, 0]
        return stats

    def layer_of(self, callback) -> str:
        """The layer that defined ``callback`` (cached per code object)."""
        func = getattr(callback, "__func__", callback)
        layer = getattr(func, "simbench_layer", None)
        if layer is not None:
            return layer
        code = getattr(func, "__code__", None)
        layer = self._layer_by_code.get(code) if code is not None else None
        if layer is None:
            from repro.obs.profiler import describe_callback, phase_of

            layer = layer_for_phase(phase_of(describe_callback(callback)))
            if code is not None:
                self._layer_by_code[code] = layer
        return layer

    def span(self, fn: Callable, layer: str, adopt: bool = True) -> Callable:
        """``fn`` timed as a span of ``layer``."""
        stats = self._layer_stats(layer)
        tracer = self
        callable_types = _CALLABLE_TYPES

        def timed(*args, **kwargs):
            parent = tracer.frame
            if adopt:
                if kwargs:
                    args = tracer._adopt_arguments(parent, args, kwargs)
                else:
                    for value in args:
                        if type(value) in callable_types:
                            args = tracer._adopt_arguments(parent, args, kwargs)
                            break
            frame = [0.0, 0, 0]
            tracer.frame = frame
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer.frame = parent
                parent[0] += elapsed
                parent[1] += 1
                stats[0] += 1
                stats[1] += elapsed - frame[0]
                stats[2] += frame[1]
                stats[3] += frame[2]

        timed.simbench_layer = layer
        return timed

    def adopt(self, fn: Callable) -> Callable:
        """``fn`` as a span of the layer that defined it."""
        if getattr(getattr(fn, "__func__", fn), "simbench_layer", None) is not None:
            return fn
        return self.span(fn, self.layer_of(fn), adopt=False)

    def _adopt_arguments(self, parent, args: tuple, kwargs: dict) -> tuple:
        """Adopt every function argument (``kwargs`` in place); counts
        the adoptions in the calling frame, whose window pays for them."""
        adopted = list(args)
        for index, value in enumerate(adopted):
            if type(value) in _CALLABLE_TYPES:
                adopted[index] = self.adopt(value)
                parent[2] += 1
        for key, value in kwargs.items():
            if type(value) in _CALLABLE_TYPES:
                kwargs[key] = self.adopt(value)
                parent[2] += 1
        return tuple(adopted)

    def record(self, callback, wall_s: float) -> None:
        """Kernel profiler hook: one finished root span."""
        frame = self.frame
        stats = self._layer_stats(self.layer_of(callback))
        stats[4] += 1
        stats[1] += wall_s - frame[0]
        stats[2] += frame[1]
        stats[3] += frame[2]
        frame[0] = 0.0
        frame[1] = 0
        frame[2] = 0
        self.root_wall_s += wall_s

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        """Patch every entry point; call before the simulator is built so
        bound methods taken at construction are the patched ones."""
        for module_name, class_name, methods, layer in ENTRY_POINTS:
            owner = getattr(importlib.import_module(module_name), class_name, None)
            # Callbacks handed to the kernel become root spans through
            # the profiler hook; adopting them too would time each event
            # twice.
            adopt = layer != "sim.kernel"
            for method in methods:
                original = owner.__dict__.get(method) if owner is not None else None
                if original is None:
                    self.missing.append(f"{module_name}.{class_name}.{method}")
                    continue
                self._patch(owner, method, original,
                            self.span(original, layer, adopt=adopt))
        for module_name, functions, layer in ENTRY_FUNCTIONS:
            module = importlib.import_module(module_name)
            for name in functions:
                original = getattr(module, name, None)
                if original is None:
                    self.missing.append(f"{module_name}.{name}")
                    continue
                wrapped = self.span(original, layer)
                for importer in list(sys.modules.values()):
                    if (getattr(importer, "__name__", "").startswith("repro")
                            and getattr(importer, name, None) is original):
                        self._patch(importer, name, original, wrapped)

    def _patch(self, owner, name: str, original, wrapped) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def attach(self, simulator) -> None:
        """Hook a built simulator: root spans from its kernel, and its
        cross-layer callback attributes adopted by their layer."""
        objects = [simulator] + list(getattr(simulator, "endpoints", ()))
        for obj in objects:
            for owner_name, attribute in CALLBACK_ATTRIBUTES:
                owner = getattr(obj, owner_name, None)
                callback = getattr(owner, attribute, None)
                if type(callback) in _CALLABLE_TYPES:
                    setattr(owner, attribute, self.adopt(callback))
        simulator.sim.attach_profiler(self)
        self._root[:] = [0.0, 0, 0]
        self.frame = self._root

    # -- results -----------------------------------------------------------
    def layer_metrics(
        self,
        calibration: Dict[str, float],
        run_wall_s: float,
        sim_ms: float,
    ) -> Dict[str, float]:
        """Corrected self time and span count per layer, per simulated ms."""
        root_spans = sum(stats[4] for stats in self.stats.values())
        kernel_loop_s = (
            run_wall_s - self.root_wall_s - root_spans * calibration["root_s"]
        )
        others = sorted(name for name in self.stats if name not in LAYERS)
        metrics: Dict[str, float] = {}
        for layer in LAYERS + tuple(others):
            spans, raw_s, children, adopted, roots = self.stats.get(
                layer, (0, 0.0, 0, 0, 0)
            )
            self_s = (
                raw_s
                - spans * calibration["span_in_s"]
                - children * calibration["span_out_s"]
                - adopted * calibration["adopt_s"]
            )
            if layer == "sim.kernel":
                self_s += kernel_loop_s
            metrics[f"{layer}.self_ms_per_sim_ms"] = self_s * 1e3 / sim_ms
            metrics[f"{layer}.calls_per_sim_ms"] = (spans + roots) / sim_ms
        return metrics


def calibrate(trials: int = 5, calls: int = 20_000) -> Dict[str, float]:
    """Per-span costs of this tracer on this host, medians of ``trials``.

    * ``span_in_s`` — inside a span's own window (charged to its layer);
    * ``span_out_s`` — outside it, in the caller's window;
    * ``adopt_s`` — wrapping one callable argument (caller's window);
    * ``root_s`` — the kernel profiler hook per event (kernel's share).

    Run before :meth:`Tracer.install`: the kernel must be unpatched.
    """
    from repro.sim.kernel import Simulator

    samples: Dict[str, List[float]] = {
        "span_in_s": [], "span_out_s": [], "adopt_s": [], "root_s": [],
    }
    loop = range(calls)
    bare = _Probe()
    for _ in range(trials):
        tracer = Tracer()
        traced = type("_TracedProbe", (_Probe,), {
            "call": tracer.span(_Probe.call, "calibration"),
        })()

        start = perf_counter()
        for _ in loop:
            pass
        empty_s = perf_counter() - start
        start = perf_counter()
        for _ in loop:
            bare.call(1, 2, 3)
        bare_s = perf_counter() - start
        start = perf_counter()
        for _ in loop:
            traced.call(1, 2, 3)
        wrapped_s = perf_counter() - start
        inside_s = tracer.stats["calibration"][1]
        start = perf_counter()
        for _ in loop:
            traced.call(_noop, 2, 3)
        adopting_s = perf_counter() - start

        span_in = max(0.0, (inside_s - (bare_s - empty_s)) / calls)
        span_total = (wrapped_s - bare_s) / calls
        samples["span_in_s"].append(span_in)
        samples["span_out_s"].append(max(0.0, span_total - span_in))
        samples["adopt_s"].append(max(0.0, (adopting_s - wrapped_s) / calls))

        runs = []
        for profiler in (None, Tracer()):
            sim = Simulator()
            for when in loop:
                sim.schedule(when, _noop)
            sim.attach_profiler(profiler)
            start = perf_counter()
            sim.run()
            runs.append(perf_counter() - start)
        samples["root_s"].append(max(0.0, (runs[1] - runs[0]) / calls))
    return {key: statistics.median(values) for key, values in samples.items()}
