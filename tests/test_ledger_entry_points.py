"""The performance ledger's entry points exist in the simulator and are
reached where they were.

``simbench``'s traced round patches every method and function named in
``simbench.trace.ENTRY_POINTS`` / ``ENTRY_FUNCTIONS`` into a span of its
layer.  A name it cannot find is recorded in ``Tracer.missing`` and
skipped, and the round then charges that layer's time to its caller
without failing.  These tests turn such a rename into a failure.

A refactor that keeps every name but stops calling one (say,
``schedule_at`` pushing onto the heap itself instead of calling
``schedule``, or ``_dispatch`` reading the queue's deque instead of
calling ``pop``) moves time between ledger layers just as silently.
So each workload is run at smoke scale with every entry point wrapped
by the tracer's own ``install``, and the entry points it reaches, with
the functions that call them, are pinned.
"""

import sys
import types

import pytest

from simbench.trace import ENTRY_FUNCTIONS, ENTRY_POINTS, Tracer
from simbench.workloads import WORKLOADS

#: ``simbench --smoke``'s share of each workload's windows.
SMOKE_SCALE = 0.1

#: Entry points every workload reaches.
_EVERY_RUN = {
    "CoreCostModel.cost",
    "DistributedEventQueue.pop",
    "DistributedEventQueue.push",
    "DmaAssist.descriptor_transfer",
    "DmaAssist.frame_transfer",
    "DriverModel.consume_recv_bds",
    "DriverModel.consume_send_bds",
    "DriverModel.refill_send_ring",
    "DriverModel.replenish_recv_ring",
    "GddrSdram.transfer",
    "MacReceiver.store",
    "MacTransmitter.transmit",
    "OrderingBoard.commit",
    "OrderingBoard.mark_done",
    "PciInterface.host_phase",
    "Simulator.schedule",
}
_FABRIC = _EVERY_RUN | {
    "DriverModel.complete_receives",
    "DriverModel.complete_sends",
    "FabricMacReceiver.push",
    "FabricMacReceiver.skip_backlog",
    "FabricMacReceiver.take_frame",
    "FabricWire.route_ports",
    "FabricWire.transmit",
    "FlowRuntime.on_delivered",
    "NicEndpoint.post_tx",
    "NicEndpoint.rx_arrive",
    "RpcFlowRuntime.on_delivered",
}

#: Entry points each workload reaches at smoke scale, seed 1.
REACHED = {
    "nic-saturation": _EVERY_RUN | {
        "DriverModel.complete_receives",
        "DriverModel.complete_sends",
        "MacReceiver.skip_backlog",
        "MacReceiver.take_frame",
    },
    "nic-minframe-rss": _EVERY_RUN | {
        "HostQueueModel.complete_rx",
        "HostQueueModel.complete_tx",
        "HostQueueModel.refill_send",
        "HostQueueModel.replenish_recv",
        "HostQueueModel.ring_for",
        "MacReceiver.skip_backlog",
        "MacReceiver.take_frame",
    },
    "fabric-rpc": _FABRIC,
    "fabric-leafspine-qos": _FABRIC | {
        "DrrScheduler.select",
        "FlowRuntime.on_lost",
        "FlowTable.record_delivery",
        "FlowTable.record_loss",
        "QosRuntime.on_delivered",
        "StreamingHistogram.record",
        "red_decide",
        "red_drop_probability",
    },
}

#: The functions (``module:name``) that call each entry point, over all
#: four workloads.
CALLERS = {
    "CoreCostModel.cost": {"repro.cpu.costmodel:compute", "repro.cpu.costmodel:spin"},
    "DistributedEventQueue.pop": {"repro.nic.throughput:_dispatch"},
    "DistributedEventQueue.push": {"repro.nic.throughput:_push_event"},
    "DmaAssist.descriptor_transfer": {
        "repro.nic.throughput:_commit_rx",
        "repro.nic.throughput:_commit_tx",
        "repro.nic.throughput:_handle_fetch_recv_bd",
        "repro.nic.throughput:_handle_fetch_send_bd",
    },
    "DmaAssist.frame_transfer": {
        "repro.nic.throughput:_handle_recv_frame",
        "repro.nic.throughput:_handle_send_frame",
    },
    "DriverModel.complete_receives": {"repro.host.driver:commit_rx"},
    "DriverModel.complete_sends": {"repro.host.driver:complete_tx"},
    "DriverModel.consume_recv_bds": {"repro.nic.throughput:_maybe_fetch_recv_bds"},
    "DriverModel.consume_send_bds": {
        "repro.fabric.endpoint:fetch_send_bds",
        "repro.nic.throughput:fetch_send_bds",
    },
    "DriverModel.refill_send_ring": {
        "repro.host.driver:complete_tx",
        "repro.host.driver:refill_send",
        "repro.host.rss:refill_send",
    },
    "DriverModel.replenish_recv_ring": {
        "repro.host.driver:replenish_recv",
        "repro.host.rss:replenish_recv",
    },
    "DrrScheduler.select": {"repro.fabric.wire:_qos_service"},
    "FabricMacReceiver.push": {"repro.fabric.endpoint:rx_arrive"},
    "FabricMacReceiver.skip_backlog": {"repro.nic.throughput:_wake_rx"},
    "FabricMacReceiver.take_frame": {"repro.nic.throughput:_rx_pump"},
    "FabricWire.route_ports": {"repro.fabric.wire:transmit", "repro.qos.runtime:__init__"},
    "FabricWire.transmit": {"repro.fabric.endpoint:tx_wire"},
    "FlowRuntime.on_delivered": {
        "repro.fabric.flows:on_delivered",
        "repro.fabric.sim:frame_delivered",
    },
    "FlowRuntime.on_lost": {"repro.fabric.sim:frame_lost"},
    "FlowTable.record_delivery": {"repro.fabric.sim:frame_delivered"},
    "FlowTable.record_loss": {"repro.fabric.sim:frame_lost"},
    "GddrSdram.transfer": {
        "repro.assists.dma:_issue_burst",
        "repro.assists.mac:store",
        "repro.assists.mac:transmit",
    },
    "HostQueueModel.complete_rx": {"repro.host.rss:commit_rx"},
    "HostQueueModel.complete_tx": {"repro.nic.throughput:_commit_tx"},
    "HostQueueModel.refill_send": {
        "repro.host.rss:complete_tx",
        "repro.nic.throughput:_build",
        "repro.nic.throughput:_rss_tx_processed",
    },
    "HostQueueModel.replenish_recv": {
        "repro.nic.throughput:_build",
        "repro.nic.throughput:_maybe_fetch_recv_bds",
    },
    "HostQueueModel.ring_for": {
        "repro.host.rss:commit_rx",
        "repro.host.rss:complete_tx",
        "repro.host.rss:refill_send",
    },
    "MacReceiver.skip_backlog": {"repro.nic.throughput:_wake_rx"},
    "MacReceiver.store": {"repro.nic.throughput:_rx_store"},
    "MacReceiver.take_frame": {"repro.nic.throughput:_rx_pump"},
    "MacTransmitter.transmit": {"repro.nic.throughput:_mac_tx_pump"},
    "NicEndpoint.post_tx": {"repro.fabric.flows:_post"},
    "NicEndpoint.rx_arrive": {"repro.fabric.wire:arrive"},
    "OrderingBoard.commit": {
        "repro.nic.throughput:_commit_rx",
        "repro.nic.throughput:_commit_tx",
    },
    "OrderingBoard.mark_done": {
        "repro.nic.throughput:_handle_recv_complete",
        "repro.nic.throughput:_handle_send_complete",
    },
    "PciInterface.host_phase": {
        "repro.assists.dma:_burst_done",
        "repro.assists.dma:descriptor_transfer",
        "repro.assists.dma:frame_transfer",
    },
    "QosRuntime.on_delivered": {"repro.fabric.sim:frame_delivered"},
    "RpcFlowRuntime.on_delivered": {"repro.fabric.sim:frame_delivered"},
    "Simulator.schedule": {
        "repro.fabric.sim:start",
        "repro.nic.throughput:_commit_rx",
        "repro.nic.throughput:_commit_tx",
        "repro.nic.throughput:_dispatch",
        "repro.nic.throughput:_update_contention",
        "repro.nic.throughput:start",
        "repro.sim.kernel:schedule_at",
    },
    "StreamingHistogram.record": {"repro.fabric.flowtable:record_delivery"},
    "red_decide": {"repro.fabric.wire:_qos_admit"},
    "red_drop_probability": {"repro.fabric.wire:_qos_admit"},
}

#: Frames of comprehensions, which Python 3.12 inlines into their
#: function: the caller is the function around them on every version.
_COMPREHENSIONS = ("<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>")


def _caller(frame) -> str:
    while frame.f_code.co_name in _COMPREHENSIONS:
        frame = frame.f_back
    return f"{frame.f_globals.get('__name__')}:{frame.f_code.co_name}"


class _CallerTracer(Tracer):
    """The traced round's patching, with spans that record, per entry
    point, the functions calling it instead of timing it."""

    def __init__(self):
        super().__init__()
        self.reached = {}

    def span(self, fn, layer, adopt=True):
        callers = self.reached

        def wrapper(*args, **kwargs):
            callers.setdefault(fn.__qualname__, set()).add(_caller(sys._getframe(1)))
            return fn(*args, **kwargs)

        return wrapper


def _reached(workload):
    """``{entry point: callers}`` of one smoke-scale run, seed 1, with
    every entry point wrapped by ``Tracer.install``."""
    tracer = _CallerTracer()
    try:
        tracer.install()
        spec = WORKLOADS[workload]
        simulator = spec.build(1)
        simulator.run(spec.warmup_s * SMOKE_SCALE, spec.measure_s * SMOKE_SCALE)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    return tracer.reached


@pytest.fixture(scope="module")
def reached():
    return {workload: _reached(workload) for workload in WORKLOADS}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_each_workload_reaches_its_pinned_entry_points(reached, workload):
    assert sorted(reached[workload]) == sorted(REACHED[workload])


def test_entry_points_are_called_from_their_pinned_functions(reached):
    callers = {}
    for per_workload in reached.values():
        for entry, functions in per_workload.items():
            callers.setdefault(entry, set()).update(functions)
    assert callers == CALLERS


def test_pins_name_only_ledger_entry_points():
    names = {f"{class_name}.{method}" for _m, class_name, methods, _l in ENTRY_POINTS
             for method in methods}
    names |= {name for _m, functions, _l in ENTRY_FUNCTIONS for name in functions}
    assert set(CALLERS) <= names
    for entries in REACHED.values():
        assert entries <= set(CALLERS)


def test_every_ledger_entry_point_is_patched():
    tracer = Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_uninstall_restores_the_originals():
    import importlib

    tracer = Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    for module_name, class_name, methods, _layer in ENTRY_POINTS:
        owner = getattr(importlib.import_module(module_name), class_name)
        for method in methods:
            assert not hasattr(owner.__dict__[method], "simbench_layer"), (
                f"{class_name}.{method} still patched"
            )


class _CallbackRecorder:
    """A kernel profiler that keeps, per type, a label of each callback
    the kernel ran that the ledger cannot cache by code object."""

    def __init__(self):
        self.uncached = {}

    def record(self, callback, wall_s):
        if type(callback) is types.FunctionType:
            return
        if (type(callback) is types.MethodType
                and hasattr(callback.__func__, "__code__")):
            return
        self.uncached.setdefault(type(callback).__name__, set()).add(repr(callback)[:80])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_scheduled_callback_has_a_code_object(workload):
    """The traced round caches a callback's layer by ``__code__``
    (``Tracer.layer_of``).  A callback without one, such as a
    ``functools.partial``, would re-run ``describe_callback`` on every
    event, inside the kernel's row of the ledger.  So every callback a
    workload schedules is a function, or a bound method of one."""
    recorder = _CallbackRecorder()
    spec = WORKLOADS[workload]
    simulator = spec.build(1)
    simulator.sim.attach_profiler(recorder)
    simulator.run(spec.warmup_s * SMOKE_SCALE, spec.measure_s * SMOKE_SCALE)
    assert simulator.sim.events_processed > 0
    assert recorder.uncached == {}


def test_every_callback_attribute_resolves():
    """Each callback the traced round adopts exists on a workload's
    simulator or endpoint.  ``Tracer.attach`` skips an owner or
    attribute it cannot find, so a rename would leave those calls in
    their caller's layer and fail nothing else."""
    from simbench.trace import _CALLABLE_TYPES, CALLBACK_ATTRIBUTES
    from simbench.workloads import WORKLOADS

    resolved = set()
    for workload in WORKLOADS.values():
        simulator = workload.build(1)
        for obj in [simulator] + list(getattr(simulator, "endpoints", ())):
            for owner_name, attribute in CALLBACK_ATTRIBUTES:
                owner = getattr(obj, owner_name, None)
                if type(getattr(owner, attribute, None)) in _CALLABLE_TYPES:
                    resolved.add((owner_name, attribute))
    assert sorted(resolved) == sorted(CALLBACK_ATTRIBUTES)
