"""Live per-class QoS accounting and pause dispatch for a fabric run.

One :class:`QosRuntime` rides inside a
:class:`~repro.fabric.sim.FabricSimulator` when its spec carries a
:class:`~repro.qos.spec.QosSpec`.  It resolves every flow's class
assignment into the (class name, DSCP) tag the flow stamps on posted
frames, counts each class's delivered frames and payload, and routes
the switch's PFC-style XOFF/XON notifications to the stream pacers of
the paused class whose route crosses the congested port.

A class's one-way latency is not recorded a second time: every frame
of a flow carries the flow's class, so the report reads the class's
latency from the measured-window samples of its flows.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Tuple, Union

from repro.fabric.flows import (
    FabricFrame,
    FlowRuntime,
    LatencySummary,
    StreamFlowRuntime,
)


class QosRuntime:
    """Per-class counts + pause routing for one fabric run."""

    def __init__(self, fabric) -> None:
        qos = fabric.spec.qos
        assert qos is not None
        self.fabric = fabric
        self.qos = qos
        count = len(qos.classes)
        self._index = {tc.name: index for index, tc in enumerate(qos.classes)}
        self.delivered = [0] * count
        self.delivered_payload_bytes = [0] * count
        # Class index -> the flows whose frames carry that class.
        self._class_flows: List[List[FlowRuntime]] = [[] for _ in range(count)]
        # (port key, class index) -> stream pacers PFC pause can stop.
        # A flow reacts to XOFF from *any* port on its (deterministic,
        # ECMP-resolved) route: the destination's port on the implicit
        # switch, every link on a topology — congestion at a spine
        # uplink pauses the sender just like congestion at the access
        # link.
        self._pacers: Dict[
            Tuple[Union[int, str], int], List[StreamFlowRuntime]
        ] = {}
        for runtime in fabric.flows.values():
            class_name = qos.resolve(runtime.spec.qos_class)
            cls = self._index[class_name]
            runtime._qos_tag = (class_name, qos.classes[cls].dscp)
            self._class_flows[cls].append(runtime)
            if isinstance(runtime, StreamFlowRuntime):
                for key in fabric.wire.route_ports(
                    runtime.name, runtime.spec.src, runtime.spec.dst
                ):
                    self._pacers.setdefault((key, cls), []).append(runtime)

    # -- fabric callbacks -----------------------------------------------
    def on_delivered(self, frame: FabricFrame, now_ps: int) -> None:
        cls = self._index[frame.qos_class]
        self.delivered[cls] += 1
        self.delivered_payload_bytes[cls] += frame.udp_payload_bytes

    def pause(self, port: Union[int, str], cls: int, now_ps: int) -> None:
        for runtime in self._pacers.get((port, cls), ()):
            runtime.qos_pause(now_ps)

    def resume(self, port: Union[int, str], cls: int, now_ps: int) -> None:
        for runtime in self._pacers.get((port, cls), ()):
            runtime.qos_resume(now_ps)

    # -- measurement window ---------------------------------------------
    def window_snapshot(self) -> Dict[str, object]:
        return {
            "delivered": list(self.delivered),
            "delivered_payload_bytes": list(self.delivered_payload_bytes),
            "wire": self.fabric.wire.qos_window_snapshot(),
        }

    def _oneway_summary(
        self, cls: int, flow_snaps: Dict[str, Dict[str, int]]
    ) -> LatencySummary:
        """The class's measured-window latency: the union of its flows'
        window samples."""
        return LatencySummary.from_samples_ps(chain.from_iterable(
            flow.oneway_ps[flow_snaps[flow.name]["oneway_index"]:]
            for flow in self._class_flows[cls]
        ))

    def build_result(
        self,
        snapshot: Dict[str, object],
        flow_snaps: Dict[str, Dict[str, int]],
        measure_ps: int,
    ) -> Dict[str, object]:
        """Measured-window per-class report (``FabricResult.qos``);
        ``flow_snaps`` are the flows' snapshots taken with ``snapshot``."""
        measure_seconds = measure_ps / 1e12
        wire_now = self.fabric.wire.qos_window_snapshot()
        wire_then = snapshot["wire"]
        classes: Dict[str, Dict[str, object]] = {}
        for cls, tc in enumerate(self.qos.classes):
            payload = (
                self.delivered_payload_bytes[cls]
                - snapshot["delivered_payload_bytes"][cls]
            )
            summary = self._oneway_summary(cls, flow_snaps)
            entry: Dict[str, object] = {
                "dscp": tc.dscp,
                "delivered": self.delivered[cls] - snapshot["delivered"][cls],
                "delivered_payload_bytes": payload,
                "goodput_gbps": payload * 8 / measure_seconds / 1e9,
                "oneway": summary.to_dict(),
            }
            for key, counts in wire_now.items():
                entry[key] = counts[cls] - wire_then[key][cls]
            if tc.p999_bound_us:
                entry["p999_bound_us"] = tc.p999_bound_us
            classes[tc.name] = entry
        return {"scheduler": self.qos.scheduler, "classes": classes}


__all__ = ["QosRuntime"]
