"""Stateful flow endpoints: the traffic state machines of the fabric.

A :class:`FabricFrame` is the unit of correlation the single-NIC
harness lacks: it is created by a flow at the source host, posted into
that NIC's driver rings, tracked through transmit, wire/switch, and the
destination NIC's receive pipeline, and finally handed back to its flow
when the destination commits it to host memory — at which point the
flow may reply (closed-loop RPC) or simply account it (open-loop
stream).  Latency is measured host-to-host: from ``created_ps`` (the
source driver posting the frame) to the destination commit, so NIC
processing, wire time, switch queueing, and loss recovery all land in
the flow's samples, which is exactly the end-to-end number the paper's
throughput accounting cannot produce.  Samples are kept exactly, as
integer picoseconds, and summarized by nearest rank when the result is
built.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from repro.net.ethernet import frame_bytes_for_udp_payload
from repro.net.workload import ConstantSize, ImixSize
from repro.fabric.spec import RpcFlowSpec, StreamFlowSpec
from repro.obs.hist import StreamingHistogram, exact_percentile

#: Resolution of the flow table's streaming latency sketches: 3
#: significant digits = 0.1% relative error on every reported percentile.
LATENCY_SIGNIFICANT_DIGITS = 3


@dataclass
class FabricFrame:
    """One correlated frame travelling between two fabric endpoints."""

    flow: str
    src: int
    dst: int
    udp_payload_bytes: int
    kind: str                     # "req" | "rsp" | "stream"
    request_id: int
    created_ps: int               # posted at the source host
    rtt_start_ps: int = 0         # original request post time (RPC)
    retransmits: int = 0
    #: DSCP-style traffic-class tag stamped by the posting flow when
    #: the fabric carries a :class:`~repro.qos.QosSpec` ("" = untagged;
    #: the legacy wire never reads these).
    qos_class: str = ""
    dscp: int = 0
    frame_bytes: int = field(init=False)

    def __post_init__(self) -> None:
        self.frame_bytes = frame_bytes_for_udp_payload(self.udp_payload_bytes)


# ``exact_percentile`` moved to :mod:`repro.obs.hist` (one nearest-rank
# implementation repo-wide); re-exported here for backward compatibility.


@dataclass
class LatencySummary:
    """Latency statistics, in microseconds.

    A fabric's flows build theirs from exact samples
    (:meth:`from_samples_ps`, nearest rank over every sample); the flow
    table builds its own from a bounded-memory sketch
    (:meth:`from_streaming`, within 10^-3 relative error; see
    :class:`repro.obs.hist.StreamingHistogram`).
    """

    count: int = 0
    mean_us: float = 0.0
    p50_us: float = 0.0
    p90_us: float = 0.0
    p99_us: float = 0.0
    p999_us: float = 0.0
    min_us: float = 0.0
    max_us: float = 0.0

    @staticmethod
    def from_samples_ps(samples: Iterable[int]) -> "LatencySummary":
        """Summary of integer-picosecond samples.  Only the picked
        ranks become µs, and the mean adds every sample's µs value in
        sorted order: the floats :meth:`from_samples_us` would give for
        ``[s / 1e6 for s in samples]``, bit for bit."""
        ordered = sorted(samples)
        if not ordered:
            return LatencySummary()
        count = len(ordered)
        return LatencySummary(
            count=count,
            mean_us=sum(s / 1e6 for s in ordered) / count,
            p50_us=exact_percentile(ordered, 0.50) / 1e6,
            p90_us=exact_percentile(ordered, 0.90) / 1e6,
            p99_us=exact_percentile(ordered, 0.99) / 1e6,
            p999_us=exact_percentile(ordered, 0.999) / 1e6,
            min_us=ordered[0] / 1e6,
            max_us=ordered[-1] / 1e6,
        )

    @staticmethod
    def from_samples_us(samples: List[float]) -> "LatencySummary":
        if not samples:
            return LatencySummary()
        ordered = sorted(samples)
        return LatencySummary(
            count=len(ordered),
            mean_us=sum(ordered) / len(ordered),
            p50_us=exact_percentile(ordered, 0.50),
            p90_us=exact_percentile(ordered, 0.90),
            p99_us=exact_percentile(ordered, 0.99),
            p999_us=exact_percentile(ordered, 0.999),
            min_us=ordered[0],
            max_us=ordered[-1],
        )

    @staticmethod
    def from_streaming(histogram: StreamingHistogram) -> "LatencySummary":
        """Summary of a bounded-memory sketch (percentiles within the
        sketch's documented relative-error bound)."""
        if histogram.total == 0:
            return LatencySummary()
        return LatencySummary(
            count=histogram.total,
            mean_us=histogram.mean,
            p50_us=histogram.percentile(0.50),
            p90_us=histogram.percentile(0.90),
            p99_us=histogram.percentile(0.99),
            p999_us=histogram.percentile(0.999),
            min_us=histogram.min if histogram.min is not None else 0.0,
            max_us=histogram.max if histogram.max is not None else 0.0,
        )

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean_us": self.mean_us,
            "p50_us": self.p50_us,
            "p90_us": self.p90_us,
            "p99_us": self.p99_us,
            "p999_us": self.p999_us,
            "min_us": self.min_us,
            "max_us": self.max_us,
        }


#: Microsecond bucket bounds for the StatRegistry latency histograms
#: (the live sampler's view; exact percentiles come from the samples).
LATENCY_BUCKETS_US = (
    1, 2, 4, 6, 8, 10, 15, 20, 30, 50, 75, 100, 150, 200, 300, 500,
    1000, 2000, 5000,
)


class FlowRuntime:
    """Common bookkeeping for one live flow.

    Each delivered frame's one-way latency is kept once, as integer
    picoseconds in a compact ``array("q")``; it becomes µs only when
    :meth:`oneway_summary` builds the measured window's exact
    nearest-rank summary.  The ``flow.<name>.oneway_us`` bucket
    histogram of the fabric's :class:`~repro.sim.stats.StatRegistry` is
    the live sampler's view of the same samples.
    """

    kind = "flow"

    def __init__(self, fabric, name: str) -> None:
        self.fabric = fabric
        self.name = name
        self.posted = 0
        self.delivered = 0
        self.lost = 0
        self.retransmitted = 0
        self.delivered_payload_bytes = 0
        self.oneway_ps = array("q")
        self.oneway_histogram = fabric.stats.histogram(
            f"flow.{name}.oneway_us", LATENCY_BUCKETS_US
        )
        # (class name, dscp) stamped on every posted frame; assigned by
        # the fabric's QosRuntime after construction, None when the
        # fabric has no QoS config.
        self._qos_tag = None

    # -- window support -------------------------------------------------
    def window_snapshot(self) -> Dict[str, int]:
        return {
            "posted": self.posted,
            "delivered": self.delivered,
            "lost": self.lost,
            "retransmitted": self.retransmitted,
            "delivered_payload_bytes": self.delivered_payload_bytes,
            "oneway_index": len(self.oneway_ps),
        }

    def oneway_summary(self, since_index: int) -> LatencySummary:
        """Measured-window latency summary: the samples recorded since
        the snapshot index."""
        return LatencySummary.from_samples_ps(self.oneway_ps[since_index:])

    # -- fabric callbacks -----------------------------------------------
    def start(self) -> None:
        raise NotImplementedError

    def on_delivered(self, frame: FabricFrame, now_ps: int) -> None:
        """Frame committed to host memory at its destination."""
        self.delivered += 1
        self.delivered_payload_bytes += frame.udp_payload_bytes
        oneway_ps = now_ps - frame.created_ps
        self.oneway_ps.append(oneway_ps)
        self.oneway_histogram.record(oneway_ps / 1e6)

    def on_lost(self, frame: FabricFrame, now_ps: int) -> None:
        """Frame dropped in flight (switch tail-drop, MAC overrun, FCS)."""
        self.lost += 1

    # -- posting helper -------------------------------------------------
    def _post(self, frame: FabricFrame) -> None:
        tag = self._qos_tag
        if tag is not None:
            frame.qos_class, frame.dscp = tag
        self.posted += 1
        self.fabric.endpoints[frame.src].post_tx(frame)


class RpcFlowRuntime(FlowRuntime):
    """Closed-loop request/response state machine."""

    kind = "rpc"

    def __init__(self, fabric, name: str, spec: RpcFlowSpec) -> None:
        super().__init__(fabric, name)
        self.spec = spec
        self.completed = 0
        self.rtt_ps = array("q")
        self.rtt_histogram = fabric.stats.histogram(
            f"flow.{name}.rtt_us", LATENCY_BUCKETS_US
        )
        self._next_id = 0

    def window_snapshot(self) -> Dict[str, int]:
        snap = super().window_snapshot()
        snap["completed"] = self.completed
        snap["rtt_index"] = len(self.rtt_ps)
        return snap

    def rtt_summary(self, since_index: int) -> LatencySummary:
        """Measured-window RTT summary (see :meth:`oneway_summary`)."""
        return LatencySummary.from_samples_ps(self.rtt_ps[since_index:])

    def start(self) -> None:
        for _ in range(self.spec.concurrency):
            self._issue_request()

    def _issue_request(self) -> None:
        now = self.fabric.sim.now_ps
        request_id = self._next_id
        self._next_id += 1
        self._post(
            FabricFrame(
                flow=self.name,
                src=self.spec.client,
                dst=self.spec.server,
                udp_payload_bytes=self.spec.request_payload_bytes,
                kind="req",
                request_id=request_id,
                created_ps=now,
                rtt_start_ps=now,
            )
        )

    def on_delivered(self, frame: FabricFrame, now_ps: int) -> None:
        super().on_delivered(frame, now_ps)
        if frame.kind == "req":
            # Server side: every delivered request immediately produces
            # its response (zero-cost application, so the measured RTT
            # is pure fabric + NIC pipeline time).
            self._post(
                FabricFrame(
                    flow=self.name,
                    src=self.spec.server,
                    dst=self.spec.client,
                    udp_payload_bytes=self.spec.response_payload_bytes,
                    kind="rsp",
                    request_id=frame.request_id,
                    created_ps=now_ps,
                    rtt_start_ps=frame.rtt_start_ps,
                )
            )
            return
        # Client side: one exchange completed.
        self.completed += 1
        rtt_ps = now_ps - frame.rtt_start_ps
        self.rtt_ps.append(rtt_ps)
        self.rtt_histogram.record(rtt_ps / 1e6)
        if self.spec.think_ps:
            self.fabric.sim.schedule(self.spec.think_ps, self._issue_request)
        else:
            self._issue_request()

    def on_lost(self, frame: FabricFrame, now_ps: int) -> None:
        super().on_lost(frame, now_ps)
        # Retransmit from the original sender after the retry delay,
        # keeping the RTT clock running: loss costs latency, never a
        # wedged window.
        self.retransmitted += 1

        def resend(frame=frame) -> None:
            clone = FabricFrame(
                flow=frame.flow,
                src=frame.src,
                dst=frame.dst,
                udp_payload_bytes=frame.udp_payload_bytes,
                kind=frame.kind,
                request_id=frame.request_id,
                created_ps=self.fabric.sim.now_ps,
                rtt_start_ps=frame.rtt_start_ps,
                retransmits=frame.retransmits + 1,
            )
            self._post(clone)

        self.fabric.sim.schedule(self.spec.retry_delay_ps, resend)


class StreamFlowRuntime(FlowRuntime):
    """Open-loop paced bulk stream."""

    kind = "stream"

    def __init__(self, fabric, name: str, spec: StreamFlowSpec) -> None:
        super().__init__(fabric, name)
        self.spec = spec
        self.sizes = (
            ImixSize() if spec.imix else ConstantSize(spec.udp_payload_bytes)
        )
        self._seq = 0
        self._emit_ps = 0.0
        # PFC-style backpressure state: while paused the pacer defers
        # its batch instead of posting (open-loop pacing is the only
        # thing XOFF can stop; closed-loop RPC self-limits).
        self._paused = False
        self._deferred = False
        self.pause_count = 0

    def start(self) -> None:
        self._post_batch()

    # -- PFC-style pause/backpressure -----------------------------------
    def qos_pause(self, now_ps: int) -> None:
        """Switch XOFF reached this stream's class: stop emitting."""
        if not self._paused:
            self._paused = True
            self.pause_count += 1

    def qos_resume(self, now_ps: int) -> None:
        """Switch XON: resume pacing.  The emission clock is clamped
        forward to *now* so the pacer does not burst to catch up on the
        paused interval (paused load is shed, not deferred-and-bursted
        — the PFC behavior the isolation ablation depends on)."""
        if not self._paused:
            return
        self._paused = False
        if self._deferred:
            self._deferred = False
            if self._emit_ps < now_ps:
                self._emit_ps = float(now_ps)
            self.fabric.sim.schedule_at(round(self._emit_ps), self._post_batch)

    def _post_batch(self) -> None:
        if self._paused:
            # Batch deferred until XON; qos_resume re-arms the chain.
            self._deferred = True
            return
        timing = self.fabric.timing
        fraction = self.spec.offered_fraction
        for _ in range(self.spec.post_batch):
            seq = self._seq
            self._seq += 1
            payload = self.sizes.payload_bytes(seq)
            frame = FabricFrame(
                flow=self.name,
                src=self.spec.src,
                dst=self.spec.dst,
                udp_payload_bytes=payload,
                kind="stream",
                request_id=seq,
                created_ps=self.fabric.sim.now_ps,
            )
            self._post(frame)
            self._emit_ps += timing.frame_time_ps(frame.frame_bytes) / fraction
        # Open loop: the next batch posts at its own emission instant
        # regardless of what happened to this one.
        self.fabric.sim.schedule_at(round(self._emit_ps), self._post_batch)


def build_runtimes(fabric) -> "Dict[str, FlowRuntime]":
    """Instantiate every flow state machine declared in the spec."""
    spec = fabric.spec
    names = iter(spec.flow_names())
    runtimes: Dict[str, FlowRuntime] = {}
    for flow in spec.rpc_flows:
        name = next(names)
        runtimes[name] = RpcFlowRuntime(fabric, name, flow)
    for flow in spec.stream_flows:
        name = next(names)
        runtimes[name] = StreamFlowRuntime(fabric, name, flow)
    return runtimes


__all__ = [
    "FabricFrame",
    "FlowRuntime",
    "LatencySummary",
    "LATENCY_BUCKETS_US",
    "LATENCY_SIGNIFICANT_DIGITS",
    "RpcFlowRuntime",
    "StreamFlowRuntime",
    "build_runtimes",
    "exact_percentile",
]
