"""End-to-end network fabric: multi-NIC wire model and stateful flows.

A beyond-the-paper extension.  The paper (Section 5) evaluates one NIC
under uncorrelated transmit/receive streams; this package instantiates
N full :class:`~repro.nic.throughput.ThroughputSimulator`-grade NIC
models on a shared event kernel, connects them through a deterministic
wire/switch model (:mod:`repro.fabric.wire`), and drives them with
stateful flow endpoints (:mod:`repro.fabric.flows`) — closed-loop RPC
request/response flows and open-loop paced streams — so a frame
transmitted by one NIC becomes a *correlated* receive (and possibly a
reply) at another.

What it measures that the single-NIC harness cannot:

* per-flow end-to-end latency distributions (exact p50/p90/p99/p999),
  host post → remote host commit;
* RPC round-trip time under a closed-loop offered-load window,
  including loss-recovery tails;
* aggregate bidirectional goodput across the fabric, switch queueing
  and tail-drop loss under congestion.

See ``docs/fabric.md`` for the topology/flow/latency methodology and
the ``repro fabric`` CLI subcommand for JSON/CSV reports.
"""

from repro.fabric.endpoint import FabricMacReceiver, NicEndpoint, PostedFrames
from repro.fabric.flows import (
    FabricFrame,
    LATENCY_SIGNIFICANT_DIGITS,
    LatencySummary,
    exact_percentile,
)
from repro.fabric.flowtable import FlowRecord, FlowTable
from repro.fabric.sim import FabricResult, FabricSimulator, FlowResult
from repro.fabric.spec import FabricSpec, RpcFlowSpec, StreamFlowSpec
from repro.fabric.topology import TopologyRouter, TopologySpec, ecmp_hash
from repro.fabric.wire import FabricWire

__all__ = [
    "FabricFrame",
    "FabricMacReceiver",
    "FabricResult",
    "FabricSimulator",
    "FabricSpec",
    "FabricWire",
    "FlowRecord",
    "FlowResult",
    "FlowTable",
    "LATENCY_SIGNIFICANT_DIGITS",
    "LatencySummary",
    "NicEndpoint",
    "PostedFrames",
    "RpcFlowSpec",
    "StreamFlowSpec",
    "TopologyRouter",
    "TopologySpec",
    "ecmp_hash",
    "exact_percentile",
]
