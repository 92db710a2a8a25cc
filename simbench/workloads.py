"""The four benchmark workloads.

Each workload is one batch run: build a simulator from the seed, call
its public ``run(warmup_s, measure_s)`` once.  Builders import ``repro``
lazily so a worker's set-up clock covers the import.

``--seed`` reaches every random input: ``RssSpec.hash_seed``, the
``QosSpec`` seed (RED decisions), ``TopologySpec.ecmp_seed`` and
``FabricSpec.seed``.  ``nic-saturation`` has no random input, and
``fabric-rpc``'s seed only salts fault injection, which it does not
use, so both read the same for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    warmup_s: float
    measure_s: float
    random_input: bool
    build: Callable[[int], object]


def _nic_saturation(seed: int):
    from repro.nic import NicConfig, ThroughputSimulator

    return ThroughputSimulator(NicConfig(), 1472)


def _nic_minframe_rss(seed: int):
    from repro.firmware.ordering import OrderingMode
    from repro.host.rss import RssSpec
    from repro.nic import NicConfig, ThroughputSimulator

    return ThroughputSimulator(
        NicConfig(ordering_mode=OrderingMode.SOFTWARE),
        18,
        rss=RssSpec(rings=4, hash_seed=seed),
    )


def _fabric_rpc(seed: int):
    from repro.fabric import FabricSimulator, FabricSpec
    from repro.nic import NicConfig

    return FabricSimulator(
        NicConfig(), FabricSpec.rpc_pair(concurrency=8, seed=seed)
    )


def _fabric_leafspine_qos(seed: int):
    from repro.fabric import (
        FabricSimulator,
        FabricSpec,
        RpcFlowSpec,
        StreamFlowSpec,
        TopologySpec,
    )
    from repro.nic import NicConfig
    from repro.qos import QosSpec

    spec = FabricSpec(
        nics=4,
        switch=True,
        seed=seed,
        port_queue_frames=32,
        topology=TopologySpec.leaf_spine(
            racks=2, hosts_per_rack=2, spines=2, ecmp_seed=seed
        ),
        qos=QosSpec.mixed_criticality(scheduler="drr", pause=True, seed=seed),
        rpc_flows=(
            RpcFlowSpec(client=0, server=3, concurrency=4, name="mice",
                        qos_class="guaranteed"),
        ),
        stream_flows=(
            StreamFlowSpec(src=1, dst=3, offered_fraction=0.7, name="in1",
                           qos_class="best-effort"),
            StreamFlowSpec(src=2, dst=3, offered_fraction=0.7, imix=True,
                           name="in2", qos_class="best-effort"),
        ),
    )
    return FabricSimulator(NicConfig(), spec)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="nic-saturation",
            why="paper headline point: 6x166 MHz RMW NIC at full-duplex line rate, "
                "1472 B payload; handlers, cost model and DMA/SDRAM do the work; "
                "control for fabric changes",
            warmup_s=0.4e-3,
            measure_s=10e-3,
            random_input=False,
            build=_nic_saturation,
        ),
        Workload(
            name="nic-minframe-rss",
            why="64 B frames, software ordering, 4 RSS rings: per-frame cost "
                "dominates, cores pegged, rx tail-drop, lock path and a busy host layer",
            warmup_s=0.4e-3,
            measure_s=12e-3,
            random_input=True,
            build=_nic_minframe_rss,
        ),
        Workload(
            name="fabric-rpc",
            why="closed-loop RPC pair (concurrency 8) on direct links: latency-bound, "
                "partly idle NICs, light wire and flow layers",
            warmup_s=0.4e-3,
            measure_s=12e-3,
            random_input=False,
            build=_fabric_rpc,
        ),
        Workload(
            name="fabric-leafspine-qos",
            why="2x2 leaf-spine with DRR+RED+pause, RPC mice plus two 0.7-load "
                "streams into one host: wire, QoS, flow-table and histogram layers busiest",
            warmup_s=0.4e-3,
            measure_s=3e-3,
            random_input=True,
            build=_fabric_leafspine_qos,
        ),
    )
}


def simulated_outputs(result) -> Dict[str, float]:
    """The simulated numbers printed beside the host metrics.

    They repeat exactly for a given seed; the digest covers them and
    everything else in ``result.to_dict()``.
    """
    if hasattr(result, "udp_throughput_gbps"):  # ThroughputResult
        return {
            "udp_gbps": result.udp_throughput_gbps,
            "core_utilization": result.core_utilization,
            "rx_dropped": result.rx_dropped,
        }
    outputs: Dict[str, float] = {
        "udp_gbps": result.aggregate_goodput_gbps,
        "core_utilization": (
            sum(nic.core_utilization for nic in result.nics) / len(result.nics)
        ),
        "rx_dropped": result.mac_drops,
    }
    rpc = result.primary_flow
    if rpc.rtt is not None:
        outputs["rtt_p50_us"] = rpc.rtt.p50_us
        outputs["rtt_p99_us"] = rpc.rtt.p99_us
    if result.qos is not None:
        outputs["red_drops"] = sum(
            entry["red_drops"] for entry in result.qos["classes"].values()
        )
    return outputs
