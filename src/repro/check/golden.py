"""Golden-trace corpus: pinned digests of canonical seeded runs.

``tests/golden/golden.json`` records a SHA-256 digest of the full
result dictionary (sorted-key canonical JSON of ``to_dict()``) for a
small set of canonical runs covering every simulator tier: throughput
(RMW and software ordering), fault injection, and the multi-NIC fabric
(direct and switched).  Because the simulators are deterministic, any
behavioural change — intended or not — flips at least one digest, which
makes unintentional drift impossible to miss and intentional drift an
explicit, reviewable regeneration:

.. code-block:: console

    $ python -m repro.check.golden --update   # or: repro check --update-golden

The corpus is the same mechanism the PR-level byte-identity smokes
used, promoted into one maintained place.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Callable, Dict, Optional

#: Windows long enough to saturate the pipeline, short enough for CI.
WARMUP_S = 0.1e-3
MEASURE_S = 0.3e-3

DEFAULT_CORPUS_PATH = os.path.join("tests", "golden", "golden.json")


def golden_digest(result) -> str:
    """Canonical digest of a simulation result (order-independent)."""
    payload = json.dumps(
        result.to_dict(), sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def flatten(value, prefix: str = "") -> Dict[str, object]:
    """``value`` as ``{dotted path: leaf}``: mapping keys and list
    indices become path parts (``nics.0.rx_frames``); leaves other than
    JSON scalars are rendered with ``str``, as :func:`golden_digest`
    renders them."""
    if isinstance(value, dict):
        items = ((str(key), item) for key, item in value.items())
    elif isinstance(value, (list, tuple)):
        items = ((str(index), item) for index, item in enumerate(value))
    else:
        if not (value is None or isinstance(value, (bool, int, float, str))):
            value = str(value)
        return {prefix: value}
    out: Dict[str, object] = {}
    for key, item in items:
        out.update(flatten(item, f"{prefix}.{key}" if prefix else key))
    return out


def digest_record(kind: str, result=None, error: Optional[str] = None,
                  **identity) -> Dict[str, object]:
    """One ``repro check --digests`` line: ``kind``, the run's identity
    (a golden name, or a fuzz case's seed, index and key), then its
    :func:`golden_digest` and flattened ``to_dict()``, or the error it
    raised.  ``scripts/result_diff.py`` compares two files of these."""
    record: Dict[str, object] = {"kind": kind, **identity}
    if error is not None:
        record["error"] = error
    else:
        record["digest"] = golden_digest(result)
        record["fields"] = flatten(result.to_dict())
    return record


# ----------------------------------------------------------------------
# Canonical runs (one per simulator tier)
# ----------------------------------------------------------------------
def _config():
    from repro.nic.config import NicConfig
    from repro.units import mhz

    return NicConfig(cores=2, core_frequency_hz=mhz(133))


def _run_throughput():
    from repro.nic.throughput import ThroughputSimulator

    return ThroughputSimulator(_config(), 1472).run(WARMUP_S, MEASURE_S)


def _run_throughput_software():
    from repro.firmware.ordering import OrderingMode
    from repro.nic.throughput import ThroughputSimulator

    config = dataclasses.replace(
        _config(), ordering_mode=OrderingMode.SOFTWARE
    )
    return ThroughputSimulator(config, 1472).run(WARMUP_S, MEASURE_S)


def _run_throughput_software_offepoch():
    from repro.firmware.ordering import OrderingMode
    from repro.nic.throughput import ThroughputSimulator

    # Its own window, not the corpus's: 0.123 + 0.354 ms ends both the
    # warmup and the measurement inside a 50 us contention epoch, so
    # the readers' folds of the pending epoch charges (`_snapshot`,
    # `_build_result`) are pinned.  Every other window here is a whole
    # number of epochs, and those folds find nothing pending.
    config = dataclasses.replace(
        _config(), ordering_mode=OrderingMode.SOFTWARE
    )
    return ThroughputSimulator(config, 1472).run(0.123e-3, 0.354e-3)


def _run_throughput_imix_bursty():
    from repro.net.workload import ImixSize
    from repro.nic.throughput import ThroughputSimulator

    # Mixed sizes arriving in bursts of 8 at 80% load: the receive gaps
    # follow a 24-entry period (lcm of 12 sizes and 8 frames), and the run
    # tail-drops whole backlogs at the MAC, so the periodic-pacing path
    # is pinned alongside the constant-gap runs above.
    return ThroughputSimulator(
        _config(), size_model=ImixSize(), offered_fraction=0.8,
        rx_burst_frames=8,
    ).run(WARMUP_S, MEASURE_S)


def _run_throughput_imix_smallbuf_faulted():
    from repro.faults import FaultPlan
    from repro.net.workload import ImixSize
    from repro.nic.throughput import ThroughputSimulator

    # The bursty IMIX run on a 16 KiB receive buffer with a fault plan:
    # the MAC tail-drops, and with a plan attached, landings advance a
    # watermark that waits for every sequence number, so frames after a
    # drop commit only if tail drops take no number.
    config = dataclasses.replace(_config(), rx_buffer_bytes=16 * 1024)
    plan = FaultPlan(seed=7, rx_fcs_rate=0.01, pci_stall_rate=0.001)
    return ThroughputSimulator(
        config, size_model=ImixSize(), offered_fraction=0.8, rx_burst_frames=8,
        fault_plan=plan,
    ).run(WARMUP_S, MEASURE_S)


def _run_throughput_rss():
    from repro.firmware.ordering import OrderingMode
    from repro.host.rss import RssSpec
    from repro.nic.throughput import ThroughputSimulator

    # Minimum-size frames onto four RSS rings: the cores fall behind,
    # the MAC tail-drops, and every ring's send and receive counts,
    # backlog and host-core pump are pinned.
    config = dataclasses.replace(
        _config(), ordering_mode=OrderingMode.SOFTWARE
    )
    return ThroughputSimulator(
        config, 18, rss=RssSpec(rings=4, hash_seed=2)
    ).run(WARMUP_S, MEASURE_S)


def _run_faulted():
    from repro.faults import FaultPlan
    from repro.nic.throughput import ThroughputSimulator

    plan = FaultPlan(
        seed=7, rx_fcs_rate=0.01, sdram_error_rate=0.002, pci_stall_rate=0.001
    )
    return ThroughputSimulator(_config(), 1472, fault_plan=plan).run(
        WARMUP_S, MEASURE_S
    )


def _run_fabric():
    from repro.fabric import FabricSimulator, FabricSpec

    return FabricSimulator(_config(), FabricSpec.rpc_pair(seed=11)).run(
        WARMUP_S, MEASURE_S
    )


def _run_fabric_rss():
    from repro.fabric import FabricSimulator, FabricSpec
    from repro.host.rss import RssSpec

    # The flow-driven endpoint on four RSS rings: sends post against
    # the rings' transmit credit and receives recycle through the
    # host cores.
    return FabricSimulator(
        _config(), FabricSpec.rpc_pair(concurrency=8, seed=5),
        rss=RssSpec(rings=4, hash_seed=2),
    ).run(WARMUP_S, MEASURE_S)


def _run_fabric_faulted():
    from repro.fabric import FabricSimulator, FabricSpec
    from repro.faults import FaultPlan

    # The fabric endpoint under every fault kind at once: FCS drops punch
    # receive holes the endpoint must release and report as losses, SDRAM
    # errors retry DMA bursts, and PCI stalls can end a receive DMA's host
    # phases out of burst order.
    plan = FaultPlan(
        seed=7, rx_fcs_rate=0.03, sdram_error_rate=0.01, pci_stall_rate=0.02
    )
    return FabricSimulator(
        _config(), FabricSpec.rpc_pair(concurrency=8, seed=3),
        fault_plan=plan,
    ).run(WARMUP_S, MEASURE_S)


def _run_fabric_switched():
    from repro.fabric import FabricSimulator, FabricSpec

    spec = dataclasses.replace(
        FabricSpec.rpc_pair(seed=3), switch=True, port_queue_frames=4
    )
    return FabricSimulator(_config(), spec).run(WARMUP_S, MEASURE_S)


def _run_fabric_qos():
    from repro.fabric import FabricSimulator, FabricSpec, StreamFlowSpec
    from repro.nic.config import NicConfig
    from repro.qos import QosSpec
    from repro.units import mhz

    # Mixed-criticality incast: a guaranteed lane and an overloading
    # best-effort lane converge on NIC 2's switch port (4-core NICs so
    # the sources can actually congest the 10G output port).  Exercises
    # classification, the DRR scheduler, RED drops, and PFC pause.
    qos = dataclasses.replace(
        QosSpec.mixed_criticality(scheduler="drr", pause=True), seed=13
    )
    spec = FabricSpec(
        nics=3,
        switch=True,
        seed=13,
        qos=qos,
        stream_flows=(
            StreamFlowSpec(src=0, dst=2, offered_fraction=0.25,
                           name="gold", qos_class="guaranteed"),
            StreamFlowSpec(src=1, dst=2, offered_fraction=1.0,
                           name="bulk", qos_class="best-effort"),
        ),
    )
    config = NicConfig(cores=4, core_frequency_hz=mhz(133))
    return FabricSimulator(config, spec).run(WARMUP_S, MEASURE_S)


def _run_fabric_topology():
    from repro.fabric import (
        FabricSimulator,
        FabricSpec,
        StreamFlowSpec,
        TopologySpec,
    )

    # Oversubscribed leaf-spine incast: two racks share one spine
    # (2:1 oversubscription) and three sources converge on host 3, so
    # the run exercises multi-hop store-and-forward, ECMP route draws,
    # per-link tail-drop, and the sharded flow table — all pinned to a
    # byte-stable digest (the topology report rides the result dict).
    topo = TopologySpec.leaf_spine(
        racks=2, hosts_per_rack=2, spines=1, ecmp_seed=17
    )
    spec = FabricSpec(
        nics=4,
        switch=True,
        seed=17,
        topology=topo,
        port_queue_frames=8,
        stream_flows=(
            StreamFlowSpec(src=0, dst=3, offered_fraction=0.5, name="in0"),
            StreamFlowSpec(src=1, dst=3, offered_fraction=0.5, name="in1"),
            StreamFlowSpec(src=2, dst=3, offered_fraction=0.4, name="in2"),
        ),
    )
    return FabricSimulator(_config(), spec).run(WARMUP_S, MEASURE_S)


def _run_fabric_topology_qos():
    from repro.fabric import (
        FabricSimulator,
        FabricSpec,
        RpcFlowSpec,
        StreamFlowSpec,
        TopologySpec,
    )
    from repro.nic.config import NicConfig
    from repro.qos import QosSpec, RedSpec, TrafficClassSpec
    from repro.units import mhz

    # QoS ports on every egress link of a leaf-spine: a guaranteed RPC
    # lane and two overloading best-effort streams converge on host 3,
    # so per-hop DRR service, RED and tail drops keyed by link name,
    # and XOFF/XON pausing pacers from a multi-hop route are pinned.
    qos = QosSpec(
        scheduler="drr",
        seed=19,
        classes=(
            TrafficClassSpec(name="guaranteed", dscp=46, queue_frames=32,
                             priority=0, weight=4),
            TrafficClassSpec(
                name="best-effort", queue_frames=32, priority=1, weight=1,
                red=RedSpec(min_frames=8, max_frames=32,
                            max_drop_probability=0.1),
                pause_xoff_frames=20, pause_xon_frames=8,
            ),
        ),
    )
    spec = FabricSpec(
        nics=4,
        switch=True,
        seed=19,
        topology=TopologySpec.leaf_spine(
            racks=2, hosts_per_rack=2, spines=2, ecmp_seed=19
        ),
        qos=qos,
        rpc_flows=(
            RpcFlowSpec(client=0, server=3, concurrency=4, name="mice",
                        qos_class="guaranteed"),
        ),
        stream_flows=(
            StreamFlowSpec(src=1, dst=3, offered_fraction=1.0, name="in1",
                           qos_class="best-effort"),
            StreamFlowSpec(src=2, dst=3, offered_fraction=1.0, imix=True,
                           name="in2", qos_class="best-effort"),
        ),
    )
    config = NicConfig(cores=4, core_frequency_hz=mhz(133))
    return FabricSimulator(config, spec).run(WARMUP_S, MEASURE_S)


def golden_specs() -> Dict[str, Callable]:
    """Name → runner for every canonical run in the corpus."""
    return {
        "throughput-rmw": _run_throughput,
        "throughput-software": _run_throughput_software,
        "throughput-software-offepoch": _run_throughput_software_offepoch,
        "throughput-imix-bursty": _run_throughput_imix_bursty,
        "throughput-imix-smallbuf-faulted": _run_throughput_imix_smallbuf_faulted,
        "throughput-rss": _run_throughput_rss,
        "throughput-faulted": _run_faulted,
        "fabric-rpc": _run_fabric,
        "fabric-rpc-rss": _run_fabric_rss,
        "fabric-rpc-faulted": _run_fabric_faulted,
        "fabric-rpc-switched": _run_fabric_switched,
        "fabric-qos-switched": _run_fabric_qos,
        "fabric-topology-incast": _run_fabric_topology,
        "fabric-topology-qos": _run_fabric_topology_qos,
    }


# ----------------------------------------------------------------------
# Corpus I/O
# ----------------------------------------------------------------------
def compute_digests(on_result: Optional[Callable] = None) -> Dict[str, str]:
    """Digest of every canonical run; ``on_result(name, result)``, when
    given, also sees each result (``repro check --digests``)."""
    digests = {}
    for name, run in golden_specs().items():
        result = run()
        if on_result is not None:
            on_result(name, result)
        digests[name] = golden_digest(result)
    return digests


def load_corpus(path: str = DEFAULT_CORPUS_PATH) -> Dict[str, str]:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return dict(payload["digests"])


def write_corpus(path: str = DEFAULT_CORPUS_PATH) -> Dict[str, str]:
    digests = compute_digests()
    payload = {
        "comment": (
            "Pinned digests of canonical seeded runs; regenerate with "
            "`python -m repro.check.golden --update` after an intended "
            "behavioural change (see docs/validation.md)."
        ),
        "windows": {"warmup_s": WARMUP_S, "measure_s": MEASURE_S},
        "digests": digests,
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return digests


def compare_corpus(
    path: str = DEFAULT_CORPUS_PATH, on_result: Optional[Callable] = None
) -> Dict[str, Dict[str, str]]:
    """Re-run every canonical spec and diff against the pinned corpus.

    Returns ``{name: {"pinned": ..., "actual": ...}}`` for mismatches
    (missing entries count as mismatches with pinned ``"<absent>"``).
    ``on_result`` is passed to :func:`compute_digests`.
    """
    pinned = load_corpus(path)
    actual = compute_digests(on_result)
    mismatches: Dict[str, Dict[str, str]] = {}
    for name, digest in actual.items():
        expected = pinned.get(name, "<absent>")
        if digest != expected:
            mismatches[name] = {"pinned": expected, "actual": digest}
    return mismatches


def main(argv=None, on_result: Optional[Callable] = None) -> int:
    """``python -m repro.check.golden [--update] [--path P]``; returns the
    exit status.  ``on_result`` is passed to :func:`compute_digests`
    when checking."""
    import argparse

    parser = argparse.ArgumentParser(
        description="Check or regenerate the golden-trace corpus."
    )
    parser.add_argument(
        "--update", action="store_true",
        help="regenerate tests/golden/golden.json from the current code",
    )
    parser.add_argument("--path", default=DEFAULT_CORPUS_PATH)
    args = parser.parse_args(argv)
    if args.update:
        digests = write_corpus(args.path)
        for name, digest in sorted(digests.items()):
            print(f"  {name}: {digest[:16]}…")
        print(f"wrote {len(digests)} golden digests to {args.path}")
        return 0
    mismatches = compare_corpus(args.path, on_result)
    if not mismatches:
        print(f"golden corpus matches ({len(load_corpus(args.path))} runs)")
        return 0
    for name, pair in sorted(mismatches.items()):
        print(f"MISMATCH {name}: pinned {pair['pinned'][:16]}… "
              f"actual {pair['actual'][:16]}…")
    print("regenerate with `python -m repro.check.golden --update` if the "
          "change is intended")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
