"""Composed-topology fabric: spec validation, routing, hop timing,
end-to-end conservation, and the absent-config contract (ISSUE 10).
"""

import dataclasses
import json
from itertools import chain

import pytest

from repro.assists.mac import WireEvent
from repro.check.golden import flatten
from repro.check.monitor import InvariantMonitor
from repro.check.verify import attach_monitor, verify_conservation
from repro.exp.spec import describe
from repro.exp.sweep import Sweep
from repro.fabric import (
    LATENCY_SIGNIFICANT_DIGITS,
    FabricSimulator,
    FabricSpec,
    FlowTable,
    LatencySummary,
    StreamFlowSpec,
    TopologyRouter,
    TopologySpec,
    ecmp_hash,
)
from repro.fabric.flows import FabricFrame
from repro.fabric.scale import ScaleFabric
from repro.fabric.wire import FabricWire
from repro.net.ethernet import EthernetTiming
from repro.nic.config import NicConfig
from repro.obs import NULL_TRACER
from repro.sim.kernel import Simulator
from repro.units import mhz


def _config():
    return NicConfig(cores=2, core_frequency_hz=mhz(133))


# ----------------------------------------------------------------------
# TopologySpec factories and validation
# ----------------------------------------------------------------------
class TestTopologySpec:
    def test_leaf_spine_shape(self):
        topo = TopologySpec.leaf_spine(racks=3, hosts_per_rack=4, spines=2)
        assert topo.switches == ("leaf0", "leaf1", "leaf2", "spine0", "spine1")
        assert topo.endpoints() == tuple(range(12))
        assert topo.switch_of(5) == "leaf1"
        # Full leaf x spine mesh.
        assert len(topo.switch_links) == 6
        assert set(topo.adjacency()["leaf0"]) == {"spine0", "spine1"}

    def test_fat_tree_shape(self):
        topo = TopologySpec.fat_tree(k=4)
        # k=4: 4 pods x (2 edge + 2 agg) + 4 cores, (k/2)^2 hosts/pod.
        assert len(topo.switches) == 20
        assert len(topo.endpoints()) == 16
        assert topo.switch_of(0) == "edge0_0"

    def test_fat_tree_rejects_odd_k(self):
        with pytest.raises(ValueError, match="even"):
            TopologySpec.fat_tree(k=3)

    def test_rejects_host_link_to_unknown_switch(self):
        with pytest.raises(ValueError, match="unknown switch"):
            TopologySpec(switches=("s0",), host_links=((0, "nope"),))

    def test_rejects_duplicate_endpoint_attachment(self):
        with pytest.raises(ValueError, match="attached twice"):
            TopologySpec(
                switches=("s0", "s1"),
                host_links=((0, "s0"), (0, "s1")),
                switch_links=(("s0", "s1"),),
            )

    def test_rejects_switch_link_to_unknown_switch(self):
        with pytest.raises(ValueError, match="unknown switch"):
            TopologySpec(
                switches=("s0",),
                host_links=((0, "s0"),),
                switch_links=(("s0", "ghost"),),
            )

    def test_rejects_self_and_duplicate_links(self):
        with pytest.raises(ValueError, match="itself"):
            TopologySpec(
                switches=("s0",), host_links=((0, "s0"),),
                switch_links=(("s0", "s0"),),
            )
        with pytest.raises(ValueError, match="duplicate"):
            TopologySpec(
                switches=("s0", "s1"), host_links=((0, "s0"),),
                switch_links=(("s0", "s1"), ("s1", "s0")),
            )

    def test_rejects_disconnected_graph(self):
        with pytest.raises(ValueError, match="unreachable"):
            TopologySpec(
                switches=("s0", "s1"),
                host_links=((0, "s0"), (1, "s1")),
            )

    def test_rejects_bad_shards(self):
        with pytest.raises(ValueError, match="shard"):
            TopologySpec.leaf_spine(flow_shards=0)


class TestFabricSpecTopology:
    """Regression: FabricSpec must reject inconsistent topologies."""

    def test_requires_switch_mode(self):
        with pytest.raises(ValueError, match="switch=True"):
            FabricSpec(
                nics=4, switch=False,
                topology=TopologySpec.leaf_spine(),
                stream_flows=(StreamFlowSpec(src=0, dst=3, name="s"),),
            )

    def test_rejects_unknown_endpoint_reference(self):
        # Topology attaches endpoint 3, but the fabric only has 3 NICs.
        with pytest.raises(ValueError, match="outside the 3-NIC fabric"):
            FabricSpec(
                nics=3, switch=True,
                topology=TopologySpec.leaf_spine(racks=2, hosts_per_rack=2),
                stream_flows=(StreamFlowSpec(src=0, dst=2, name="s"),),
            )

    def test_rejects_unattached_endpoints(self):
        with pytest.raises(ValueError, match="unattached"):
            FabricSpec(
                nics=5, switch=True,
                topology=TopologySpec.leaf_spine(racks=2, hosts_per_rack=2),
                stream_flows=(StreamFlowSpec(src=0, dst=4, name="s"),),
            )


# ----------------------------------------------------------------------
# Absent-config contract
# ----------------------------------------------------------------------
class TestDescribeContract:
    def test_legacy_describe_has_no_topology_key(self):
        legacy = dataclasses.replace(
            FabricSpec.rpc_pair(seed=3), switch=True, port_queue_frames=4
        )
        assert "topology" not in describe(legacy)

    def test_topology_spec_describes_and_hashes(self):
        topo = TopologySpec.leaf_spine(racks=2, hosts_per_rack=2, spines=2)
        spec = FabricSpec(
            nics=4, switch=True, topology=topo,
            stream_flows=(StreamFlowSpec(src=0, dst=3, name="s"),),
        )
        desc = describe(spec)
        assert desc["topology"]["__type__"] == "TopologySpec"
        # Different topologies must hash to different cache keys.
        other = dataclasses.replace(
            spec, topology=TopologySpec.leaf_spine(
                racks=2, hosts_per_rack=2, spines=3
            )
        )
        assert json.dumps(desc, sort_keys=True, default=str) != json.dumps(
            describe(other), sort_keys=True, default=str
        )


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
class TestRouter:
    def test_route_is_deterministic_and_memoized(self):
        topo = TopologySpec.leaf_spine(racks=2, hosts_per_rack=2, spines=4)
        router = TopologyRouter(topo)
        first = router.route("flowA", 0, 3)
        assert first == router.route("flowA", 0, 3)
        fresh = TopologyRouter(topo)
        assert first == fresh.route("flowA", 0, 3)

    def test_intra_rack_route_stays_on_the_leaf(self):
        topo = TopologySpec.leaf_spine(racks=2, hosts_per_rack=2, spines=4)
        router = TopologyRouter(topo)
        assert router.route("f", 0, 1) == ("leaf0",)
        assert router.route_ports("f", 0, 1) == ("leaf0->h1",)

    def test_cross_rack_route_and_ports(self):
        topo = TopologySpec.leaf_spine(racks=2, hosts_per_rack=2, spines=2)
        router = TopologyRouter(topo)
        path = router.route("f", 0, 3)
        assert path[0] == "leaf0" and path[-1] == "leaf1"
        assert path[1] in ("spine0", "spine1")
        ports = router.route_ports("f", 0, 3)
        assert ports == (
            f"leaf0->{path[1]}", f"{path[1]}->leaf1", "leaf1->h3",
        )
        assert router.hop_bound() == 3

    def test_ecmp_hash_is_stable(self):
        a = ecmp_hash(17, "f0", 0, 3)
        assert a == ecmp_hash(17, "f0", 0, 3)
        assert a != ecmp_hash(18, "f0", 0, 3)
        assert a != ecmp_hash(17, "f0", 0, 3, index=1)


# ----------------------------------------------------------------------
# Multi-hop latency oracle (the wire_end_ps reuse bugfix)
# ----------------------------------------------------------------------
class _SinkEndpoint:
    faults = None

    def __init__(self):
        self.arrivals = []

    def rx_arrive(self, frame, available_ps):
        self.arrivals.append((frame.request_id, available_ps))


class _KernelFabric:
    """Stub fabric on a *real* kernel, so multi-hop chains execute in
    time order exactly as in the full simulator."""

    def __init__(self, spec):
        self.spec = spec
        self.sim = Simulator()
        self.timing = EthernetTiming()
        self.tracer = NULL_TRACER
        self.endpoints = [_SinkEndpoint() for _ in range(spec.nics)]
        self.lost = []

    def frame_lost(self, frame, now_ps, reason):
        self.lost.append((frame.request_id, now_ps, reason))


def test_two_hop_latency_matches_hand_computed_oracle():
    """Per-hop timing: each traversed link re-serializes the frame and
    adds its own propagation; the source MAC's wire_end stamp is used
    for the *first* switch arrival only.  Regression for the multi-hop
    single-stamp reuse bug."""
    topo = TopologySpec(
        switches=("s0", "s1"),
        host_links=((0, "s0"), (1, "s1")),
        switch_links=(("s0", "s1"),),
    )
    prop, lat = 1_000_000, 500_000
    spec = FabricSpec(
        nics=2, switch=True, topology=topo,
        propagation_delay_ps=prop, switch_latency_ps=lat,
        stream_flows=(StreamFlowSpec(src=0, dst=1, name="s"),),
    )
    fabric = _KernelFabric(spec)
    wire = FabricWire(fabric, spec)
    frame = FabricFrame(
        flow="s", src=0, dst=1, udp_payload_bytes=1472,
        kind="stream", request_id=0, created_ps=0,
    )
    tf = fabric.timing.frame_time_ps(frame.frame_bytes)
    wire.transmit(0, frame, WireEvent(
        seq=0, wire_start_ps=0, wire_end_ps=tf, sdram_done_ps=tf,
    ))
    fabric.sim.run()
    assert not fabric.lost
    [(request_id, available_ps)] = fabric.endpoints[1].arrivals
    # Hop 1 (s0): frame fully in at tf + prop, forwarding decision at
    # +lat, re-serialized over [A1+lat, A1+lat+tf].
    a1 = tf + prop
    out1_end = a1 + lat + tf
    # Hop 2 (s1): arrives a full serialization later — NOT at the
    # source MAC's wire_end + prop.
    a2 = out1_end + prop
    out2_start = a2 + lat
    # Destination MAC re-serializes from the first bit off s1's port.
    oracle = out2_start + prop
    assert available_ps == oracle
    # The buggy single-stamp arithmetic would deliver one serialization
    # earlier; make the distinction explicit.
    assert oracle - (a1 + lat + prop + lat + prop) == tf


def _race_to_nic2(topology):
    """Frame A (1472 B from NIC 0) is on the wire over [0, 1,230,400) ps
    and frame B (18 B from NIC 1) over [100,000, 167,200) ps, both bound
    for NIC 2 through one switch with default timing (1 us propagation,
    0.5 us switch latency).  Returns NIC 2's (frame, first-bit) arrivals
    in arrival order."""
    spec = FabricSpec(
        nics=3, switch=True, topology=topology,
        stream_flows=(
            StreamFlowSpec(src=0, dst=2, name="A"),
            StreamFlowSpec(src=1, dst=2, name="B"),
        ),
    )
    fabric = _KernelFabric(spec)
    wire = FabricWire(fabric, spec)
    for src, name, payload, start, end in (
        (0, "A", 1472, 0, 1_230_400),
        (1, "B", 18, 100_000, 167_200),
    ):
        frame = FabricFrame(
            flow=name, src=src, dst=2, udp_payload_bytes=payload,
            kind="stream", request_id=name, created_ps=start,
        )
        assert start + fabric.timing.frame_time_ps(frame.frame_bytes) == end
        event = WireEvent(seq=0, wire_start_ps=start, wire_end_ps=end,
                          sdram_done_ps=end)
        fabric.sim.schedule_at(
            start, lambda src=src, frame=frame, event=event:
            wire.transmit(src, frame, event)
        )
    fabric.sim.run()
    assert not fabric.lost
    return fabric.endpoints[2].arrivals


def test_implicit_switch_serves_arrival_order():
    """Both switches resolve a frame's hop when it reaches the switch,
    so B (at the switch from 1,667,200 ps) leaves before A (at the
    switch from 2,730,400 ps), though A was transmitted first."""
    arrival_order = [("B", 2_667_200), ("A", 3_730_400)]
    assert _race_to_nic2(None) == arrival_order
    one_switch = TopologySpec(
        switches=("sw",), host_links=((0, "sw"), (1, "sw"), (2, "sw"))
    )
    assert _race_to_nic2(one_switch) == arrival_order


@pytest.mark.parametrize("seed", [3, 4, 7, 11])
def test_implicit_switch_equals_one_switch_topology(seed):
    """The implicit switch is a one-switch topology: an 8-deep RPC pair
    gives the same result on either, every field but the spec and the
    topology report."""
    implicit = dataclasses.replace(
        FabricSpec.rpc_pair(concurrency=8, seed=seed), switch=True
    )
    one_switch = dataclasses.replace(implicit, topology=TopologySpec(
        switches=("sw",), host_links=((0, "sw"), (1, "sw"))
    ))
    fields = []
    for spec in (implicit, one_switch):
        result = FabricSimulator(NicConfig(), spec).run(
            0.1e-3, 0.3e-3
        ).to_dict()
        result.pop("spec")
        result.pop("topology", None)
        fields.append(flatten(result))
    assert len(fields[0]) == 41
    assert fields[0] == fields[1]


# ----------------------------------------------------------------------
# End-to-end: monitor, verify, reports, byte-identity
# ----------------------------------------------------------------------
def _incast_spec(qos=None):
    topo = TopologySpec.leaf_spine(racks=2, hosts_per_rack=2, spines=2)
    kwargs = {}
    flows = []
    for src in range(3):
        flows.append(StreamFlowSpec(
            src=src, dst=3, offered_fraction=0.4, name=f"s{src}",
            qos_class="best-effort" if qos is not None else "",
        ))
    if qos is not None:
        kwargs["qos"] = qos
    return FabricSpec(
        nics=4, switch=True, seed=7, topology=topo, port_queue_frames=16,
        stream_flows=tuple(flows), **kwargs,
    )


class TestEndToEnd:
    def test_incast_runs_clean_under_armed_monitor(self):
        simulator = FabricSimulator(_config(), _incast_spec())
        monitor = InvariantMonitor(strict=True)
        attach_monitor(simulator, monitor)
        result = simulator.run(warmup_s=0.1e-3, measure_s=0.3e-3)
        verify_conservation(simulator, monitor)
        assert not monitor.violations
        report = result.topology
        assert report is not None
        # Per-link conservation in the measured window.
        for link, counts in report["per_link"].items():
            assert counts["entered"] >= counts["forwarded"] + counts["dropped"]
        assert report["hop_bound"] == 3
        assert report["flow_table"]["flows"] == 3
        assert sum(report["flow_table"]["shard_sizes"]) == 3

    def test_qos_composes_per_hop(self):
        from repro.qos import QosSpec

        qos = dataclasses.replace(QosSpec.mixed_criticality(), seed=5)
        simulator = FabricSimulator(_config(), _incast_spec(qos=qos))
        monitor = InvariantMonitor(strict=True)
        attach_monitor(simulator, monitor)
        result = simulator.run(warmup_s=0.1e-3, measure_s=0.3e-3)
        verify_conservation(simulator, monitor)
        assert result.qos is not None and result.topology is not None
        # QoS ports are keyed by link name in topology mode.
        assert all(
            "->" in port.index for port in simulator.wire.ports.values()
        )

    def test_class_latency_is_the_union_of_its_flows(self):
        """A class's one-way latency is read from its flows, not kept a
        second time: with three flows in one class, the class summary is
        the exact summary of the union of their window samples."""
        from repro.qos import QosSpec

        qos = dataclasses.replace(QosSpec.mixed_criticality(), seed=5)
        simulator = FabricSimulator(_config(), _incast_spec(qos=qos))
        result = simulator.run(warmup_s=0.1e-3, measure_s=0.3e-3)
        flows = simulator.flows.values()
        assert len(flows) == 3
        union = LatencySummary.from_samples_ps(chain.from_iterable(
            flow.oneway_ps[len(flow.oneway_ps) - result.flows[flow.name].delivered:]
            for flow in flows
        )).to_dict()
        classes = result.qos["classes"]
        assert classes["best-effort"]["oneway"] == union
        assert union["count"] > max(result.flows[f.name].delivered for f in flows)
        assert classes["guaranteed"]["oneway"]["count"] == 0

    def test_flow_table_sketch_agrees_with_the_flows_exact_samples(self):
        """The flow table's per-shard sketches are the one streaming
        estimator left: they count what the flows count, and their
        merged percentiles stay within the sketch's relative-error
        bound of the exact union of the flows' window samples."""
        simulator = FabricSimulator(_config(), _incast_spec())
        result = simulator.run(warmup_s=0.1e-3, measure_s=0.3e-3)
        table = result.topology["flow_table"]
        delivered = {name: flow.delivered for name, flow in result.flows.items()}
        assert table["delivered"] == sum(delivered.values()) > 0
        exact = LatencySummary.from_samples_ps(chain.from_iterable(
            flow.oneway_ps[len(flow.oneway_ps) - delivered[name]:]
            for name, flow in simulator.flows.items()
        )).to_dict()
        bound = 10.0 ** -LATENCY_SIGNIFICANT_DIGITS
        sketch = table["oneway"]
        assert sketch["count"] == exact["count"]
        for stat in ("p50_us", "p90_us", "p99_us", "p999_us"):
            assert abs(sketch[stat] - exact[stat]) <= bound * exact[stat], stat
        assert sketch["min_us"] == pytest.approx(exact["min_us"], rel=1e-12)
        assert sketch["max_us"] == pytest.approx(exact["max_us"], rel=1e-12)
        assert sketch["mean_us"] == pytest.approx(exact["mean_us"], rel=1e-12)

    def test_result_dict_omits_topology_when_absent(self):
        legacy = dataclasses.replace(
            FabricSpec.rpc_pair(seed=3), switch=True, port_queue_frames=4
        )
        result = FabricSimulator(_config(), legacy).run(
            warmup_s=0.1e-3, measure_s=0.2e-3
        )
        assert "topology" not in result.to_dict()


# ----------------------------------------------------------------------
# FlowTable
# ----------------------------------------------------------------------
class TestFlowTable:
    def test_record_and_lookup(self):
        table = FlowTable(shards=4, seed=1)
        table.record_delivery("a", 0, 1, 12.5, 100)
        table.record_delivery("a", 0, 1, 13.5, 100)
        table.record_loss("b", 2, 3)
        assert len(table) == 2
        assert table.get("a", 0, 1).delivered == 2
        assert table.get("b", 2, 3).lost == 1
        assert table.delivered == 2 and table.lost == 1
        assert sum(table.shard_sizes()) == 2

    def test_shard_placement_follows_ecmp_hash(self):
        table = FlowTable(shards=8, seed=9)
        assert table.shard_of("f", 0, 1) == ecmp_hash(9, "f", 0, 1) % 8

    def test_summary_window_deltas(self):
        table = FlowTable(shards=2, seed=0)
        table.record_delivery("a", 0, 1, 10.0, 64)
        snap = table.window_snapshot()
        table.record_delivery("a", 0, 1, 11.0, 64)
        summary = table.summary(snap)
        assert summary["delivered"] == 1
        assert summary["payload_bytes"] == 64
        assert summary["flows"] == 1


# ----------------------------------------------------------------------
# Sweep + scale harness smoke
# ----------------------------------------------------------------------
class TestTopologyGrid:
    def test_points_replace_topology_only(self):
        base = _incast_spec()
        sweep = Sweep.topology_grid(
            "spines", base, spine_counts=[1, 2, 4],
            racks=2, hosts_per_rack=2,
        )
        assert [s.label for s in sweep] == [
            "spines=1", "spines=2", "spines=4"
        ]
        for point in sweep:
            assert point.fabric_spec.stream_flows == base.stream_flows
        spines = {len(p.fabric_spec.topology.switches) for p in sweep}
        assert spines == {3, 4, 6}


def test_scale_harness_smoke_conserves_frames():
    topo = TopologySpec.leaf_spine(racks=2, hosts_per_rack=4, spines=2)
    fab = ScaleFabric(topo)
    report = fab.run(flows=500)
    assert report["posted"] == 500
    assert report["posted"] == report["delivered"] + report["lost"]
    assert report["flows"] == 500
    for entered, forwarded, dropped in report["link_counts"].values():
        assert entered == forwarded + dropped
    # Determinism: an identical run reproduces every counter.
    again = ScaleFabric(topo).run(flows=500)
    assert again == report
