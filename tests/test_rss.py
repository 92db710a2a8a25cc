"""Multi-queue (RSS) host interface: hashing, steering, scaling.

Covers the `repro.host.rss` layer end to end: the Toeplitz hash against
the published Microsoft verification vector, deterministic steering,
same-instant host-core pump ordering, the cache-key contract (absent
config => legacy keys byte-identical), and the headline ablation behaviour — one ring serializes host completion
work on one core (host-limited), N rings spread it (wire-limited).
"""

import json
import struct

import pytest

from repro.exp import RunSpec, WorkloadSpec
from repro.host import DriverModel
from repro.host.rss import (
    HostQueueModel,
    RSS_DEFAULT_KEY,
    RssSpec,
    ToeplitzHash,
    flow_key_bytes,
    toeplitz_key,
)
from repro.nic import NicConfig, RMW_166MHZ, ThroughputSimulator
from repro.sim import Simulator

def _one_flow(seq, identity=None):
    """Every frame on one flow, for hosts whose steering a test skips."""
    return (1, 2, 0x8000, 4)


# Long enough for the single-ring arm to drain its initial buffer
# credit and reach its host-limited steady state before measuring.
WARMUP = 0.6e-3
MEASURE = 0.8e-3


def _ip(a, b, c, d):
    return (a << 24) | (b << 16) | (c << 8) | d


# ----------------------------------------------------------------------
# Toeplitz hash
# ----------------------------------------------------------------------
class TestToeplitz:
    def test_published_verification_vector(self):
        # Microsoft RSS verification suite, IPv4 with ports:
        # src 66.9.149.187:2794 -> dst 161.142.100.80:1766 hashes to
        # 0x51ccc178 under the published 40-byte key.
        h = ToeplitzHash(RSS_DEFAULT_KEY)
        data = flow_key_bytes(
            _ip(66, 9, 149, 187), _ip(161, 142, 100, 80), 2794, 1766
        )
        assert h.hash(data) == 0x51CCC178

    def test_flow_key_bytes_layout(self):
        data = flow_key_bytes(1, 2, 3, 4)
        assert data == struct.pack(">IIHH", 1, 2, 3, 4)
        assert len(data) == 12

    def test_table_matches_bitwise_definition(self):
        # The 256-entry-table formulation must agree with the classic
        # slide-one-bit-per-input-bit definition on arbitrary input.
        key = toeplitz_key(7)
        h = ToeplitzHash(key)
        data = bytes(range(1, 13))
        key_int = int.from_bytes(key, "big")
        key_bits = len(key) * 8
        expected = 0
        for bit in range(len(data) * 8):
            if data[bit // 8] & (0x80 >> (bit % 8)):
                expected ^= (key_int >> (key_bits - 32 - bit)) & 0xFFFFFFFF
        assert h.hash(data) == expected

    def test_seeded_keys_deterministic_and_distinct(self):
        assert toeplitz_key(0) == RSS_DEFAULT_KEY
        assert toeplitz_key(1) == toeplitz_key(1)
        assert toeplitz_key(1) != toeplitz_key(2)
        assert len(toeplitz_key(123, length=52)) == 52

    def test_short_key_rejected(self):
        with pytest.raises(ValueError):
            ToeplitzHash(b"\x01\x02\x03")
        with pytest.raises(ValueError):
            toeplitz_key(0, length=2)

    def test_oversized_input_rejected(self):
        h = ToeplitzHash(RSS_DEFAULT_KEY, max_input_bytes=12)
        with pytest.raises(ValueError):
            h.hash(bytes(13))


# ----------------------------------------------------------------------
# RssSpec validation
# ----------------------------------------------------------------------
class TestRssSpec:
    def test_defaults_valid(self):
        spec = RssSpec()
        assert spec.rings == 4
        assert spec.core_count == 4

    def test_host_cores_override(self):
        assert RssSpec(rings=8, host_cores=2).core_count == 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rings": 0},
            {"indirection_entries": 0},
            {"interrupt_coalesce_frames": 0},
            {"synthetic_flows": 0},
            {"host_cores": -1},
            {"completion_ps": -1},
            {"interrupt_ps": -1},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RssSpec(**kwargs)


# ----------------------------------------------------------------------
# Steering
# ----------------------------------------------------------------------
class TestSteering:
    def _model(self, rings=4):
        return HostQueueModel(
            RssSpec(rings=rings), Simulator(), DriverModel(), _one_flow, _one_flow,
            send_ring_capacity=32, recv_ring_capacity=16,
        )

    def test_deterministic_and_memoized(self):
        a = self._model()
        b = self._model()
        flows = [(_ip(10, 0, 0, 1), _ip(10, 0, 0, 2), 0x8000 + i, 9999)
                 for i in range(64)]
        first = [a.ring_for(*flow) for flow in flows]
        assert [a.ring_for(*flow) for flow in flows] == first  # memo stable
        assert [b.ring_for(*flow) for flow in flows] == first  # fresh model
        assert all(0 <= ring < 4 for ring in first)

    def test_distinct_flows_spread_across_rings(self):
        model = self._model(rings=4)
        rings = {
            model.ring_for(_ip(10, 0, 0, 1), _ip(10, 0, 0, 2), port, 9999)
            for port in range(0x8000, 0x8040)
        }
        assert len(rings) == 4  # 64 flows land on all 4 rings

    def test_single_ring_gets_everything(self):
        model = self._model(rings=1)
        for port in range(0x8000, 0x8010):
            assert model.ring_for(1, 2, port, 4) == 0

    def test_seed_changes_placement(self):
        base = self._model()
        seeded = HostQueueModel(
            RssSpec(rings=4, hash_seed=99), Simulator(), DriverModel(),
            _one_flow, _one_flow,
            send_ring_capacity=32, recv_ring_capacity=16,
        )
        flows = [(1, 2, 0x8000 + i, 4) for i in range(64)]
        assert (
            [base.ring_for(*f) for f in flows]
            != [seeded.ring_for(*f) for f in flows]
        )


# ----------------------------------------------------------------------
# Host-core contention pump
# ----------------------------------------------------------------------
class TestHostCorePump:
    def test_same_instant_timers_fire_in_arm_order(self):
        sim = Simulator()
        model = HostQueueModel(
            RssSpec(rings=2, completion_ps=100, interrupt_ps=50),
            sim, DriverModel(), _one_flow, _one_flow,
            send_ring_capacity=8, recv_ring_capacity=8,
        )
        order = []
        model.on_rx_processed = lambda count: order.append(
            ("rx", sim.now_ps, count)
        )
        # Two rings complete batches at the same instant: both pumps arm
        # for the same timestamp, and the drain order is the arm order.
        def kick():
            model.complete_rx(0, 3, sim.now_ps)
            model.complete_rx(1, 3, sim.now_ps)
            model.complete_rx(0, 2, sim.now_ps)
        sim.schedule_at(1_000, kick)
        sim.run()
        # ring0's first batch and ring1's batch run on separate cores in
        # parallel, finishing at the same instant, ring0 armed first.
        assert [entry[2] for entry in order] == [3, 3, 2]
        assert order[0][1] == order[1][1]

    def test_single_core_serializes(self):
        sim = Simulator()
        model = HostQueueModel(
            RssSpec(rings=2, host_cores=1, completion_ps=100, interrupt_ps=0),
            sim, DriverModel(), _one_flow, _one_flow,
            send_ring_capacity=8, recv_ring_capacity=8,
        )
        done = []
        model.on_rx_processed = lambda count: done.append(sim.now_ps)
        sim.schedule_at(0, lambda: (
            model.complete_rx(0, 1, 0), model.complete_rx(1, 1, 0)
        ))
        sim.run()
        assert done == [100, 200]  # one core: second batch waits

    def test_backlog_defers_delivery_until_recycle(self):
        sim = Simulator()
        model = HostQueueModel(
            RssSpec(rings=1, completion_ps=100, interrupt_ps=0),
            sim, DriverModel(), _one_flow, _one_flow,
            send_ring_capacity=8, recv_ring_capacity=4,
        )
        ring = model.rings[0]
        sim.schedule_at(0, lambda: model.complete_rx(0, 6, 0))
        sim.run()
        # Only 4 buffers existed; 2 frames backlogged past the first
        # drain, then delivered from recycled buffers.
        assert ring.rx_backlog == 0
        assert ring.rx_backlog_peak == 6  # all 6 land before any drain
        assert ring.rx_completed == 6
        assert ring.rx_posted == ring.rx_completed + len(ring.recv_ring)


# ----------------------------------------------------------------------
# Cache-key contract
# ----------------------------------------------------------------------
class TestCacheKeyContract:
    def test_absent_rss_leaves_key_inputs_unchanged(self):
        spec = RunSpec(config=RMW_166MHZ, workload=WorkloadSpec())
        assert "rss" not in spec.key_inputs()

    def test_present_rss_changes_key(self):
        base = RunSpec(config=RMW_166MHZ, workload=WorkloadSpec())
        with_rss = RunSpec(
            config=RMW_166MHZ, workload=WorkloadSpec(), rss=RssSpec()
        )
        assert "rss" in with_rss.key_inputs()
        assert base.key != with_rss.key

    def test_ring_count_differentiates_keys(self):
        keys = {
            RunSpec(config=RMW_166MHZ, rss=RssSpec(rings=n)).key
            for n in (1, 2, 4)
        }
        assert len(keys) == 3

    def test_absent_rss_runs_the_legacy_single_ring_path(self):
        from repro.exp import execute_spec

        spec = RunSpec(config=RMW_166MHZ, workload=WorkloadSpec(),
                       warmup_s=0.2e-3, measure_s=0.4e-3)
        assert "rss" not in spec.key_inputs()
        engine = json.dumps(execute_spec(spec).to_dict(), sort_keys=True)
        direct = ThroughputSimulator(RMW_166MHZ, 1472).run(0.2e-3, 0.4e-3)
        assert engine == json.dumps(direct.to_dict(), sort_keys=True)


class TestRssGrid:
    def test_paper_arm_then_one_rss_arm_per_ring_count(self):
        from dataclasses import replace

        from repro.exp import Sweep

        template = RssSpec(hash_seed=3, interrupt_coalesce_frames=4)
        sweep = Sweep.rss_grid("g", [1, 4], base_config=RMW_166MHZ,
                               base_rss=template)
        assert [spec.label for spec in sweep] == [
            "paper-1ring", "rss-1ring", "rss-4ring"
        ]
        paper, *arms = sweep
        assert paper.rss is None and paper.config == RMW_166MHZ
        for spec, rings in zip(arms, (1, 4)):
            assert spec.config == replace(RMW_166MHZ, task_level_firmware=True)
            assert spec.rss == replace(template, rings=rings)


# ----------------------------------------------------------------------
# Full-simulator integration
# ----------------------------------------------------------------------
def _run(rss, payload=1472, offered=1.0):
    sim = ThroughputSimulator(
        RMW_166MHZ, payload, offered_fraction=offered, rss=rss
    )
    return sim.run(warmup_s=WARMUP, measure_s=MEASURE)


class TestThroughputIntegration:
    @pytest.fixture(scope="class")
    def four_ring(self):
        return _run(RssSpec(rings=4))

    @pytest.fixture(scope="class")
    def one_ring(self):
        return _run(RssSpec(rings=1))

    def test_result_carries_rss_report(self, four_ring):
        report = four_ring.rss
        assert report["rings"] == 4
        assert len(report["per_ring"]) == 4
        assert len(report["per_core"]) == 4
        assert four_ring.to_dict()["rss"] == report

    def test_no_rss_no_report(self):
        result = _run(None)
        assert result.rss is None
        assert "rss" not in result.to_dict()

    def test_one_ring_is_host_limited(self, one_ring, four_ring):
        # The ablation headline: one ring serializes every completion on
        # one saturated host core and throughput collapses below the
        # wire; four rings spread the work and keep the wire full.
        busy_1 = max(c["busy_fraction"] for c in one_ring.rss["per_core"])
        busy_4 = max(c["busy_fraction"] for c in four_ring.rss["per_core"])
        assert busy_1 > 0.99
        assert busy_4 < 0.6
        assert four_ring.udp_throughput_gbps > 1.4 * one_ring.udp_throughput_gbps

    def test_per_core_completion_rate_scales(self, one_ring, four_ring):
        rate_1 = sum(c["completions_per_s"] for c in one_ring.rss["per_core"])
        rate_4 = sum(c["completions_per_s"] for c in four_ring.rss["per_core"])
        assert rate_4 > 1.5 * rate_1  # wire-limited vs host-limited

    def test_steering_spreads_recv_completions(self, four_ring):
        recv = [r["recv_completions"] for r in four_ring.rss["per_ring"]]
        assert sum(recv) > 0
        assert sum(1 for count in recv if count > 0) >= 3

    def test_runs_deterministic(self, four_ring):
        again = _run(RssSpec(rings=4))
        assert (
            json.dumps(again.to_dict(), sort_keys=True)
            == json.dumps(four_ring.to_dict(), sort_keys=True)
        )


class TestFabricIntegration:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.fabric import FabricSimulator, FabricSpec

        fabric = FabricSimulator(
            NicConfig(cores=6, core_frequency_hz=166_000_000),
            FabricSpec.rpc_pair(concurrency=8),
            rss=RssSpec(rings=4),
        )
        return fabric.run(warmup_s=0.2e-3, measure_s=0.4e-3)

    def test_each_nic_reports_rss(self, result):
        assert len(result.nics) == 2
        for nic in result.nics:
            assert nic.rss is not None
            assert nic.rss["rings"] == 4

    def test_rpc_flow_completes(self, result):
        assert result.primary_flow.delivered > 0

    def test_fabric_rss_deterministic(self):
        from repro.fabric import FabricSimulator, FabricSpec

        def run():
            fabric = FabricSimulator(
                NicConfig(cores=6, core_frequency_hz=166_000_000),
                FabricSpec.rpc_pair(concurrency=4),
                rss=RssSpec(rings=2),
            )
            result = fabric.run(warmup_s=0.1e-3, measure_s=0.2e-3)
            return json.dumps(result.to_dict(), sort_keys=True)

        assert run() == run()


# ----------------------------------------------------------------------
# Conservation under the armed monitor
# ----------------------------------------------------------------------
class TestRingConservation:
    def test_verify_throughput_with_rss(self):
        from repro.check import InvariantMonitor, attach_monitor, verify_conservation

        simulator = ThroughputSimulator(RMW_166MHZ, 1472, rss=RssSpec(rings=4))
        monitor = InvariantMonitor()
        attach_monitor(simulator, monitor)
        simulator.run(warmup_s=0.1e-3, measure_s=0.2e-3)
        assert not monitor.violations
        assert monitor.checks.get("ring.post", 0) > 0
        assert monitor.checks.get("ring.complete", 0) > 0
        identities = verify_conservation(simulator, monitor=monitor)
        for index in range(4):
            assert identities[f"rss.ring{index}.rx_conservation"]
            assert identities[f"rss.ring{index}.tx_conservation"]

    def test_verify_fabric_with_rss(self):
        from repro.check import InvariantMonitor, attach_monitor, verify_conservation

        from repro.fabric import FabricSimulator, FabricSpec

        fabric = FabricSimulator(
            NicConfig(cores=6, core_frequency_hz=166_000_000),
            FabricSpec.rpc_pair(concurrency=4),
            rss=RssSpec(rings=2),
        )
        monitor = InvariantMonitor()
        attach_monitor(fabric, monitor)
        fabric.run(warmup_s=0.1e-3, measure_s=0.2e-3)
        assert not monitor.violations
        assert monitor.checks.get("ring.complete", 0) > 0
        verify_conservation(fabric, monitor=monitor)
