"""Tests for the multi-NIC network fabric (`repro.fabric`).

Covers the acceptance criteria of the fabric layer: deterministic
byte-identical runs, non-degenerate RPC latency percentiles (p99 >
p50 > one-way wire delay), legacy experiment-engine cache keys
preserved for specs without a ``fabric_spec``, switch tail-drop under
congestion feeding the fault counters, loopback consistency with the
bare single-NIC simulator, and the spec/flow/percentile building
blocks.
"""

import dataclasses
import json
from array import array

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.exp import RunSpec, Sweep, SweepRunner, execute_spec
from repro.exp.spec import describe
from repro.fabric import (
    FabricFrame,
    FabricResult,
    FabricSimulator,
    FabricSpec,
    LatencySummary,
    PostedFrames,
    RpcFlowSpec,
    StreamFlowSpec,
    exact_percentile,
)
from repro.faults import FaultPlan
from repro.faults.injector import FAULT_COUNTER_KEYS
from repro.nic.config import NicConfig
from repro.nic.throughput import ThroughputSimulator
from repro.obs import Tracer
from repro.units import mhz

# Small but non-trivial windows: every fabric run here finishes in well
# under a second while still delivering hundreds of frames.
WARMUP_S = 0.1e-3
MEASURE_S = 0.3e-3


def _config(**overrides) -> NicConfig:
    defaults = dict(cores=2, core_frequency_hz=mhz(166))
    defaults.update(overrides)
    return NicConfig(**defaults)


def _run_rpc_pair(seed: int = 0, tracer=None, **spec_kwargs) -> FabricResult:
    spec = FabricSpec.rpc_pair(concurrency=4, seed=seed, **spec_kwargs)
    sim = FabricSimulator(_config(), spec, tracer=tracer)
    return sim.run(WARMUP_S, MEASURE_S)


# ----------------------------------------------------------------------
# Percentile / summary building blocks
# ----------------------------------------------------------------------
class TestExactPercentile:
    def test_empty_is_zero(self):
        assert exact_percentile([], 0.5) == 0.0

    def test_single_sample_is_every_percentile(self):
        for q in (0.01, 0.5, 0.99, 0.999):
            assert exact_percentile([7.0], q) == 7.0

    def test_nearest_rank_on_known_list(self):
        samples = sorted(float(v) for v in range(1, 101))  # 1..100
        assert exact_percentile(samples, 0.50) == 50.0
        assert exact_percentile(samples, 0.90) == 90.0
        assert exact_percentile(samples, 0.99) == 99.0
        assert exact_percentile(samples, 1.0) == 100.0

    def test_monotone_in_fraction(self):
        samples = sorted([0.5, 1.0, 2.0, 8.0, 9.0, 100.0])
        values = [exact_percentile(samples, q) for q in (0.1, 0.5, 0.9, 0.999)]
        assert values == sorted(values)


class TestLatencySummary:
    def test_empty_summary(self):
        summary = LatencySummary.from_samples_us([])
        assert summary.count == 0
        assert summary.p99_us == 0.0

    def test_summary_statistics(self):
        samples = [1.0, 2.0, 3.0, 4.0, 100.0]
        summary = LatencySummary.from_samples_us(samples)
        assert summary.count == 5
        assert summary.min_us == 1.0
        assert summary.max_us == 100.0
        assert summary.p50_us == 3.0
        assert summary.p999_us == 100.0
        assert summary.mean_us == pytest.approx(22.0)
        # to_dict round-trips every field
        d = summary.to_dict()
        assert d["count"] == 5 and d["p50_us"] == 3.0

    def test_unsorted_input_is_sorted(self):
        summary = LatencySummary.from_samples_us([9.0, 1.0, 5.0])
        assert summary.min_us == 1.0 and summary.p50_us == 5.0


def _frame(payload: int) -> FabricFrame:
    return FabricFrame("f", 0, 1, payload, "stream", 0, 0)


class TestPostedFrames:
    def test_lookup_reads_the_posted_frame(self):
        posted = PostedFrames()
        posted.frames[0] = _frame(64)
        posted.frames[1] = _frame(1472)
        assert posted.payload_bytes(0) == 64
        assert posted.payload_bytes(1) == 1472

    def test_unposted_sequence_raises(self):
        posted = PostedFrames()
        with pytest.raises(KeyError):
            posted.payload_bytes(3)

    def test_nominal_feeds_aggregates(self):
        posted = PostedFrames()
        posted.frames[0] = _frame(256)
        assert posted.mean_payload_bytes == 1472.0
        assert posted.mean_frame_bytes == 1518.0

    def test_frame_bytes_come_with_the_payload(self):
        posted = PostedFrames()
        posted.frames[0] = _frame(18)
        posted.frames[1] = _frame(1472)
        assert (posted.frame_bytes(0), posted.frame_bytes(1)) == (64, 1518)
        with pytest.raises(ValueError):
            _frame(1473)
        assert len(posted.frames) == 2

    def test_hand_off_forgets_the_sequence(self):
        posted = PostedFrames()
        posted.frames[5] = _frame(100)
        posted.frames.pop(5)
        assert not posted.frames
        with pytest.raises(KeyError):
            posted.frame_bytes(5)


def test_endpoint_overrides_nothing_of_the_nic_core():
    """The fabric endpoint is a traffic edge behind the one NIC core: it
    adds the edge's calls and redefines none of the core's methods."""
    from repro.fabric import NicEndpoint

    core = set(dir(ThroughputSimulator))
    redefined = {
        name for name, value in vars(NicEndpoint).items()
        if name in core and (callable(value) or isinstance(value, property))
    }
    assert redefined == {"__init__"}


class TestEndpointRecordsStayBounded:
    """A posted frame leaves at its wire hand-off and a receive record
    at its commit, so the endpoint holds frames in flight, not every
    frame of the run."""

    @staticmethod
    def _record_counts(measure_s, rss):
        from repro.host.rss import RssSpec

        spec = FabricSpec.rpc_pair(concurrency=8)
        sim = FabricSimulator(
            _config(), spec, rss=RssSpec(rings=4) if rss else None
        )
        sim.run(WARMUP_S, measure_s)
        return [(len(nic.tx_sizes.frames), len(nic._rx_records)) for nic in sim.endpoints]

    @pytest.mark.parametrize("rss", [False, True], ids=["single-ring", "rss"])
    def test_counts_do_not_grow_with_the_window(self, rss):
        short = self._record_counts(0.3e-3, rss)
        longer = self._record_counts(0.9e-3, rss)
        # Two directions of 8 outstanding RPCs, plus the receiver's
        # peeked frame: a window-independent in-flight bound.
        for counts in short + longer:
            assert max(counts) <= 17, counts
        assert sum(map(sum, longer)) <= sum(map(sum, short)) + 17


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------
class TestFabricSpec:
    def test_needs_a_flow(self):
        with pytest.raises(ValueError, match="at least one flow"):
            FabricSpec(nics=2)

    def test_endpoint_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            FabricSpec(nics=2, rpc_flows=(RpcFlowSpec(client=0, server=2),))

    def test_duplicate_flow_names_rejected(self):
        # Rejected when the spec is built, before a RunSpec can hash it
        # and hand it to a sweep worker.
        with pytest.raises(ValueError, match="unique"):
            FabricSpec(
                nics=2,
                rpc_flows=(RpcFlowSpec(name="f"),),
                stream_flows=(StreamFlowSpec(name="f"),),
            )
        # An explicit name can also collide with a defaulted one.
        with pytest.raises(ValueError, match="unique"):
            FabricSpec(
                nics=2,
                rpc_flows=(RpcFlowSpec(name="stream0"),),
                stream_flows=(StreamFlowSpec(),),
            )

    def test_default_flow_names(self):
        spec = FabricSpec(
            nics=2,
            rpc_flows=(RpcFlowSpec(),),
            stream_flows=(StreamFlowSpec(),),
        )
        assert spec.flow_names() == ("rpc0", "stream0")

    def test_bad_stream_fraction(self):
        with pytest.raises(ValueError, match="offered_fraction"):
            StreamFlowSpec(offered_fraction=0.0)
        with pytest.raises(ValueError, match="offered_fraction"):
            StreamFlowSpec(offered_fraction=1.5)

    def test_bad_rpc_concurrency(self):
        with pytest.raises(ValueError, match="concurrency"):
            RpcFlowSpec(concurrency=0)

    def test_payload_bounds(self):
        with pytest.raises(ValueError):
            RpcFlowSpec(request_payload_bytes=10)
        with pytest.raises(ValueError):
            StreamFlowSpec(udp_payload_bytes=100_000)

    def test_needs_at_least_one_nic(self):
        with pytest.raises(ValueError, match="at least one NIC"):
            FabricSpec(nics=0, stream_flows=(StreamFlowSpec(src=0, dst=0),))

    def test_negative_delays_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            FabricSpec(propagation_delay_ps=-1, rpc_flows=(RpcFlowSpec(),))
        with pytest.raises(ValueError, match="non-negative"):
            FabricSpec(switch_latency_ps=-1, rpc_flows=(RpcFlowSpec(),))

    def test_port_queue_must_hold_a_frame(self):
        with pytest.raises(ValueError, match="at least one frame"):
            FabricSpec(port_queue_frames=0, rpc_flows=(RpcFlowSpec(),))

    def test_bad_stream_post_batch(self):
        with pytest.raises(ValueError, match="post_batch"):
            StreamFlowSpec(post_batch=0)

    def test_negative_rpc_delays(self):
        with pytest.raises(ValueError, match="non-negative"):
            RpcFlowSpec(think_ps=-1)
        with pytest.raises(ValueError, match="non-negative"):
            RpcFlowSpec(retry_delay_ps=-1)

    def test_with_load_replaces_every_stream(self):
        spec = FabricSpec(
            nics=3,
            stream_flows=(
                StreamFlowSpec(src=0, dst=2, offered_fraction=1.0, name="a"),
                StreamFlowSpec(src=1, dst=2, offered_fraction=0.4, name="b"),
            ),
        )
        scaled = spec.with_load(0.25)
        assert all(f.offered_fraction == 0.25 for f in scaled.stream_flows)
        # frozen original untouched
        assert spec.stream_flows[0].offered_fraction == 1.0


# ----------------------------------------------------------------------
# The acceptance run: 2-NIC closed-loop RPC
# ----------------------------------------------------------------------
class TestRpcPair:
    @pytest.fixture(scope="class")
    def result(self) -> FabricResult:
        return _run_rpc_pair()

    def test_exchanges_complete(self, result):
        rpc = result.primary_flow
        assert rpc.kind == "rpc"
        assert rpc.completed > 10
        assert rpc.delivered >= rpc.completed
        assert rpc.lost == 0

    def test_percentiles_non_degenerate(self, result):
        """p99 > p50 > one-way wire delay — the acceptance criterion."""
        rtt = result.primary_flow.rtt
        oneway_wire_us = 1_000_000 / 1e6  # rpc_pair default: 1 us/hop
        assert rtt is not None and rtt.count > 10
        assert rtt.p99_us > rtt.p50_us
        assert rtt.p50_us > oneway_wire_us
        # and the RTT must cover at least two wire crossings
        assert rtt.min_us > 2 * oneway_wire_us

    def test_oneway_below_rtt(self, result):
        flow = result.primary_flow
        assert 0 < flow.oneway.p50_us < flow.rtt.p50_us

    def test_goodput_accounting(self, result):
        flow = result.primary_flow
        expected = flow.delivered_payload_bytes * 8 / MEASURE_S / 1e9
        assert flow.goodput_gbps == pytest.approx(expected)
        assert result.aggregate_goodput_gbps == pytest.approx(
            sum(f.goodput_gbps for f in result.flows.values())
        )

    def test_nic_results_present(self, result):
        assert len(result.nics) == 2
        # the client transmits requests, the server transmits responses
        assert all(nic.tx_frames > 0 and nic.rx_frames > 0 for nic in result.nics)

    def test_to_dict_serializes(self, result):
        blob = json.dumps(result.to_dict(), sort_keys=True)
        parsed = json.loads(blob)
        assert parsed["flows"]["rpc0"]["rtt"]["count"] > 10

    @pytest.mark.parametrize("warmup_s, measure_s", [
        (WARMUP_S, float("nan")),
        (WARMUP_S, float("inf")),
        (float("nan"), MEASURE_S),
    ])
    def test_run_window_must_be_finite(self, warmup_s, measure_s):
        sim = FabricSimulator(_config(), FabricSpec.rpc_pair(concurrency=4))
        with pytest.raises(ValueError, match="measure window"):
            sim.run(warmup_s, measure_s)


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        a = _run_rpc_pair(seed=3)
        b = _run_rpc_pair(seed=3)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_stream_runs_identical(self):
        spec = FabricSpec(
            nics=2,
            stream_flows=(StreamFlowSpec(src=0, dst=1, offered_fraction=0.5),),
        )
        results = [
            FabricSimulator(_config(), spec).run(WARMUP_S, MEASURE_S)
            for _ in range(2)
        ]
        assert json.dumps(results[0].to_dict(), sort_keys=True) == json.dumps(
            results[1].to_dict(), sort_keys=True
        )


# ----------------------------------------------------------------------
# Loopback consistency with the bare simulator
# ----------------------------------------------------------------------
class TestLoopbackConsistency:
    def test_loopback_tracks_bare_goodput(self):
        """1-NIC fabric loopback reproduces the bare simulator's goodput.

        The strict 5% guard lives in ``benchmarks/bench_fabric_overhead``
        with a 1 ms window; here a shorter window gets a correspondingly
        looser bound (the residual is a constant handful of in-flight
        frames, so divergence shrinks as 1/window).
        """
        config = _config()
        measure_s = 0.5e-3
        bare = ThroughputSimulator(config, udp_payload_bytes=1472).run(
            warmup_s=0.2e-3, measure_s=measure_s
        )
        direct_gbps = bare.rx_payload_bytes * 8 / measure_s / 1e9
        fabric = FabricSimulator(config, FabricSpec.loopback()).run(
            0.2e-3, measure_s
        )
        flow = fabric.flows["loop0"]
        assert flow.lost == 0
        assert flow.goodput_gbps == pytest.approx(direct_gbps, rel=0.10)
        assert flow.oneway.count == flow.delivered


# ----------------------------------------------------------------------
# Switch port occupancy bookkeeping
# ----------------------------------------------------------------------
class TestSwitchPortOccupancy:
    def test_occupancy_stays_exact_across_drain_and_refill(self):
        """Regression: the head-popping ``occupancy`` must agree with a
        naive recount of undeparted frames at every query, including
        after the deque fully drains and refills (the wraparound where
        a stale-head bug would over- or under-count)."""
        from repro.fabric.wire import _SwitchPort

        port = _SwitchPort()
        shadow = []  # every departure ever appended, never popped

        def occupancy_naive(now_ps):
            return sum(1 for depart in shadow if depart > now_ps)

        # Interleave appends and queries over three drain/refill cycles.
        now = 0
        for cycle in range(3):
            for i in range(5):
                depart = now + (i + 1) * 1_000
                port.departures.append(depart)
                shadow.append(depart)
                assert port.occupancy(now) == occupancy_naive(now)
            # Queries while partially drained...
            for step in (1_500, 3_500, 4_999):
                assert port.occupancy(now + step) == occupancy_naive(now + step)
            # ... and after everything departed (deque empties).
            now += 10_000
            assert port.occupancy(now) == occupancy_naive(now) == 0
            assert not port.departures

    def test_occupancy_is_monotone_queries_safe(self):
        """Two queries at the same instant agree (popping is idempotent
        once the head has departed)."""
        from repro.fabric.wire import _SwitchPort

        port = _SwitchPort()
        port.departures.extend([10, 20, 30])
        assert port.occupancy(15) == 2
        assert port.occupancy(15) == 2
        assert port.occupancy(30) == 0


# ----------------------------------------------------------------------
# Switch congestion and tail-drop
# ----------------------------------------------------------------------
def _congested_spec(**overrides) -> FabricSpec:
    """Two full-rate streams converging on one output port with a tiny
    queue — guaranteed tail-drops."""
    defaults = dict(
        nics=3,
        switch=True,
        port_queue_frames=2,
        stream_flows=(
            StreamFlowSpec(src=0, dst=2, offered_fraction=1.0, name="a"),
            StreamFlowSpec(src=1, dst=2, offered_fraction=1.0, name="b"),
        ),
    )
    defaults.update(overrides)
    return FabricSpec(**defaults)


class TestSwitch:
    def test_tail_drops_under_congestion(self):
        result = FabricSimulator(_config(), _congested_spec()).run(
            WARMUP_S, MEASURE_S
        )
        assert result.switch_drops > 0
        assert result.switch_forwarded > 0
        lost = sum(f.lost for f in result.flows.values())
        # Every drop is reported to its flow; the switch counter ticks at
        # tail-drop time while the flow callback fires when the frame
        # would have arrived, so the two may differ by the handful of
        # drop notifications in flight across the window boundary.
        assert lost > 0
        assert abs(lost - result.switch_drops) <= 4
        delivered = sum(f.delivered for f in result.flows.values())
        assert delivered > 0  # congestion degrades, doesn't wedge

    def test_drops_feed_fault_counters_with_plan(self):
        plan = FaultPlan(seed=1, pci_stall_rate=1e-6)  # enabled, near-no-op
        result = FabricSimulator(
            _config(), _congested_spec(), fault_plan=plan
        ).run(WARMUP_S, MEASURE_S)
        counted = result.fault_counters.get("switch_tail_drops", 0)
        assert counted > 0
        # Same window-boundary skew as the flow loss callbacks: the
        # injector counts a drop when the frame's arrival would have
        # happened, the wire counts it at tail-drop time.
        assert abs(counted - result.switch_drops) <= 4

    def test_fault_counter_keys_include_switch_tail_drops(self):
        assert "switch_tail_drops" in FAULT_COUNTER_KEYS

    def test_uncongested_switch_drops_nothing(self):
        spec = FabricSpec(
            nics=2,
            switch=True,
            port_queue_frames=256,
            rpc_flows=(RpcFlowSpec(concurrency=2),),
        )
        result = FabricSimulator(_config(), spec).run(WARMUP_S, MEASURE_S)
        assert result.switch_drops == 0
        assert result.primary_flow.lost == 0
        assert result.primary_flow.completed > 0

    def test_rpc_retransmits_recover_loss(self):
        """RPC traffic sharing a congested port sees losses converted to
        retransmit latency, and the window keeps completing."""
        spec = _congested_spec(
            rpc_flows=(
                RpcFlowSpec(
                    client=0, server=2, concurrency=4, retry_delay_ps=500_000
                ),
            ),
        )
        result = FabricSimulator(_config(), spec).run(WARMUP_S, 2 * MEASURE_S)
        rpc = result.flows["rpc0"]
        # Liveness: the closed-loop window keeps completing even though
        # nearly every frame contends with two full-rate streams.
        assert rpc.completed > 0
        # Recovery: losses are retried, not silently dropped samples —
        # every completed exchange still produced an RTT sample.
        assert rpc.lost > 0
        assert rpc.retransmits > 0
        assert rpc.rtt.count == rpc.completed


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
class TestTracing:
    def test_per_nic_namespaces_and_fabric_track(self):
        tracer = Tracer()
        _run_rpc_pair(tracer=tracer)
        tracks = {event.track for event in tracer.events}
        assert any(track.startswith("nic0/") for track in tracks)
        assert any(track.startswith("nic1/") for track in tracks)
        fabric_spans = [
            e for e in tracer.events if e.track == "fabric" and e.phase == "X"
        ]
        assert fabric_spans, "wire transits should land on the fabric track"
        assert all(span.dur_ps > 0 for span in fabric_spans)

    def test_untraced_run_matches_traced_run(self):
        traced = _run_rpc_pair(tracer=Tracer())
        plain = _run_rpc_pair()
        assert json.dumps(traced.to_dict(), sort_keys=True) == json.dumps(
            plain.to_dict(), sort_keys=True
        )


# ----------------------------------------------------------------------
# Experiment-engine integration
# ----------------------------------------------------------------------
class TestEngineIntegration:
    def test_legacy_cache_keys_preserved(self):
        """A spec without fabric_spec hashes exactly as before the
        fabric layer existed: no new key_inputs entry."""
        spec = RunSpec(config=_config())
        inputs = spec.key_inputs()
        assert "fabric_spec" not in inputs
        assert "fault_plan" not in inputs

    @pytest.mark.parametrize("field", ("qos", "topology"))
    def test_absent_optional_field_keeps_legacy_fabric_keys(self, field):
        """An absent qos/topology config is omitted from a fabric's
        description and from its run's cache-key inputs, so legacy
        fabric keys (and golden digests) stay byte-identical."""
        assert field not in json.dumps(describe(FabricSpec.rpc_pair()))
        spec = RunSpec(config=_config(), fabric_spec=FabricSpec.rpc_pair(seed=11))
        assert field not in json.dumps(spec.key_inputs(), sort_keys=True)

    def test_fabric_spec_changes_key(self):
        base = RunSpec(config=_config(), warmup_s=WARMUP_S, measure_s=MEASURE_S)
        fabric = RunSpec(
            config=_config(),
            warmup_s=WARMUP_S,
            measure_s=MEASURE_S,
            fabric_spec=FabricSpec.rpc_pair(),
        )
        assert base.key != fabric.key
        assert "fabric_spec" in fabric.key_inputs()

    def test_different_fabrics_different_keys(self):
        a = RunSpec(config=_config(), fabric_spec=FabricSpec.rpc_pair(seed=0))
        b = RunSpec(config=_config(), fabric_spec=FabricSpec.rpc_pair(seed=1))
        assert a.key != b.key

    def test_label_still_excluded_from_key(self):
        a = RunSpec(
            config=_config(), label="x", fabric_spec=FabricSpec.rpc_pair()
        )
        b = RunSpec(
            config=_config(), label="y", fabric_spec=FabricSpec.rpc_pair()
        )
        assert a.key == b.key

    def test_execute_spec_dispatches_to_fabric(self):
        spec = RunSpec(
            config=_config(),
            warmup_s=WARMUP_S,
            measure_s=MEASURE_S,
            fabric_spec=FabricSpec.rpc_pair(concurrency=2),
        )
        result = execute_spec(spec)
        assert isinstance(result, FabricResult)
        assert result.primary_flow.completed > 0

    def test_cache_round_trip(self, tmp_path):
        spec = RunSpec(
            config=_config(),
            warmup_s=WARMUP_S,
            measure_s=MEASURE_S,
            fabric_spec=FabricSpec.rpc_pair(concurrency=2),
        )
        first = SweepRunner(jobs=1, cache_dir=str(tmp_path)).run([spec])
        assert first.executed == 1 and first.cache_hits == 0
        second = SweepRunner(jobs=1, cache_dir=str(tmp_path)).run([spec])
        assert second.executed == 0 and second.cache_hits == 1
        assert json.dumps(first.results[0].to_dict(), sort_keys=True) == (
            json.dumps(second.results[0].to_dict(), sort_keys=True)
        )

    def test_fabric_grid_and_rows(self):
        base = FabricSpec(
            nics=2,
            stream_flows=(StreamFlowSpec(src=0, dst=1),),
            rpc_flows=(RpcFlowSpec(concurrency=2),),
        )
        sweep = Sweep.fabric_grid(
            "loads", base, loads=(0.3, 0.9),
            base_config=_config(),
            warmup_s=WARMUP_S, measure_s=MEASURE_S,
        )
        assert [s.label for s in sweep.specs] == ["load=0.3", "load=0.9"]
        outcome = sweep.run(jobs=1)
        rows = Sweep.rows(outcome)
        assert len(rows) == 2
        for row in rows:
            assert row["nics"] == 2
            assert {"rtt_p50_us", "rtt_p99_us", "rtt_p999_us",
                    "oneway_p50_us", "aggregate_goodput_gbps",
                    "switch_drops", "mac_drops"} <= set(row)
            assert row["aggregate_goodput_gbps"] > 0

    def test_legacy_rows_schema_untouched(self):
        """Single-NIC sweeps export exactly the pre-fabric columns."""
        sweep = Sweep.grid(
            "legacy", core_counts=(1,), frequencies_mhz=(166,),
            warmup_s=WARMUP_S, measure_s=MEASURE_S,
        )
        outcome = sweep.run(jobs=1)
        rows = Sweep.rows(outcome)
        assert len(rows) == 1
        forbidden = {
            "nics", "switch", "flow", "rtt_p50_us", "oneway_p50_us",
            "aggregate_goodput_gbps", "switch_drops",
        }
        assert not (forbidden & set(rows[0]))


# ----------------------------------------------------------------------
# Exact latency samples in integer picoseconds
# ----------------------------------------------------------------------
def _bits(summary):
    """Every field of a summary, floats as their exact bit patterns."""
    return [value.hex() if isinstance(value, float) else value
            for value in dataclasses.astuple(summary)]


_PS = st.integers(min_value=0, max_value=10**15)


class TestExactLatency:
    """Each flow keeps its one-way and RTT samples once, as integer
    picoseconds; a summary converts them to µs, and the result equals
    the float-sample summary bit for bit."""

    @given(st.one_of(
        st.lists(_PS, max_size=300),
        # Few distinct values: ranks land inside runs of duplicates.
        st.lists(st.sampled_from([0, 1, 999_999, 1_000_000, 12_345_678]),
                 max_size=300),
    ))
    @example([])
    @example([7_654_321])
    @example([5_000_000] * 1000 + [1])
    @settings(max_examples=300, deadline=None)
    def test_ps_summary_equals_us_summary_bit_for_bit(self, samples):
        summary = LatencySummary.from_samples_ps(array("q", samples))
        assert _bits(summary) == _bits(
            LatencySummary.from_samples_us([s / 1e6 for s in samples])
        )
        assert summary.count == len(samples)

    def test_flows_keep_integer_ps_and_registry_keeps_buckets(self):
        sim = FabricSimulator(_config(), FabricSpec.rpc_pair(concurrency=4))
        result = sim.run(WARMUP_S, MEASURE_S)
        flow = sim.flows["rpc0"]
        assert flow.oneway_ps.typecode == "q" and flow.rtt_ps.typecode == "q"
        # One sample per delivered frame and per completed exchange.
        assert len(flow.oneway_ps) == flow.delivered
        assert len(flow.rtt_ps) == flow.completed
        window = result.flows["rpc0"]
        assert window.oneway == LatencySummary.from_samples_ps(
            flow.oneway_ps[-window.delivered:]
        )
        # The live sampler's bucket histograms stay; no per-flow sketch.
        snapshot = sim.metrics_snapshot()
        assert snapshot["histogram.flow.rpc0.oneway_us.count"] > 0
        assert snapshot["histogram.flow.rpc0.rtt_us.count"] > 0
        assert not [key for key in snapshot if key.startswith("shist.")]
