"""Tests for the QoS subsystem (``repro.qos`` + fabric integration).

Covers the ISSUE 9 acceptance surface: spec validation, the three
scheduler disciplines, keyed RED decisions (deterministic, monotone,
interleaving-independent), legacy cache-key/describe preservation with
``qos=None``, a monitored end-to-end incast run (invariants clean,
conservation identities hold), byte-identical determinism,
mixed-criticality isolation, and PFC-style pause/backpressure reaching
the stream pacers.
"""

import dataclasses
import json
from types import SimpleNamespace

import pytest

from repro.check import InvariantMonitor, attach_monitor, verify_conservation
from repro.exp.spec import RunSpec, describe
from repro.fabric import FabricSimulator, FabricSpec, RpcFlowSpec, StreamFlowSpec
from repro.nic.config import NicConfig
from repro.qos import (
    DRR_QUANTUM_BYTES,
    QosSpec,
    RedSpec,
    TrafficClassSpec,
    red_decide,
    red_drop_probability,
)
from repro.qos.red import keyed_uniform
from repro.qos.sched import (
    DrrScheduler,
    StrictPriorityScheduler,
    WrrScheduler,
    make_scheduler,
)
from repro.units import mhz

# 4-core NICs so the sources can actually overload a 10G switch port
# (2 cores cap out near 5.7 Gb/s).  Small windows keep each run fast.
WARMUP_S = 0.1e-3
MEASURE_S = 0.3e-3
P999_BOUND_US = 150.0


def _config() -> NicConfig:
    return NicConfig(cores=4, core_frequency_hz=mhz(133))


def _incast_spec(scheduler="strict", load=1.0, red=True, pause=False,
                 seed=7) -> FabricSpec:
    """The mixed-criticality incast: gold (guaranteed) + bulk (BE) → NIC 2."""
    qos = QosSpec.mixed_criticality(
        scheduler=scheduler,
        guaranteed_p999_bound_us=P999_BOUND_US,
        red=red,
        pause=pause,
        seed=seed,
    )
    return FabricSpec(
        nics=3,
        switch=True,
        seed=seed,
        qos=qos,
        stream_flows=(
            StreamFlowSpec(src=0, dst=2, offered_fraction=0.25,
                           name="gold", qos_class="guaranteed"),
            StreamFlowSpec(src=1, dst=2, offered_fraction=float(load),
                           name="bulk", qos_class="best-effort"),
        ),
    )


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------
class TestTrafficClassSpecValidation:
    def test_needs_name(self):
        with pytest.raises(ValueError, match="non-empty name"):
            TrafficClassSpec(name="")

    def test_dscp_range(self):
        with pytest.raises(ValueError, match="dscp"):
            TrafficClassSpec(name="x", dscp=64)
        with pytest.raises(ValueError, match="dscp"):
            TrafficClassSpec(name="x", dscp=-1)

    def test_queue_depth(self):
        with pytest.raises(ValueError, match="at least one frame"):
            TrafficClassSpec(name="x", queue_frames=0)

    def test_priority_and_weight(self):
        with pytest.raises(ValueError, match="priority"):
            TrafficClassSpec(name="x", priority=-1)
        with pytest.raises(ValueError, match="weight"):
            TrafficClassSpec(name="x", weight=0)

    def test_quantum_non_negative(self):
        with pytest.raises(ValueError, match="quantum_bytes"):
            TrafficClassSpec(name="x", quantum_bytes=-1)

    def test_red_must_fit_queue(self):
        with pytest.raises(ValueError, match="exceeds queue depth"):
            TrafficClassSpec(
                name="x", queue_frames=16,
                red=RedSpec(min_frames=4, max_frames=32),
            )

    def test_pause_watermarks(self):
        with pytest.raises(ValueError, match="non-negative"):
            TrafficClassSpec(name="x", pause_xoff_frames=-1)
        with pytest.raises(ValueError, match="XON"):
            TrafficClassSpec(name="x", pause_xoff_frames=8,
                             pause_xon_frames=8)
        with pytest.raises(ValueError, match="exceeds queue depth"):
            TrafficClassSpec(name="x", queue_frames=16,
                             pause_xoff_frames=32, pause_xon_frames=4)

    def test_p999_bound_non_negative(self):
        with pytest.raises(ValueError, match="p999_bound_us"):
            TrafficClassSpec(name="x", p999_bound_us=-1.0)

    def test_drr_quantum_defaults_to_weight_scaled(self):
        tc = TrafficClassSpec(name="x", weight=4)
        assert tc.drr_quantum_bytes == 4 * DRR_QUANTUM_BYTES
        explicit = TrafficClassSpec(name="x", weight=4, quantum_bytes=9000)
        assert explicit.drr_quantum_bytes == 9000


class TestRedSpecValidation:
    def test_min_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            RedSpec(min_frames=-1)

    def test_thresholds_ordered(self):
        with pytest.raises(ValueError, match="min < max"):
            RedSpec(min_frames=8, max_frames=8)

    def test_probability_range(self):
        with pytest.raises(ValueError, match="probability"):
            RedSpec(max_drop_probability=0.0)
        with pytest.raises(ValueError, match="probability"):
            RedSpec(max_drop_probability=1.5)


class TestQosSpecValidation:
    def test_needs_classes(self):
        with pytest.raises(ValueError, match="at least one traffic class"):
            QosSpec(classes=())

    def test_unique_names_and_tags(self):
        with pytest.raises(ValueError, match="unique"):
            QosSpec(classes=(
                TrafficClassSpec(name="a", dscp=1),
                TrafficClassSpec(name="a", dscp=2),
            ))
        with pytest.raises(ValueError, match="dscp"):
            QosSpec(classes=(
                TrafficClassSpec(name="a", dscp=1),
                TrafficClassSpec(name="b", dscp=1),
            ))

    def test_known_scheduler(self):
        with pytest.raises(ValueError, match="scheduler"):
            QosSpec(classes=(TrafficClassSpec(name="a"),), scheduler="fifo")

    def test_default_class_must_exist(self):
        with pytest.raises(ValueError, match="default_class"):
            QosSpec(classes=(TrafficClassSpec(name="a"),), default_class="b")

    def test_resolve_and_index(self):
        qos = QosSpec.mixed_criticality()
        assert qos.class_names() == ("guaranteed", "best-effort")
        assert qos.resolve("") == "guaranteed"
        assert qos.index_of("best-effort") == 1
        with pytest.raises(ValueError, match="unknown traffic class"):
            qos.index_of("bronze")

    def test_mixed_criticality_shape(self):
        qos = QosSpec.mixed_criticality(pause=True)
        gold, bulk = qos.classes
        assert gold.dscp == 46 and gold.priority < bulk.priority
        assert gold.red is None and bulk.red is not None
        assert bulk.pause_xon_frames < bulk.pause_xoff_frames <= bulk.queue_frames
        calm = QosSpec.mixed_criticality(red=False)
        assert calm.classes[1].red is None
        assert calm.classes[1].pause_xoff_frames == 0


class TestFabricSpecQosValidation:
    def test_qos_class_requires_qos_config(self):
        with pytest.raises(ValueError, match="no qos config"):
            FabricSpec(
                nics=2,
                stream_flows=(StreamFlowSpec(qos_class="guaranteed"),),
            )

    def test_qos_requires_switch(self):
        with pytest.raises(ValueError, match="switch=True"):
            FabricSpec(
                nics=2,
                qos=QosSpec.mixed_criticality(),
                stream_flows=(StreamFlowSpec(),),
            )

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError, match="unknown qos_class"):
            FabricSpec(
                nics=2,
                switch=True,
                qos=QosSpec.mixed_criticality(),
                stream_flows=(StreamFlowSpec(qos_class="bronze"),),
            )

    def test_rpc_flows_may_be_tagged(self):
        spec = FabricSpec(
            nics=2,
            switch=True,
            qos=QosSpec.mixed_criticality(),
            rpc_flows=(RpcFlowSpec(qos_class="guaranteed"),),
        )
        assert spec.rpc_flows[0].qos_class == "guaranteed"

    def test_with_load_selective(self):
        spec = _incast_spec(load=0.5)
        scaled = spec.with_load(1.0, flows=["bulk"])
        assert scaled.stream_flows[0].offered_fraction == 0.25  # gold held
        assert scaled.stream_flows[1].offered_fraction == 1.0
        with pytest.raises(ValueError, match="unknown stream flows"):
            spec.with_load(1.0, flows=["bogus"])


# ----------------------------------------------------------------------
# Schedulers (unit level)
# ----------------------------------------------------------------------
class _Entry:
    __slots__ = ("frame_bytes",)

    def __init__(self, frame_bytes: int) -> None:
        self.frame_bytes = frame_bytes


def _queues(*sizes_lists):
    from collections import deque
    return [deque(_Entry(size) for size in sizes) for sizes in sizes_lists]


def _serve(scheduler, queues, slots):
    """Run the port service loop: select → pop head, ``slots`` times."""
    order = []
    for _ in range(slots):
        index = scheduler.select(queues)
        if index is None:
            break
        entry = queues[index].popleft()
        order.append((index, entry.frame_bytes))
    return order


class TestStrictPriority:
    def test_most_urgent_backlogged_class_wins(self):
        scheduler = StrictPriorityScheduler([1, 0, 2])
        queues = _queues([100], [100, 100], [100])
        # priority 0 (class 1) first, then priority 1 (class 0), then 2.
        assert [i for i, _ in _serve(scheduler, queues, 10)] == [1, 1, 0, 2]

    def test_equal_priority_ties_break_by_declaration(self):
        scheduler = StrictPriorityScheduler([0, 0])
        queues = _queues([100], [100])
        assert [i for i, _ in _serve(scheduler, queues, 2)] == [0, 1]

    def test_empty_returns_none(self):
        assert StrictPriorityScheduler([0]).select(_queues([])) is None


class TestDrr:
    def test_quanta_must_be_positive(self):
        with pytest.raises(ValueError, match="quanta"):
            DrrScheduler([0])

    def test_byte_fair_shares(self):
        # 3:1 quanta over equal-size frames → 3:1 served bytes.
        scheduler = DrrScheduler([3000, 1000])
        queues = _queues([1000] * 60, [1000] * 60)
        order = _serve(scheduler, queues, 40)
        served = [sum(b for i, b in order if i == cls) for cls in (0, 1)]
        assert served[0] == 3 * served[1]

    def test_deficit_identity_exposed(self):
        # While both classes stay backlogged:
        # served_bytes == rounds * quantum - deficit, per class.
        scheduler = DrrScheduler([4000, 1600])
        queues = _queues([1500] * 50, [700] * 50)
        order = _serve(scheduler, queues, 30)
        for cls, quantum in ((0, 4000), (1, 1600)):
            served = sum(b for i, b in order if i == cls)
            assert served == (scheduler.rounds[cls] * quantum
                              - scheduler.deficits[cls])

    def test_emptied_class_forfeits_deficit(self):
        scheduler = DrrScheduler([5000, 5000])
        queues = _queues([1000], [1000] * 10)
        _serve(scheduler, queues, 5)
        assert not queues[0]
        assert scheduler.deficits[0] == 0

    def test_idle_resets_all_deficits(self):
        scheduler = DrrScheduler([5000])
        queues = _queues([1000])
        _serve(scheduler, queues, 1)
        assert scheduler.select(queues) is None
        assert scheduler.deficits == [0]


class TestWrr:
    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError, match="weights"):
            WrrScheduler([0])

    def test_frames_per_round_follow_weights(self):
        scheduler = WrrScheduler([3, 1])
        queues = _queues([64] * 20, [1472] * 20)
        order = [i for i, _ in _serve(scheduler, queues, 8)]
        assert order == [0, 0, 0, 1, 0, 0, 0, 1]

    def test_empty_returns_none(self):
        assert WrrScheduler([1]).select(_queues([])) is None


class TestMakeScheduler:
    def test_builds_each_discipline(self):
        for name, kind in (("strict", StrictPriorityScheduler),
                           ("drr", DrrScheduler), ("wrr", WrrScheduler)):
            qos = QosSpec.mixed_criticality(scheduler=name)
            assert isinstance(make_scheduler(qos), kind)

    def test_unknown_rejected(self):
        stub = SimpleNamespace(scheduler="bogus", classes=())
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler(stub)


# ----------------------------------------------------------------------
# RED: keyed, replayable drop decisions
# ----------------------------------------------------------------------
class TestRed:
    def test_ramp_shape(self):
        red = RedSpec(min_frames=8, max_frames=24, max_drop_probability=0.2)
        assert red_drop_probability(0, red) == 0.0
        assert red_drop_probability(7, red) == 0.0
        assert red_drop_probability(24, red) == 1.0
        assert red_drop_probability(100, red) == 1.0
        assert red_drop_probability(16, red) == pytest.approx(0.1)

    def test_monotone_over_ramp(self):
        red = RedSpec(min_frames=4, max_frames=40, max_drop_probability=0.5)
        probabilities = [red_drop_probability(o, red) for o in range(64)]
        assert probabilities == sorted(probabilities)

    def test_decide_edges(self):
        assert red_decide(0, 0, "be", 0, 0.0) is False
        assert red_decide(0, 0, "be", 0, 1.0) is True

    def test_decide_is_keyed_and_replayable(self):
        first = [red_decide(5, 2, "be", i, 0.3) for i in range(64)]
        again = [red_decide(5, 2, "be", i, 0.3) for i in range(64)]
        assert first == again
        # The decision is the documented threshold test on the keyed
        # uniform draw — the FaultPlan.uniform recipe byte-for-byte.
        expected = [keyed_uniform(5, "red:2:be", i) < 0.3 for i in range(64)]
        assert first == expected

    def test_streams_are_independent(self):
        by_port = [red_decide(5, 3, "be", i, 0.3) for i in range(64)]
        by_seed = [red_decide(6, 2, "be", i, 0.3) for i in range(64)]
        base = [red_decide(5, 2, "be", i, 0.3) for i in range(64)]
        assert by_port != base and by_seed != base

    def test_empirical_rate_tracks_probability(self):
        drops = sum(red_decide(1, 0, "be", i, 0.3) for i in range(4000))
        assert 0.25 < drops / 4000 < 0.35


# ----------------------------------------------------------------------
# Legacy cache keys / describe preservation (qos=None ⇒ pre-PR bytes)
# ----------------------------------------------------------------------
class TestLegacyKeyPreservation:
    def test_describe_omits_absent_qos(self):
        text = json.dumps(describe(FabricSpec.rpc_pair(seed=11)))
        assert "qos" not in text

    def test_describe_includes_present_qos(self):
        text = json.dumps(describe(_incast_spec()), sort_keys=True)
        assert '"QosSpec"' in text and '"qos_class"' in text

    def test_run_spec_key_unchanged_without_qos(self):
        base = RunSpec(config=_config(),
                       fabric_spec=FabricSpec.rpc_pair(seed=11))
        # qos=None IS the field default: the key must not see the field.
        assert "qos" not in json.dumps(base.key_inputs())

    def test_qos_extends_the_key(self):
        with_qos = RunSpec(config=_config(), fabric_spec=_incast_spec())
        without = RunSpec(
            config=_config(),
            fabric_spec=dataclasses.replace(
                _incast_spec(), qos=None,
                stream_flows=tuple(
                    dataclasses.replace(f, qos_class="")
                    for f in _incast_spec().stream_flows
                ),
            ),
        )
        assert with_qos.key != without.key

    def test_legacy_result_json_has_no_qos_key(self):
        spec = FabricSpec.rpc_pair(seed=3)
        result = FabricSimulator(_config(), spec).run(WARMUP_S, MEASURE_S)
        assert "qos" not in result.to_dict()


# ----------------------------------------------------------------------
# End-to-end: monitored incast, determinism, isolation
# ----------------------------------------------------------------------
def _run(spec, monitor=None):
    simulator = FabricSimulator(_config(), spec)
    if monitor is not None:
        attach_monitor(simulator, monitor)
    result = simulator.run(WARMUP_S, MEASURE_S)
    return simulator, result


class TestQosIncastRun:
    @pytest.fixture(scope="class")
    def monitored(self):
        monitor = InvariantMonitor()
        simulator, result = _run(_incast_spec(), monitor=monitor)
        return simulator, result, monitor

    def test_monitor_stays_silent(self, monitored):
        _simulator, _result, monitor = monitored
        assert monitor.ok, monitor.violations
        assert monitor.total_checks() > 0

    def test_end_state_conservation(self, monitored):
        simulator, _result, monitor = monitored
        checked = verify_conservation(simulator, monitor)
        assert checked["qos.port2.best-effort.conservation"]
        assert checked["qos.port2.guaranteed.pause_pairing"]

    def test_result_reports_per_class(self, monitored):
        _simulator, result, _monitor = monitored
        qos = result.qos
        assert qos["scheduler"] == "strict"
        gold = qos["classes"]["guaranteed"]
        bulk = qos["classes"]["best-effort"]
        assert gold["dscp"] == 46 and bulk["dscp"] == 0
        assert gold["delivered"] > 0 and bulk["delivered"] > 0
        assert gold["goodput_gbps"] > 0
        assert gold["oneway"]["count"] == gold["delivered"]
        assert gold["p999_bound_us"] == P999_BOUND_US

    def test_guaranteed_class_isolated(self, monitored):
        """The tentpole acceptance: overload lands only on best-effort."""
        _simulator, result, _monitor = monitored
        gold = result.qos["classes"]["guaranteed"]
        bulk = result.qos["classes"]["best-effort"]
        assert gold["tail_drops"] == 0 and gold["red_drops"] == 0
        assert gold["oneway"]["p999_us"] <= P999_BOUND_US
        assert bulk["red_drops"] > 0
        # Losses reach the flow layer with the right attribution.
        assert result.flows["gold"].lost == 0
        assert result.flows["bulk"].lost == bulk["red_drops"] + bulk["tail_drops"]

    @pytest.mark.parametrize("scheduler", ["drr", "wrr"])
    def test_other_schedulers_also_isolate(self, scheduler):
        _simulator, result = _run(_incast_spec(scheduler=scheduler))
        gold = result.qos["classes"]["guaranteed"]
        assert gold["tail_drops"] == 0 and gold["red_drops"] == 0
        assert gold["oneway"]["p999_us"] <= P999_BOUND_US


class TestQosDeterminism:
    def test_two_runs_byte_identical(self):
        _s1, first = _run(_incast_spec(seed=21))
        _s2, second = _run(_incast_spec(seed=21))
        assert (json.dumps(first.to_dict(), sort_keys=True)
                == json.dumps(second.to_dict(), sort_keys=True))


class TestPauseBackpressure:
    def test_xoff_reaches_the_pacer_and_resumes(self):
        # RED off so the queue actually climbs to the XOFF watermark.
        spec = _incast_spec(red=False, pause=True, seed=9)
        monitor = InvariantMonitor()
        simulator, result = _run(spec, monitor=monitor)
        bulk = result.qos["classes"]["best-effort"]
        assert bulk["pause_events"] >= 1
        assert 0 <= bulk["pause_events"] - bulk["resume_events"] <= 1
        # Backpressure reached the transmitting stream pacer.
        assert simulator.flows["bulk"].pause_count >= 1
        assert simulator.flows["gold"].pause_count == 0
        assert monitor.ok, monitor.violations
        verify_conservation(simulator, monitor)

    def test_pause_protects_against_tail_drops(self):
        spec = _incast_spec(red=False, pause=True, seed=9)
        _simulator, result = _run(spec)
        bulk = result.qos["classes"]["best-effort"]
        # XOFF throttles the source before the queue overflows.
        assert bulk["tail_drops"] == 0 and bulk["red_drops"] == 0
        assert result.flows["bulk"].lost == 0


class TestQosGrid:
    def test_grid_requires_qos(self):
        from repro.exp import Sweep
        with pytest.raises(ValueError, match="qos"):
            Sweep.qos_grid("g", base_fabric=FabricSpec.rpc_pair(),
                           loads=[0.5], overload_flows=["bulk"])

    def test_rows_carry_per_class_columns(self):
        from repro.exp import Sweep, SweepRunner
        sweep = Sweep.qos_grid(
            "qos-isolation", base_fabric=_incast_spec(load=0.5),
            loads=[0.3, 1.0], overload_flows=["bulk"],
            base_config=_config(), warmup_s=WARMUP_S, measure_s=MEASURE_S,
        )
        outcome = sweep.run(SweepRunner(jobs=1, cache_dir=None))
        rows = Sweep.rows(outcome)
        assert len(rows) == 2
        for row in rows:
            assert row["qos_guaranteed_tail_drops"] == 0
            assert row["qos_guaranteed_red_drops"] == 0
            assert row["qos_guaranteed_p999_us"] <= P999_BOUND_US
            assert row["qos_best-effort_goodput_gbps"] > 0
        # Only the overloaded arm sheds best-effort frames.
        assert rows[0]["qos_best-effort_red_drops"] == 0
        assert rows[1]["qos_best-effort_red_drops"] > 0


class TestGoldenCorpusRegistration:
    def test_qos_run_is_pinned(self):
        from repro.check.golden import golden_specs
        assert "fabric-qos-switched" in golden_specs()
