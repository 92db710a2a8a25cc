"""Observability layer: tracer, exporters, sampler, profiler.

The critical property throughout: observation never changes what is
observed.  The determinism tests prove a traced/sampled/profiled run
produces the same simulated timeline and statistics as a bare one.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.nic.config import NicConfig
from repro.nic.throughput import ThroughputSimulator
from repro.obs import (
    FrameStage,
    MetricsSampler,
    NULL_TRACER,
    RX_STAGE_ORDER,
    SimProfiler,
    STAGE_ORDERS,
    TX_STAGE_ORDER,
    Tracer,
    chrome_trace_dict,
    describe_callback,
    prometheus_metric_name,
    prometheus_text,
    write_chrome_trace,
)
from repro.sim import Simulator
from repro.units import mhz


def quick_sim(tracer=None) -> ThroughputSimulator:
    config = NicConfig(cores=2, core_frequency_hz=mhz(133))
    return ThroughputSimulator(config, 1472, tracer=tracer)


@pytest.fixture(scope="module")
def traced_run():
    """One short traced run shared by the lifecycle/exporter tests."""
    tracer = Tracer()
    sim = quick_sim(tracer=tracer)
    result = sim.run(warmup_s=0.1e-3, measure_s=0.2e-3)
    return tracer, sim, result


class TestTracerPrimitives:
    def test_instant_and_complete_record(self):
        tracer = Tracer()
        tracer.instant("core0", "tick", 1000, seq=1)
        tracer.complete("core0", "handler", 2000, 500, seq=2)
        assert len(tracer) == 2
        assert tracer.events[0].phase == "i"
        assert tracer.events[1].phase == "X"
        assert tracer.events[1].dur_ps == 500

    def test_negative_duration_rejected(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            tracer.complete("core0", "bad", 100, -5)

    def test_span_nesting_lifo(self):
        tracer = Tracer()
        tracer.begin("core0", "outer", 0)
        tracer.begin("core0", "inner", 10)
        assert tracer.open_depth("core0") == 2
        tracer.end("core0", 20)
        tracer.end("core0", 30)
        assert tracer.open_depth("core0") == 0
        phases = [(e.phase, e.name) for e in tracer.events]
        assert phases == [
            ("B", "outer"), ("B", "inner"), ("E", "inner"), ("E", "outer"),
        ]

    def test_unbalanced_end_is_dropped_not_corrupting(self):
        tracer = Tracer()
        tracer.end("core0", 5)
        assert tracer.dropped_ends == 1
        assert len(tracer.events) == 0

    def test_null_tracer_is_silent_and_disabled(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.instant("x", "y", 0)
        NULL_TRACER.complete("x", "y", 0, 1)
        NULL_TRACER.begin("x", "y", 0)
        NULL_TRACER.end("x", 0)
        NULL_TRACER.counter("x", "y", 0, 1.0)
        NULL_TRACER.frame_stage("tx", 0, FrameStage.WIRE, 0)

    def test_frame_stage_first_timestamp_wins(self):
        tracer = Tracer()
        tracer.frame_stage("tx", 7, FrameStage.EVENT_DISPATCHED, 100)
        tracer.frame_stage("tx", 7, FrameStage.EVENT_DISPATCHED, 200)  # retry
        assert tracer.frame_lifecycle("tx", 7)[FrameStage.EVENT_DISPATCHED] == 100
        assert len(tracer.events) == 2  # both remain on the timeline


class TestFrameLifecycle:
    def test_stage_orders_cover_issue_stages(self):
        # rx-landed -> dispatch -> handler -> DMA issued/complete -> wire.
        assert RX_STAGE_ORDER[0] is FrameStage.RX_LANDED
        assert TX_STAGE_ORDER[-1] is FrameStage.WIRE
        for order in STAGE_ORDERS.values():
            assert FrameStage.EVENT_DISPATCHED in order
            assert FrameStage.HANDLER_RUN in order
            assert FrameStage.DMA_ISSUED in order
            assert FrameStage.DMA_COMPLETE in order

    def test_run_produces_complete_lifecycles(self, traced_run):
        tracer, _sim, result = traced_run
        assert result.tx_frames > 0 and result.rx_frames > 0
        for direction in ("tx", "rx"):
            complete = tracer.complete_frames(direction)
            assert len(complete) > 10, f"no complete {direction} lifecycles traced"

    def test_lifecycle_ordering_invariant(self, traced_run):
        tracer, _sim, _result = traced_run
        checked = 0
        for direction, order in STAGE_ORDERS.items():
            for seq in tracer.complete_frames(direction):
                stages = tracer.frame_lifecycle(direction, seq)
                times = [stages[stage] for stage in order]
                assert times == sorted(times), (
                    f"{direction} frame {seq} visited stages out of order: "
                    f"{list(zip([s.value for s in order], times))}"
                )
                checked += 1
        assert checked > 20

    def test_tracks_cover_cores_assists_and_macs(self, traced_run):
        tracer, _sim, _result = traced_run
        tracks = {event.track for event in tracer.events}
        for expected in ("core0", "core1", "dma-read", "dma-write",
                        "mac-tx", "mac-rx", "event-queue"):
            assert expected in tracks, f"missing track {expected}"


class TestChromeTraceExport:
    def test_schema_validity(self, traced_run):
        tracer, _sim, _result = traced_run
        payload = chrome_trace_dict(tracer)
        assert "traceEvents" in payload
        events = payload["traceEvents"]
        assert events, "empty trace"
        tids_named = set()
        for event in events:
            assert set(event) >= {"name", "ph", "pid", "tid"}
            assert event["ph"] in {"M", "X", "B", "E", "i", "C"}
            if event["ph"] == "M":
                if event["name"] == "thread_name":
                    tids_named.add(event["tid"])
                continue
            assert "ts" in event and event["ts"] >= 0
            if event["ph"] == "X":
                assert event["dur"] >= 0
        # Every non-metadata event rides a named thread/track.
        used = {e["tid"] for e in events if e["ph"] != "M"}
        assert used <= tids_named

    def test_json_round_trip(self, traced_run, tmp_path):
        tracer, _sim, _result = traced_run
        path = tmp_path / "trace.json"
        write_chrome_trace(tracer, str(path))
        loaded = json.loads(path.read_text())
        assert loaded["displayTimeUnit"] == "ns"
        assert len(loaded["traceEvents"]) >= len(tracer.events)

    def test_open_spans_closed_at_export(self):
        tracer = Tracer()
        tracer.begin("core0", "never-ended", 100)
        payload = chrome_trace_dict(tracer)
        phases = [e["ph"] for e in payload["traceEvents"]]
        assert phases.count("B") == phases.count("E")


class TestMetricsSampler:
    def test_periodic_sampling(self):
        sim = Simulator()
        state = {"value": 0}

        def bump():
            state["value"] += 1
            sim.schedule(1_000_000, bump)

        sim.schedule(1_000_000, bump)
        sampler = MetricsSampler(sim, lambda: {"v": state["value"]}, 10_000_000)
        sampler.start()
        sim.run(until_ps=100_000_000)
        assert len(sampler.samples) == 10
        times = [ts for ts, _ in sampler.samples]
        assert times == sorted(times)
        values = [s["v"] for _, s in sampler.samples]
        assert values == sorted(values) and values[-1] > values[0]

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            MetricsSampler(Simulator(), dict, 0)

    def test_csv_and_json_export(self, tmp_path):
        sim = Simulator()
        sampler = MetricsSampler(sim, lambda: {"a": 1.0, "b": 2.0}, 1000)
        sampler.start()
        sim.run(until_ps=3000)
        csv_text = sampler.to_csv()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "t_ps,t_us,a,b"
        assert len(lines) == 1 + len(sampler.samples)
        parsed = json.loads(sampler.to_json())
        assert parsed["interval_ps"] == 1000
        assert parsed["samples"][0]["a"] == 1.0
        path = tmp_path / "m.csv"
        sampler.write(str(path), fmt="csv")
        assert path.read_text() == csv_text

    def test_stop_cancels_queued_tick(self):
        """Regression: stop() must cancel the in-flight tick on the kernel.

        Leaving the queued ``_tick`` behind as a live no-op inflated
        ``pending_events`` and made ``run()`` keep advancing simulated
        time to the dead tick's timestamp after the sampler stopped.
        """
        sim = Simulator()
        sampler = MetricsSampler(sim, lambda: {"v": 1.0}, 10_000)
        sampler.start()
        sim.run(until_ps=25_000)  # ticks at 10_000 and 20_000 fired
        assert len(sampler.samples) == 2
        sampler.stop()
        # The queued tick at 30_000 is cancelled, not a live zombie.
        assert sim.pending_events == 0
        assert sim.peek_next_time() is None
        sim.run()
        assert sim.now_ps == 25_000  # time did not advance to 30_000
        assert len(sampler.samples) == 2

    def test_stop_mid_run_under_armed_monitor(self):
        """A sampler stopped by a callback inside ``run()`` leaves no
        live tick behind, and the monitor sees its cancel and discard."""
        from repro.check.monitor import InvariantMonitor

        sim = Simulator()
        sim.monitor = InvariantMonitor()
        sampler = MetricsSampler(sim, lambda: {"v": 1.0}, 10_000)
        sampler.start()
        sim.schedule(25_000, sampler.stop)
        sim.run()
        assert sim.pending_events == 0
        assert sim.now_ps == 25_000  # the cancelled tick at 30_000 never fired
        assert len(sampler.samples) == 2
        sim.monitor.check_ticket_conservation()
        assert sim.monitor.ok
        assert sim.monitor.events_cancelled == 1
        assert sim.monitor.events_discarded == 1

    def test_stop_before_start_is_noop(self):
        sim = Simulator()
        sampler = MetricsSampler(sim, lambda: {"v": 1.0}, 10_000)
        sampler.stop()
        assert sim.pending_events == 0

    def test_restart_after_stop(self):
        sim = Simulator()
        sampler = MetricsSampler(sim, lambda: {"v": 1.0}, 10_000)
        sampler.start()
        sim.run(until_ps=15_000)
        sampler.stop()
        sampler.start()
        sim.run(until_ps=45_000)
        # One sample before stop (t=10k), then 25k+10k=... ticks resume
        # one interval after the restart instant (15k): 25k, 35k, 45k.
        times = [ts for ts, _ in sampler.samples]
        assert times == [10_000, 25_000, 35_000, 45_000]

    def test_throughput_sim_sampling_has_histograms(self):
        sim = quick_sim()
        sampler = sim.sample_metrics_every(50_000_000)
        sim.run(warmup_s=0.1e-3, measure_s=0.2e-3)
        assert len(sampler.samples) >= 3
        final = sampler.samples[-1][1]
        assert "histogram.rx_commit_latency_us.p99" in final
        assert "counter.tx_wire_frames" in final
        assert final["counter.tx_wire_frames"] > 0


class TestPrometheusFormat:
    _LINE = re.compile(
        r"^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+"
        r"|[a-zA-Z_:][a-zA-Z0-9_:]* -?[0-9.e+-]+(nan|inf)?)$"
    )

    def test_text_format_is_valid(self):
        text = prometheus_text(
            {"counter.tx.frames": 42, "gauge.depth": 3.5,
             "histogram.lat.p99": 12.0},
        )
        lines = text.strip().splitlines()
        assert lines, "empty exposition"
        for line in lines:
            assert self._LINE.match(line), f"bad prometheus line: {line!r}"
        assert "# TYPE repro_counter_tx_frames counter" in lines
        assert "# TYPE repro_gauge_depth gauge" in lines
        assert "repro_counter_tx_frames 42" in lines

    def test_metric_name_sanitization(self):
        assert prometheus_metric_name("a.b-c/d") == "repro_a_b_c_d"
        assert re.match(r"^[a-zA-Z_:]", prometheus_metric_name("9lives", prefix=""))

    def test_sampler_prom_output(self, tmp_path):
        sim = quick_sim()
        sampler = sim.sample_metrics_every(100_000_000)
        sim.run(warmup_s=0.1e-3, measure_s=0.2e-3)
        path = tmp_path / "metrics.prom"
        sampler.write(str(path), fmt="prom")
        body = path.read_text()
        assert "repro_counter_tx_wire_frames" in body
        for line in body.strip().splitlines():
            assert self._LINE.match(line), f"bad prometheus line: {line!r}"


class TestDeterminism:
    def test_traced_run_matches_untraced(self):
        """The acceptance invariant: tracing + sampling + profiling must
        not move a single simulated timestamp or statistic."""
        bare = quick_sim()
        bare_result = bare.run(warmup_s=0.1e-3, measure_s=0.2e-3)

        tracer = Tracer()
        instrumented = quick_sim(tracer=tracer)
        instrumented.sample_metrics_every(50_000_000)
        instrumented.sim.attach_profiler(SimProfiler())
        traced_result = instrumented.run(warmup_s=0.1e-3, measure_s=0.2e-3)

        assert instrumented.sim.now_ps == bare.sim.now_ps
        assert traced_result.to_dict() == bare_result.to_dict()
        assert len(tracer.events) > 0

    def test_traced_timestamps_lie_inside_run_window(self):
        tracer = Tracer()
        sim = quick_sim(tracer=tracer)
        sim.run(warmup_s=0.1e-3, measure_s=0.1e-3)
        # MAC wire spans may extend slightly past the cut-off; lifecycle
        # record times must all be non-negative and bounded by the last
        # scheduled horizon.
        horizon = sim.sim.now_ps * 2
        for event in tracer.events:
            assert 0 <= event.ts_ps <= horizon


class TestSimProfiler:
    def test_attribution_and_topn(self):
        sim = Simulator()
        profiler = SimProfiler()
        sim.attach_profiler(profiler)

        def busy():
            sum(range(200))

        for index in range(50):
            sim.schedule(index, busy)
            sim.schedule(index, lambda: None)
        sim.run()
        assert profiler.total_callbacks == 100
        keys = {key for key, _count, _wall in profiler.top(10)}
        assert any("busy" in key for key in keys)
        report = profiler.report(5)
        assert "simulator profile" in report
        assert "100 callbacks" in report

    def test_describe_unwraps_partials_and_methods(self):
        import functools

        def base():
            pass

        partial = functools.partial(functools.partial(base))
        assert describe_callback(partial).endswith("base")
        assert "TestSimProfiler" in describe_callback(self.test_attribution_and_topn)

    def test_by_module_collapses_keys(self):
        profiler = SimProfiler()
        profiler.record(quick_sim, 0.5)
        modules = profiler.by_module()
        assert any(name.startswith("tests.test_obs") or "test_obs" in name
                   for name in modules)

    def test_profiling_does_not_change_simulated_time(self):
        def make():
            sim = Simulator()
            for index in range(100):
                sim.schedule(index * 7, lambda: None)
            return sim

        bare = make()
        bare.run()
        profiled = make()
        profiled.attach_profiler(SimProfiler())
        profiled.run()
        assert profiled.now_ps == bare.now_ps
        assert profiled.events_processed == bare.events_processed


class TestMicroDeviceTracing:
    def test_register_accesses_traced(self):
        from repro.nic.microdev import (
            DMA_CMD_ADDR,
            DeviceMemory,
            RX_PROD_ADDR,
        )

        tracer = Tracer()
        memory = DeviceMemory(total_rx_frames=4, tracer=tracer)
        memory.cycle = 100
        memory.load_word(RX_PROD_ADDR)
        memory.store_word(DMA_CMD_ADDR, 1)
        names = [event.name for event in tracer.events]
        assert "rd RX_PROD" in names
        assert "wr DMA_CMD" in names
        assert all(event.track == "microdev" for event in tracer.events)

    def test_untraced_device_identical_behavior(self):
        from repro.nic.microdev import DeviceMemory, DMA_CMD_ADDR, DMA_PROD_ADDR

        plain = DeviceMemory(total_rx_frames=4)
        traced = DeviceMemory(total_rx_frames=4, tracer=Tracer())
        for memory in (plain, traced):
            memory.store_word(DMA_CMD_ADDR, 1)
            memory.cycle = 1000
        assert plain.load_word(DMA_PROD_ADDR) == traced.load_word(DMA_PROD_ADDR)
