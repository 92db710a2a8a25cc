"""Cross-module integration tests: determinism, backpressure, and
end-to-end timing chains."""

import pytest

from repro.firmware.ordering import OrderingMode
from repro.net.ethernet import EthernetTiming
from repro.nic import NicConfig, RMW_166MHZ, ThroughputSimulator
from repro.units import mhz
from dataclasses import replace


def run(config, payload=1472, warmup=0.2e-3, measure=0.4e-3, offered=1.0):
    return ThroughputSimulator(config, payload, offered_fraction=offered).run(
        warmup_s=warmup, measure_s=measure
    )


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        first = run(RMW_166MHZ)
        second = run(RMW_166MHZ)
        assert first.tx_frames == second.tx_frames
        assert first.rx_frames == second.rx_frames
        assert first.busy_cycles == pytest.approx(second.busy_cycles)
        assert first.scratchpad_core_accesses == second.scratchpad_core_accesses
        assert first.sdram_transferred_bytes == second.sdram_transferred_bytes

    def test_micro_tier_deterministic(self):
        from repro.firmware.kernels import assemble_firmware
        from repro.nic import MicroNic

        def one_run():
            nic = MicroNic(NicConfig(cores=3), assemble_firmware("order_sw", 1))
            nic.run()
            return nic.combined_stats()

        a, b = one_run(), one_run()
        assert a.cycles == b.cycles
        assert a.conflict_stalls == b.conflict_stalls


class TestBackpressure:
    def test_tiny_rx_buffer_forces_drops(self):
        # Two frames of buffering cannot cover the ~2 us land-to-commit
        # pipeline at 812 kfps, so the MAC must tail-drop.
        config = replace(RMW_166MHZ, rx_buffer_bytes=3072)
        result = run(config)
        assert result.rx_dropped > 0
        assert result.rx_fps < 0.9 * EthernetTiming().frames_per_second(1518)

    def test_tiny_tx_buffer_limits_send(self):
        config = replace(RMW_166MHZ, tx_buffer_bytes=4096)  # ~2 frames
        result = run(config)
        assert result.tx_fps < 0.7 * EthernetTiming().frames_per_second(1518)
        # Receive is unaffected by the transmit buffer.
        assert result.rx_fps > 0.9 * EthernetTiming().frames_per_second(1518)

    def test_small_bd_staging_still_functions(self):
        config = replace(RMW_166MHZ, tx_bd_buffer_frames=16)
        result = run(config)
        assert result.tx_frames > 0

    def test_huge_dma_latency_grows_inflight_not_throughput(self):
        slow_host = replace(RMW_166MHZ, dma_latency_s=20e-6)
        fast_host = RMW_166MHZ
        slow = run(slow_host)
        fast = run(fast_host)
        # Latency is hidden by outstanding frames: throughput holds to
        # within a few percent despite ~17x the host latency.
        assert slow.total_fps > 0.9 * fast.total_fps

    def test_constrained_recv_ring_survives(self):
        config = replace(RMW_166MHZ, recv_ring_capacity=32, recv_bd_low_water=16)
        result = run(config)
        assert result.rx_frames > 0


class TestEndToEndChains:
    def test_every_committed_rx_frame_was_offered(self):
        result = run(RMW_166MHZ)
        assert result.rx_frames <= result.rx_offered + 64  # warmup carryover

    def test_tx_wire_rate_never_exceeds_link(self):
        result = run(RMW_166MHZ)
        limit = EthernetTiming().frames_per_second(1518)
        assert result.tx_fps <= limit * 1.01

    def test_sdram_traffic_scales_with_frames(self):
        result = run(RMW_166MHZ)
        frames = result.tx_frames + result.rx_frames
        # Each frame crosses the SDRAM twice (~2 x 1518 B useful).
        expected = frames * 2 * 1518
        assert result.sdram_useful_bytes == pytest.approx(expected, rel=0.1)

    def test_event_queue_stays_bounded(self):
        result = run(RMW_166MHZ)
        assert result.event_queue_high_water < 256

    def test_offered_fraction_sweep_monotonic(self):
        rates = []
        for offered in (0.25, 0.5, 0.75, 1.0):
            rates.append(run(RMW_166MHZ, offered=offered).rx_fps)
        assert rates == sorted(rates)

    def test_outstanding_frames_in_the_hundreds(self):
        """Section 7: the NIC keeps 'several hundred outstanding frames
        in various stages of processing' to hide DMA latency."""
        result = run(RMW_166MHZ)
        assert 50 < result.mean_outstanding_frames < 1500

    def test_rx_commit_latency_dominated_by_dma(self):
        result = run(RMW_166MHZ)
        # Land-to-commit covers firmware dispatch + host DMA (1.2 us)
        # + completion processing: a few microseconds, not milliseconds.
        assert 1.2e-6 < result.mean_rx_commit_latency_s < 50e-6

    def test_latency_grows_with_host_latency(self):
        slow = run(replace(RMW_166MHZ, dma_latency_s=10e-6))
        fast = run(RMW_166MHZ)
        assert slow.mean_rx_commit_latency_s > fast.mean_rx_commit_latency_s

    def test_interrupt_coalescing_active(self):
        simulator = ThroughputSimulator(RMW_166MHZ, 1472)
        simulator.run(warmup_s=0.2e-3, measure_s=0.4e-3)
        stats = simulator.driver.stats
        assert stats.interrupts > 0
        assert stats.completions_per_interrupt > 1.5


class TestConfigSurface:
    def test_with_helpers(self):
        base = NicConfig()
        assert base.with_cores(8).cores == 8
        assert base.with_frequency(mhz(200)).core_frequency_hz == mhz(200)
        assert base.with_ordering(OrderingMode.SOFTWARE).ordering_mode is (
            OrderingMode.SOFTWARE
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            NicConfig(cores=0)
        with pytest.raises(ValueError):
            NicConfig(scratchpad_banks=0)
        with pytest.raises(ValueError):
            NicConfig(send_batch_max=0)
        with pytest.raises(ValueError):
            NicConfig(ordering_ring=100)

    @pytest.mark.parametrize("field, value", [
        ("core_frequency_hz", 0.0),
        ("core_frequency_hz", -mhz(166)),
        ("core_frequency_hz", float("inf")),
        ("core_frequency_hz", float("nan")),
        ("sdram_frequency_hz", 0.0),
        ("sdram_frequency_hz", float("inf")),
        ("sdram_frequency_hz", float("nan")),
        ("dma_latency_s", -1e-6),
        ("dma_latency_s", float("inf")),
        ("dma_latency_s", float("nan")),
    ])
    def test_clocks_and_dma_latency_checked_at_construction(self, field, value):
        # Each used to build and then fail (or run on a 1 ps clock) only
        # once a simulator was made from it.
        with pytest.raises(ValueError, match=field):
            NicConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("interrupt_coalesce_frames", 0),
        ("interrupt_coalesce_frames", -1),
        ("ordering_ring", 0),
        ("ordering_ring", -32),
        ("send_ring_capacity", 1),
        ("recv_ring_capacity", 0),
    ])
    def test_host_rings_and_ordering_checked_at_construction(self, field, value):
        # Each used to build: a zero coalescing window died mid-run in
        # _commit_tx's modulo, a negative one interrupted on every
        # completion, the ordering rings failed only in OrderingBoard,
        # a one-slot send ring fit no two-descriptor frame, and an
        # empty receive ring failed only in DescriptorRing.
        with pytest.raises(ValueError, match=field):
            NicConfig(**{field: value})

    def test_zero_dma_latency_allowed(self):
        assert NicConfig(dma_latency_s=0.0).dma_latency_ps == 0

    def test_label(self):
        assert "6x166MHz" in RMW_166MHZ.label
        assert RMW_166MHZ.label.endswith("rmw")

    def test_run_window_validation(self):
        simulator = ThroughputSimulator(RMW_166MHZ, 1472)
        with pytest.raises(ValueError):
            simulator.run(warmup_s=-1, measure_s=1e-3)
        with pytest.raises(ValueError):
            ThroughputSimulator(RMW_166MHZ, 1472).run(warmup_s=0, measure_s=0)

    @pytest.mark.parametrize("warmup_s, measure_s", [
        (0.0, float("nan")),
        (float("nan"), 1e-3),
        (0.0, float("inf")),
        (float("inf"), 1e-3),
    ])
    def test_run_window_must_be_finite(self, warmup_s, measure_s):
        with pytest.raises(ValueError, match="measure window"):
            ThroughputSimulator(RMW_166MHZ, 1472).run(warmup_s, measure_s)


class TestChecksumService:
    def test_modes_validated(self):
        with pytest.raises(ValueError):
            NicConfig(checksum_offload="magic")

    def test_assist_mode_free(self):
        none = run(RMW_166MHZ)
        assist = run(replace(RMW_166MHZ, checksum_offload="assist"))
        assert assist.line_rate_fraction() == pytest.approx(
            none.line_rate_fraction(), abs=0.03
        )

    def test_firmware_mode_collapses_throughput(self):
        firmware = run(replace(RMW_166MHZ, checksum_offload="firmware"))
        assert firmware.line_rate_fraction() < 0.4
        assert firmware.core_utilization > 0.95


class TestBurstyArrivals:
    def test_same_average_load(self):
        smooth = run(RMW_166MHZ, offered=0.5)
        bursty = ThroughputSimulator(
            RMW_166MHZ, 1472, offered_fraction=0.5, rx_burst_frames=8
        ).run(warmup_s=0.2e-3, measure_s=0.4e-3)
        assert bursty.rx_fps == pytest.approx(smooth.rx_fps, rel=0.1)

    def test_bursts_overflow_small_buffers(self):
        """On/off traffic at a modest average rate drops frames a
        smooth stream of the same rate would not — the buffer-sizing
        story behind the paper's generous SDRAM staging."""
        config = replace(RMW_166MHZ, rx_buffer_bytes=4096)
        smooth = ThroughputSimulator(config, 100, offered_fraction=0.12).run(
            warmup_s=0.3e-3, measure_s=0.5e-3
        )
        bursty = ThroughputSimulator(
            config, 100, offered_fraction=0.12, rx_burst_frames=64
        ).run(warmup_s=0.3e-3, measure_s=0.5e-3)
        assert bursty.rx_dropped > 10 * max(1, smooth.rx_dropped)
        assert bursty.rx_fps < smooth.rx_fps

    def test_burst_size_validated(self):
        with pytest.raises(ValueError):
            ThroughputSimulator(RMW_166MHZ, 1472, rx_burst_frames=0)

    @pytest.mark.parametrize("offered", [0.0, -1.0, 1.5, float("nan")])
    def test_offered_fraction_validated(self, offered):
        # A negative load used to build negative receive gaps, and the
        # first tail drop then never returned: reject it when built.
        with pytest.raises(ValueError, match="offered_fraction"):
            ThroughputSimulator(RMW_166MHZ, 1472, offered_fraction=offered)
