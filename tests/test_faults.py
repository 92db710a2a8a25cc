"""Fault-injection & recovery layer: determinism, recovery, accounting.

Covers the tentpole guarantees:

* disabled plans leave the simulation byte-identical to a fault-free
  build (``fault_plan=None`` vs an all-zero plan);
* a seeded :class:`FaultPlan` reproduces identical fault decisions and
  counters across runs;
* injected RX FCS drops punch sequence holes that the ordering commit
  pointer advances *past* instead of wedging on;
* SDRAM retry/backoff/exhaustion, PCI stalls and event-queue overflow
  degrade throughput without deadlocking the pipeline;
* the experiment engine's cache keys ignore absent plans (backward
  compatible) and hash present ones.
"""

import pytest

from repro.exp import RunSpec, Sweep, WorkloadSpec
from repro.exp.sweep import FAULT_AXES
from repro.faults import FAULT_COUNTER_KEYS, FaultInjector, FaultPlan
from repro.firmware.ordering import OrderingMode
from repro.nic import NicConfig, ThroughputSimulator

WARMUP = 0.2e-3
MEASURE = 0.4e-3


def run_sim(plan=None, config=None, payload=1472, measure=MEASURE):
    sim = ThroughputSimulator(
        config if config is not None else NicConfig(), payload, fault_plan=plan
    )
    result = sim.run(warmup_s=WARMUP, measure_s=measure)
    return sim, result


# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_default_plan_is_disabled(self):
        assert not FaultPlan().enabled

    @pytest.mark.parametrize("field,value", [
        ("rx_fcs_rate", 0.1),
        ("sdram_error_rate", 0.1),
        ("pci_stall_rate", 0.1),
        ("event_queue_depth", 8),
    ])
    def test_any_axis_enables(self, field, value):
        assert FaultPlan(**{field: value}).enabled

    @pytest.mark.parametrize("field,value", [
        ("rx_fcs_rate", -0.1),
        ("rx_fcs_rate", 1.5),
        ("sdram_error_rate", 2.0),
        ("pci_stall_rate", -1.0),
        ("sdram_max_retries", -1),
        ("sdram_retry_backoff_ps", -5),
        ("pci_stall_ps", -1),
        ("event_queue_depth", -1),
        ("queue_retry_ps", 0),
        ("queue_drop_after", 0),
    ])
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            FaultPlan(**{field: value})

    def test_uniform_is_deterministic_and_keyed(self):
        plan = FaultPlan(seed=7)
        assert plan.uniform("rx_fcs", 3) == plan.uniform("rx_fcs", 3)
        assert plan.uniform("rx_fcs", 3) != plan.uniform("rx_fcs", 4)
        assert plan.uniform("rx_fcs", 3) != plan.uniform("pci", 3)
        assert plan.uniform("rx_fcs", 3) != FaultPlan(seed=8).uniform("rx_fcs", 3)

    def test_uniform_range(self):
        plan = FaultPlan()
        draws = [plan.uniform("x", i) for i in range(256)]
        assert all(0.0 <= d < 1.0 for d in draws)
        # A keyed hash should cover the unit interval, not cluster.
        assert min(draws) < 0.05 and max(draws) > 0.95

    def test_decide_edge_rates(self):
        plan = FaultPlan()
        assert not any(plan.decide(0.0, "a", i) for i in range(32))
        assert all(plan.decide(1.0, "a", i) for i in range(32))

    def test_plan_is_hashable_and_frozen(self):
        plan = FaultPlan(rx_fcs_rate=0.5)
        assert hash(plan) == hash(FaultPlan(rx_fcs_rate=0.5))
        with pytest.raises(AttributeError):
            plan.seed = 1


# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_counter_keys_fixed_order(self):
        injector = FaultInjector(FaultPlan())
        assert tuple(injector.counters.keys()) == FAULT_COUNTER_KEYS
        assert tuple(injector.snapshot().keys()) == FAULT_COUNTER_KEYS

    def test_decisions_depend_on_call_order_not_time(self):
        a = FaultInjector(FaultPlan(seed=3, rx_fcs_rate=0.3))
        b = FaultInjector(FaultPlan(seed=3, rx_fcs_rate=0.3))
        outcomes_a = [a.rx_fcs_corrupt(seq, now_ps=seq * 100) for seq in range(64)]
        outcomes_b = [b.rx_fcs_corrupt(seq, now_ps=0) for seq in range(64)]
        assert outcomes_a == outcomes_b
        assert a.snapshot() == b.snapshot()

    def test_sdram_plan_zero_rate_is_clean(self):
        injector = FaultInjector(FaultPlan())
        assert injector.sdram_plan("dma-read", 0) == (0, False)
        assert injector.counters["sdram_faulty_transfers"] == 0

    def test_sdram_plan_certain_failure_exhausts_budget(self):
        plan = FaultPlan(sdram_error_rate=1.0, sdram_max_retries=2)
        injector = FaultInjector(plan)
        failures, exhausted = injector.sdram_plan("dma-read", 0)
        assert exhausted
        assert failures == plan.sdram_max_retries + 1
        assert injector.counters["sdram_retries"] == plan.sdram_max_retries
        assert injector.counters["sdram_exhausted"] == 1

    def test_sdram_backoff_is_exponential_and_capped(self):
        plan = FaultPlan(sdram_error_rate=0.5, sdram_retry_backoff_ps=100)
        injector = FaultInjector(plan)
        assert injector.sdram_backoff_ps(0) == 100
        assert injector.sdram_backoff_ps(1) == 200
        assert injector.sdram_backoff_ps(3) == 800
        assert injector.sdram_backoff_ps(40) == 100 << 16  # shift clamp
        assert injector.counters["sdram_backoff_ps"] == 100 + 200 + 800 + (100 << 16)

    def test_pci_stall_certain(self):
        injector = FaultInjector(FaultPlan(pci_stall_rate=1.0, pci_stall_ps=777))
        assert injector.pci_stall(0) == 777
        assert injector.counters["pci_stalls"] == 1
        assert injector.counters["pci_stall_ps"] == 777


# ----------------------------------------------------------------------
class TestDisabledByteIdentity:
    def test_all_zero_plan_matches_no_plan(self):
        _, baseline = run_sim(plan=None)
        sim, gated = run_sim(plan=FaultPlan())
        assert sim.faults is None  # disabled plan never attaches the layer
        assert gated.to_dict() == baseline.to_dict()

    def test_no_plan_result_has_no_fault_section(self):
        _, result = run_sim(plan=None)
        assert result.rx_holes == 0
        assert result.fault_counters == {}
        assert "faults" not in result.to_dict()


class TestSeededDeterminism:
    PLAN = FaultPlan(
        seed=11, rx_fcs_rate=0.01, sdram_error_rate=0.002,
        pci_stall_rate=0.001, event_queue_depth=256,
    )

    def test_identical_runs_identical_everything(self):
        sim_a, result_a = run_sim(plan=self.PLAN)
        sim_b, result_b = run_sim(plan=self.PLAN)
        assert sim_a.faults.snapshot() == sim_b.faults.snapshot()
        assert sim_a.faults.dropped_rx_seqs == sim_b.faults.dropped_rx_seqs
        assert result_a.to_dict() == result_b.to_dict()

    def test_different_seed_different_faults(self):
        sim_a, _ = run_sim(plan=self.PLAN)
        sim_b, _ = run_sim(plan=FaultPlan(
            seed=12, rx_fcs_rate=0.01, sdram_error_rate=0.002,
            pci_stall_rate=0.001, event_queue_depth=256,
        ))
        assert sim_a.faults.dropped_rx_seqs != sim_b.faults.dropped_rx_seqs


# ----------------------------------------------------------------------
class TestRxHoleRecovery:
    @pytest.mark.parametrize(
        "mode", [OrderingMode.RMW, OrderingMode.SOFTWARE]
    )
    def test_commit_pointer_advances_past_holes(self, mode):
        """The acceptance bar: an injected RX drop must not wedge the
        ordering commit pointer at the hole."""
        config = NicConfig(ordering_mode=mode)
        sim, result = run_sim(plan=FaultPlan(rx_fcs_rate=0.03), config=config)
        drops = sim.faults.dropped_rx_seqs
        assert drops, "fault rate should have produced drops"
        # The pointer passed the first hole (and any drop safely behind
        # the claim frontier); only drops *at* the in-flight frontier may
        # still be pending when the run snapshot is taken.
        assert sim.board_rx.commit_seq > drops[0]
        behind_frontier = [s for s in drops if s < sim.board_rx.commit_seq]
        assert behind_frontier, "some holes must have been committed past"
        holes = [seq for seq, record in sim._rx_records.items() if record.hole]
        assert all(s >= sim.board_rx.commit_seq for s in holes)
        # Bounded in-flight window: the gap never exceeded the ring.
        assert sim._rx_claim_seq - sim.board_rx.commit_seq <= config.ordering_ring
        # Holes the receive handler has not yet resequenced past.
        unclaimed = [s for s in holes if s >= sim._rx_claim_seq]
        assert sim.board_rx.skipped == sim.faults.counters["rx_fcs_drops"] - len(unclaimed)
        assert result.rx_holes > 0

    def test_goodput_excludes_holes(self):
        _, clean = run_sim(plan=None)
        sim, faulted = run_sim(plan=FaultPlan(rx_fcs_rate=0.05))
        assert faulted.rx_frames < clean.rx_frames
        assert faulted.udp_throughput_gbps < clean.udp_throughput_gbps
        report = faulted.fault_report()
        assert report["rx_delivered"] == faulted.rx_frames
        assert report["rx_holes"] == faulted.rx_holes
        # Holes committed during the measure window can include frames
        # dropped during warmup, so compare against the run total.
        assert sim.faults.counters["rx_fcs_drops"] >= faulted.rx_holes

    def test_metrics_snapshot_exposes_fault_counters(self):
        sim, _ = run_sim(plan=FaultPlan(rx_fcs_rate=0.05))
        values = sim.metrics_snapshot()
        assert values["counter.fault.rx_fcs_drops"] > 0
        assert values["counter.rx_hole_frames"] > 0


# ----------------------------------------------------------------------
class TestSdramFaults:
    def test_retries_consume_bandwidth_not_frames(self):
        sim, result = run_sim(plan=FaultPlan(sdram_error_rate=0.02))
        counters = sim.faults.counters
        assert counters["sdram_faulty_transfers"] > 0
        assert counters["sdram_retries"] >= counters["sdram_faulty_transfers"]
        assert counters["sdram_backoff_ps"] > 0
        assert sim.sdram.wasted_retry_bytes > 0
        assert result.udp_throughput_gbps > 0

    def test_exhaustion_completes_instead_of_deadlocking(self):
        plan = FaultPlan(sdram_error_rate=1.0, sdram_max_retries=1,
                         sdram_retry_backoff_ps=50_000)
        sim, result = run_sim(plan=plan, measure=0.2e-3)
        assert sim.faults.counters["sdram_exhausted"] > 0
        exhausted = (sim.dma_read.exhausted_transfers
                     + sim.dma_write.exhausted_transfers)
        assert exhausted > 0
        # Liveness: frames still flow end to end despite every burst
        # failing its whole retry budget.
        assert result.tx_frames > 0 and result.rx_frames > 0


class TestPciStalls:
    def test_stalls_add_latency(self):
        _, clean = run_sim(plan=None)
        sim, stalled = run_sim(
            plan=FaultPlan(pci_stall_rate=1.0, pci_stall_ps=3_000_000)
        )
        assert sim.faults.counters["pci_stalls"] > 0
        assert (stalled.mean_rx_commit_latency_s
                > clean.mean_rx_commit_latency_s)

    def test_unit_host_phase_stall(self):
        from repro.assists.pci import PciInterface

        pci = PciInterface(dma_latency_ps=1000)
        baseline = pci.host_phase(0, 64)
        pci.injector = FaultInjector(FaultPlan(pci_stall_rate=1.0,
                                               pci_stall_ps=500))
        assert pci.host_phase(0, 64) == baseline + 500


class TestQueueOverflow:
    def test_backpressure_under_tiny_queue(self):
        plan = FaultPlan(event_queue_depth=3, queue_retry_ps=500_000)
        sim, result = run_sim(plan=plan)
        assert sim.queue.max_depth == 3
        counters = sim.faults.counters
        assert counters["queue_overflows"] > 0
        assert counters["queue_deferrals"] >= counters["queue_overflows"]
        # Backpressure, not collapse: the pipeline still moves frames.
        assert result.tx_frames > 0 and result.rx_frames > 0

    def test_generous_queue_never_overflows(self):
        sim, _ = run_sim(plan=FaultPlan(event_queue_depth=4096))
        assert sim.faults.counters["queue_overflows"] == 0
        assert sim.faults.counters["queue_drops"] == 0


# ----------------------------------------------------------------------
class TestLockContentionAccounting:
    """Bugfix: `contended` used to count FIFO reservations that never
    actually blocked the calling handler (re-acquires later in its own
    timeline)."""

    def _sim(self):
        return ThroughputSimulator(NicConfig(ordering_mode=OrderingMode.SOFTWARE))

    def test_uncontended_acquire_counts_nothing(self):
        sim = self._sim()
        sim._acquire_lock("txq", 0, 10.0, "send_frame")
        lock = sim.locks["txq"]
        assert lock.acquisitions == 1
        assert lock.contended == 0
        assert lock.total_wait_cycles == 0.0

    def test_self_reacquire_is_not_contention(self):
        sim = self._sim()
        sim._acquire_lock("txq", 0, 10.0, "send_frame")
        # Same handler, 20 cycles into its own timeline: the lock was
        # released at cycle 10, so the handler never actually waited.
        cycles = sim._acquire_lock("txq", 0, 10.0, "send_frame",
                                   cycles_so_far=20.0)
        lock = sim.locks["txq"]
        assert lock.contended == 0
        assert lock.total_wait_cycles == 0.0
        # Timing is untouched by the accounting fix: the documented
        # reservation-from-dispatch-time spin charge still applies.
        assert cycles > 0
        sim._charges.fold()
        assert sim._charges.sums.spin_ps["send_frame"] > 0

    def test_genuine_blocking_is_counted(self):
        sim = self._sim()
        sim._acquire_lock("txq", 0, 10.0, "send_frame")
        sim._acquire_lock("txq", 0, 10.0, "send_frame")  # other core, same instant
        lock = sim.locks["txq"]
        assert lock.contended == 1
        assert lock.total_wait_cycles == pytest.approx(10.0)


# ----------------------------------------------------------------------
class TestExperimentEngineIntegration:
    def test_key_inputs_backward_compatible_without_plan(self):
        spec = RunSpec(config=NicConfig())
        assert "fault_plan" not in spec.key_inputs()

    def test_plan_changes_key(self):
        clean = RunSpec(config=NicConfig())
        faulted = RunSpec(config=NicConfig(),
                          fault_plan=FaultPlan(rx_fcs_rate=0.01))
        reseeded = RunSpec(config=NicConfig(),
                           fault_plan=FaultPlan(seed=1, rx_fcs_rate=0.01))
        assert clean.key != faulted.key
        assert faulted.key != reseeded.key
        assert faulted.key == RunSpec(
            config=NicConfig(), fault_plan=FaultPlan(rx_fcs_rate=0.01)
        ).key

    def test_fault_grid_shapes(self):
        sweep = Sweep.fault_grid("curve", "rx_fcs_rate", [0.0, 0.01, 0.05])
        assert len(sweep) == 3
        # Rate-0 point degenerates to the fault-free baseline (shared
        # cache entry, identical simulation path).
        assert sweep.specs[0].fault_plan is None
        assert sweep.specs[1].fault_plan.rx_fcs_rate == 0.01
        assert sweep.specs[2].label == "rx_fcs_rate=0.05"

    def test_fault_grid_rejects_unknown_axis(self):
        with pytest.raises(ValueError):
            Sweep.fault_grid("bad", "cosmic_ray_rate", [0.1])
        assert "rx_fcs_rate" in FAULT_AXES

    def test_runner_executes_faulted_spec(self):
        from repro.exp import run_spec

        spec = RunSpec(
            config=NicConfig(),
            workload=WorkloadSpec(),
            warmup_s=WARMUP,
            measure_s=0.2e-3,
            fault_plan=FaultPlan(rx_fcs_rate=0.05),
        )
        result = run_spec(spec, use_cache=False)
        assert result.fault_counters["rx_fcs_drops"] > 0

    def test_rows_gain_fault_columns_only_when_faulted(self):
        from repro.exp import SweepRunner

        runner = SweepRunner(jobs=1, use_cache=False, cache_dir="")
        clean = Sweep("clean", [RunSpec(config=NicConfig(), warmup_s=WARMUP,
                                        measure_s=0.2e-3)])
        rows = Sweep.rows(clean.run(runner))
        assert "rx_holes" not in rows[0]

        faulted = Sweep.fault_grid("f", "rx_fcs_rate", [0.05],
                                   warmup_s=WARMUP, measure_s=0.2e-3)
        rows = Sweep.rows(faulted.run(runner))
        assert rows[0]["rx_holes"] > 0
        assert rows[0]["fault_seed"] == 0
