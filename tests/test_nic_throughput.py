"""Full-system throughput simulator: the paper's headline behaviours.

These tests use short simulation windows (hundreds of microseconds), so
thresholds carry slack relative to the benchmark runs.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cpu.costmodel import OpProfile
from repro.firmware.ordering import OrderingMode
from repro.net.ethernet import EthernetTiming
from repro.nic import NicConfig, RMW_166MHZ, SOFTWARE_200MHZ, ThroughputSimulator
from repro.units import mhz

WARMUP = 0.3e-3
MEASURE = 0.5e-3


def run(config, payload=1472, offered=1.0):
    sim = ThroughputSimulator(config, payload, offered_fraction=offered)
    return sim.run(warmup_s=WARMUP, measure_s=MEASURE)


@pytest.fixture(scope="module")
def rmw_result():
    return run(RMW_166MHZ)


@pytest.fixture(scope="module")
def software_result():
    return run(SOFTWARE_200MHZ)


class TestHeadlineConfigs:
    def test_rmw_166_reaches_line_rate(self, rmw_result):
        assert rmw_result.line_rate_fraction() > 0.97

    def test_software_200_reaches_line_rate(self, software_result):
        assert software_result.line_rate_fraction() > 0.97

    def test_software_166_falls_short(self):
        config = NicConfig(
            cores=6, core_frequency_hz=mhz(166), ordering_mode=OrderingMode.SOFTWARE
        )
        result = run(config)
        assert result.line_rate_fraction() < 0.99

    def test_duplex_throughput_near_19_gbps(self, rmw_result):
        assert rmw_result.udp_throughput_gbps > 18.5

    def test_both_directions_carried(self, rmw_result):
        per_direction = EthernetTiming().frames_per_second(1518)
        assert rmw_result.tx_fps > 0.95 * per_direction
        assert rmw_result.rx_fps > 0.95 * per_direction


class TestScaling:
    def test_throughput_increases_with_cores(self):
        fractions = []
        for cores in (1, 2, 4):
            config = NicConfig(
                cores=cores, core_frequency_hz=mhz(166),
                ordering_mode=OrderingMode.RMW,
            )
            fractions.append(run(config).line_rate_fraction())
        assert fractions[0] < fractions[1] < fractions[2] + 0.02

    def test_one_core_is_processing_bound(self):
        config = NicConfig(
            cores=1, core_frequency_hz=mhz(200), ordering_mode=OrderingMode.RMW
        )
        result = run(config)
        assert result.line_rate_fraction() < 0.5
        assert result.core_utilization > 0.95

    def test_throughput_increases_with_frequency(self):
        slow = run(NicConfig(cores=2, core_frequency_hz=mhz(100),
                             ordering_mode=OrderingMode.RMW))
        fast = run(NicConfig(cores=2, core_frequency_hz=mhz(200),
                             ordering_mode=OrderingMode.RMW))
        assert fast.line_rate_fraction() > slow.line_rate_fraction()

    def test_excess_capacity_idles_cores(self):
        config = NicConfig(
            cores=8, core_frequency_hz=mhz(200), ordering_mode=OrderingMode.RMW
        )
        result = run(config)
        assert result.line_rate_fraction() > 0.97
        assert result.core_utilization < 0.9


class TestSmallFrames:
    def test_processing_bound_at_small_frames(self):
        result = run(RMW_166MHZ, payload=100)
        limit = 2 * EthernetTiming().frames_per_second(146)
        assert result.total_fps < 0.5 * limit

    def test_saturation_rate_order_of_2m_fps(self):
        result = run(RMW_166MHZ, payload=100)
        assert 1.2e6 < result.total_fps < 3.0e6

    def test_drops_accounted_when_overloaded(self):
        result = run(RMW_166MHZ, payload=100)
        assert result.rx_dropped > 0
        accepted = result.rx_offered - result.rx_dropped
        # accepted arrivals either commit or stay in flight
        assert accepted >= result.rx_frames - 64


class TestConservation:
    def test_no_frame_loss_on_tx_path(self, rmw_result):
        # Everything committed to the MAC eventually leaves; tx wire
        # count can lag claims only by the in-flight population.
        assert rmw_result.tx_frames > 0

    def test_function_stats_cover_all_functions(self, rmw_result):
        from repro.nic.throughput import FUNCTION_NAMES
        for name in FUNCTION_NAMES:
            assert name in rmw_result.function_stats

    def test_frames_counted_once_per_function(self, rmw_result):
        send = rmw_result.function_stats["send_frame"]
        assert send.frames == pytest.approx(rmw_result.tx_frames, rel=0.15)

    def test_ipc_breakdown_sums_to_one(self, rmw_result):
        assert sum(rmw_result.ipc_breakdown().values()) == pytest.approx(1.0, abs=0.01)

    def test_busy_never_exceeds_capacity(self, rmw_result):
        assert rmw_result.busy_cycles <= rmw_result.total_core_cycles * 1.02


class TestBandwidthAccounting:
    def test_frame_memory_consumption_near_40_gbps(self, rmw_result):
        report = rmw_result.bandwidth_report()
        assert 36 < report["frame_memory_consumed_gbps"] < 44

    def test_misalignment_overhead_positive_but_small(self, rmw_result):
        report = rmw_result.bandwidth_report()
        overhead = (
            report["frame_memory_consumed_gbps"] - report["frame_memory_useful_gbps"]
        )
        assert 0 < overhead < 1.5

    def test_scratchpad_consumption_under_peak(self, rmw_result):
        report = rmw_result.bandwidth_report()
        assert report["scratchpad_consumed_gbps"] < report["scratchpad_peak_gbps"]

    def test_imem_nearly_idle(self, rmw_result):
        report = rmw_result.bandwidth_report()
        assert report["imem_consumed_gbps"] < 0.05 * report["imem_peak_gbps"]


class TestRmwVsSoftware:
    def test_ordering_cheaper_with_rmw(self, rmw_result, software_result):
        rmw = rmw_result.function_stats["send_dispatch_ordering"]
        software = software_result.function_stats["send_dispatch_ordering"]
        rmw_per_frame = rmw.instructions / max(1, rmw_result.tx_frames)
        sw_per_frame = software.instructions / max(1, software_result.tx_frames)
        assert rmw_per_frame < 0.7 * sw_per_frame

    def test_send_cycles_reduced_more_than_recv(self, rmw_result, software_result):
        def totals(result, functions):
            return sum(result.function_stats[f].cycles for f in functions)

        send_fns = ("fetch_send_bd", "send_frame", "send_dispatch_ordering", "send_locking")
        recv_fns = ("fetch_recv_bd", "recv_frame", "recv_dispatch_ordering", "recv_locking")
        sw_send = totals(software_result, send_fns) / software_result.tx_frames
        rmw_send = totals(rmw_result, send_fns) / rmw_result.tx_frames
        sw_recv = totals(software_result, recv_fns) / software_result.rx_frames
        rmw_recv = totals(rmw_result, recv_fns) / rmw_result.rx_frames
        send_reduction = 1 - rmw_send / sw_send
        recv_reduction = 1 - rmw_recv / sw_recv
        assert send_reduction > recv_reduction
        assert send_reduction > 0.1

    def test_remaining_lock_contention_increases_with_rmw(
        self, rmw_result, software_result
    ):
        """Paper: 'contention among the remaining firmware locks
        increases', particularly in the receive path."""
        rmw = rmw_result.function_stats["recv_locking"]
        software = software_result.function_stats["recv_locking"]
        rmw_per_frame = rmw.instructions / max(1, rmw_result.rx_frames)
        sw_per_frame = software.instructions / max(1, software_result.rx_frames)
        assert rmw_per_frame > sw_per_frame * 0.95


class TestOfferedLoadControl:
    def test_half_load_halves_rx(self):
        result = run(RMW_166MHZ, offered=0.5)
        per_direction = EthernetTiming().frames_per_second(1518)
        assert result.rx_fps == pytest.approx(0.5 * per_direction, rel=0.1)


class TestTaskLevelBaseline:
    def test_event_register_firmware_scales_worse(self):
        frame = NicConfig(cores=6, core_frequency_hz=mhz(133),
                          ordering_mode=OrderingMode.RMW)
        task = NicConfig(cores=6, core_frequency_hz=mhz(133),
                         ordering_mode=OrderingMode.RMW, task_level_firmware=True)
        frame_result = run(frame)
        task_result = run(task)
        assert task_result.total_fps <= frame_result.total_fps * 1.02


class TestTaskLevelDispatchInternals:
    """Unit-level checks of the event-register dispatch restriction."""

    def _sim(self):
        from dataclasses import replace
        config = replace(RMW_166MHZ, task_level_firmware=True)
        return ThroughputSimulator(config, 1472)

    def test_same_kind_never_runs_twice_concurrently(self):
        from repro.firmware.events import EventKind
        sim = self._sim()
        concurrent = {kind: 0 for kind in EventKind}
        peak = {kind: 0 for kind in EventKind}
        original_run = sim._run_handler
        original_done = sim._handler_done

        def spy_run(event):
            concurrent[event.kind] += 1
            peak[event.kind] = max(peak[event.kind], concurrent[event.kind])
            return original_run(event)

        def spy_done(kind, core_id):
            concurrent[kind] -= 1
            return original_done(kind, core_id)

        sim._run_handler = spy_run
        sim._handler_done = spy_done
        sim.run(warmup_s=0.05e-3, measure_s=0.1e-3)
        assert all(count <= 1 for count in peak.values())

    def test_frame_level_allows_concurrency(self):
        from repro.firmware.events import EventKind
        sim = ThroughputSimulator(RMW_166MHZ, 1472)
        concurrent = {kind: 0 for kind in EventKind}
        peak = {kind: 0 for kind in EventKind}
        original_run = sim._run_handler
        original_done = sim._handler_done

        def spy_run(event):
            concurrent[event.kind] += 1
            peak[event.kind] = max(peak[event.kind], concurrent[event.kind])
            return original_run(event)

        def spy_done(kind, core_id):
            concurrent[kind] -= 1
            return original_done(kind, core_id)

        sim._run_handler = spy_run
        sim._handler_done = spy_done
        sim.run(warmup_s=0.1e-3, measure_s=0.3e-3)
        assert max(peak.values()) >= 2  # some handler type ran in parallel


def _unpinned_run(name, warmup_s=0.1e-3, measure_s=0.4e-3):
    """One standalone configuration the golden corpus does not pin,
    over ``run(0.1e-3, 0.4e-3)`` unless another window is given."""
    from dataclasses import replace

    from repro.faults import FaultPlan
    from repro.host.rss import RssSpec
    from repro.net.workload import ImixSize

    software = OrderingMode.SOFTWARE
    small = NicConfig(cores=2, core_frequency_hz=mhz(133))
    config, payload, kwargs = {
        "checksum-assist": (replace(small, checksum_offload="assist"), 1472, {}),
        "checksum-firmware": (replace(small, checksum_offload="firmware"), 1472, {}),
        "checksum-firmware-software": (
            replace(small, checksum_offload="firmware", ordering_mode=software), 1472, {}
        ),
        "task-level": (NicConfig(task_level_firmware=True), 1472, {}),
        "task-level-software": (
            NicConfig(task_level_firmware=True, ordering_mode=software), 1472, {}
        ),
        "software-faults-rss": (replace(small, ordering_mode=software), 1472, dict(
            fault_plan=FaultPlan(seed=3, rx_fcs_rate=0.02, sdram_error_rate=0.01,
                                 pci_stall_rate=0.01, pci_stall_ps=500000),
            rss=RssSpec(rings=4, hash_seed=5),
        )),
        "imix-bursty-1core-software": (
            replace(small, cores=1, ordering_mode=software), 1472,
            dict(size_model=ImixSize(), offered_fraction=0.8, rx_burst_frames=8),
        ),
        "18B-6x200MHz": (NicConfig(core_frequency_hz=mhz(200)), 18, {}),
    }[name]
    simulator = ThroughputSimulator(config, payload, **kwargs)
    return simulator, simulator.run(warmup_s=warmup_s, measure_s=measure_s)


class TestChargeTable:
    @pytest.mark.parametrize("name", [
        "checksum-assist",
        "checksum-firmware",
        "checksum-firmware-software",
        "task-level",
        "task-level-software",
        "software-faults-rss",
        "imix-bursty-1core-software",
        "18B-6x200MHz",
    ])
    def test_matches_recomputing_every_charge(self, name, monkeypatch):
        """Differential: the same run with every charge recomputed
        through ``cost()`` at the current wait and added to the
        statistics at once, as charges were made before the table, must
        agree bit for bit."""
        _, built = _unpinned_run(name)
        charge = ThroughputSimulator._charge

        def recompute(simulator, fn_name, profile, factor=None, frames=0, transient=False):
            if factor is not None:
                profile = profile.scaled(factor)
            return charge(simulator, fn_name, profile, frames=frames, transient=True)

        monkeypatch.setattr(ThroughputSimulator, "_charge", recompute)
        simulator, reference = _unpinned_run(name)
        assert len(simulator._charges) == 0  # nothing was kept
        assert built.to_dict() == reference.to_dict()
        assert vars(built.cost_totals) == vars(reference.cost_totals)
        assert {fn: vars(stats) for fn, stats in built.function_stats.items()} == {
            fn: vars(stats) for fn, stats in reference.function_stats.items()
        }

    def test_transient_charge_leaves_the_table_unchanged(self):
        simulator, _ = _unpinned_run("checksum-assist")
        firmware = simulator.config.firmware
        simulator._charge("send_locking", firmware.lock_acquire_release)
        size = len(simulator._charges)
        assert size > 0
        spin = firmware.spin_cost(12.5)
        assert simulator._charge("send_locking", spin, transient=True) > 0
        assert len(simulator._charges) == size

    def test_table_wait_is_the_reported_wait(self):
        simulator, result = _unpinned_run("task-level")
        assert result.conflict_wait == simulator._charges.wait
        assert simulator.metrics_snapshot()["gauge.conflict_wait_cycles"] == (
            simulator._charges.wait
        )


# ----------------------------------------------------------------------
# Exact statistics: integer sums, counted per entry and folded
# ----------------------------------------------------------------------
def _charge_pool():
    """Every kind of profile the handlers charge: ideal per-frame
    profiles, the firmware's overhead profiles and ordering records."""
    import dataclasses

    from repro.firmware import ordering
    from repro.firmware.profiles import DEFAULT_FIRMWARE_PROFILES, IDEAL_PROFILES

    firmware = DEFAULT_FIRMWARE_PROFILES
    profiles = [profile.per_frame for profile in IDEAL_PROFILES.values()]
    profiles += [getattr(firmware, f.name) for f in dataclasses.fields(firmware)
                 if isinstance(getattr(firmware, f.name), OpProfile)]
    records = [ordering._SW_MARK, ordering._RMW_MARK, ordering._SW_COMMIT_BASE,
               ordering._commit_cost(ordering._RMW_COMMIT_BASE,
                                     ordering._RMW_COMMIT_PER_WORD, 3, True),
               ordering._commit_cost(ordering._SW_COMMIT_BASE,
                                     ordering._SW_COMMIT_PER_FRAME_HW, 17, True)]
    return profiles + records, len(profiles)


# Profiles first (charged with or without a batch factor), then the
# ordering records (charged as they are).
_POOL, _SCALABLE = _charge_pool()
_FUNCTIONS = ("send_frame", "recv_frame", "send_locking", "recv_dispatch_ordering")
_FACTORS = st.builds(lambda frames, share: frames * share,
                     st.integers(1, 64), st.sampled_from((1, 0.55, 1.0 - 0.55)))


@st.composite
def _charges(draw):
    charge = st.one_of(
        st.tuples(st.just("profile"), st.sampled_from(_FUNCTIONS),
                  st.integers(0, _SCALABLE - 1), st.one_of(st.none(), _FACTORS)),
        st.tuples(st.just("profile"), st.sampled_from(_FUNCTIONS),
                  st.integers(_SCALABLE, len(_POOL) - 1), st.none()),
        st.tuples(st.just("transient"), st.sampled_from(_FUNCTIONS),
                  st.floats(0.0, 500.0)),
        st.tuples(st.just("spin"), st.sampled_from(_FUNCTIONS),
                  st.integers(1, 10**7)),
    )
    charges = draw(st.lists(charge, min_size=1, max_size=40))
    # A multiset: repeat some charges, as the handlers repeat profiles.
    repeats = draw(st.lists(st.integers(0, len(charges) - 1), max_size=20))
    charges += [charges[index] for index in repeats]
    return charges, draw(st.permutations(charges))


def _charge_all(charges):
    simulator = ThroughputSimulator(NicConfig(), 1472)
    for kind, fn_name, *args in charges:
        if kind == "profile":
            simulator._charge(fn_name, _POOL[args[0]], args[1])
        elif kind == "transient":
            simulator._charge(fn_name, OpProfile(args[0], args[0] / 4, args[0] / 8),
                              transient=True)
        else:
            simulator._charges.spin(fn_name, args[0])
    simulator._charges.fold()
    return simulator._charges.sums


class TestExactStatistics:
    @settings(max_examples=100, deadline=None)
    @given(_charges())
    def test_charge_order_leaves_integer_sums_identical(self, orders):
        first, second = (_charge_all(charges) for charges in orders)
        assert first.functions == second.functions
        assert first.run == second.run
        assert first.spin_ps == second.spin_ps
        assert all(type(term) is int for sums in first.functions.values() for term in sums)

    def test_a_fold_within_an_epoch_moves_no_sum(self):
        pool = [("profile", "send_frame", 0, None), ("spin", "send_locking", 123_457),
                ("profile", "recv_frame", 5, 17 * 0.55), ("spin", "send_locking", 99_001)]
        whole = _charge_all(pool)
        simulator = ThroughputSimulator(NicConfig(), 1472)
        for kind, fn_name, *args in pool:
            if kind == "profile":
                simulator._charge(fn_name, _POOL[args[0]], args[1])
            else:
                simulator._charges.spin(fn_name, args[0])
            simulator._charges.fold()
        assert simulator._charges.sums.functions == whole.functions
        assert simulator._charges.sums.run == whole.run

    @pytest.mark.parametrize("name", [
        "checksum-assist",
        "checksum-firmware",
        "checksum-firmware-software",
        "task-level",
        "task-level-software",
        "software-faults-rss",
        "imix-bursty-1core-software",
        "18B-6x200MHz",
    ])
    def test_window_statistics_equal_exact_sums(self, name, monkeypatch):
        """Every measured-window statistic is within 1e-9 relative of the
        exact sum of its charges' float terms: no charge is dropped or
        folded twice, at an epoch or at a reader."""
        from collections import defaultdict
        from fractions import Fraction

        from repro.cpu.costmodel import ChargeTable

        log = {"measuring": False, "functions": defaultdict(lambda: [Fraction(0)] * 5),
               "run": [Fraction(0)] * 6}

        def record(fn_name, profile, table, wait_ps=0, period=1):
            terms = [Fraction(term) for term in table.model.cost(profile, table.wait)]
            loads, stores = Fraction(profile.loads), Fraction(profile.stores)
            sums = log["functions"][fn_name]
            for index, value in enumerate((Fraction(profile.instructions), loads, stores,
                                           sum(terms), Fraction(wait_ps, period))):
                sums[index] += value
            for index, value in enumerate(terms + [loads + stores]):
                log["run"][index] += value

        charge = ThroughputSimulator._charge
        spin = ChargeTable.spin
        snapshot = ThroughputSimulator._snapshot

        def logged_charge(simulator, fn_name, profile, factor=None, frames=0, transient=False):
            if log["measuring"]:
                scaled = profile if factor is None else profile.scaled(factor)
                record(fn_name, scaled, simulator._charges)
            return charge(simulator, fn_name, profile, factor, frames, transient)

        def logged_spin(table, fn_name, wait_ps):
            if log["measuring"]:
                record(fn_name, table._spin_profile(wait_ps), table, wait_ps,
                       log["simulator"].core_clock.period_ps)
            return spin(table, fn_name, wait_ps)

        def opening_snapshot(simulator):
            log["measuring"], log["simulator"] = True, simulator
            return snapshot(simulator)

        monkeypatch.setattr(ThroughputSimulator, "_charge", logged_charge)
        monkeypatch.setattr(ChargeTable, "spin", logged_spin)
        monkeypatch.setattr(ThroughputSimulator, "_snapshot", opening_snapshot)
        # Both ends of the window fall inside a 50 us contention epoch,
        # so the readers' folds find charges pending.
        _, result = _unpinned_run(name, warmup_s=0.123e-3, measure_s=0.354e-3)

        def close(got, exact):
            assert abs(Fraction(got) - exact) <= abs(exact) * Fraction(1, 10**9), (got, float(exact))

        for fn_name, stats in result.function_stats.items():
            exact = log["functions"][fn_name]
            for value, expected in zip((stats.instructions, stats.loads, stats.stores,
                                        stats.cycles, stats.lock_wait_cycles), exact):
                close(value, expected)
        totals = result.cost_totals
        for value, expected in zip((totals.execution_cycles, totals.imiss_cycles,
                                    totals.load_cycles, totals.conflict_cycles,
                                    totals.pipeline_cycles), log["run"]):
            close(value, expected)
        close(totals.instructions, log["run"][0])
        assert abs(result.scratchpad_core_accesses - log["run"][5]) < 1 + log["run"][5] / 10**9
