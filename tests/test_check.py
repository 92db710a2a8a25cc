"""Conformance subsystem: monitors, oracles, fuzz/replay, golden corpus.

Includes the mutation smoke tests: a deliberately corrupted ordering
commit scan must be caught by the runtime monitor *and* by the
software-vs-RMW differential oracle, and a disabled-monitor run must be
byte-identical to a run that never imported the subsystem (pinned by
the golden corpus digests).
"""

import dataclasses
import json
import os
import types

import pytest

from repro.check import (
    NULL_MONITOR,
    InvariantMonitor,
    InvariantViolation,
    attach_monitor,
    verify_conservation,
)
from repro.check import golden as golden_mod
from repro.check.fuzz import (
    SHRINK_TRANSFORMS,
    apply_shrinks,
    fuzz,
    replay,
    run_monitored,
    spec_for_case,
)
from repro.check.oracles import (
    run_all_oracles,
    run_fault_oracle,
    run_loopback_oracle,
    run_ordering_oracle,
)
from repro.fabric import FabricSimulator, FabricSpec, RpcFlowSpec, StreamFlowSpec
from repro.faults import FaultPlan
from repro.firmware import ordering
from repro.firmware.ordering import OrderingBoard, OrderingMode
from repro.nic import NicConfig, ThroughputSimulator
from repro.units import mhz

WARMUP_S = 0.05e-3
MEASURE_S = 0.2e-3

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "golden.json")


def _config(**overrides):
    return NicConfig(cores=2, core_frequency_hz=mhz(133), **overrides)


def _run_armed(simulator, warmup_s=WARMUP_S, measure_s=MEASURE_S):
    monitor = InvariantMonitor()
    attach_monitor(simulator, monitor)
    result = simulator.run(warmup_s=warmup_s, measure_s=measure_s)
    return result, monitor


# ----------------------------------------------------------------------
# Monitor unit behavior
# ----------------------------------------------------------------------
class TestMonitorUnit:
    def test_null_monitor_is_inert(self):
        assert NULL_MONITOR.enabled is False
        # Every hook is a no-op and the report is empty.
        NULL_MONITOR.event_scheduled(1, 0, 0)
        NULL_MONITOR.board_marked(None, 0)
        NULL_MONITOR.wire_injected(None, 0, 1)
        assert NULL_MONITOR.report() == {}

    def test_schedule_in_the_past_raises(self):
        monitor = InvariantMonitor()
        with pytest.raises(InvariantViolation, match="scheduled in the past"):
            monitor.event_scheduled(ticket=1, when_ps=5, now_ps=10)

    def test_ticket_reuse_raises(self):
        monitor = InvariantMonitor()
        monitor.event_scheduled(1, 10, 0)
        with pytest.raises(InvariantViolation, match="reused while still live"):
            monitor.event_scheduled(1, 20, 10)

    def test_fired_unknown_ticket_raises(self):
        monitor = InvariantMonitor()
        with pytest.raises(InvariantViolation, match="never live"):
            monitor.event_fired(99, 10, 0)

    def test_ticket_conservation(self):
        monitor = InvariantMonitor()
        monitor.event_scheduled(1, 10, 0)
        monitor.event_scheduled(2, 20, 0)
        monitor.event_fired(1, 10, 0)
        monitor.check_ticket_conservation()  # 2 == 1 fired + 1 live
        assert monitor.ok
        monitor.events_scheduled += 1  # corrupt the ledger
        with pytest.raises(InvariantViolation, match="not conserved"):
            monitor.check_ticket_conservation()

    def test_board_commit_of_unmarked_slot_raises(self):
        monitor = InvariantMonitor()
        board = OrderingBoard(32, OrderingMode.RMW, name="unit")
        board.monitor = monitor
        board.mark_done(0)
        board.commit()
        assert monitor.ok
        # Pretend commit advanced over a slot that was never marked.
        with pytest.raises(InvariantViolation, match="never marked or skipped"):
            monitor.board_committed(board, 1, 2, 1)

    def test_lock_fifo_discipline(self):
        monitor = InvariantMonitor()
        lock = types.SimpleNamespace(name="l0")
        monitor.lock_acquired(lock, request_ps=5, grant_ps=5, free_at_ps=10)
        with pytest.raises(InvariantViolation, match="max\\(request"):
            # Granted before the previous holder freed the lock.
            monitor.lock_acquired(lock, request_ps=3, grant_ps=3, free_at_ps=12)

    def test_core_double_dispatch_raises(self):
        monitor = InvariantMonitor()
        owner = object()
        monitor.core_claimed(owner, 0)
        with pytest.raises(InvariantViolation, match="already busy"):
            monitor.core_claimed(owner, 0)

    def test_non_strict_collects_instead_of_raising(self):
        monitor = InvariantMonitor(strict=False)
        monitor.event_fired(7, 10, 0)       # never live
        monitor.event_cancelled(8)          # not in the heap
        assert not monitor.ok
        assert len(monitor.violations) == 2
        assert "2 violation(s)" in monitor.summary()


# ----------------------------------------------------------------------
# Armed monitors on full runs, every simulator tier
# ----------------------------------------------------------------------
def _tier_simulators():
    software = dataclasses.replace(_config(), ordering_mode=OrderingMode.SOFTWARE)
    plan = FaultPlan(seed=3, rx_fcs_rate=0.01, sdram_error_rate=0.002)
    return {
        "throughput-rmw": lambda: ThroughputSimulator(_config(), 1472),
        "throughput-sw": lambda: ThroughputSimulator(software, 1472),
        "throughput-faulted": lambda: ThroughputSimulator(
            _config(), 1472, fault_plan=plan
        ),
        "fabric-direct": lambda: FabricSimulator(
            _config(), FabricSpec.rpc_pair(seed=1)
        ),
        "fabric-switched": lambda: FabricSimulator(
            _config(),
            dataclasses.replace(
                FabricSpec.rpc_pair(seed=2), switch=True, port_queue_frames=4
            ),
        ),
    }


class TestMonitoredRuns:
    @pytest.mark.parametrize("tier", sorted(_tier_simulators()))
    def test_armed_run_is_clean_and_conserves(self, tier):
        simulator = _tier_simulators()[tier]()
        _result, monitor = _run_armed(simulator)
        assert monitor.ok, monitor.violations
        assert monitor.total_checks() > 100
        identities = verify_conservation(simulator, monitor=monitor)
        assert identities and all(identities.values())
        assert identities["kernel.ticket_conservation"]

    def test_armed_monitor_does_not_perturb_results(self):
        bare = ThroughputSimulator(_config(), 1472).run(
            warmup_s=WARMUP_S, measure_s=MEASURE_S
        )
        armed_sim = ThroughputSimulator(_config(), 1472)
        armed, monitor = _run_armed(armed_sim)
        assert monitor.ok
        assert armed.to_dict() == bare.to_dict()

    def test_attach_null_monitor_detaches(self):
        simulator = ThroughputSimulator(_config(), 1472)
        attach_monitor(simulator, InvariantMonitor())
        attach_monitor(simulator, NULL_MONITOR)
        assert simulator.sim.monitor is NULL_MONITOR
        assert simulator.queue.monitor is NULL_MONITOR

    def test_fabric_mac_drops_keep_receive_identities(self):
        """A fabric NIC's MAC drops expired frames before numbering
        them, so those drops must not count against its sequence space.
        Regression: NIC 3 here drops 6 frames, and the identities used
        to read ``next_seq == accepted + 6``."""
        spec = FabricSpec(
            nics=4, switch=True, port_queue_frames=6, seed=9,
            rpc_flows=(
                RpcFlowSpec(client=0, server=3, concurrency=8),
                RpcFlowSpec(client=2, server=1, concurrency=2),
            ),
            stream_flows=(
                StreamFlowSpec(src=1, dst=3, offered_fraction=0.7),
                StreamFlowSpec(src=2, dst=3, offered_fraction=0.7, imix=True),
                StreamFlowSpec(src=3, dst=0, offered_fraction=0.5,
                               udp_payload_bytes=200),
            ),
        )
        config = NicConfig(cores=4, core_frequency_hz=mhz(133))
        simulator = FabricSimulator(config, spec)
        simulator.run(0.1e-3, 0.4e-3)
        assert simulator.endpoints[3]._rx_dropped > 0
        checked = verify_conservation(simulator)
        assert checked["fabric.mac_drops"]
        assert checked["nic3.rx.seq_conservation"]
        assert checked["nic3.rx.fault_identity"]

    def test_verify_reports_instead_of_raising_when_asked(self):
        simulator = ThroughputSimulator(_config(), 1472)
        simulator.run(warmup_s=WARMUP_S, measure_s=MEASURE_S)
        simulator._rx_done_frames += 1  # corrupt the ledger post-run
        with pytest.raises(InvariantViolation):
            verify_conservation(simulator)
        checked = verify_conservation(simulator, raise_on_failure=False)
        assert checked["rx.commit_accounting"] is False


# ----------------------------------------------------------------------
# Mutation smoke tests (acceptance criteria)
# ----------------------------------------------------------------------
def _install_overadvancing_scan(monkeypatch):
    """Commit scan that claims one extra, never-marked slot."""
    original = OrderingBoard._commit_software

    def corrupted(self):
        count, cost = original(self)
        self.commit_seq += 1
        self.committed += 1
        return count + 1, cost

    monkeypatch.setattr(OrderingBoard, "_commit_software", corrupted)


def _install_lazy_scan(monkeypatch):
    """Commit scan that stops after one slot (misses contiguous runs).

    Functionally wrong but locally consistent, so only the differential
    oracle (software board falls behind its RMW twin) can see it.
    """

    def lazy(self):
        if not self.is_marked(self.commit_seq):
            return 0, ordering._SW_COMMIT_BASE
        index = self.commit_seq % self.ring_size
        self._words[index // 32] &= ~(1 << (index % 32))
        self.commit_seq += 1
        self.committed += 1
        return 1, ordering._SW_COMMIT_BASE + ordering._SW_COMMIT_PER_FRAME

    monkeypatch.setattr(OrderingBoard, "_commit_software", lazy)


class TestMutationSmoke:
    def test_monitor_catches_overadvancing_commit_scan(self, monkeypatch):
        _install_overadvancing_scan(monkeypatch)
        config = dataclasses.replace(
            _config(), ordering_mode=OrderingMode.SOFTWARE
        )
        simulator = ThroughputSimulator(config, 1472)
        attach_monitor(simulator, InvariantMonitor())
        with pytest.raises(InvariantViolation, match="board.commit"):
            simulator.run(warmup_s=WARMUP_S, measure_s=MEASURE_S)

    def test_oracle_catches_overadvancing_commit_scan(self, monkeypatch):
        _install_overadvancing_scan(monkeypatch)
        with pytest.raises(InvariantViolation):
            run_ordering_oracle(seed=0)

    def test_oracle_catches_lazy_commit_scan(self, monkeypatch):
        # The monitor cannot see this one (every step is locally legal);
        # the sw-vs-rmw diff is what catches it.
        _install_lazy_scan(monkeypatch)
        report = run_ordering_oracle(seed=0)
        assert not report.ok
        assert any("state" in check.name for check in report.failures)

    def test_corrupted_scan_breaks_a_real_run_under_monitor(self, monkeypatch):
        _install_lazy_scan(monkeypatch)
        config = dataclasses.replace(
            _config(), ordering_mode=OrderingMode.SOFTWARE
        )
        simulator = ThroughputSimulator(config, 1472)
        monitor = InvariantMonitor()
        attach_monitor(simulator, monitor)
        # A lazy scan still conserves everything a single run can see:
        # this documents *why* the differential oracle must exist.
        simulator.run(warmup_s=WARMUP_S, measure_s=MEASURE_S)
        assert monitor.ok


# ----------------------------------------------------------------------
# Differential oracles
# ----------------------------------------------------------------------
class TestOracles:
    def test_ordering_oracle_passes(self):
        report = run_ordering_oracle(seed=0)
        assert report.ok, report.summary()
        assert any(check.name == "progress" for check in report.checks)

    def test_ordering_oracle_deterministic(self):
        first = run_ordering_oracle(seed=5, rounds=60)
        second = run_ordering_oracle(seed=5, rounds=60)
        assert [str(c) for c in first.checks] == [str(c) for c in second.checks]

    def test_loopback_oracle_passes(self):
        report = run_loopback_oracle(measure_s=0.4e-3)
        assert report.ok, "\n".join(str(c) for c in report.failures)

    def test_fault_oracle_passes(self):
        # Default window: long enough for the 1% FCS rate to actually
        # commit holes (the oracle's non-vacuousness check requires it).
        report = run_fault_oracle()
        assert report.ok, "\n".join(str(c) for c in report.failures)

    def test_full_battery(self):
        reports = run_all_oracles(seed=0)
        assert len(reports) == 3
        for report in reports:
            assert report.ok, report.summary()
            assert "[PASS]" in report.summary()


# ----------------------------------------------------------------------
# Seeded fuzzing with replay
# ----------------------------------------------------------------------
class TestFuzz:
    def test_sample_point_deterministic(self):
        assert spec_for_case(3, 5) == spec_for_case(3, 5)
        labels = {spec_for_case(0, index).config.label for index in range(6)}
        assert len(labels) > 1, "corpus points are not diverse"

    def test_fuzz_clean_on_healthy_code(self):
        report = fuzz(3, seed=0)
        assert report.ok and report.cases == 3
        assert report.checks > 0
        assert "PASS" in report.summary()

    def test_run_monitored_returns_identities(self):
        result, monitor, identities = run_monitored(spec_for_case(0, 2))
        assert result is not None
        assert monitor.ok
        assert identities and all(identities.values())

    def test_run_monitored_runs_the_specs_rss_host(self):
        # run_monitored builds through the sweep engine's builder, so a
        # spec's RssSpec reaches the simulator and its ring identities
        # are checked.
        from repro.exp.spec import RunSpec, WorkloadSpec
        from repro.host.rss import RssSpec

        spec = RunSpec(config=NicConfig(), workload=WorkloadSpec(udp_payload_bytes=18),
                       warmup_s=0.0, measure_s=0.1e-3, rss=RssSpec(rings=4))
        result, monitor, identities = run_monitored(spec)
        assert result.rss is not None
        assert len(result.rss["per_ring"]) == 4
        assert identities["rss.ring0.rx_conservation"]
        assert monitor.ok and all(identities.values())

    def test_shrink_transforms_apply(self):
        index = next(
            i for i in range(64)
            if spec_for_case(0, i).fabric_spec is not None
            and spec_for_case(0, i).fault_plan is not None
        )
        spec = spec_for_case(0, index)
        shrunk = apply_shrinks(
            spec, ["drop_fabric", "drop_faults", "single_core"]
        )
        assert shrunk.fabric_spec is None
        assert shrunk.fault_plan is None
        assert shrunk.config.cores == 1

    def test_rss_shrink_transforms_apply(self):
        index = next(
            i for i in range(64)
            if spec_for_case(0, i).rss is not None
            and spec_for_case(0, i).rss.rings > 1
        )
        spec = spec_for_case(0, index)
        single = apply_shrinks(spec, ["single_ring"])
        assert single.rss.rings == 1
        assert single.rss.hash_seed == spec.rss.hash_seed
        assert apply_shrinks(spec, ["drop_rss"]).rss is None
        # Without a multi-queue host, single_ring is a no-op.
        dropped = apply_shrinks(spec, ["drop_rss", "single_ring"])
        assert dropped == apply_shrinks(spec, ["drop_rss"])

    def test_unknown_shrink_rejected(self):
        with pytest.raises(KeyError):
            apply_shrinks(spec_for_case(0, 0), ["no_such_transform"])
        assert "drop_fabric" in SHRINK_TRANSFORMS

    def test_seeded_failure_shrinks_and_replays(self, tmp_path, monkeypatch):
        """The acceptance loop: inject a bug, fuzz finds it, the replay
        file reproduces it deterministically, and a fixed tree replays
        clean."""
        # Seed 0 / case 0 samples a software-ordering config, so the
        # corrupted software scan fires on the very first case.
        with monkeypatch.context() as patch:
            _install_overadvancing_scan(patch)
            report = fuzz(1, seed=0, replay_dir=str(tmp_path))
            assert not report.ok and len(report.failures) == 1
            failure = report.failures[0]
            assert failure.shrinks, "failure did not shrink"
            assert "board.commit" in failure.error
            path = failure.replay_path
            assert path and os.path.exists(path)
            payload = json.loads(open(path).read())
            assert payload["seed"] == 0 and payload["index"] == 0
            assert payload["shrinks"] == failure.shrinks
            assert "described_spec" in payload

            outcome = replay(path)
            assert outcome.reproduced
            assert "board.commit" in outcome.error

        # Bug removed: the same replay file now runs clean.
        outcome = replay(path)
        assert not outcome.reproduced
        assert outcome.error is None

    def test_replay_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"version": 999, "seed": 0, "index": 0, "shrinks": []}
        ))
        with pytest.raises(ValueError, match="version"):
            replay(str(path))


# ----------------------------------------------------------------------
# Golden-trace corpus
# ----------------------------------------------------------------------
class TestGolden:
    def test_digest_stable_and_sensitive(self):
        first = ThroughputSimulator(_config(), 1472).run(
            warmup_s=WARMUP_S, measure_s=MEASURE_S
        )
        second = ThroughputSimulator(_config(), 1472).run(
            warmup_s=WARMUP_S, measure_s=MEASURE_S
        )
        other = ThroughputSimulator(_config(), 256).run(
            warmup_s=WARMUP_S, measure_s=MEASURE_S
        )
        assert golden_mod.golden_digest(first) == golden_mod.golden_digest(second)
        assert golden_mod.golden_digest(first) != golden_mod.golden_digest(other)

    def test_corpus_matches_current_code(self):
        """The pinned digests (committed at the last intended behavioural
        change) still describe the code.  A failure here means the
        simulation drifted: regenerate deliberately with
        ``repro check --update-golden`` and review the diff."""
        mismatches = golden_mod.compare_corpus(GOLDEN_PATH)
        assert mismatches == {}, (
            f"golden drift in {sorted(mismatches)} - regenerate with "
            f"`repro check --update-golden` if intended"
        )

    def test_write_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "golden.json")
        digests = golden_mod.write_corpus(path)
        assert set(digests) == set(golden_mod.golden_specs())
        assert golden_mod.load_corpus(path) == digests
        payload = json.loads(open(path).read())
        assert "regenerate" in payload["comment"]


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCheckCli:
    def test_subcommand_registered(self):
        from repro.cli import build_parser

        assert "check" in build_parser().format_help()

    def test_check_battery_passes(self, capsys):
        from repro.cli import main

        code = main([
            "check", "--fuzz", "2", "--seed", "0",
            "--golden-path", GOLDEN_PATH,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS] ordering sw-vs-rmw" in out
        assert "golden corpus matches" in out
        assert "[PASS] fuzz: 2 cases" in out

    def test_check_update_and_verify_golden(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "golden.json")
        assert main(["check", "--update-golden", "--golden-path", path]) == 0
        assert os.path.exists(path)
        code = main(["check", "--skip-oracles", "--golden-path", path])
        assert code == 0
        assert "golden corpus matches" in capsys.readouterr().out

    def test_check_digests_lines(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "digests.jsonl")
        code = main([
            "check", "--skip-oracles", "--golden-path", GOLDEN_PATH,
            "--fuzz", "1", "--seed", "3", "--digests", path,
        ])
        assert code == 0
        with open(path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        golden = [r for r in records if r["kind"] == "golden"]
        assert {r["name"]: r["digest"] for r in golden} == golden_mod.load_corpus(GOLDEN_PATH)
        (case,) = [r for r in records if r["kind"] == "fuzz"]
        assert (case["seed"], case["index"]) == (3, 0)
        assert case["key"] == spec_for_case(3, 0).key
        assert case["fields"] and len(case["digest"]) == 64
        # --skip-golden leaves the golden lines out.
        main(["check", "--skip-oracles", "--skip-golden",
              "--fuzz", "1", "--seed", "3", "--digests", path])
        with open(path, encoding="utf-8") as handle:
            assert [json.loads(line)["kind"] for line in handle] == ["fuzz"]
        capsys.readouterr()

    def test_check_missing_golden_fails(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "check", "--skip-oracles",
            "--golden-path", str(tmp_path / "absent.json"),
        ])
        assert code == 1
        assert "golden corpus missing" in capsys.readouterr().err

    def test_check_replay_cli(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        with monkeypatch.context() as patch:
            _install_overadvancing_scan(patch)
            code = main([
                "check", "--skip-oracles", "--skip-golden",
                "--fuzz", "1", "--seed", "0", "--no-shrink",
                "--replay-dir", str(tmp_path),
            ])
            assert code == 1
        replay_path = str(tmp_path / "replay-0-0.json")
        assert os.path.exists(replay_path)
        # Healthy tree: the replay no longer reproduces -> exit 0.
        assert main(["check", "--replay", replay_path]) == 0
        assert "replay" in capsys.readouterr().out.lower()
