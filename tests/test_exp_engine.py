"""Experiment engine: content keys, result cache, sweep runner, resume.

The acceptance-critical properties live here:

* a cache hit returns a **byte-identical** ``ThroughputResult`` to a
  fresh run (compared via ``pickle.dumps``);
* changing *any* config, workload, window or calibration-constant
  input produces a different content key (a cache miss);
* a sweep resumed after an interruption produces aggregate output
  identical to an uninterrupted sweep.

Simulation points here use deliberately tiny measurement windows —
they exercise the engine plumbing, not the paper's numbers (those are
covered by ``tests/test_throughput.py`` and the benchmarks).
"""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest

from repro.exp import (
    ResultCache,
    RunSpec,
    Sweep,
    SweepRunner,
    WorkloadSpec,
    describe,
    execute_spec,
    run_spec,
    run_specs,
    spec_key,
    spec_seed,
)
from repro.exp import spec as spec_module
from repro.firmware.ordering import OrderingMode
from repro.nic.config import NicConfig
from repro.obs import ProgressReporter
from repro.units import mhz

# Tiny windows: engine tests measure plumbing, not throughput curves.
_FAST = {"warmup_s": 0.05e-3, "measure_s": 0.1e-3}


def fast_spec(**config_overrides) -> RunSpec:
    config = NicConfig(cores=1, core_frequency_hz=mhz(100), **config_overrides)
    return RunSpec(config=config, workload=WorkloadSpec(udp_payload_bytes=1472),
                   **_FAST)


def fast_grid(core_counts=(1, 2), frequencies=(100, 133)):
    return [
        RunSpec(
            config=NicConfig(cores=cores, core_frequency_hz=mhz(frequency)),
            workload=WorkloadSpec(udp_payload_bytes=1472),
            label=f"grid/{cores}c@{frequency}",
            **_FAST,
        )
        for cores in core_counts
        for frequency in frequencies
    ]


class TestDescribe:
    def test_primitives_pass_through(self):
        assert describe(None) is None
        assert describe(True) is True
        assert describe(7) == 7
        assert describe("x") == "x"

    def test_float_uses_repr(self):
        assert describe(0.1) == {"__float__": repr(0.1)}

    def test_enum_tagged(self):
        rendered = describe(OrderingMode.SOFTWARE)
        assert rendered["__enum__"] == "OrderingMode"

    def test_dataclass_includes_every_field(self):
        rendered = describe(NicConfig())
        field_names = {f.name for f in dataclasses.fields(NicConfig)}
        assert field_names <= set(rendered)
        assert rendered["__type__"] == "NicConfig"

    def test_sequences_and_mappings_recurse(self):
        assert describe([1, (2, 3)]) == [1, [2, 3]]
        assert describe({"k": 1.0}) == {"k": {"__float__": "1.0"}}

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            describe(object())


class TestSpecValidation:
    def test_workload_kind_checked(self):
        with pytest.raises(ValueError):
            WorkloadSpec(kind="random")

    @pytest.mark.parametrize("fields", [
        {"offered_fraction": 0.0},
        {"offered_fraction": -1.0},
        {"offered_fraction": 1.5},
        {"offered_fraction": float("nan")},
        {"rx_burst_frames": 0},
    ])
    def test_receive_load_checked(self, fields):
        with pytest.raises(ValueError):
            WorkloadSpec(**fields)
        with pytest.raises(ValueError):
            WorkloadSpec.imix(**fields)

    def test_windows_checked(self):
        with pytest.raises(ValueError):
            RunSpec(config=NicConfig(), warmup_s=-1.0)
        with pytest.raises(ValueError):
            RunSpec(config=NicConfig(), measure_s=0.0)
        with pytest.raises(ValueError):
            RunSpec(config=NicConfig(), measure_s=float("nan"))
        with pytest.raises(ValueError):
            RunSpec(config=NicConfig(), warmup_s=float("inf"))

    def test_constant_workload_has_no_live_model(self):
        # None → the simulator builds ConstantSize internally, exactly
        # like the pre-engine drivers did.
        assert WorkloadSpec(udp_payload_bytes=800).build_size_model() is None

    def test_imix_workload_builds_model(self):
        model = WorkloadSpec.imix().build_size_model()
        assert model is not None


class TestContentKey:
    def test_key_is_stable(self):
        assert spec_key(fast_spec()) == spec_key(fast_spec())

    def test_key_is_hex_sha256(self):
        key = fast_spec().key
        assert len(key) == 64
        int(key, 16)

    def test_label_excluded_from_key(self):
        spec = fast_spec()
        relabeled = dataclasses.replace(spec, label="fig7/1c@100MHz")
        assert spec.key == relabeled.key

    @pytest.mark.parametrize(
        "override",
        [
            {"cores": 2},
            {"core_frequency_hz": mhz(133)},
            {"scratchpad_banks": 8},
            {"ordering_mode": OrderingMode.SOFTWARE},
            {"checksum_offload": "firmware"},
        ],
    )
    def test_any_config_field_change_misses(self, override):
        base = fast_spec()
        changed = dataclasses.replace(
            base, config=dataclasses.replace(base.config, **override)
        )
        assert base.key != changed.key

    def test_workload_change_misses(self):
        base = fast_spec()
        changed = dataclasses.replace(
            base, workload=WorkloadSpec(udp_payload_bytes=800)
        )
        assert base.key != changed.key
        imix = dataclasses.replace(base, workload=WorkloadSpec.imix())
        assert base.key != imix.key

    def test_window_change_misses(self):
        base = fast_spec()
        assert base.key != dataclasses.replace(base, measure_s=0.2e-3).key
        assert base.key != dataclasses.replace(base, warmup_s=0.0).key

    def test_calibration_constant_change_misses(self, monkeypatch):
        # Editing a model constant must invalidate every cached result.
        base_key = fast_spec().key
        monkeypatch.setattr(spec_module, "CACHE_SCHEMA_VERSION",
                            spec_module.CACHE_SCHEMA_VERSION + 1)
        assert fast_spec().key != base_key

    def test_profile_constant_feeds_key(self, monkeypatch):
        from repro.firmware import profiles as fw

        base_key = fast_spec().key
        monkeypatch.setattr(fw, "SEND_BDS_PER_FETCH", fw.SEND_BDS_PER_FETCH + 1)
        assert fast_spec().key != base_key

    def test_seed_is_deterministic_and_key_derived(self):
        spec = fast_spec()
        assert spec_seed(spec) == spec_seed(spec)
        assert spec_seed(spec) == int(spec.key[:16], 16)


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("ab" * 32, {"x": 1})
        assert cache.get("ab" * 32) == {"x": 1}
        assert ("ab" * 32) in cache
        assert len(cache) == 1

    def test_miss_returns_none(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.get("cd" * 32) is None
        assert cache.misses == 1

    def test_sharded_layout(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = "ef" * 32
        path = cache.put(key, 42)
        assert path == str(tmp_path / key[:2] / f"{key}.pkl")

    def test_corrupt_entry_evicted(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = "12" * 32
        path = cache.put(key, 42)
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        assert cache.get(key) is None
        assert not cache.__contains__(key)

    def test_hit_miss_counters(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("34" * 32, 1)
        cache.get("34" * 32)
        cache.get("56" * 32)
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.stores == 1


class TestCacheHitFidelity:
    def test_cache_hit_is_byte_identical_to_fresh_run(self, tmp_path):
        spec = fast_spec()
        fresh = run_spec(spec, cache_dir=str(tmp_path))
        hit = run_spec(spec, cache_dir=str(tmp_path))
        uncached = execute_spec(spec)
        assert pickle.dumps(hit) == pickle.dumps(fresh)
        assert pickle.dumps(hit) == pickle.dumps(uncached)

    def test_no_cache_flag_never_touches_disk(self, tmp_path):
        runner = SweepRunner(jobs=1, cache_dir=str(tmp_path), use_cache=False)
        runner.run([fast_spec()])
        assert list(tmp_path.iterdir()) == []


class TestSweepRunner:
    def test_results_in_input_order(self):
        specs = fast_grid()
        outcome = SweepRunner(jobs=1).run(specs)
        assert len(outcome.results) == len(specs)
        direct = [execute_spec(spec) for spec in specs]
        assert [pickle.dumps(r) for r in outcome.results] == [
            pickle.dumps(r) for r in direct
        ]

    def test_duplicates_executed_once(self):
        spec = fast_spec()
        outcome = SweepRunner(jobs=1).run([spec, spec, spec])
        assert outcome.deduplicated == 2
        assert outcome.executed == 1
        assert pickle.dumps(outcome.results[0]) == pickle.dumps(outcome.results[2])

    def test_cached_flags_and_counters(self, tmp_path):
        specs = fast_grid(core_counts=(1,), frequencies=(100, 133))
        first = SweepRunner(jobs=1, cache_dir=str(tmp_path)).run(specs)
        assert first.cache_hits == 0 and first.executed == 2
        assert first.cached_flags == [False, False]
        second = SweepRunner(jobs=1, cache_dir=str(tmp_path)).run(specs)
        assert second.cache_hits == 2 and second.executed == 0
        assert second.cached_flags == [True, True]
        assert [pickle.dumps(r) for r in second.results] == [
            pickle.dumps(r) for r in first.results
        ]

    def test_parallel_matches_serial(self):
        specs = fast_grid(core_counts=(1, 2), frequencies=(100,))
        serial = SweepRunner(jobs=1).run(specs)
        parallel = SweepRunner(jobs=2).run(specs)
        assert [pickle.dumps(r) for r in parallel.results] == [
            pickle.dumps(r) for r in serial.results
        ]

    def test_env_knobs(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SWEEP_JOBS", "3")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runner = SweepRunner()
        assert runner.jobs == 3
        assert runner.cache is not None
        assert runner.cache.root == str(tmp_path)

    def test_run_specs_convenience(self, tmp_path):
        specs = fast_grid(core_counts=(1,), frequencies=(100,))
        results = run_specs(specs, cache_dir=str(tmp_path))
        assert len(results) == 1
        again = run_specs(specs, cache_dir=str(tmp_path))
        assert pickle.dumps(again[0]) == pickle.dumps(results[0])


class TestResume:
    def test_resumed_sweep_identical_to_uninterrupted(self, tmp_path):
        """An interrupted sweep (some points already cached) must finish
        with aggregate output identical to a never-interrupted one."""
        specs = fast_grid()  # 4 points
        # Uninterrupted reference, no cache involved.
        reference = SweepRunner(jobs=1).run(specs)

        # "Interrupted" run: only half the points landed in the cache
        # before the crash (the incremental _store path guarantees
        # completed points persist).
        SweepRunner(jobs=1, cache_dir=str(tmp_path)).run(specs[:2])

        # Resume: the full grid against the same cache.
        resumed = SweepRunner(jobs=1, cache_dir=str(tmp_path)).run(specs)
        assert resumed.cache_hits == 2
        assert resumed.executed == 2
        assert [pickle.dumps(r) for r in resumed.results] == [
            pickle.dumps(r) for r in reference.results
        ]
        # Aggregate rows (what the CLI exports) match too, modulo the
        # cached marker.
        ref_rows = Sweep.rows(reference)
        res_rows = Sweep.rows(resumed)
        for row in ref_rows + res_rows:
            row.pop("cached")
        assert res_rows == ref_rows


class TestSweep:
    def test_grid_shape_and_labels(self):
        sweep = Sweep.grid("g", core_counts=(1, 2), frequencies_mhz=(100, 133),
                           **_FAST)
        assert len(sweep) == 4
        labels = [spec.label for spec in sweep]
        assert "1c@100MHz" in labels

    def test_of_configs(self):
        configs = [NicConfig(cores=1), NicConfig(cores=2)]
        sweep = Sweep.of_configs("c", configs, **_FAST)
        assert [spec.config.cores for spec in sweep] == [1, 2]

    def test_add_concatenates(self):
        a = Sweep.grid("a", core_counts=(1,), frequencies_mhz=(100,), **_FAST)
        b = Sweep.grid("b", core_counts=(2,), frequencies_mhz=(100,), **_FAST)
        assert len(a + b) == 2

    def test_rows_flatten_outcome(self, tmp_path):
        sweep = Sweep.grid("r", core_counts=(1,), frequencies_mhz=(100,), **_FAST)
        outcome = sweep.run(jobs=1, cache_dir=str(tmp_path))
        rows = Sweep.rows(outcome)
        assert len(rows) == 1
        row = rows[0]
        assert row["cores"] == 1
        assert row["mhz"] == pytest.approx(100.0)
        assert row["cached"] is False
        assert row["udp_throughput_gbps"] > 0
        json.dumps(rows)  # must be JSON-serializable as-is


class TestProgressReporter:
    def test_counters(self):
        reporter = ProgressReporter(3, stream=None)
        reporter.update(cache_hit=True)
        reporter.update()
        assert reporter.done == 2
        assert reporter.cache_hits == 1
        assert reporter.executed == 1

    def test_eta_requires_executed_points(self):
        reporter = ProgressReporter(2, stream=None)
        reporter.update(cache_hit=True)
        assert reporter.eta_s() is None
        reporter.update()
        assert reporter.eta_s() == 0.0

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            ProgressReporter(-1)

    def test_render_and_summary(self):
        reporter = ProgressReporter(2, label="demo", stream=None)
        reporter.update(cache_hit=True)
        assert "demo" in reporter.render()
        assert "1 cache" in reporter.summary()

    def test_stream_receives_final_line(self):
        import io

        stream = io.StringIO()
        reporter = ProgressReporter(1, label="s", stream=stream,
                                    min_interval_s=0.0)
        reporter.update()
        assert "[s] 1/1 points" in stream.getvalue()


class TestCliSweep:
    def test_json_export_and_cache_hits(self, tmp_path, capsys):
        from repro.cli import main

        args = ["sweep", "--cores", "1", "--mhz", "100", "--millis", "0.1",
                "--cache-dir", str(tmp_path / "cache"),
                "--json", str(tmp_path / "out.json")]
        assert main(args) == 0
        first = json.loads((tmp_path / "out.json").read_text())["points"]
        assert first[0]["cached"] is False
        assert main(args) == 0
        second = json.loads((tmp_path / "out.json").read_text())["points"]
        assert second[0]["cached"] is True
        for row in (first[0], second[0]):
            row.pop("cached")
        assert second[0] == first[0]

    def test_csv_export(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "out.csv"
        assert main(["sweep", "--cores", "1", "--mhz", "100",
                     "--millis", "0.1", "--csv", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0].split(",")[0] == "label"
