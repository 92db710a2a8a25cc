"""Tests for the streaming quantile histogram (`repro.obs.hist`) and
the hot-path attribution upgrades in `repro.obs.profiler`.

The load-bearing properties: quantile estimates stay within the
documented relative-error bound of the exact nearest-rank sample for
*any* input stream (hypothesis-explored), ``merge`` is bucket-exact
against ingesting the concatenated stream, memory stays bounded by the
value range rather than the sample count, and profiler attribution
keys are stable — no memory addresses, distinct instances get distinct
tags, partials of the same function share one row.
"""

import functools
import json
import math
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.obs.hist import (
    StreamingHistogram,
    exact_percentile,
    merge_all,
    nearest_rank,
    rank_bucket,
)
from repro.obs.profiler import SimProfiler, describe_callback, phase_of
from repro.sim.stats import StatRegistry

FRACTIONS = (0.0, 0.01, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0)

positive_floats = st.floats(
    min_value=1e-9, max_value=1e12, allow_nan=False, allow_infinity=False
)
sample_lists = st.lists(positive_floats, min_size=1, max_size=300)


def _assert_within_bound(hist: StreamingHistogram, sorted_samples, fraction):
    exact = exact_percentile(sorted_samples, fraction)
    estimate = hist.percentile(fraction)
    # Documented contract: relative error <= 10^-digits, plus a few
    # ulps of float noise from log/pow.
    assert abs(estimate - exact) <= hist.relative_error * exact + 1e-9 * exact, (
        f"p{fraction}: estimate {estimate!r} vs exact {exact!r} "
        f"(bound {hist.relative_error})"
    )


# ----------------------------------------------------------------------
# Shared nearest-rank helpers
# ----------------------------------------------------------------------
class TestRankHelpers:
    def test_nearest_rank_clamps(self):
        assert nearest_rank(10, 0.0) == 1
        assert nearest_rank(10, 1.0) == 10
        assert nearest_rank(10, 0.5) == 5
        assert nearest_rank(1, 0.99) == 1

    def test_exact_percentile(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert exact_percentile(samples, 0.0) == 1.0
        assert exact_percentile(samples, 0.5) == 2.0
        assert exact_percentile(samples, 1.0) == 4.0
        assert exact_percentile([], 0.5) == 0.0

    def test_rank_bucket(self):
        assert rank_bucket([0, 3, 2], 1) == 1
        assert rank_bucket([0, 3, 2], 4) == 2
        assert rank_bucket([0, 3, 2], 6) is None
        assert rank_bucket([], 1) is None

    def test_fabric_reexport_is_shared(self):
        from repro.fabric import exact_percentile as fabric_exact
        from repro.fabric import flows

        assert fabric_exact is exact_percentile
        assert flows.exact_percentile is exact_percentile


# ----------------------------------------------------------------------
# StreamingHistogram core
# ----------------------------------------------------------------------
class TestStreamingHistogram:
    def test_validation(self):
        with pytest.raises(ValueError):
            StreamingHistogram(0)
        with pytest.raises(ValueError):
            StreamingHistogram(6)
        hist = StreamingHistogram(3)
        with pytest.raises(ValueError):
            hist.record(1.0, count=0)
        with pytest.raises(ValueError):
            hist.percentile(1.5)

    def test_empty(self):
        hist = StreamingHistogram(3)
        assert hist.percentile(0.5) == 0.0
        assert hist.mean == 0.0
        assert hist.bucket_count == 0
        assert hist.summary()["count"] == 0.0

    def test_exact_aggregates(self):
        hist = StreamingHistogram(3)
        for value in (5.0, 1.0, 3.0):
            hist.record(value)
        hist.record(2.0, count=2)
        assert hist.total == 5
        assert hist.min == 1.0 and hist.max == 5.0
        assert hist.sum == pytest.approx(13.0)
        assert hist.mean == pytest.approx(2.6)

    def test_zero_and_negative_values(self):
        hist = StreamingHistogram(3)
        hist.record(0.0)
        hist.record(-1.0)
        hist.record(10.0)
        assert hist.total == 3
        assert hist.zero_count == 2
        assert hist.percentile(0.5) == 0.0  # rank 2 is the zero bucket
        assert hist.min == -1.0 and hist.max == 10.0

    def test_reset(self):
        hist = StreamingHistogram(3)
        hist.record(4.0)
        hist.reset()
        assert hist.total == 0 and hist.bucket_count == 0
        assert hist.min is None and hist.max is None

    def test_bounded_memory(self):
        """Buckets scale with the value *range*, not the sample count."""
        hist = StreamingHistogram(3)
        rng = random.Random(7)
        for _ in range(50_000):
            hist.record(rng.uniform(1.0, 1e6))
        # log(1e6) / log(gamma) with gamma ~ 1.002 is ~6,900 buckets.
        ceiling = math.log(1e6) / math.log((1 + 1e-3) / (1 - 1e-3)) + 2
        assert hist.bucket_count <= ceiling
        before = hist.bucket_count
        for _ in range(50_000):
            hist.record(rng.uniform(1.0, 1e6))
        assert hist.bucket_count <= ceiling
        assert hist.bucket_count >= before  # same range: no blow-up

    def test_extremes_are_exact(self):
        hist = StreamingHistogram(2)
        for value in (1.0, 17.3, 123.456):
            hist.record(value)
        assert hist.percentile(0.0) == 1.0
        assert hist.percentile(1.0) == 123.456

    @given(samples=sample_lists, digits=st.integers(min_value=1, max_value=4))
    @settings(max_examples=150, deadline=None)
    def test_quantiles_within_documented_bound(self, samples, digits):
        hist = StreamingHistogram(digits)
        for value in samples:
            hist.record(value)
        ordered = sorted(samples)
        for fraction in FRACTIONS:
            _assert_within_bound(hist, ordered, fraction)

    @given(fraction=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_arbitrary_fraction_within_bound(self, fraction):
        rng = random.Random(42)
        samples = [rng.lognormvariate(2.0, 1.5) for _ in range(500)]
        hist = StreamingHistogram(3)
        for value in samples:
            hist.record(value)
        _assert_within_bound(hist, sorted(samples), fraction)


# ----------------------------------------------------------------------
# Merge semantics
# ----------------------------------------------------------------------
class TestMerge:
    @given(left=sample_lists, right=sample_lists)
    @settings(max_examples=100, deadline=None)
    def test_merge_equals_concatenated_stream(self, left, right):
        split_a = StreamingHistogram(3)
        split_b = StreamingHistogram(3)
        whole = StreamingHistogram(3)
        for value in left:
            split_a.record(value)
            whole.record(value)
        for value in right:
            split_b.record(value)
            whole.record(value)
        merged = split_a.merge(split_b)
        assert merged is split_a  # in-place, returns self
        # Bucket-exact equivalence: identical counts => identical
        # quantile estimates at every fraction.
        assert merged.counts == whole.counts
        assert merged.zero_count == whole.zero_count
        assert merged.total == whole.total
        assert merged.min == whole.min and merged.max == whole.max
        assert merged.sum == pytest.approx(whole.sum)
        for fraction in FRACTIONS:
            assert merged.percentile(fraction) == whole.percentile(fraction)

    def test_merge_rejects_mixed_resolution(self):
        with pytest.raises(ValueError, match="resolution"):
            StreamingHistogram(3).merge(StreamingHistogram(2))

    def test_merge_all(self):
        shards = []
        whole = StreamingHistogram(3)
        rng = random.Random(3)
        for shard_index in range(4):
            shard = StreamingHistogram(3)
            for _ in range(100):
                value = rng.expovariate(0.1)
                shard.record(value)
                whole.record(value)
            shards.append(shard)
        merged = merge_all(shards)
        assert merged.counts == whole.counts
        # Inputs are untouched (merge_all copies).
        assert all(shard.total == 100 for shard in shards)
        assert merge_all([]).total == 0

    def test_round_trip_is_json_safe_and_exact(self):
        hist = StreamingHistogram(4, name="latency_us")
        for value in (0.0, 1.5, 1.5, 300.25, 9e5):
            hist.record(value)
        data = json.loads(json.dumps(hist.to_dict()))
        clone = StreamingHistogram.from_dict(data)
        assert clone.counts == hist.counts
        assert clone.zero_count == hist.zero_count
        assert clone.total == hist.total
        assert (clone.min, clone.max, clone.sum) == (hist.min, hist.max, hist.sum)
        assert clone.name == "latency_us"
        for fraction in FRACTIONS:
            assert clone.percentile(fraction) == hist.percentile(fraction)

    def test_prometheus_lines(self):
        hist = StreamingHistogram(2, name="flow.rtt us")
        for value in (1.0, 2.0, 400.0):
            hist.record(value)
        lines = hist.prometheus_lines()
        assert lines[0] == "# TYPE flow_rtt_us histogram"
        assert lines[-2] == f"flow_rtt_us_sum {hist.sum!r}"
        assert lines[-1] == "flow_rtt_us_count 3"
        assert lines[-3] == 'flow_rtt_us_bucket{le="+Inf"} 3'
        # Cumulative counts are monotone non-decreasing.
        counts = [int(line.rsplit(" ", 1)[1])
                  for line in lines if "_bucket" in line]
        assert counts == sorted(counts)
        assert counts[-1] == 3


# ----------------------------------------------------------------------
# StatRegistry integration
# ----------------------------------------------------------------------
class TestRegistryStreaming:
    def test_streaming_histogram_is_cached(self):
        registry = StatRegistry()
        first = registry.streaming_histogram("lat", significant_digits=2)
        assert registry.streaming_histogram("lat") is first
        assert first.significant_digits == 2

    def test_snapshot_and_window_reset(self):
        registry = StatRegistry()
        hist = registry.streaming_histogram("lat")
        hist.record(10.0)
        hist.record(20.0)
        snap = registry.snapshot()
        assert snap["shist.lat.count"] == 2.0
        assert snap["shist.lat.max"] == 20.0
        assert snap["shist.lat.p50"] == pytest.approx(10.0, rel=1e-2)
        registry.reset_window(histograms=True)
        assert registry.snapshot()["shist.lat.count"] == 0.0
        # Without histograms=True the distribution survives the reset.
        hist.record(5.0)
        registry.reset_window()
        assert registry.snapshot()["shist.lat.count"] == 1.0

    def test_merge_streaming_across_registries(self):
        worker_a, worker_b = StatRegistry(), StatRegistry()
        worker_a.streaming_histogram("lat").record(1.0)
        worker_b.streaming_histogram("lat").record(3.0)
        worker_b.streaming_histogram("other").record(7.0)
        total = StatRegistry()
        total.merge_streaming(worker_a)
        total.merge_streaming(worker_b)
        assert total.streaming["lat"].total == 2
        assert total.streaming["lat"].max == 3.0
        assert total.streaming["other"].total == 1
        # Merging copies: mutating the total leaves workers untouched.
        total.streaming["lat"].record(9.0)
        assert worker_a.streaming["lat"].total == 1


# ----------------------------------------------------------------------
# Profiler attribution (stable labels, phases)
# ----------------------------------------------------------------------
class _Endpoint:
    def __init__(self, name):
        self.name = name

    def poll(self):
        pass


class _Indexed:
    def __init__(self, index):
        self.index = index

    def tick(self):
        pass


class _Evil:
    @property
    def name(self):
        raise RuntimeError("instrumented property")

    def step(self):
        pass


class _Functor:
    def __call__(self):
        pass


def _free_function(argument):
    return argument


class TestCallbackAttribution:
    def test_partials_of_same_function_share_one_row(self):
        first = functools.partial(_free_function, 1)
        second = functools.partial(functools.partial(_free_function), 2)
        assert describe_callback(first) == describe_callback(second)
        assert describe_callback(first).endswith("_free_function")

    def test_labels_never_contain_addresses(self):
        callbacks = [
            functools.partial(_free_function, 1),
            _Endpoint("nic0").poll,
            _Functor(),
            lambda: None,
        ]
        for callback in callbacks:
            label = describe_callback(callback)
            assert "0x" not in label, label
            # Stable: the same callable always produces the same label.
            assert describe_callback(callback) == label

    def test_distinct_instances_get_distinct_rows(self):
        nic0, nic1 = _Endpoint("nic0"), _Endpoint("nic1")
        assert describe_callback(nic0.poll).endswith("_Endpoint.poll[nic0]")
        assert describe_callback(nic1.poll).endswith("_Endpoint.poll[nic1]")
        assert describe_callback(nic0.poll) != describe_callback(nic1.poll)

    def test_integer_index_tags(self):
        assert describe_callback(_Indexed(2).tick).endswith("[2]")
        # bool is not a usable tag (an int subclass, but it means a flag)
        assert describe_callback(_Indexed(True).tick).endswith("_Indexed.tick")

    def test_raising_property_does_not_break_profiling(self):
        label = describe_callback(_Evil().step)
        assert label.endswith("_Evil.step")

    def test_functor_falls_back_to_type_name(self):
        label = describe_callback(_Functor())
        assert label.endswith("._Functor")

    def test_phase_of_folds_closures_and_tags(self):
        key = "repro.nic.x.Sim._handle.<locals>.done[nic1]"
        assert phase_of(key) == "repro.nic.x.Sim._handle"
        assert phase_of("repro.nic.x.Sim.poll") == "repro.nic.x.Sim.poll"
        assert phase_of("repro.nic.x.Sim.poll[3]") == "repro.nic.x.Sim.poll"


class TestProfilerPhases:
    def _loaded_profiler(self):
        profiler = SimProfiler()
        nic0, nic1 = _Endpoint("nic0"), _Endpoint("nic1")
        profiler.record(nic0.poll, 0.25)
        profiler.record(nic1.poll, 0.25)
        profiler.record(functools.partial(_free_function, 0), 0.5)
        return profiler

    def test_by_phase_merges_instances(self):
        phases = self._loaded_profiler().by_phase()
        endpoint_rows = [name for name in phases if name.endswith("_Endpoint.poll")]
        assert len(endpoint_rows) == 1
        count, wall = phases[endpoint_rows[0]]
        assert count == 2
        assert wall == pytest.approx(0.5)

    def test_to_dict_shape_and_shares(self):
        report = self._loaded_profiler().to_dict()
        assert report["total_callbacks"] == 3
        assert report["total_wall_s"] == pytest.approx(1.0)
        for section in ("callbacks", "phases", "modules"):
            rows = report[section]
            assert rows, section
            # Ranked by wall time, shares sum to ~1.
            walls = [row["wall_s"] for row in rows]
            assert walls == sorted(walls, reverse=True)
            assert sum(row["share"] for row in rows) == pytest.approx(1.0)
        assert json.dumps(report)  # JSON-safe
        # Per-instance rows survive in the flat callback table...
        callback_keys = {row["key"] for row in report["callbacks"]}
        assert any(key.endswith("[nic0]") for key in callback_keys)
        # ...but fold into one phase row.
        phase_keys = {row["key"] for row in report["phases"]}
        assert not any("[" in key for key in phase_keys)

    def test_to_dict_top_n_truncates_callbacks_only(self):
        report = self._loaded_profiler().to_dict(top_n=1)
        assert len(report["callbacks"]) == 1
        assert len(report["phases"]) >= 2
