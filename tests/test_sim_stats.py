"""Statistics primitives."""

import math

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.sim import Counter, Histogram, StatRegistry


class TestCounter:
    def test_add(self):
        counter = Counter("x")
        counter.add()
        counter.add(4)
        assert counter.value == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").add(-1)

    def test_reset(self):
        counter = Counter("x")
        counter.add(3)
        counter.reset()
        assert counter.value == 0


class TestHistogram:
    def test_bucketing(self):
        hist = Histogram("lat", [10, 100, 1000])
        for value in (5, 50, 500, 5000):
            hist.record(value)
        assert hist.counts == [1, 1, 1, 1]

    def test_mean_min_max(self):
        hist = Histogram("lat", [10])
        hist.record(4)
        hist.record(8)
        assert hist.mean == pytest.approx(6)
        assert hist.min == 4
        assert hist.max == 8

    def test_percentile(self):
        hist = Histogram("lat", [1, 2, 3, 4, 5])
        for value in (1, 2, 3, 4, 5):
            hist.record(value)
        assert hist.percentile(0.5) == 3
        assert hist.percentile(1.0) == 5

    def test_percentile_bounds(self):
        hist = Histogram("lat", [10])
        with pytest.raises(ValueError):
            hist.percentile(1.5)

    def test_empty_percentile(self):
        assert Histogram("lat", [10]).percentile(0.5) == 0.0

    def test_needs_bounds(self):
        with pytest.raises(ValueError):
            Histogram("lat", [])

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_buckets_match_linear_scan(self, data):
        # The reference is the bucket walk record() used before it
        # bisected: the first bound >= value, bucket 0 for NaN.
        bound = st.one_of(
            st.integers(min_value=-5, max_value=5),  # duplicates likely
            st.floats(allow_nan=False),
        )
        bounds = sorted(data.draw(st.lists(bound, min_size=1, max_size=12)))
        values = data.draw(
            st.lists(
                st.one_of(
                    st.sampled_from(bounds),
                    st.floats(),
                    st.integers(min_value=-6, max_value=6),
                    st.sampled_from([math.inf, -math.inf, math.nan]),
                ),
                max_size=30,
            )
        )
        hist = Histogram("lat", bounds)
        reference = [0] * (len(bounds) + 1)
        for value in values:
            hist.record(value)
            index = 0
            while index < len(bounds) and value > bounds[index]:
                index += 1
            reference[index] += 1
        assert hist.counts == reference
        assert hist.total == len(values)


class TestStatRegistry:
    def test_counter_identity(self):
        registry = StatRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_snapshot(self):
        registry = StatRegistry()
        registry.counter("a").add(2)
        snap = registry.snapshot()
        assert snap["counter.a"] == 2

    def test_items_sorted(self):
        registry = StatRegistry()
        registry.counter("z").add(1)
        registry.counter("a").add(1)
        names = [name for name, _ in registry.items()]
        assert names == sorted(names)

    def test_snapshot_includes_histogram_summaries(self):
        registry = StatRegistry()
        histogram = registry.histogram("lat", [1, 10, 100])
        for value in (0.5, 5, 50, 50):
            histogram.record(value)
        snap = registry.snapshot()
        assert snap["histogram.lat.count"] == 4
        assert snap["histogram.lat.mean"] == pytest.approx(105.5 / 4)
        assert snap["histogram.lat.p50"] == histogram.percentile(0.50)
        assert snap["histogram.lat.p99"] == histogram.percentile(0.99)
        assert snap["histogram.lat.max"] == 50

    def test_snapshot_empty_histogram_is_safe(self):
        registry = StatRegistry()
        registry.histogram("lat", [1, 10])
        snap = registry.snapshot()
        assert snap["histogram.lat.count"] == 0
        assert snap["histogram.lat.max"] == 0.0

    def test_reset_counters(self):
        registry = StatRegistry()
        registry.counter("a").add(7)
        registry.reset_counters()
        assert registry.counter("a").value == 0

    def test_reset_window_covers_counters_and_histograms(self):
        """Warm-up reset excludes warm-up events from the counters, and
        from the histograms when asked."""
        registry = StatRegistry()
        registry.counter("frames").add(10)
        histogram = registry.histogram("lat", [1, 10])
        histogram.record(5)
        registry.reset_window()
        assert registry.counter("frames").value == 0
        assert histogram.total == 1  # histograms kept by default
        registry.reset_window(histograms=True)
        assert histogram.total == 0 and histogram.max is None

    def test_histogram_reset_clears_samples(self):
        histogram = Histogram("lat", [1, 10])
        histogram.record(5)
        histogram.reset()
        assert histogram.total == 0
        assert histogram.mean == 0.0
        assert histogram.percentile(0.99) == 0.0
        histogram.record(3)
        assert histogram.total == 1 and histogram.max == 3
