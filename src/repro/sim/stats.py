"""Statistics primitives used by every hardware model.

The evaluation section of the paper is mostly *accounting*: instructions
per cycle broken into stall categories (Table 3), bandwidth consumed per
memory (Table 4), cycles per packet per function (Table 6).  These
classes centralize that accounting so the table generators read straight
out of a :class:`StatRegistry`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.hist import StreamingHistogram, rank_bucket


class Counter:
    """A monotonically increasing event counter."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: cannot add {amount}")
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Histogram:
    """Fixed-bucket histogram for latencies and batch sizes."""

    def __init__(self, name: str, bucket_bounds: Iterable[float]) -> None:
        self.name = name
        self.bounds: List[float] = sorted(bucket_bounds)
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def record(self, value: float) -> None:
        # The first bound >= value; NaN compares false, so bucket 0.
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def reset(self) -> None:
        """Forget every recorded sample (end-of-warm-up support)."""
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def percentile(self, fraction: float) -> float:
        """Approximate percentile using bucket upper bounds.

        The cumulative-rank scan is the shared
        :func:`repro.obs.hist.rank_bucket` helper (also behind
        :class:`~repro.obs.hist.StreamingHistogram` and
        :func:`~repro.obs.hist.exact_percentile`)."""
        if not 0 <= fraction <= 1:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        if self.total == 0:
            return 0.0
        index = rank_bucket(self.counts, math.ceil(fraction * self.total))
        if index is not None and index < len(self.bounds):
            return self.bounds[index]
        return self.max if self.max is not None else self.bounds[-1]


class StatRegistry:
    """A namespaced collection of counters and histograms."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.streaming: Dict[str, StreamingHistogram] = {}

    def counter(self, name: str) -> Counter:
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def histogram(self, name: str, bucket_bounds: Iterable[float]) -> Histogram:
        if name not in self.histograms:
            self.histograms[name] = Histogram(name, bucket_bounds)
        return self.histograms[name]

    def streaming_histogram(
        self, name: str, significant_digits: int = 3
    ) -> StreamingHistogram:
        """A bounded-memory quantile sketch (O(buckets), mergeable;
        see :class:`repro.obs.hist.StreamingHistogram`)."""
        if name not in self.streaming:
            self.streaming[name] = StreamingHistogram(
                significant_digits, name=name
            )
        return self.streaming[name]

    def merge_streaming(self, other: "StatRegistry") -> None:
        """Fold another registry's streaming histograms into this one —
        how sweep workers / fabric shards aggregate per-point latency
        sketches into one cross-run distribution."""
        for name, histogram in other.streaming.items():
            if name in self.streaming:
                self.streaming[name].merge(histogram)
            else:
                self.streaming[name] = histogram.copy()

    def reset_counters(self) -> None:
        """Zero every counter (end of warm-up)."""
        for counter in self.counters.values():
            counter.reset()

    def reset_window(self, histograms: bool = False) -> None:
        """End-of-warm-up reset: counters restart, so measured-region
        accounting excludes warm-up events.  Pass ``histograms=True`` to
        also clear recorded distributions (e.g. warm-up latency
        samples)."""
        self.reset_counters()
        if histograms:
            for histogram in self.histograms.values():
                histogram.reset()
            for streaming in self.streaming.values():
                streaming.reset()

    def snapshot(self) -> Dict[str, float]:
        """Flat name → value view of counters and histogram summaries
        (``histogram.<name>.{count,mean,p50,p99,max}``)."""
        values: Dict[str, float] = {}
        for name, counter in self.counters.items():
            values[f"counter.{name}"] = counter.value
        for name, histogram in self.histograms.items():
            values[f"histogram.{name}.count"] = histogram.total
            values[f"histogram.{name}.mean"] = histogram.mean
            values[f"histogram.{name}.p50"] = histogram.percentile(0.50)
            values[f"histogram.{name}.p99"] = histogram.percentile(0.99)
            values[f"histogram.{name}.max"] = (
                histogram.max if histogram.max is not None else 0.0
            )
        for name, streaming in self.streaming.items():
            for stat, value in streaming.summary().items():
                values[f"shist.{name}.{stat}"] = value
        return values

    def items(self) -> List[Tuple[str, float]]:
        return sorted(self.snapshot().items())
