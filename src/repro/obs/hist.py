"""Bounded-memory streaming quantile histograms (HDR/DDSketch style).

A fabric's declared flows keep exact latency samples, one integer per
delivered frame.  That is fine for a handful of flows, but not for the
sharded flow table of a 10⁵-flow run, whose memory must not grow with
delivered frames.  This module gives such a store a *mergeable,
bounded-memory* estimator:

* Values are assigned to geometrically spaced buckets ``(gamma^(i-1),
  gamma^i]`` with ``gamma = (1 + eps) / (1 - eps)`` and ``eps =
  10**-significant_digits``.  A quantile query returns the bucket
  midpoint ``2 * gamma^i / (gamma + 1)``, which is within **relative
  error ``eps``** of the exact nearest-rank sample (the classic
  DDSketch bound: for any true value ``v`` in the bucket, ``|estimate -
  v| <= eps * v``), up to float rounding in ``log``/``pow`` (~1 ulp).
* Memory is ``O(occupied buckets)``: a sparse ``{index: count}`` dict
  bounded by ``log(max/min) / log(gamma)`` regardless of sample count.
  Three significant digits over a 1 ns..1 s latency range is < 10,400
  buckets worst case; real distributions occupy a few hundred.
* ``merge()`` adds two histograms of the same resolution
  bucket-for-bucket, so per-shard / per-process / per-point histograms
  aggregate to exactly the histogram of the concatenated stream —
  the property sweeps and sharded flow tables need.

``count``, ``sum`` (hence ``mean``), ``min`` and ``max`` are tracked
exactly; only interior quantiles are approximate.  Quantile queries are
clamped into ``[min, max]``, which preserves the error bound (the true
value lies in that range too) and makes the extremes exact.

The nearest-rank helpers shared by every percentile implementation in
the repo (:func:`exact_percentile`, previously duplicated between
``repro.fabric.flows`` and ``repro.sim.stats``) live here too.
"""

from __future__ import annotations

import math
import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "StreamingHistogram",
    "exact_percentile",
    "merge_all",
    "nearest_rank",
    "rank_bucket",
]


# ----------------------------------------------------------------------
# Shared nearest-rank primitives
# ----------------------------------------------------------------------
def nearest_rank(total: int, fraction: float) -> int:
    """1-based nearest-rank index into ``total`` ordered samples.

    The rank of the ``fraction`` quantile under the nearest-rank
    definition: ``ceil(fraction * total)`` clamped into ``[1, total]``.
    """
    return min(total, max(1, math.ceil(fraction * total)))


def exact_percentile(sorted_samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile over raw sorted samples.

    Unlike bucketed estimates (fine for dashboards, degenerate for
    assertions like ``p99 > p50``), this is exact: the value at rank
    ``ceil(fraction * n)``.  Historically lived in
    ``repro.fabric.flows``; re-exported there for compatibility.
    """
    if not sorted_samples:
        return 0.0
    return sorted_samples[nearest_rank(len(sorted_samples), fraction) - 1]


def rank_bucket(counts: Iterable[int], target: int) -> Optional[int]:
    """Index of the first bucket where the cumulative count reaches
    ``target``, or ``None`` if the counts never do (the caller decides
    the overflow semantics — e.g. return the recorded maximum)."""
    seen = 0
    for index, count in enumerate(counts):
        seen += count
        if seen >= target:
            return index
    return None


# ----------------------------------------------------------------------
# The streaming histogram
# ----------------------------------------------------------------------
class StreamingHistogram:
    """Mergeable log-bucketed quantile sketch with a relative-error bound.

    ``significant_digits`` (1..5) sets the resolution: quantile
    estimates are within relative error ``10**-significant_digits`` of
    the exact nearest-rank sample.  Values ``<= 0`` land in a dedicated
    zero bucket and are reported as ``0.0`` (latencies are positive;
    the zero bucket keeps the sketch total-preserving under defensive
    inputs).
    """

    __slots__ = (
        "name",
        "significant_digits",
        "relative_error",
        "_gamma",
        "_log_gamma",
        "counts",
        "zero_count",
        "total",
        "sum",
        "min",
        "max",
    )

    def __init__(self, significant_digits: int = 3, name: str = "") -> None:
        if not 1 <= significant_digits <= 5:
            raise ValueError(
                f"significant_digits must be in [1, 5], got {significant_digits}"
            )
        self.name = name
        self.significant_digits = significant_digits
        #: Documented bound: |estimated quantile - exact quantile| <=
        #: relative_error * exact quantile (plus ~1 ulp of float noise).
        self.relative_error = 10.0 ** -significant_digits
        eps = self.relative_error
        self._gamma = (1.0 + eps) / (1.0 - eps)
        self._log_gamma = math.log(self._gamma)
        self.counts: Dict[int, int] = {}
        self.zero_count = 0
        self.total = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    # -- ingestion -------------------------------------------------------
    def record(self, value: float, count: int = 1) -> None:
        """Add ``count`` observations of ``value`` in O(1)."""
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        if value > 0.0:
            index = math.ceil(math.log(value) / self._log_gamma)
            self.counts[index] = self.counts.get(index, 0) + count
        else:
            self.zero_count += count
        self.total += count
        self.sum += value * count
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def reset(self) -> None:
        """Forget every recorded sample (end-of-warm-up support)."""
        self.counts.clear()
        self.zero_count = 0
        self.total = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    # -- queries ---------------------------------------------------------
    @property
    def bucket_count(self) -> int:
        """Occupied buckets — the memory footprint, independent of
        ``total``."""
        return len(self.counts) + (1 if self.zero_count else 0)

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def value_at(self, index: int) -> float:
        """Midpoint estimate for bucket ``index`` (relative-error
        optimal for values in ``(gamma^(i-1), gamma^i]``)."""
        return 2.0 * self._gamma ** index / (self._gamma + 1.0)

    def percentile(self, fraction: float) -> float:
        """Nearest-rank quantile estimate, within ``relative_error``."""
        if not 0 <= fraction <= 1:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        if self.total == 0:
            return 0.0
        rank = nearest_rank(self.total, fraction)
        # Ranks 1 and n are the recorded min/max, which are tracked
        # exactly — return them directly (error 0 at the extremes).
        if rank == 1 and self.min is not None:
            return self.min
        if rank == self.total and self.max is not None:
            return self.max
        seen = self.zero_count
        if seen >= rank:
            estimate = 0.0
        else:
            estimate = None
            for index in sorted(self.counts):
                seen += self.counts[index]
                if seen >= rank:
                    estimate = self.value_at(index)
                    break
            if estimate is None:  # defensive: counts always sum to total
                estimate = self.max if self.max is not None else 0.0
        # min/max are exact, and the true ranked value lies within
        # them, so clamping can only shrink the error.
        if self.min is not None:
            estimate = max(estimate, self.min)
        if self.max is not None:
            estimate = min(estimate, self.max)
        return estimate

    def percentiles(self, fractions: Sequence[float]) -> List[float]:
        return [self.percentile(fraction) for fraction in fractions]

    def summary(self) -> Dict[str, float]:
        """The standard latency-summary view of the sketch."""
        return {
            "count": float(self.total),
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
            "p999": self.percentile(0.999),
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
        }

    # -- aggregation -----------------------------------------------------
    def _check_compatible(self, other: "StreamingHistogram") -> None:
        if self.significant_digits != other.significant_digits:
            raise ValueError(
                f"cannot merge histograms with different resolution: "
                f"{self.significant_digits} vs {other.significant_digits} "
                f"significant digits"
            )

    def merge(self, other: "StreamingHistogram") -> "StreamingHistogram":
        """Fold ``other`` into this histogram in place and return self.

        Bucket-exact: ``a.merge(b)`` has identical counts (hence
        identical quantile estimates) to a histogram that ingested the
        concatenated sample stream.  ``sum`` may differ by float
        addition order, i.e. within a few ulps.
        """
        self._check_compatible(other)
        for index, count in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + count
        self.zero_count += other.zero_count
        self.total += other.total
        self.sum += other.sum
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)
        return self

    def copy(self) -> "StreamingHistogram":
        clone = StreamingHistogram(self.significant_digits, name=self.name)
        clone.counts = dict(self.counts)
        clone.zero_count = self.zero_count
        clone.total = self.total
        clone.sum = self.sum
        clone.min = self.min
        clone.max = self.max
        return clone

    # -- export ----------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-safe full state (round-trips via :meth:`from_dict`)."""
        return {
            "name": self.name,
            "significant_digits": self.significant_digits,
            "relative_error": self.relative_error,
            "zero_count": self.zero_count,
            "total": self.total,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "counts": {str(index): count for index, count in sorted(self.counts.items())},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "StreamingHistogram":
        hist = cls(int(data["significant_digits"]), name=str(data.get("name", "")))
        hist.zero_count = int(data["zero_count"])
        hist.total = int(data["total"])
        hist.sum = float(data["sum"])
        hist.min = None if data["min"] is None else float(data["min"])
        hist.max = None if data["max"] is None else float(data["max"])
        hist.counts = {
            int(index): int(count)
            for index, count in dict(data["counts"]).items()
        }
        return hist

    def prometheus_lines(self, metric_name: Optional[str] = None) -> List[str]:
        """Prometheus text-format histogram: cumulative ``_bucket``
        lines with the bucket *upper bounds* as ``le`` labels, plus
        ``_sum`` and ``_count``."""
        name = re.sub(r"[^a-zA-Z0-9_:]", "_", metric_name or self.name or "histogram")
        lines = [f"# TYPE {name} histogram"]
        cumulative = self.zero_count
        if self.zero_count:
            lines.append(f'{name}_bucket{{le="0"}} {cumulative}')
        for index in sorted(self.counts):
            cumulative += self.counts[index]
            upper = self._gamma ** index
            lines.append(f'{name}_bucket{{le="{upper!r}"}} {cumulative}')
        lines.append(f'{name}_bucket{{le="+Inf"}} {self.total}')
        lines.append(f"{name}_sum {self.sum!r}")
        lines.append(f"{name}_count {self.total}")
        return lines

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StreamingHistogram({self.name!r}, digits={self.significant_digits}, "
            f"total={self.total}, buckets={self.bucket_count})"
        )


def merge_all(histograms: Iterable[StreamingHistogram],
              significant_digits: Optional[int] = None) -> StreamingHistogram:
    """Merge an iterable of histograms into a fresh one (cross-shard /
    cross-process aggregation helper)."""
    result: Optional[StreamingHistogram] = None
    for histogram in histograms:
        if result is None:
            result = histogram.copy()
        else:
            result.merge(histogram)
    if result is None:
        result = StreamingHistogram(significant_digits or 3)
    return result


# Type alias kept for annotation brevity in callers.
Buckets = Dict[int, int]
Fractions = Tuple[float, ...]
