"""Streaming-histogram ingest/merge microbenchmark and accuracy guard.

The :class:`repro.obs.hist.StreamingHistogram` is the latency sketch of
each shard of a topology fabric's flow table, so its ``record()`` sits
on the per-delivered-frame hot path of every topology run.  This bench
measures the ingest rate over a heavy-tailed sample stream, checks the
merged-shard path, and re-asserts the documented relative-error bound
end to end.
"""

from __future__ import annotations

import random

from benchmarks._helpers import emit, run_once
from repro.obs.hist import StreamingHistogram, exact_percentile, merge_all

SAMPLES = 200_000
SHARDS = 8
FRACTIONS = (0.50, 0.90, 0.99, 0.999)


def _sample_stream():
    rng = random.Random(20260807)
    # Lognormal: a plausible latency shape with a long tail.
    return [rng.lognormvariate(3.0, 1.0) for _ in range(SAMPLES)]


def _ingest_and_merge():
    samples = _sample_stream()
    whole = StreamingHistogram(3, name="whole")
    for value in samples:
        whole.record(value)
    shards = [StreamingHistogram(3, name=f"shard{i}") for i in range(SHARDS)]
    for index, value in enumerate(samples):
        shards[index % SHARDS].record(value)
    merged = merge_all(shards)
    return samples, whole, merged


def test_streaming_hist_ingest_and_bound(benchmark):
    samples, whole, merged = run_once(benchmark, _ingest_and_merge)
    assert whole.total == merged.total == SAMPLES
    # Sharded ingestion aggregates bucket-exactly.
    assert merged.counts == whole.counts

    samples.sort()
    lines = [f"Streaming histogram: {SAMPLES} samples, "
             f"{whole.bucket_count} buckets"]
    for fraction in FRACTIONS:
        exact = exact_percentile(samples, fraction)
        estimate = whole.percentile(fraction)
        error = abs(estimate - exact) / exact
        lines.append(
            f"  p{fraction * 100:g}: exact {exact:10.3f}  "
            f"streaming {estimate:10.3f}  rel err {error:.2e}"
        )
        assert error <= whole.relative_error + 1e-9, (
            f"p{fraction * 100:g} error {error:.2e} exceeds the documented "
            f"bound {whole.relative_error:g}"
        )
    # Bounded memory: buckets grow with the value range, not the count.
    assert whole.bucket_count < 5_000
    emit("\n".join(lines))
