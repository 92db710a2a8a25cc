"""Unified observability layer: tracing, metrics time series, profiling.

Three opt-in instruments over the simulation tiers, all null-by-default
so an uninstrumented run is bit-identical to the pre-observability
code:

* :class:`Tracer` / :data:`NULL_TRACER` — frame-lifecycle spans and
  instants, exported to Chrome trace-event / Perfetto JSON by
  :func:`write_chrome_trace`;
* :class:`MetricsSampler` — periodic :class:`~repro.sim.stats.StatRegistry`
  -style snapshots over simulated time, exported as JSON/CSV or the
  Prometheus text format (:func:`prometheus_text`);
* :class:`SimProfiler` — host wall-time attribution of the event
  kernel's callbacks (per-site, per-phase and per-module), for
  profiling the simulator itself;
* :class:`ProgressReporter` — host-side progress/ETA lines for the
  experiment engine's sweeps (:mod:`repro.exp`), counting cache hits
  separately from executed points;
* :class:`StreamingHistogram` (:mod:`repro.obs.hist`) — mergeable,
  bounded-memory quantile sketches with a documented relative-error
  bound, which the fabric's sharded flow table keeps per shard.
"""

from repro._lazy import lazy_exports
from repro.obs.hist import (
    StreamingHistogram,
    exact_percentile,
    merge_all,
    nearest_rank,
    rank_bucket,
)
from repro.obs.tracer import (
    NULL_TRACER,
    FrameStage,
    NullTracer,
    PrefixedTracer,
    RX_STAGE_ORDER,
    STAGE_ORDERS,
    TX_STAGE_ORDER,
    TraceEvent,
    Tracer,
)

# The exporters, the profiler and the sweep progress lines load on
# first use; a run without them needs only the tracer and the sketches.
__getattr__, __dir__ = lazy_exports(__name__, {
    "MetricsSampler": "repro.obs.metrics",
    "prometheus_metric_name": "repro.obs.metrics",
    "prometheus_text": "repro.obs.metrics",
    "chrome_trace_dict": "repro.obs.perfetto",
    "write_chrome_trace": "repro.obs.perfetto",
    "SimProfiler": "repro.obs.profiler",
    "describe_callback": "repro.obs.profiler",
    "phase_of": "repro.obs.profiler",
    "ProgressReporter": "repro.obs.progress",
})

__all__ = [
    "FrameStage",
    "MetricsSampler",
    "NULL_TRACER",
    "NullTracer",
    "PrefixedTracer",
    "ProgressReporter",
    "RX_STAGE_ORDER",
    "STAGE_ORDERS",
    "SimProfiler",
    "StreamingHistogram",
    "TX_STAGE_ORDER",
    "TraceEvent",
    "Tracer",
    "chrome_trace_dict",
    "describe_callback",
    "exact_percentile",
    "merge_all",
    "nearest_rank",
    "phase_of",
    "prometheus_metric_name",
    "prometheus_text",
    "rank_bucket",
    "write_chrome_trace",
]
