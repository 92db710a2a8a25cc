"""Periodic metrics sampling and time-series export.

A single end-of-run :meth:`~repro.sim.stats.StatRegistry.snapshot` says
*what* a run produced; a time series of snapshots says *when* — which
is the difference between "throughput was 9.8 Gb/s" and "throughput
collapsed for 200 us when the receive buffer filled".  The
:class:`MetricsSampler` turns any snapshot-producing callable into such
a series by scheduling itself on the simulation kernel at a fixed
simulated-time interval.

Sampling is a pure read: the collector must not mutate simulator
state, and the sampler only ever *adds* events to the kernel queue, so
a sampled run's simulated timeline is identical to an unsampled one.

Exporters: JSON (list of ``{"t_ps", "t_us", metrics...}`` rows), CSV
(one column per metric, union of keys across samples), and the
Prometheus text exposition format for the final snapshot so existing
scrape-based dashboards can ingest a simulation the same way they
ingest a production service.
"""

from __future__ import annotations

import csv
import io
import json
import re
from typing import IO, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.sim.kernel import Simulator

Sample = Tuple[int, Dict[str, float]]


class MetricsSampler:
    """Samples ``collect()`` every ``interval_ps`` of simulated time."""

    def __init__(
        self,
        sim: Simulator,
        collect: Callable[[], Mapping[str, float]],
        interval_ps: int,
        max_samples: Optional[int] = None,
    ) -> None:
        if interval_ps <= 0:
            raise ValueError(f"sample interval must be positive, got {interval_ps}")
        self.sim = sim
        self.collect = collect
        self.interval_ps = interval_ps
        self.max_samples = max_samples
        self.samples: List[Sample] = []
        self._running = False
        self._pending: Optional[list] = None  # the queued tick's entry

    def start(self) -> "MetricsSampler":
        """Schedule the first sample one interval from now."""
        if not self._running:
            self._running = True
            self._pending = self.sim.schedule(self.interval_ps, self._tick)
        return self

    def stop(self) -> None:
        """Take no further samples.

        The already-queued ``_tick`` is cancelled on the kernel, not
        left behind as a live no-op: a dead tick would inflate
        ``pending_events`` and keep :meth:`Simulator.run` advancing
        simulated time to the tick's timestamp after the sampler is
        logically gone.
        """
        self._running = False
        if self._pending is not None:
            self.sim.cancel(self._pending)
            self._pending = None

    def _tick(self) -> None:
        self._pending = None
        if not self._running:
            return
        self.samples.append((self.sim.now_ps, dict(self.collect())))
        if self.max_samples is not None and len(self.samples) >= self.max_samples:
            self._running = False
            return
        self._pending = self.sim.schedule(self.interval_ps, self._tick)

    def sample_now(self) -> None:
        """Take one immediate out-of-band sample (e.g. at run end)."""
        self.samples.append((self.sim.now_ps, dict(self.collect())))

    # -- export ----------------------------------------------------------
    def metric_names(self) -> List[str]:
        """Sorted union of metric keys across every sample."""
        names = set()
        for _ts, values in self.samples:
            names.update(values)
        return sorted(names)

    def to_json(self) -> str:
        rows = [
            {"t_ps": ts, "t_us": ts / 1e6, **values} for ts, values in self.samples
        ]
        return json.dumps({"interval_ps": self.interval_ps, "samples": rows}, indent=2)

    def to_csv(self) -> str:
        names = self.metric_names()
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["t_ps", "t_us"] + names)
        for ts, values in self.samples:
            writer.writerow(
                [ts, ts / 1e6] + [values.get(name, "") for name in names]
            )
        return buffer.getvalue()

    def write(self, destination: Union[str, IO[str]], fmt: str = "json") -> None:
        """Write the series as ``fmt`` (``json``/``csv``/``prom``)."""
        if fmt == "json":
            text = self.to_json()
        elif fmt == "csv":
            text = self.to_csv()
        elif fmt == "prom":
            final = self.samples[-1][1] if self.samples else {}
            text = prometheus_text(final)
        else:
            raise ValueError(f"unknown metrics format {fmt!r}")
        if hasattr(destination, "write"):
            destination.write(text)  # type: ignore[union-attr]
            return
        with open(destination, "w") as handle:  # type: ignore[arg-type]
            handle.write(text)


_PROM_INVALID = re.compile(r"[^a-zA-Z0-9_:]")
_PROM_LEADING = re.compile(r"^[^a-zA-Z_:]")


def prometheus_metric_name(name: str, prefix: str = "repro") -> str:
    """Sanitize a dotted stat name into a legal Prometheus metric name."""
    cleaned = _PROM_INVALID.sub("_", f"{prefix}_{name}" if prefix else name)
    if _PROM_LEADING.match(cleaned):
        cleaned = "_" + cleaned
    return cleaned


def prometheus_text(
    snapshot: Mapping[str, float],
    prefix: str = "repro",
    help_text: Optional[Mapping[str, str]] = None,
) -> str:
    """Render a flat snapshot in the Prometheus text exposition format.

    Counters (names beginning ``counter.``) are typed ``counter``;
    everything else is exported as a ``gauge``.  Names are emitted in
    sorted order so the output is deterministic.
    """
    lines: List[str] = []
    for name in sorted(snapshot):
        value = snapshot[name]
        metric = prometheus_metric_name(name, prefix=prefix)
        kind = "counter" if name.startswith("counter.") else "gauge"
        if help_text and name in help_text:
            lines.append(f"# HELP {metric} {help_text[name]}")
        lines.append(f"# TYPE {metric} {kind}")
        lines.append(f"{metric} {float(value):g}")
    return "\n".join(lines) + ("\n" if lines else "")
