"""Parallel, cache-aware execution of experiment points.

The evaluation of the paper is a grid of *independent* simulations
(Figures 7-8 sweep cores x clock x frame size; the tables and ablations
each re-run the simulator with perturbed configs), so the runner's job
is embarrassingly parallel: fan :class:`~repro.exp.spec.RunSpec` points
across a :class:`concurrent.futures.ProcessPoolExecutor`, short-circuit
points whose content key is already in the
:class:`~repro.exp.cache.ResultCache`, and report progress/ETA through
:class:`repro.obs.progress.ProgressReporter`.

Determinism: the simulator itself is deterministic, points are
deduplicated and dispatched by content key, and each worker seeds
``random`` from the point's key before running — so a sweep's results
do not depend on the number of jobs, completion order, or whether any
point came from cache.
"""

from __future__ import annotations

import os
import random
import sys
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.exp.cache import ResultCache, default_cache_dir
from repro.exp.spec import RunSpec, spec_seed
from repro.obs.progress import ProgressReporter

#: Environment override for library callers that never see a ``--jobs``
#: flag (the benchmark drivers): ``REPRO_SWEEP_JOBS=4 pytest benchmarks``.
JOBS_ENV = "REPRO_SWEEP_JOBS"


def default_jobs() -> int:
    value = os.environ.get(JOBS_ENV, "").strip()
    if value:
        try:
            return max(1, int(value))
        except ValueError:
            pass
    return 1


# ----------------------------------------------------------------------
# Worker entry point (must be module-level for pickling)
# ----------------------------------------------------------------------
def build_simulator(spec: RunSpec):
    """The simulator one point runs on, built from every field of the
    spec: a :class:`~repro.fabric.FabricSimulator` for a fabric point,
    else a :class:`~repro.nic.throughput.ThroughputSimulator`.  The sweep
    engine and ``repro check`` both build through here."""
    if spec.fabric_spec is not None:
        from repro.fabric import FabricSimulator

        return FabricSimulator(
            spec.config, spec.fabric_spec, fault_plan=spec.fault_plan,
            rss=spec.rss,
        )
    from repro.nic.throughput import ThroughputSimulator

    workload = spec.workload
    return ThroughputSimulator(
        spec.config,
        workload.udp_payload_bytes,
        offered_fraction=workload.offered_fraction,
        size_model=workload.build_size_model(),
        rx_burst_frames=workload.rx_burst_frames,
        fault_plan=spec.fault_plan,
        rss=spec.rss,
    )


def execute_spec(spec: RunSpec):
    """Run one point to completion; the unit of work shipped to workers."""
    random.seed(spec_seed(spec))
    return build_simulator(spec).run(spec.warmup_s, spec.measure_s)


def _execute_keyed(item):
    key, spec = item
    return key, execute_spec(spec)


# ----------------------------------------------------------------------
# Outcome bookkeeping
# ----------------------------------------------------------------------
@dataclass
class SweepOutcome:
    """Results of one engine invocation, in input-spec order."""

    specs: List[RunSpec]
    results: List[object]
    cache_hits: int = 0
    executed: int = 0
    deduplicated: int = 0
    elapsed_s: float = 0.0
    keys: List[str] = field(default_factory=list)
    cached_flags: List[bool] = field(default_factory=list)

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index):
        return self.results[index]


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
class SweepRunner:
    """Fans experiment points across processes with result caching.

    Parameters
    ----------
    jobs:
        Worker processes.  ``None`` reads ``REPRO_SWEEP_JOBS`` (default
        1).  With one job everything runs inline — no pool, no pickling
        overhead — which is also the fallback used when a pool cannot
        be created (restricted environments).
    cache_dir:
        Directory for the content-addressed result cache.  ``None``
        reads ``REPRO_CACHE_DIR``; empty/unset disables caching.
    use_cache:
        ``False`` disables both cache reads and writes even when a
        directory is configured (the CLI's ``--no-cache``).
    progress:
        ``None`` silences progress lines; otherwise a stream (e.g.
        ``sys.stderr``).
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        cache_dir: Optional[str] = None,
        use_cache: bool = True,
        progress=None,
        label: str = "sweep",
    ) -> None:
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))
        resolved = cache_dir if cache_dir is not None else default_cache_dir()
        self.cache: Optional[ResultCache] = (
            ResultCache(resolved) if (use_cache and resolved) else None
        )
        self.progress_stream = progress
        self.label = label

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[RunSpec]) -> SweepOutcome:
        """Execute ``specs``; returns results in input order.

        Identical points (same content key) are executed once and
        fanned out; cached points are loaded without simulating.
        """
        specs = list(specs)
        reporter = ProgressReporter(
            len(specs), label=self.label, stream=self.progress_stream
        )
        keys = [spec.key for spec in specs]
        results: Dict[str, object] = {}
        cached_keys = set()

        # 1. Deduplicate within the batch.
        unique: Dict[str, RunSpec] = {}
        for key, spec in zip(keys, specs):
            unique.setdefault(key, spec)
        deduplicated = len(specs) - len(unique)

        # 2. Cache lookups.
        todo: Dict[str, RunSpec] = {}
        for key, spec in unique.items():
            cached = self.cache.get(key) if self.cache is not None else None
            if cached is not None:
                results[key] = cached
                cached_keys.add(key)
                reporter.update(cache_hit=True)
            else:
                todo[key] = spec

        # 3. Execute the remainder.
        if todo:
            if self.jobs > 1 and len(todo) > 1:
                self._run_pool(todo, results, reporter)
            else:
                for key, spec in todo.items():
                    result = execute_spec(spec)
                    self._store(key, result, results, reporter)

        # 4. Reassemble in input order (duplicates share one result).
        ordered = [results[key] for key in keys]
        outcome = SweepOutcome(
            specs=specs,
            results=ordered,
            cache_hits=reporter.cache_hits,
            executed=reporter.executed,
            deduplicated=deduplicated,
            elapsed_s=reporter.elapsed_s,
            keys=keys,
            cached_flags=[key in cached_keys for key in keys],
        )
        if self.progress_stream is not None:
            self.progress_stream.write(reporter.summary() + "\n")
        return outcome

    # ------------------------------------------------------------------
    def _store(self, key, result, results, reporter) -> None:
        results[key] = result
        if self.cache is not None:
            self.cache.put(key, result)
        reporter.update(cache_hit=False)

    def _run_pool(self, todo, results, reporter) -> None:
        """Fan out over a process pool; falls back to inline on failure."""
        items = list(todo.items())
        workers = min(self.jobs, len(items))
        try:
            executor = ProcessPoolExecutor(max_workers=workers)
        except (OSError, ValueError, NotImplementedError):
            for key, spec in items:
                self._store(key, execute_spec(spec), results, reporter)
            return
        try:
            pending = {executor.submit(_execute_keyed, item) for item in items}
            while pending:
                finished, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in finished:
                    key, result = future.result()
                    # Store (and cache) as soon as each point lands, so
                    # an interrupted sweep keeps everything completed
                    # before the interruption.
                    self._store(key, result, results, reporter)
        finally:
            executor.shutdown(wait=False, cancel_futures=True)


# ----------------------------------------------------------------------
# Convenience functions for library callers
# ----------------------------------------------------------------------
def run_specs(
    specs: Sequence[RunSpec],
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    progress=None,
    label: str = "sweep",
) -> List[object]:
    """Run points and return just the results, in input order."""
    runner = SweepRunner(
        jobs=jobs, cache_dir=cache_dir, use_cache=use_cache,
        progress=progress, label=label,
    )
    return runner.run(specs).results


def run_spec(
    spec: RunSpec,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
) -> object:
    """Run one point inline (cache-aware, never spawns workers)."""
    return run_specs([spec], jobs=1, cache_dir=cache_dir, use_cache=use_cache)[0]


def progress_stream(enabled: bool = True):
    """stderr when ``enabled``, else ``None`` (silence)."""
    return sys.stderr if enabled else None
