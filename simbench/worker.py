"""One benchmark operation, run in a fresh worker process.

    python -m simbench.worker '{"workload": "fabric-rpc", "seed": 1}'

Prints one JSON object: set-up time, the wall time of ``run()`` and
its split over slices of simulated time, the host's reference-loop
time around it, simulated frames, peak RSS, the result digest and
simulated outputs, and, for a traced round, the per-layer breakdown.  An operation that
raises, fails ``verify_conservation`` or simulates no frames reports
``"ok": false``.
"""

import time

# Set-up is timed from here: before ``repro`` is imported.
_WORKER_START = time.perf_counter()

import bisect  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from typing import Dict, Optional  # noqa: E402

from simbench.workloads import WORKLOADS, simulated_outputs  # noqa: E402

_FRAME_COUNTERS = ("counter.tx_wire_frames", "counter.rx_committed_frames")
#: A timed round's wall time is split over this many equal slices of
#: simulated time; the clock is sampled this often to find them.
SLICES = 64
SAMPLE_INTERVAL_S = 0.005
#: Size of the reference loop (~13 ms a repetition on a 2-vCPU VM).
REFERENCE_EVENTS = 20000
REFERENCE_REPS = 5


def _snapshot_sum(snapshot: Dict[str, float], names) -> float:
    """Sum a per-NIC counter over the simulator's ``metrics_snapshot``
    (a fabric prefixes each NIC's names with ``nic<i>.``)."""
    return sum(
        value for key, value in snapshot.items()
        if any(key == name or key.endswith("." + name) for name in names)
    )


def _reference_step(when: int) -> int:
    return when


def reference_s() -> float:
    """Best of ``REFERENCE_REPS`` timings of a fixed pure-Python loop
    shaped like the kernel's (a heap of timed callbacks, dict counters):
    how fast the host runs Python code right now.  It touches no
    simulator code, so no change to the simulator moves it."""
    best = float("inf")
    for _ in range(REFERENCE_REPS):
        heap, counts = [], {}
        start = time.perf_counter()
        for i in range(REFERENCE_EVENTS):
            heapq.heappush(heap, ((i * 7919) % 4096, i, _reference_step))
            counts[i & 63] = counts.get(i & 63, 0) + 1
            if len(heap) > 128:
                when, _ticket, callback = heapq.heappop(heap)
                callback(when)
        best = min(best, time.perf_counter() - start)
    return best


def _timed_run(simulator, warmup_s: float, measure_s: float):
    """Call ``run()`` once; return its result, its wall time and the wall
    time spent in each of ``SLICES`` equal slices of simulated time.

    The slices come from sampling the kernel clock every
    ``SAMPLE_INTERVAL_S`` of wall time (SIGALRM), which leaves the
    simulation itself untouched.  They sum to the wall time.
    """
    kernel = simulator.sim
    start_ps = kernel.now_ps
    samples = []
    signal.signal(
        signal.SIGALRM,
        lambda _signum, _frame: samples.append((time.perf_counter(), kernel.now_ps)),
    )
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    start = time.perf_counter()
    try:
        result = simulator.run(warmup_s=warmup_s, measure_s=measure_s)
    finally:
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
    # A signal caught just before the timer stopped can land after ``end``.
    kept = [(start, start_ps)] + [sample for sample in samples if sample[0] <= end]
    walls = [wall for wall, _ in kept]
    clocks = [ps for _, ps in kept]
    span_ps = kernel.now_ps - start_ps
    marks = [start]
    for k in range(1, SLICES):
        target = start_ps + span_ps * k / SLICES
        i = bisect.bisect_left(clocks, target)
        if i == len(clocks):
            marks.append(end)
        else:  # clocks[i - 1] < target <= clocks[i]
            share = (target - clocks[i - 1]) / (clocks[i] - clocks[i - 1])
            marks.append(walls[i - 1] + share * (walls[i] - walls[i - 1]))
    marks.append(end)
    return result, end - start, [b - a for a, b in zip(marks, marks[1:])]


def run_operation(
    workload: str,
    seed: int,
    scale: float = 1.0,
    traced: bool = False,
    setup_only: bool = False,
    started: Optional[float] = None,
) -> Dict[str, object]:
    """Build, run and check one workload; never raises."""
    started = time.perf_counter() if started is None else started
    tracer = None
    try:
        spec = WORKLOADS[workload]
        if traced:
            from simbench.trace import Tracer, calibrate

            calibration = calibrate()
            tracer = Tracer()
            tracer.install()
        simulator = spec.build(seed)
        setup_s = time.perf_counter() - started
        import repro

        source = os.path.abspath(os.path.dirname(repro.__file__))
        out: Dict[str, object] = {"ok": True, "setup_s": setup_s, "repro": source}
        if setup_only:
            return out
        if tracer is not None:
            tracer.attach(simulator)
        warmup_s, measure_s = spec.warmup_s * scale, spec.measure_s * scale
        sim_ms = (warmup_s + measure_s) * 1e3
        before = reference_s()
        result, wall_s, slice_s = _timed_run(simulator, warmup_s, measure_s)
        if tracer is not None:
            tracer.uninstall()
        out["reference_s"] = min(before, reference_s())

        from repro.check.golden import golden_digest
        from repro.check.verify import verify_conservation

        verify_conservation(simulator)
        snapshot = simulator.metrics_snapshot()
        frames = _snapshot_sum(snapshot, _FRAME_COUNTERS)
        if frames <= 0:
            raise RuntimeError("the run simulated no frames")
        out.update(
            wall_s=wall_s,
            slice_s=slice_s,
            sim_ms=sim_ms,
            frames=frames,
            events=simulator.sim.events_processed,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            digest=golden_digest(result),
            outputs=simulated_outputs(result),
        )
        if tracer is not None:
            out["calibration"] = calibration
            out["missing_entry_points"] = tracer.missing
            out["layers"] = _traced_metrics(
                tracer, calibration, snapshot, wall_s, sim_ms, frames,
                simulator.sim.events_processed,
            )
        return out
    except Exception as exc:  # one failed operation must not stop the ledger
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    finally:
        if tracer is not None:
            tracer.uninstall()


def _traced_metrics(tracer, calibration, snapshot, wall_s, sim_ms, frames,
                    events) -> Dict[str, float]:
    metrics = tracer.layer_metrics(calibration, wall_s, sim_ms)
    costmodel_calls = tracer.stats.get("cpu.costmodel", (0,))[0]
    schedules = tracer.stats.get("sim.kernel", (0,))[0]
    transferred = _snapshot_sum(snapshot, ("counter.sdram_transferred_bytes",))
    useful = _snapshot_sum(snapshot, ("counter.sdram_useful_bytes",))
    drops = snapshot.get("counter.fabric.switch_drops", 0.0)
    forwarded = snapshot.get("counter.fabric.switch_forwarded", 0.0)
    metrics.update({
        "sim.kernel.events_per_sim_ms": events / sim_ms,
        "sim.kernel.schedules_per_sim_ms": schedules / sim_ms,
        "cpu.costmodel.calls_per_frame": costmodel_calls / frames,
        "mem.sdram.useful_ratio": useful / transferred if transferred else 0.0,
        "fabric.wire.drop_ratio": (
            drops / (drops + forwarded) if drops + forwarded else 0.0
        ),
        "traced_sim_ms_per_wall_s": sim_ms / wall_s,
    })
    return metrics


def main(argv) -> int:
    request = json.loads(argv[1])
    print(json.dumps(run_operation(started=_WORKER_START, **request)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
