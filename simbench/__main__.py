"""Simulator performance ledger.

Full ledger (every workload, 5 timed rounds + 1 traced round each,
round-robin, one worker process alive at a time)::

    python -m simbench --seed 1
    python -m simbench --smoke          # 1 round, windows / 10, < 20 s

One workload for ``--seconds`` seconds, ending with one JSON line of
end-to-end (``--trace 0``) or per-layer (``--trace 1``) metrics::

    python -m simbench --workload fabric-rpc --seed 3 --seconds 30 --trace 0

Seed 2 is held out: every gain claimed against this ledger must also be
reported on ``--seed 2``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from simbench.trace import LAYERS
from simbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HELD_OUT_SEED = 2

#: (name, unit, better); bounds live in BENCHMARK.json.
END_TO_END = (
    ("sim_ms_per_wall_s", "ms/s", "higher"),
    ("frames_per_wall_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
PER_LAYER = tuple(
    entry
    for layer in LAYERS
    for entry in (
        (f"{layer}.self_ms_per_sim_ms", "ms/ms", "lower"),
        (f"{layer}.calls_per_sim_ms", "1/ms", "lower"),
    )
) + (
    ("sim.kernel.events_per_sim_ms", "1/ms", "lower"),
    ("sim.kernel.schedules_per_sim_ms", "1/ms", "lower"),
    ("cpu.costmodel.calls_per_frame", "1/frame", "lower"),
    ("mem.sdram.useful_ratio", "ratio", "higher"),
    ("fabric.wire.drop_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.gap_share", "ratio", "lower"),
)
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

TIMED_ROUNDS = 5
#: Contract runs: at least this many timed rounds, and set-up measured
#: at least this many times (extra set-up-only workers fill the gap).
MIN_ROUNDS = 3
SETUP_SAMPLES = 15
WORKER_TIMEOUT_S = 150
#: Speeds are reported for a host on which the reference loop
#: (``worker.reference_s``) takes this long at best, about what it takes
#: on the 2-vCPU VM of the README's baseline.
REFERENCE_S = 0.013


# ----------------------------------------------------------------------
# Worker processes
# ----------------------------------------------------------------------
def run_worker(request: Dict[str, object]) -> Dict[str, object]:
    """One operation in a fresh single-threaded process; waits for it."""
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join((SRC, ROOT)),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "simbench.worker", json.dumps(request)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"worker timed out after {WORKER_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        op = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"ok": False, "error": f"worker exit {proc.returncode}: {tail[0]}"}
    if op.get("ok") and not op["repro"].startswith(SRC + os.sep):
        return {"ok": False, "error": f"imported repro from {op['repro']}, not {SRC}"}
    return op


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _stat(values: List[float], value: Optional[float] = None) -> Dict[str, float]:
    """``value`` (default: the median) with the min, max and count of the
    per-round ``values``."""
    return {
        "value": statistics.median(values) if value is None else value,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def fastest_wall_s(timed: List[Dict[str, object]]) -> float:
    """Wall time of a run at the host's undisturbed speed: for each slice
    of simulated time, the fastest round's wall time, summed.

    A shared host slows now and then by up to ~2x, in bursts of 0.1-2 s.
    A whole round rarely escapes every burst, but each slice is
    undisturbed in some round, so the sum repeats from run to run where
    a per-round median drifts with how busy the host was.
    """
    return sum(min(column) for column in zip(*(op["slice_s"] for op in timed)))


def host_factor(timed: List[Dict[str, object]]) -> float:
    """How many times slower than the reference host this host ran
    Python during the run: the best reference-loop time over
    ``REFERENCE_S``.  Undisturbed host speed still drifts by ~±6% over
    minutes; wall times divided by this factor drift far less."""
    return min(op["reference_s"] for op in timed) / REFERENCE_S


def summarize(ops: List[Dict[str, object]], traced: List[Dict[str, object]],
              probes: List[Dict[str, object]] = ()) -> Dict[str, object]:
    """End-to-end and per-layer metrics of one workload's operations.

    An operation fails if it raised, broke conservation, or produced a
    digest different from the workload's other operations (traced
    round included).  ``probes`` are set-up-only workers: their set-up
    times count, and so does their failure.
    """
    runs = [op for op in list(ops) + list(traced) if op.get("ok")]
    digests = collections.Counter(op["digest"] for op in runs)
    digest = digests.most_common(1)[0][0] if digests else None
    for op in runs:
        if op["digest"] != digest:
            op["ok"] = False
            op["error"] = f"digest {op['digest'][:12]} != {digest[:12]}"
    every = list(ops) + list(traced) + list(probes)
    summary: Dict[str, object] = {
        "attempted": len(every),
        "failed": sum(1 for op in every if not op.get("ok")),
        "errors": sorted({op["error"] for op in every if not op.get("ok")}),
        "digest": digest,
        "end_to_end": {},
        "per_layer": {},
    }
    timed = [op for op in ops if op.get("ok")]
    if timed:
        summary["outputs"] = timed[0]["outputs"]
        setups = [op["setup_s"] for op in timed + [p for p in probes if p.get("ok")]]
        factor = host_factor(timed)
        wall_s = fastest_wall_s(timed) / factor
        summary["host_factor"] = factor
        summary["end_to_end"] = {
            "sim_ms_per_wall_s": _stat(
                [op["sim_ms"] / op["wall_s"] * factor for op in timed],
                timed[0]["sim_ms"] / wall_s,
            ),
            "frames_per_wall_s": _stat(
                [op["frames"] / op["wall_s"] * factor for op in timed],
                timed[0]["frames"] / wall_s,
            ),
            "setup_s": _stat(setups),
            "peak_rss_mb": _stat([op["peak_rss_mb"] for op in timed]),
        }
    traced_ok = [op for op in traced if op.get("ok")]
    if traced_ok:
        summary["traced_digest"] = traced_ok[0]["digest"]
        summary["missing_entry_points"] = traced_ok[0]["missing_entry_points"]
        names = sorted({name for op in traced_ok for name in op["layers"]})
        layers = {
            name: statistics.median(op["layers"].get(name, 0.0) for op in traced_ok)
            for name in names
        }
        traced_speed = layers.pop("traced_sim_ms_per_wall_s")
        if timed:
            # Unscaled per-round medians, like the traced side's.
            speed = statistics.median(op["sim_ms"] / op["wall_s"] for op in timed)
            explained = sum(
                value for name, value in layers.items()
                if name.endswith(".self_ms_per_sim_ms")
            )
            layers["trace.overhead_ratio"] = speed / traced_speed
            layers["trace.gap_share"] = 1.0 - explained * speed / 1e3
        summary["per_layer"] = layers
    return summary


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_workload(name: str, seed: int, summary: Dict[str, object]) -> None:
    workload = WORKLOADS[name]
    print(f"== {name} ==")
    print(f"  why: {workload.why}")
    if not workload.random_input:
        print(f"  seed {seed}: this workload has no random input")
    print(f"  ops_attempted = {summary['attempted']}  ops_failed = {summary['failed']}")
    for error in summary["errors"]:
        print(f"  error: {error}")
    print(f"  digest = {summary['digest']}")
    if "traced_digest" in summary:
        print(f"  traced_digest = {summary['traced_digest']}")
    for key, value in summary.get("outputs", {}).items():
        print(f"  sim.{key} = {_fmt(value)}")
    if "host_factor" in summary:
        print(f"  host: reference loop {_fmt(summary['host_factor'] * REFERENCE_S * 1e3)} ms "
              f"at best, {_fmt(REFERENCE_S * 1e3)} ms on the reference host; "
              f"speeds are scaled to the reference host")
    for metric, _unit, _better in END_TO_END:
        stat = summary["end_to_end"].get(metric)
        if stat is not None:
            print(f"  {metric} = {_fmt(stat['value'])} {UNITS[metric]}  "
                  f"(rounds: min {_fmt(stat['min'])}, max {_fmt(stat['max'])}, "
                  f"n={stat['n']})")
    for metric, value in summary["per_layer"].items():
        print(f"  {metric} = {_fmt(value)} {UNITS.get(metric, _other_unit(metric))}")
    for entry in summary.get("missing_entry_points", ()):
        print(f"  note: entry point {entry} not found; its time stays with its caller")


def _other_unit(metric: str) -> str:
    return "ms/ms" if metric.endswith(".self_ms_per_sim_ms") else "1/ms"


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def ledger(seed: int, smoke: bool) -> int:
    """Every workload: timed rounds then one traced round, round-robin."""
    scale = 0.1 if smoke else 1.0
    rounds = 1 if smoke else TIMED_ROUNDS
    print(f"simbench ledger: seed {seed} (held-out seed {HELD_OUT_SEED}), "
          f"{rounds} timed + 1 traced round per workload, windows x{scale:g}")
    ops = {name: [] for name in WORKLOADS}
    traced = {name: [] for name in WORKLOADS}
    for _ in range(rounds):
        for name in WORKLOADS:
            ops[name].append(run_worker({"workload": name, "seed": seed, "scale": scale}))
    for name in WORKLOADS:
        traced[name].append(run_worker(
            {"workload": name, "seed": seed, "scale": scale, "traced": True}
        ))
    report = {}
    for name in WORKLOADS:
        report[name] = summarize(ops[name], traced[name])
        print_workload(name, seed, report[name])
    attempted = sum(entry["attempted"] for entry in report.values())
    failed = sum(entry["failed"] for entry in report.values())
    print(f"ops_attempted = {attempted}  ops_failed = {failed}")
    print(json.dumps({"seed": seed, "smoke": smoke, "ops_attempted": attempted,
                      "ops_failed": failed, "workloads": report}, sort_keys=True))
    return 0 if failed == 0 else 1


def measure(name: str, seed: int, seconds: float, trace: bool) -> int:
    """One workload for ``seconds``: end-to-end or per-layer metrics."""
    start = time.perf_counter()
    request = {"workload": name, "seed": seed}

    def rounds(until_s: float, minimum: int, **extra) -> List[Dict[str, object]]:
        """Rounds until the next one would end past ``until_s``."""
        done, last_s = [], 0.0
        while len(done) < minimum or time.perf_counter() - start + last_s < until_s:
            began = time.perf_counter()
            done.append(run_worker(dict(request, **extra)))
            last_s = time.perf_counter() - began
        return done

    if trace:
        ops = rounds(seconds / 2, 1)
        traced = rounds(seconds, 1, traced=True)
        probes = []
    else:
        ops = rounds(seconds, MIN_ROUNDS)
        traced = []
        probes = [
            run_worker(dict(request, setup_only=True))
            for _ in range(max(0, SETUP_SAMPLES - len(ops)))
        ]
    summary = summarize(ops, traced, probes)
    print_workload(name, seed, summary)
    table = PER_LAYER if trace else END_TO_END
    source = summary["per_layer"] if trace else {
        metric: stat["value"] for metric, stat in summary["end_to_end"].items()
    }
    correct = summary["failed"] == 0 and all(metric in source for metric, _, _ in table)
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            metric: {"value": source[metric], "unit": unit}
            for metric, unit, _ in table if metric in source
        },
    }))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m simbench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true",
                        help="full ledger with 1 round and windows divided by 10")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="measure one workload for --seconds (one JSON line last)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"simbench: no simulator source at {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return ledger(args.seed, args.smoke)
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
