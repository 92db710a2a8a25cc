#!/usr/bin/env python
"""Python calls per simulated frame on each simbench workload.

.. code-block:: console

    $ python scripts/hotpath_calls.py                # table, seed 1
    $ python scripts/hotpath_calls.py --json         # one JSON object
    $ python scripts/hotpath_calls.py --bytecodes    # bytecodes too (slow)
    $ python scripts/hotpath_calls.py --check        # gate against the budget
    $ python scripts/hotpath_calls.py --update       # rewrite the budget

Each workload is built as ``simbench`` builds it, started, and run
untraced to 0.6 ms of simulated time.  The next 1 ms runs under
``sys.settrace``, which counts every Python call: each ``call`` event,
a new Python frame or a resumed generator.  Calls into C (``heappush``,
``deque.append``, ``max``) are not counted.  A frame is a transmitted
wire frame or a committed received frame, summed over every NIC: the
frames of simbench's ``frames_per_wall_s``.

The counts depend only on the simulated work and the interpreter, so
they repeat exactly from run to run, unlike wall time.  They do move
between Python versions (3.12 inlines comprehensions, so it makes fewer
calls), so the budget in ``scripts/hotpath_budget.json`` records the
version it was measured on and ``--check`` refuses another one (exit
2).  ``--check`` fails (exit 1) when a workload's calls per frame rise
more than the budget's tolerance (2%) above its budgeted count, or
fall more than the tolerance below it: a budget left high would let a
later change add calls back unnoticed.  After a change that moves the
counts on purpose, ``--update`` writes the new ones.

``--bytecodes`` also turns on opcode tracing (``f_trace_opcodes``) and
reports bytecodes per frame; it runs about twenty times slower.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
BUDGET_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "hotpath_budget.json")
START_S = 0.6e-3
WINDOW_S = 1e-3
SEED = 1
TOLERANCE = 0.02


def _import_paths() -> None:
    """Make ``repro`` (from ``src/``) and ``simbench`` importable."""
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def python_version() -> str:
    return "%d.%d" % sys.version_info[:2]


def simulated_frames(simulator) -> int:
    """Wire frames sent plus received frames committed, over every NIC,
    counted as the ledger counts them."""
    from simbench.worker import _FRAME_COUNTERS, _snapshot_sum

    return int(_snapshot_sum(simulator.metrics_snapshot(), _FRAME_COUNTERS))


def function_name(code) -> str:
    """``repro/nic/throughput.py:ThroughputSimulator._charge`` for a code
    object (``co_qualname`` exists from Python 3.11)."""
    path = code.co_filename.replace(os.sep, "/")
    marker = path.rfind("/repro/")
    path = path[marker + 1:] if marker >= 0 else os.path.basename(path)
    return f"{path}:{getattr(code, 'co_qualname', code.co_name)}"


def count_calls(
    workload: str,
    window_s: float = WINDOW_S,
    bytecodes: bool = False,
    top: int = 10,
) -> Dict[str, object]:
    """Calls (and, with ``bytecodes``, opcodes) per simulated frame over
    ``window_s`` of one workload on seed 1, after 0.6 ms untraced."""
    _import_paths()
    from simbench.workloads import WORKLOADS

    simulator = WORKLOADS[workload].build(SEED)
    simulator.start()
    kernel = simulator.sim
    kernel.run(until_ps=round(START_S * 1e12))
    frames_before = simulated_frames(simulator)
    calls: Dict[object, int] = {}
    opcodes: Dict[object, int] = {}

    def count_opcode(frame, event, _arg):
        if event == "opcode":
            code = frame.f_code
            opcodes[code] = opcodes.get(code, 0) + 1
        return count_opcode

    def count_call(frame, event, _arg):
        code = frame.f_code
        calls[code] = calls.get(code, 0) + 1
        if bytecodes:
            frame.f_trace_lines = False
            frame.f_trace_opcodes = True
            return count_opcode
        return None

    previous = sys.gettrace()
    sys.settrace(count_call)
    try:
        kernel.run(until_ps=round((START_S + window_s) * 1e12))
    finally:
        sys.settrace(previous)
    frames = simulated_frames(simulator) - frames_before
    if frames <= 0:
        raise RuntimeError(f"{workload}: the traced window simulated no frames")
    total = sum(calls.values())
    ranked = sorted(calls.items(), key=lambda item: (-item[1], function_name(item[0])))
    result: Dict[str, object] = {
        "frames": frames,
        "calls": total,
        "calls_per_frame": round(total / frames, 2),
        "top": [[function_name(code), round(count / frames, 2)]
                for code, count in ranked[:top]],
    }
    if bytecodes:
        result["bytecodes"] = sum(opcodes.values())
        result["bytecodes_per_frame"] = round(result["bytecodes"] / frames, 1)
    return result


def measure(bytecodes: bool) -> Dict[str, object]:
    """Every simbench workload's counts, with what they were measured on."""
    _import_paths()
    from simbench.workloads import WORKLOADS

    return {
        "python": python_version(),
        "seed": SEED,
        "start_ms": START_S * 1e3,
        "window_ms": WINDOW_S * 1e3,
        "workloads": {
            name: count_calls(name, bytecodes=bytecodes) for name in WORKLOADS
        },
    }


def load_budget() -> Dict[str, object]:
    with open(BUDGET_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_budget(report: Dict[str, object]) -> None:
    payload = {
        "comment": (
            "Python calls per simulated frame, seed 1, 1 ms after a 0.6 ms "
            "start (scripts/hotpath_calls.py). CI fails when a workload reads "
            "more than `tolerance` above or below its count; rewrite with "
            "`python scripts/hotpath_calls.py --update` after a change that "
            "moves the counts on purpose."
        ),
        "python": report["python"],
        "seed": report["seed"],
        "tolerance": TOLERANCE,
        "calls_per_frame": {
            name: entry["calls_per_frame"]
            for name, entry in report["workloads"].items()
        },
    }
    with open(BUDGET_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def budget_failures(report: Dict[str, object], budget: Dict[str, object]) -> List[str]:
    """One line per workload whose calls per frame lie more than the
    tolerance above its budget (over budget) or below it (stale budget)."""
    tolerance = budget["tolerance"]
    failures = []
    for name, budgeted in sorted(budget["calls_per_frame"].items()):
        measured = report["workloads"][name]["calls_per_frame"]
        if measured > budgeted * (1.0 + tolerance):
            verdict = "over budget"
        elif measured < budgeted * (1.0 - tolerance):
            verdict = "stale budget; run --update"
        else:
            continue
        failures.append(
            f"{name}: {measured:.2f} calls per frame, budget {budgeted:.2f} "
            f"({(measured / budgeted - 1) * 100:+.1f}%, tolerance "
            f"{tolerance * 100:.0f}%): {verdict}"
        )
    return failures


def format_table(report: Dict[str, object]) -> str:
    lines = [
        f"Python {report['python']}, seed {report['seed']}, "
        f"{report['window_ms']:g} ms after {report['start_ms']:g} ms"
    ]
    for name, entry in report["workloads"].items():
        line = f"{name:22s} {entry['calls_per_frame']:8.1f} calls/frame"
        if "bytecodes_per_frame" in entry:
            line += f" {entry['bytecodes_per_frame']:9.0f} bytecodes/frame"
        lines.append(line + f"   ({entry['frames']} frames)")
        for function, per_frame in entry["top"]:
            lines.append(f"    {per_frame:7.2f}  {function}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bytecodes", action="store_true",
                        help="also count bytecodes per frame (slow)")
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="exit 1 when a workload leaves scripts/hotpath_budget.json's band")
    mode.add_argument("--update", action="store_true",
                      help="write the measured counts to scripts/hotpath_budget.json")
    args = parser.parse_args(argv)

    budget = None
    if args.check:
        budget = load_budget()
        if budget["python"] != python_version():
            print(f"hotpath budget was measured on Python {budget['python']}; "
                  f"this is Python {python_version()}", file=sys.stderr)
            return 2
    report = measure(args.bytecodes)
    print(json.dumps(report, indent=2) if args.json else format_table(report))
    if args.update:
        write_budget(report)
        print(f"wrote {BUDGET_PATH}", file=sys.stderr)
    if budget is not None:
        failures = budget_failures(report, budget)
        for line in failures:
            print(line, file=sys.stderr)
        return 1 if failures else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
