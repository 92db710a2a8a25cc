#!/usr/bin/env python
"""Compare two source trees on one simbench workload by alternating pairs.

This is the "Comparing two commits" protocol of ``simbench/README.md``:

.. code-block:: console

    $ python scripts/simbench_pairs.py --parent ../parent --change . \\
          --workload nic-minframe-rss --seed 1 --pairs 10 --out runs.jsonl

Both trees must hold byte-identical ``simbench/`` directories (protocol
step 1), and neither tree's ``src/`` may hold compiled bytecode
(``.pyc``): a worker that finds bytecode skips compiling the modules it
imports, which cuts ``setup_s`` by about 0.1 s and would fake a gain or
hide a regression.  Otherwise the script exits 2 before running
anything.  Every run has ``PYTHONDONTWRITEBYTECODE=1``, so each worker
compiles what it imports, as in a fresh checkout.  Pair ``i`` (from 1)
runs the parent first when ``i`` is odd and the change first when it is
even.  Each run is
``python -m simbench --workload W --seed S --seconds T --trace 0`` in
its tree, and its JSON line, tagged with the pair, the side and the
printed result digest, is appended to ``--out``.

For every end-to-end metric of ``BENCHMARK.json`` the summary prints
each side's median and quartiles, the change's wins (ties count for
neither side; the direction comes from ``better``) and the median gap
against the parent's quartile spread.  The verdicts are tested in the
order of the README's steps 4 and 5: "worse beyond bound" when the
change's median is worse than the parent's by more than its bound;
else "gain" when the change wins at least 9 of 10 pairs and the medians
differ by more than the parent's quartile spread; else "unresolved"
when either side's quartile spread, as a share of its median, is wider
than the bound, unless every change run beats every parent run; else
"within bound".  The exit status is 1 when a metric is worse beyond
bound or a run failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Sequence, Tuple

#: A gain needs the change to win this share of the pairs (9 of 10).
WIN_SHARE = 0.9


def simbench_difference(parent: str, change: str) -> Optional[str]:
    """The first difference between the two trees' ``simbench/``
    directories, or ``None`` when they are byte-identical."""
    trees = [os.path.join(root, "simbench") for root in (parent, change)]
    listings = []
    for tree in trees:
        if not os.path.isdir(tree):
            return f"{tree}: no simbench/ directory"
        files = set()
        for directory, subdirs, names in os.walk(tree):
            subdirs[:] = [d for d in subdirs if d != "__pycache__"]
            for name in names:
                if not name.endswith((".pyc", ".pyo")):
                    files.add(os.path.relpath(os.path.join(directory, name), tree))
        listings.append(files)
    only = sorted(listings[0] ^ listings[1])
    if only:
        return f"simbench/{only[0]} is in only one tree"
    for name in sorted(listings[0]):
        contents = []
        for tree in trees:
            with open(os.path.join(tree, name), "rb") as handle:
                contents.append(handle.read())
        if contents[0] != contents[1]:
            return f"simbench/{name} differs"
    return None


def compiled_source(tree: str) -> Optional[str]:
    """The first ``.pyc`` under ``tree``'s ``src/``, or ``None``."""
    for directory, subdirs, names in os.walk(os.path.join(tree, "src")):
        subdirs.sort()
        for name in sorted(names):
            if name.endswith(".pyc"):
                return os.path.join(directory, name)
    return None


def run_once(tree: str, workload: str, seed: int, seconds: float) -> Dict[str, object]:
    """One ``python -m simbench`` run in ``tree``, writing no bytecode:
    its last JSON line plus the result digest it printed."""
    command = [sys.executable, "-m", "simbench", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    completed = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    lines = completed.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        record = {"correct": False, "attempted": 0, "failed": 1, "metrics": {}}
        record["error"] = (completed.stderr or completed.stdout)[-2000:]
    for line in lines:
        key, sep, value = line.strip().partition(" = ")
        if sep and key == "digest":
            record["digest"] = value
    record["returncode"] = completed.returncode
    return record


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``, linear interpolation between order
    statistics (``statistics.quantiles(..., method="inclusive")``)."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _values(records: List[Dict[str, object]], side: str, metric: str) -> Dict[int, float]:
    values = {}
    for record in records:
        entry = record.get("metrics", {}).get(metric)
        if record["side"] == side and entry is not None:
            values[record["pair"]] = float(entry["value"])
    return values


def summarize(records: List[Dict[str, object]],
              end_to_end: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """One row per ``BENCHMARK.json`` end-to-end metric.

    ``records`` are run records tagged ``pair`` and ``side``
    (``"parent"`` or ``"change"``).  A metric without values on both
    sides gets the verdict ``"missing"``.
    """
    rows = []
    for spec in end_to_end:
        metric, bound = spec["name"], float(spec["bound"])
        sign = 1.0 if spec["better"] == "higher" else -1.0
        parent = _values(records, "parent", metric)
        change = _values(records, "change", metric)
        row: Dict[str, object] = {"metric": metric, "unit": spec.get("unit", ""),
                                  "better": spec["better"], "bound": bound}
        if not parent or not change:
            row["verdict"] = "missing"
            rows.append(row)
            continue
        p_q1, p_med, p_q3 = quartiles(sorted(parent.values()))
        c_q1, c_med, c_q3 = quartiles(sorted(change.values()))
        pairs = sorted(set(parent) & set(change))
        wins = sum(1 for pair in pairs if sign * (change[pair] - parent[pair]) > 0)
        losses = sum(1 for pair in pairs if sign * (change[pair] - parent[pair]) < 0)
        gap = c_med - p_med
        parent_iqr = p_q3 - p_q1
        worse_share = -sign * gap / abs(p_med) if p_med else 0.0
        spread = max(parent_iqr / abs(p_med) if p_med else math.inf,
                     (c_q3 - c_q1) / abs(c_med) if c_med else math.inf)
        dominates = (min(sign * value for value in change.values())
                     > max(sign * value for value in parent.values()))
        if worse_share > bound:
            verdict = "worse beyond bound"
        elif wins >= math.ceil(WIN_SHARE * len(pairs)) and sign * gap > parent_iqr:
            verdict = "gain"
        elif spread > bound and not dominates:
            verdict = "unresolved"
        else:
            verdict = "within bound"
        row.update(
            parent=(p_q1, p_med, p_q3), change=(c_q1, c_med, c_q3),
            ratio=c_med / p_med if p_med else math.inf,
            pairs=len(pairs), wins=wins, losses=losses, gap=gap,
            parent_iqr=parent_iqr, spread=spread, verdict=verdict,
        )
        rows.append(row)
    return rows


def format_rows(rows: List[Dict[str, object]]) -> str:
    lines = []
    for row in rows:
        if row["verdict"] == "missing":
            lines.append(f"{row['metric']}: missing")
            continue
        p_q1, p_med, p_q3 = row["parent"]
        c_q1, c_med, c_q3 = row["change"]
        lines.append(
            f"{row['metric']} ({row['unit']}, {row['better']} is better, "
            f"bound {row['bound']:.0%}): "
            f"parent {p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}] -> "
            f"change {c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}]  "
            f"x{row['ratio']:.3f}  wins {row['wins']}/{row['pairs']}  "
            f"gap {row['gap']:+.4g} vs parent IQR {row['parent_iqr']:.4g}  "
            f"{row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent source tree")
    parser.add_argument("--change", required=True, help="changed source tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", required=True, help="JSON-lines file to append runs to")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    difference = simbench_difference(args.parent, args.change)
    if difference is None:
        for tree in (args.parent, args.change):
            compiled = compiled_source(tree)
            if compiled is not None:
                difference = (f"{compiled} is compiled bytecode; setup_s "
                              "compares only trees that compile their source")
                break
    if difference is not None:
        print(f"simbench_pairs: refusing: {difference}", file=sys.stderr)
        return 2
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as handle:
        end_to_end = json.load(handle)["end_to_end"]
    trees = {"parent": args.parent, "change": args.change}
    records = []
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            record = run_once(trees[side], args.workload, args.seed, args.seconds)
            record.update(pair=pair, side=side, workload=args.workload, seed=args.seed)
            records.append(record)
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            value = record.get("metrics", {}).get("sim_ms_per_wall_s", {}).get("value")
            print(f"pair {pair} {side}: sim_ms_per_wall_s={value} "
                  f"failed={record.get('failed')}", flush=True)
    rows = summarize(records, end_to_end)
    print(format_rows(rows))
    failed = sum(int(record.get("failed") or 0) for record in records)
    digests = {side: {r.get("digest") for r in records if r["side"] == side} for side in trees}
    print(f"ops_failed = {failed}  digests: parent {sorted(map(str, digests['parent']))} "
          f"change {sorted(map(str, digests['change']))}")
    worse = any(row["verdict"] == "worse beyond bound" for row in rows)
    return 1 if worse or failed else 0


if __name__ == "__main__":
    sys.exit(main())
