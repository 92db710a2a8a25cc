#!/usr/bin/env python
"""Compare two ``repro check --digests`` files field by field.

This is the identity half of a change's evidence; ``simbench_pairs.py``
is the speed half:

.. code-block:: console

    $ python -m repro check --fuzz 200 --seed 0 --digests parent.jsonl   # in the parent
    $ python -m repro check --fuzz 200 --seed 0 --digests change.jsonl   # in the change
    $ python scripts/result_diff.py parent.jsonl change.jsonl --rel-tol 1e-7

Each input line is one run: ``{"kind": "golden", "name": ...}`` or
``{"kind": "fuzz", "seed": ..., "index": ..., "key": ...}``, with the
run's ``digest`` and its flattened ``to_dict()`` under ``fields``
(dotted paths; list items by index), or the ``error`` the run raised.
Records are matched by kind and by name or (seed, index).

Integers, booleans, strings and ``null`` must match exactly, type
included.  Floats are compared by relative change,
``|b - a| / max(|a|, |b|)``; two NaNs are equal.  A field or a record
on one side only counts as a move.  Every moved field is printed with
both values, then one summary row per field path, with list indices
folded to ``*``: the largest relative change and how many records moved.

A record whose ``key`` (``RunSpec.key``) differs is reported but not
counted: the key hashes the cache schema version and the code
constants, which an intended change may bump while the experiment stays
the same, and a spec that really changed moves its fields as well.

The exit status is 0 when no exact field moved and no float moved by
more than ``--rel-tol`` (default 0, byte-identity), 1 otherwise, and 2
when an input cannot be read.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Dict, List, Optional, Tuple

#: The side-only marker in a moved field's values.
ABSENT = "<absent>"


def record_id(record: Dict[str, object]) -> Tuple[object, ...]:
    """How a record is matched: its kind, then its name or (seed, index)."""
    kind = record.get("kind")
    if kind == "golden":
        return ("golden", record.get("name"))
    return (kind, record.get("seed"), record.get("index"))


def format_id(rid: Tuple[object, ...]) -> str:
    if rid[0] == "golden":
        return f"golden {rid[1]}"
    return f"{rid[0]} seed={rid[1]} index={rid[2]}"


def load(path: str) -> Dict[Tuple[object, ...], Dict[str, object]]:
    """Records of one digests file, by :func:`record_id`."""
    records: Dict[Tuple[object, ...], Dict[str, object]] = {}
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            record = json.loads(line)
            rid = record_id(record)
            if rid in records:
                raise ValueError(f"{path}:{number}: duplicate record {format_id(rid)}")
            records[rid] = record
    return records


def relative_change(a: float, b: float) -> float:
    """``|b - a| / max(|a|, |b|)``: 0 when equal (two NaNs included),
    infinite when only one side is NaN or infinite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(b - a) / max(abs(a), abs(b))


def fold_path(path: str) -> str:
    """``path`` with its list indices folded: ``nics.0.rx`` -> ``nics.*.rx``."""
    return ".".join("*" if part.isdigit() else part for part in path.split("."))


def _record_fields(record: Dict[str, object]) -> Dict[str, object]:
    fields = dict(record.get("fields") or {})
    if "error" in record:
        fields["error"] = record["error"]
    return fields


def compare(
    old: Dict[Tuple[object, ...], Dict[str, object]],
    new: Dict[Tuple[object, ...], Dict[str, object]],
    rel_tol: float = 0.0,
) -> Dict[str, object]:
    """Every difference between two loaded digests files.

    Returns ``moves`` (one ``(record id, path, old, new, rel)`` per moved
    field; ``rel`` is ``None`` for an exact field or one on one side
    only), ``key_mismatches`` (record ids), ``records`` (ids on both
    sides), ``identical`` (of those, how many have equal digests) and
    ``failed`` (whether the exit status is 1).
    """
    moves: List[Tuple[Tuple[object, ...], str, object, object, Optional[float]]] = []
    key_mismatches = []
    failed = False
    both = 0
    identical = 0
    for rid in sorted(set(old) | set(new), key=repr):
        if rid not in old or rid not in new:
            moves.append((rid, "<record>", ABSENT if rid not in old else "present",
                          ABSENT if rid not in new else "present", None))
            failed = True
            continue
        a_rec, b_rec = old[rid], new[rid]
        both += 1
        if a_rec.get("digest") is not None and a_rec.get("digest") == b_rec.get("digest"):
            identical += 1
        if a_rec.get("key") != b_rec.get("key"):
            key_mismatches.append(rid)
        a_fields, b_fields = _record_fields(a_rec), _record_fields(b_rec)
        for path in sorted(set(a_fields) | set(b_fields)):
            a = a_fields.get(path, ABSENT)
            b = b_fields.get(path, ABSENT)
            if path not in a_fields or path not in b_fields:
                moves.append((rid, path, a, b, None))
                failed = True
            elif type(a) is float and type(b) is float:
                rel = relative_change(a, b)
                if rel > 0:
                    moves.append((rid, path, a, b, rel))
                    failed = failed or rel > rel_tol
            elif type(a) is not type(b) or a != b:
                moves.append((rid, path, a, b, None))
                failed = True
    return {"moves": moves, "key_mismatches": key_mismatches, "records": both,
            "identical": identical, "failed": failed}


def summary_rows(moves) -> List[Tuple[str, float, int]]:
    """One ``(folded path, largest relative change, records moved)`` row
    per folded field path; an exact move counts as infinitely large."""
    largest: Dict[str, float] = {}
    records: Dict[str, set] = {}
    for rid, path, _a, _b, rel in moves:
        folded = fold_path(path)
        change = math.inf if rel is None else rel
        largest[folded] = max(largest.get(folded, 0.0), change)
        records.setdefault(folded, set()).add(rid)
    return [(path, largest[path], len(records[path])) for path in sorted(largest)]


def _format_change(rel: Optional[float]) -> str:
    return "exact" if rel is None or math.isinf(rel) else f"{rel:.3g}"


def report(diff: Dict[str, object], rel_tol: float) -> str:
    lines = []
    moves = diff["moves"]
    for rid, path, a, b, rel in moves:
        lines.append(f"{format_id(rid)}  {path}: {a!r} -> {b!r}  "
                     f"({'relative ' + format(rel, '.3g') if rel is not None else 'exact'})")
    for rid in diff["key_mismatches"]:
        lines.append(f"{format_id(rid)}: RunSpec.key differs (reported, not counted)")
    if moves:
        lines.append("")
        lines.append("field path | largest relative change | records moved")
        for path, rel, count in summary_rows(moves):
            lines.append(f"{path} | {_format_change(rel)} | {count}")
    lines.append("")
    lines.append(
        f"{diff['records']} record(s) on both sides, {diff['identical']} with equal "
        f"digests; {len(moves)} moved field(s); {len(diff['key_mismatches'])} key "
        f"mismatch(es); rel-tol {rel_tol:g}: {'FAIL' if diff['failed'] else 'OK'}"
    )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="digests file of the reference tree")
    parser.add_argument("new", help="digests file of the changed tree")
    parser.add_argument("--rel-tol", type=float, default=0.0,
                        help="largest relative change a float may move by (default 0)")
    args = parser.parse_args(argv)
    if not (args.rel_tol >= 0 and math.isfinite(args.rel_tol)):
        parser.error("--rel-tol must be a finite non-negative number")
    try:
        old, new = load(args.old), load(args.new)
    except (OSError, ValueError) as error:
        print(f"result_diff: {error}", file=sys.stderr)
        return 2
    diff = compare(old, new, args.rel_tol)
    print(report(diff, args.rel_tol))
    return 1 if diff["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
