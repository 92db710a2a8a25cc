"""``scripts/result_diff.py``: field-by-field comparison of two
``repro check --digests`` files, on canned records."""

import importlib.util
import json
import math
import os

import pytest

from repro.check.golden import digest_record, flatten

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "result_diff.py")


@pytest.fixture(scope="module")
def rd():
    spec = importlib.util.spec_from_file_location("result_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _golden(name, fields, digest="d"):
    return {"kind": "golden", "name": name, "digest": digest, "fields": fields}


def _fuzz(index, fields, key="k", seed=0, digest="d"):
    return {"kind": "fuzz", "seed": seed, "index": index, "key": key,
            "digest": digest, "fields": fields}


BASE = [
    _golden("throughput-rmw", {"tx_fps": 1.0e6, "rx_dropped": 3, "config": "2x133",
                               "functions.send_frame.cycles": 1234.5}),
    _fuzz(0, {"nics.0.rx_frames": 10, "nics.1.rx_frames": 11, "ok": True}),
    _fuzz(1, {"nics.0.rx_frames": 12, "ipc_breakdown.conflict": 0.0011}),
]


def _write(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    return str(path)


def _run(rd, tmp_path, old, new, *extra):
    a = _write(tmp_path / "a.jsonl", old)
    b = _write(tmp_path / "b.jsonl", new)
    return rd.main([a, b, *extra])


def _edit(records, position, path, value):
    edited = json.loads(json.dumps(records))
    edited[position]["fields"][path] = value
    edited[position]["digest"] = "moved"
    return edited


def test_identical_files_exit_zero(rd, tmp_path, capsys):
    assert _run(rd, tmp_path, BASE, BASE) == 0
    out = capsys.readouterr().out
    assert "3 record(s) on both sides, 3 with equal digests; 0 moved field(s)" in out
    assert out.rstrip().endswith("OK")


def test_integer_move_fails_even_with_tolerance(rd, tmp_path, capsys):
    moved = _edit(BASE, 0, "rx_dropped", 4)
    assert _run(rd, tmp_path, BASE, moved, "--rel-tol", "1") == 1
    out = capsys.readouterr().out
    assert "golden throughput-rmw  rx_dropped: 3 -> 4  (exact)" in out
    assert "rx_dropped | exact | 1" in out


def test_type_change_is_an_exact_move(rd):
    old = {("golden", "x"): _golden("x", {"a": 1, "b": True})}
    new = {("golden", "x"): _golden("x", {"a": 1.0, "b": 1})}
    diff = rd.compare(old, new, rel_tol=1.0)
    assert diff["failed"]
    assert [(path, rel) for _rid, path, _a, _b, rel in diff["moves"]] == [
        ("a", None), ("b", None)]


def test_float_move_inside_and_outside_tolerance(rd, tmp_path, capsys):
    moved = _edit(BASE, 0, "functions.send_frame.cycles", 1234.5 * (1 + 1e-10))
    assert _run(rd, tmp_path, BASE, moved, "--rel-tol", "1e-7") == 0
    out = capsys.readouterr().out
    # A float inside the tolerance is still named, with both values.
    assert "functions.send_frame.cycles: 1234.5 -> " in out
    assert "(relative 1e-10)" in out
    assert "functions.send_frame.cycles | 1e-10 | 1" in out
    # The default tolerance is 0: byte-identity.
    assert _run(rd, tmp_path, BASE, moved) == 1
    moved = _edit(BASE, 0, "functions.send_frame.cycles", 1234.5 * (1 + 1e-6))
    assert _run(rd, tmp_path, BASE, moved, "--rel-tol", "1e-7") == 1


def test_relative_change(rd):
    assert rd.relative_change(2.0, 2.0) == 0.0
    assert rd.relative_change(math.nan, math.nan) == 0.0
    assert rd.relative_change(1.0, math.nan) == math.inf
    assert rd.relative_change(0.0, 1e-300) == 1.0
    assert rd.relative_change(-1.0, 1.0) == 2.0
    assert rd.relative_change(4.0, 5.0) == pytest.approx(0.2)


def test_missing_record_and_missing_field_count_as_moves(rd, tmp_path, capsys):
    assert _run(rd, tmp_path, BASE, BASE[:2]) == 1
    out = capsys.readouterr().out
    assert "fuzz seed=0 index=1  <record>: 'present' -> '<absent>'" in out
    dropped = json.loads(json.dumps(BASE))
    del dropped[1]["fields"]["ok"]
    assert _run(rd, tmp_path, BASE, dropped, "--rel-tol", "1") == 1
    assert "fuzz seed=0 index=0  ok: True -> '<absent>'" in capsys.readouterr().out


def test_key_mismatch_is_reported_not_counted(rd, tmp_path, capsys):
    rekeyed = json.loads(json.dumps(BASE))
    rekeyed[2]["key"] = "other"
    assert _run(rd, tmp_path, BASE, rekeyed) == 0
    out = capsys.readouterr().out
    assert "fuzz seed=0 index=1: RunSpec.key differs (reported, not counted)" in out
    assert "1 key mismatch(es)" in out


def test_error_records_compare_their_error(rd, tmp_path):
    failed = [dict(_fuzz(5, {}), error="ValueError: x")]
    assert _run(rd, tmp_path, failed, failed) == 0
    other = [dict(_fuzz(5, {}), error="ValueError: y")]
    assert _run(rd, tmp_path, failed, other) == 1


def test_list_paths_fold_in_the_summary(rd, tmp_path, capsys):
    moved = _edit(BASE, 1, "nics.0.rx_frames", 9)
    moved = _edit(moved, 1, "nics.1.rx_frames", 12)
    moved = _edit(moved, 2, "nics.0.rx_frames", 13)
    assert _run(rd, tmp_path, BASE, moved) == 1
    out = capsys.readouterr().out
    assert "fuzz seed=0 index=0  nics.1.rx_frames: 11 -> 12  (exact)" in out
    # Two records moved under one folded path.
    assert "nics.*.rx_frames | exact | 2" in out
    assert rd.fold_path("rss.per_ring.3.core") == "rss.per_ring.*.core"
    assert rd.fold_path("latency.p99_us") == "latency.p99_us"


def test_duplicate_record_and_unreadable_file_exit_two(rd, tmp_path):
    assert _run(rd, tmp_path, BASE + BASE[:1], BASE) == 2
    assert rd.main([str(tmp_path / "missing.jsonl"), str(tmp_path / "missing.jsonl")]) == 2


def test_flatten_nested_and_list_paths():
    value = {"a": {"b": [1, {"c": 2.5}], "d": None}, "e": (True, "x"), "f": object}
    flat = flatten(value)
    assert flat == {"a.b.0": 1, "a.b.1.c": 2.5, "a.d": None,
                    "e.0": True, "e.1": "x", "f": str(object)}


def test_digest_record_carries_digest_fields_or_error():
    class Result:
        def to_dict(self):
            return {"x": {"y": [1, 2]}, "z": 0.5}

    record = digest_record("fuzz", Result(), seed=0, index=3, key="k")
    assert record["kind"] == "fuzz" and record["index"] == 3 and record["key"] == "k"
    assert record["fields"] == {"x.y.0": 1, "x.y.1": 2, "z": 0.5}
    assert len(record["digest"]) == 64
    failed = digest_record("fuzz", error="ValueError: bad", seed=0, index=4, key="k")
    assert failed["error"] == "ValueError: bad" and "fields" not in failed
