"""Self-test of the benchmark; run with ``pytest simbench/``.

It lives outside tier-1's ``testpaths``: the smoke ledger spawns eight
worker processes and takes ~10-20 s.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

from simbench import worker
from simbench.__main__ import (
    END_TO_END,
    PER_LAYER,
    REFERENCE_S,
    ROOT,
    fastest_wall_s,
    host_factor,
    run_worker,
    summarize,
)
from simbench.workloads import WORKLOADS


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "simbench", "--smoke", "--seed", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def _sections(stdout):
    """Printed metric lines per workload: ``{workload: {metric: unit}}``."""
    sections, current = {}, None
    for line in stdout.splitlines():
        if line.startswith("== ") and line.endswith(" =="):
            current = sections.setdefault(line[3:-3], {})
        elif current is not None and line.startswith("  "):
            tokens = line.split()
            if len(tokens) >= 4 and tokens[1] == "=":
                current[tokens[0]] = tokens[3]
    return sections


def test_benchmark_json_matches_the_code():
    bench = _benchmark_json()
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(PER_LAYER)


def test_every_metric_printed_with_its_unit(smoke):
    bench = _benchmark_json()
    sections = _sections(smoke)
    assert sorted(sections) == sorted(WORKLOADS)
    for name, printed in sections.items():
        for metric in bench["end_to_end"] + bench["per_layer"]:
            assert printed.get(metric["name"]) == metric["unit"], (name, metric)


def test_traced_round_reproduces_untraced_digest(smoke):
    report = json.loads(smoke.strip().splitlines()[-1])
    assert report["ops_failed"] == 0
    for name, summary in report["workloads"].items():
        assert summary["failed"] == 0, (name, summary["errors"])
        assert summary["traced_digest"] == summary["digest"], name


def test_every_callback_maps_to_a_layer(smoke):
    assert "other:" not in smoke


def test_round_wall_time_splits_into_slices():
    op = run_worker({"workload": "fabric-rpc", "seed": 1, "scale": 0.05})
    assert op["ok"], op
    assert len(op["slice_s"]) == worker.SLICES
    assert min(op["slice_s"]) >= 0
    assert sum(op["slice_s"]) == pytest.approx(op["wall_s"], rel=1e-9)
    assert op["reference_s"] > 0


def test_speed_takes_each_slices_fastest_round_on_the_reference_host():
    rounds = [
        {"slice_s": [1.0, 3.0], "wall_s": 4.0, "reference_s": 2 * REFERENCE_S},
        {"slice_s": [2.0, 1.0], "wall_s": 3.0, "reference_s": 3 * REFERENCE_S},
    ]
    for op in rounds:
        op.update(ok=True, digest="d", sim_ms=6.0, frames=60.0, setup_s=0.1,
                  peak_rss_mb=1.0, outputs={})
    assert fastest_wall_s(rounds) == 2.0
    assert host_factor(rounds) == pytest.approx(2.0)
    speed = summarize(rounds, [])["end_to_end"]["sim_ms_per_wall_s"]
    assert speed["value"] == pytest.approx(6.0 / (2.0 / 2.0))
    assert (speed["min"], speed["max"]) == pytest.approx((3.0, 4.0))


def test_raising_workload_counts_as_failed(monkeypatch):
    def boom(seed):
        raise RuntimeError("boom")

    monkeypatch.setitem(
        WORKLOADS, "nic-saturation",
        dataclasses.replace(WORKLOADS["nic-saturation"], build=boom),
    )
    op = worker.run_operation("nic-saturation", seed=1, scale=0.1)
    assert not op["ok"] and "boom" in op["error"]
    crashed = run_worker({"workload": "no-such-workload", "seed": 1})
    assert not crashed["ok"]
    summary = summarize([op, crashed], [])
    assert (summary["attempted"], summary["failed"]) == (2, 2)


def test_refuses_to_run_without_simulator_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "simbench"), tmp_path / "simbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "-m", "simbench", "--workload", "fabric-rpc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
