"""``scripts/hotpath_calls.py``: deterministic Python calls per simulated
frame, and the budget gate CI runs on them."""

import importlib.util
import json
import os
import sys

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "hotpath_calls.py")


@pytest.fixture(scope="module")
def hotpath():
    spec = importlib.util.spec_from_file_location("hotpath_calls", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(**calls_per_frame):
    return {"workloads": {
        name: {"calls_per_frame": value} for name, value in calls_per_frame.items()
    }}


def test_budget_allows_the_tolerance_and_no_more(hotpath):
    budget = {"tolerance": 0.02, "calls_per_frame": {"a": 100.0, "b": 50.0}}
    assert hotpath.budget_failures(_report(a=102.0, b=49.5), budget) == []
    assert hotpath.budget_failures(_report(a=98.5, b=50.5), budget) == []
    (failure,) = hotpath.budget_failures(_report(a=102.1, b=50.0), budget)
    assert failure.startswith("a: 102.10 calls per frame, budget 100.00")
    assert failure.endswith("over budget")
    # Far under its budget: a budget left this high would let calls
    # come back unnoticed.
    (failure,) = hotpath.budget_failures(_report(a=100.0, b=40.0), budget)
    assert failure.startswith("b: 40.00 calls per frame, budget 50.00")
    assert failure.endswith("stale budget; run --update")


def test_counts_repeat_exactly_and_restore_the_trace_hook(hotpath):
    trace = sys.gettrace()
    first = hotpath.count_calls("nic-saturation", window_s=0.1e-3, top=3)
    second = hotpath.count_calls("nic-saturation", window_s=0.1e-3, top=3)
    assert sys.gettrace() is trace
    assert first == second
    assert first["frames"] > 0 and first["calls"] > first["frames"]
    assert len(first["top"]) == 3
    shares = [per_frame for _name, per_frame in first["top"]]
    assert shares == sorted(shares, reverse=True)
    assert any(name.startswith("repro/") for name, _ in first["top"])


def test_check_refuses_a_budget_from_another_python(hotpath, tmp_path, monkeypatch, capsys):
    budget = tmp_path / "budget.json"
    budget.write_text(json.dumps({
        "python": "2.7", "seed": 1, "tolerance": 0.02, "calls_per_frame": {},
    }))
    monkeypatch.setattr(hotpath, "BUDGET_PATH", str(budget))
    assert hotpath.main(["--check"]) == 2
    assert "measured on Python 2.7" in capsys.readouterr().err


def test_budget_covers_every_workload(hotpath):
    from simbench.workloads import WORKLOADS

    budget = hotpath.load_budget()
    assert sorted(budget["calls_per_frame"]) == sorted(WORKLOADS)
    assert budget["seed"] == hotpath.SEED and budget["tolerance"] == hotpath.TOLERANCE
