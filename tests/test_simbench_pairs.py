"""``scripts/simbench_pairs.py``: the alternating-pairs summary and its
refusal to compare trees whose ``simbench/`` differ or whose ``src/``
holds compiled bytecode."""

import importlib.util
import os
import subprocess

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "simbench_pairs.py")


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("simbench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPEED = {"name": "sim_ms_per_wall_s", "unit": "ms/s", "better": "higher", "bound": 0.25}
SETUP = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}


def _records(metric, parent, change):
    records = []
    for pair, (p, c) in enumerate(zip(parent, change), start=1):
        records.append({"pair": pair, "side": "parent", "metrics": {metric: {"value": p}}})
        records.append({"pair": pair, "side": "change", "metrics": {metric: {"value": c}}})
    return records


def test_quartiles_interpolate_between_order_statistics(pairs):
    runs = [12.358, 11.023, 10.209, 11.190, 10.735,
            11.418, 12.003, 11.137, 12.581, 11.479]
    q1, median, q3 = pairs.quartiles(sorted(runs))
    assert median == pytest.approx(11.304)
    assert q1 == pytest.approx(11.0515)
    assert q3 == pytest.approx(11.872)
    assert pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_iqr(pairs):
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    change = [v * 1.2 for v in parent]
    (row,) = pairs.summarize(_records("sim_ms_per_wall_s", parent, change), [SPEED])
    assert (row["wins"], row["losses"], row["pairs"]) == (10, 0, 10)
    assert row["verdict"] == "gain"
    assert row["ratio"] == pytest.approx(1.2)
    # Eight wins are not enough, however large the gap.
    change[:2] = parent[:2]
    (row,) = pairs.summarize(_records("sim_ms_per_wall_s", parent, change), [SPEED])
    assert row["wins"] == 8
    assert row["verdict"] == "within bound"


def test_ties_count_for_neither_side(pairs):
    parent = [10.0, 10.0, 10.0, 10.0]
    change = [10.0, 10.5, 9.5, 10.0]
    (row,) = pairs.summarize(_records("sim_ms_per_wall_s", parent, change), [SPEED])
    assert (row["wins"], row["losses"], row["pairs"]) == (1, 1, 4)


def test_direction_follows_better(pairs):
    parent = [0.20, 0.21, 0.19, 0.20]
    change = [0.10, 0.11, 0.09, 0.10]
    (row,) = pairs.summarize(_records("setup_s", parent, change), [SETUP])
    assert row["wins"] == 4
    assert row["verdict"] == "gain"
    (row,) = pairs.summarize(_records("setup_s", change, parent), [SETUP])
    assert row["losses"] == 4
    assert row["verdict"] == "worse beyond bound"


def test_spread_wider_than_the_bound_is_unresolved(pairs):
    # Medians equal, but the parent's quartiles span half its median.
    parent = [6.0, 8.0, 12.0, 14.0, 10.0]
    change = [10.0, 10.1, 9.9, 10.0, 10.0]
    (row,) = pairs.summarize(_records("sim_ms_per_wall_s", parent, change), [SPEED])
    assert row["parent"][1] == row["change"][1] == 10.0
    assert row["spread"] > SPEED["bound"]
    assert row["verdict"] == "unresolved"
    # Narrow on both sides: within bound.
    (row,) = pairs.summarize(_records("sim_ms_per_wall_s", change, change), [SPEED])
    assert row["verdict"] == "within bound"


def test_gain_is_tested_before_the_spread(pairs):
    """The held-out ``nic-saturation`` seed 2 ``setup_s`` pairs of the
    lean start-up change: every change run is faster than every parent
    run, and the change's quartiles span 41% of its median."""
    parent = [0.137, 0.150, 0.1690, 0.1722, 0.1850, 0.1942, 0.2100, 0.2136, 0.220, 0.230]
    change = [0.080, 0.082, 0.0843, 0.0859, 0.0930, 0.0976, 0.1218, 0.1239, 0.127, 0.129]
    (row,) = pairs.summarize(_records("setup_s", parent, change), [SETUP])
    assert (row["wins"], row["pairs"]) == (10, 10)
    assert row["parent"] == pytest.approx((0.1698, 0.1896, 0.2127))
    assert row["change"] == pytest.approx((0.0847, 0.0953, 0.123375))
    assert row["spread"] == pytest.approx(0.406, abs=1e-3)
    assert -row["gap"] > row["parent_iqr"]
    assert row["verdict"] == "gain"
    # Every change run beats every parent run, but the gap is inside
    # the parent's wide spread: within bound, not unresolved.
    parent = [1.00, 1.01, 1.02, 1.03, 1.04, 1.50, 1.60, 1.70, 1.80, 1.90]
    change = [0.95, 0.96, 0.97, 0.98, 0.99, 0.99, 0.99, 0.99, 0.99, 0.99]
    (row,) = pairs.summarize(_records("setup_s", parent, change), [SETUP])
    assert -row["gap"] < row["parent_iqr"]
    assert row["spread"] > SETUP["bound"]
    assert row["verdict"] == "within bound"


def test_missing_metric_is_reported(pairs):
    (row,) = pairs.summarize(_records("frames_per_wall_s", [1.0], [1.0]), [SPEED])
    assert row["verdict"] == "missing"


def _tree(root, files, top="simbench"):
    for name, text in files.items():
        path = os.path.join(root, top, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return str(root)


def test_refuses_trees_whose_simbench_differs(pairs, tmp_path, monkeypatch, capsys):
    parent = _tree(tmp_path / "parent", {"__main__.py": "a = 1\n", "README.md": "x"})
    same = _tree(tmp_path / "same", {"__main__.py": "a = 1\n", "README.md": "x",
                                     "__pycache__/__main__.cpython-311.pyc": "junk"})
    edited = _tree(tmp_path / "edited", {"__main__.py": "a = 2\n", "README.md": "x"})
    extra = _tree(tmp_path / "extra", {"__main__.py": "a = 1\n", "README.md": "x",
                                       "new.py": ""})
    assert pairs.simbench_difference(parent, same) is None
    assert "__main__.py differs" in pairs.simbench_difference(parent, edited)
    assert "new.py" in pairs.simbench_difference(parent, extra)
    assert "no simbench" in pairs.simbench_difference(parent, str(tmp_path / "none"))

    def no_runs(*_args):
        raise AssertionError("ran a workload despite differing trees")

    monkeypatch.setattr(pairs, "run_once", no_runs)
    out = tmp_path / "runs.jsonl"
    status = pairs.main(["--parent", parent, "--change", edited, "--workload",
                         "nic-saturation", "--seed", "1", "--out", str(out)])
    assert status == 2
    assert "refusing" in capsys.readouterr().err
    assert not out.exists()


def test_refuses_a_tree_whose_src_holds_bytecode(pairs, tmp_path, monkeypatch, capsys):
    files = {"__main__.py": "a = 1\n"}
    parent = _tree(tmp_path / "parent", files)
    change = _tree(tmp_path / "change", files)
    _tree(parent, {"repro/__init__.py": ""}, top="src")
    _tree(change, {"repro/__init__.py": "",
                   "repro/__pycache__/__init__.cpython-311.pyc": "junk"}, top="src")
    assert pairs.simbench_difference(parent, change) is None
    assert pairs.compiled_source(parent) is None
    assert pairs.compiled_source(change).endswith("__init__.cpython-311.pyc")

    def no_runs(*_args):
        raise AssertionError("ran a workload on a tree holding bytecode")

    monkeypatch.setattr(pairs, "run_once", no_runs)
    out = tmp_path / "runs.jsonl"
    for first, second in ((parent, change), (change, parent)):
        status = pairs.main(["--parent", first, "--change", second, "--workload",
                             "nic-saturation", "--seed", "1", "--out", str(out)])
        assert status == 2
        assert "compiled bytecode" in capsys.readouterr().err
    assert not out.exists()


def test_runs_write_no_bytecode(pairs, monkeypatch):
    seen = {}

    def fake_run(command, cwd, env, capture_output, text):
        seen.update(env=env, cwd=cwd)
        return subprocess.CompletedProcess(command, 0, stdout='{"metrics": {}}\n', stderr="")

    monkeypatch.setattr(pairs.subprocess, "run", fake_run)
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    record = pairs.run_once("tree", "nic-saturation", 1, 1.0)
    assert record["returncode"] == 0
    assert seen["cwd"] == "tree"
    assert seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
