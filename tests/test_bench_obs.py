"""Tests for the bench runner (`repro.obs.bench`, `repro bench`).

Exercises discovery of ``bench_*.py`` modules, the ``--only`` and
``--list`` selections, the run-once stand-in for the pytest-benchmark
fixture, and the exit status: 1 when a bench's assertion fails, 2 when
discovery does.
"""

import importlib
import os
import textwrap

import pytest

from repro.cli import main as cli_main
from repro.obs.bench import discover, run_bench, select_benches

REPO_BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "benchmarks")


def _make_bench_dir(tmp_path, name, body):
    """A throwaway bench package with one module inside it."""
    package = tmp_path / name
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "bench_tiny.py").write_text(textwrap.dedent(body))
    return str(package)


TINY_BENCH = """
    CALLS = []

    def _work(tag):
        CALLS.append(tag)
        return sum(range(2000))

    def test_direct_call(benchmark):
        result = benchmark(_work, "direct")
        assert result == sum(range(2000))

    def test_pedantic_call(benchmark):
        result = benchmark.pedantic(_work, args=("pedantic",), rounds=2,
                                    iterations=3)
        assert result == sum(range(2000))

    def test_boom(benchmark):
        benchmark(_work, "boom")
        raise AssertionError("shape check failed")

    def not_a_bench():
        pass

    def test_needs_other_fixture(benchmark, tmp_path):
        pass
"""


class TestDiscovery:
    def test_discovers_repo_benches(self):
        names = discover(REPO_BENCH_DIR)
        assert "bench_tracer_overhead" in names
        assert "bench_streaming_hist" in names
        assert all(name.startswith("bench_") for name in names)
        assert names == sorted(names)

    def test_only_filter(self):
        picked = select_benches(REPO_BENCH_DIR, only=["tracer"])
        assert picked == ["bench_tracer_overhead"]
        with pytest.raises(ValueError, match="no benchmark matches"):
            select_benches(REPO_BENCH_DIR, only=["no_such_bench"])

    def test_missing_directory(self):
        with pytest.raises(FileNotFoundError):
            discover("/no/such/dir")


class TestRunOnce:
    def test_each_entry_point_runs_once(self, tmp_path):
        bench_dir = _make_bench_dir(tmp_path, "obsbench_run", TINY_BENCH)
        outcomes = dict(run_bench("bench_tiny", bench_dir))
        # Only single-parameter `benchmark` functions are entry points.
        assert set(outcomes) == {"test_direct_call", "test_pedantic_call",
                                 "test_boom"}
        assert outcomes["test_direct_call"] == ""
        assert outcomes["test_pedantic_call"] == ""
        assert outcomes["test_boom"] == "AssertionError: shape check failed"
        module = importlib.import_module("obsbench_run.bench_tiny")
        assert sorted(module.CALLS) == ["boom", "direct", "pedantic"]


class TestBenchCli:
    def test_list_exits_zero(self, capsys):
        assert cli_main(["bench", "--bench-dir", REPO_BENCH_DIR, "--list"]) == 0
        out = capsys.readouterr().out
        assert out.split() == discover(REPO_BENCH_DIR)

    def test_run_tiny_bench_end_to_end(self, tmp_path, capsys):
        bench_dir = _make_bench_dir(tmp_path, "obsbench_cli", TINY_BENCH)
        code = cli_main(["bench", "--bench-dir", bench_dir])
        assert code == 1  # test_boom fails
        err = capsys.readouterr().err
        assert "FAILED test_boom: AssertionError: shape check failed" in err
        assert "test_direct_call" not in err
        assert cli_main(["bench", "--bench-dir", bench_dir,
                         "--only", "tiny", "--list"]) == 0
        assert cli_main(["bench", "--bench-dir", bench_dir,
                         "--only", "nothing"]) == 2
        assert cli_main(["bench", "--bench-dir",
                         str(tmp_path / "absent")]) == 2
