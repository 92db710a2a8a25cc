"""Run the ``benchmarks/bench_*.py`` modules for their shape assertions.

Every bench module regenerates one of the paper's tables or figures (or
guards a disabled path) and asserts the qualitative shape it should
have.  ``repro bench`` runs them without pytest: :func:`discover` finds
the modules, :func:`run_bench` imports one and calls each benchmark
function once with :class:`RunOnce` standing in for the
pytest-benchmark fixture, and reports the functions that raised.

Nothing here times anything.  The simulator's one perf ledger is
``simbench/``, compared across commits by ``scripts/simbench_pairs.py``;
``pytest benchmarks/ --benchmark-only`` still times every bench module
through pytest-benchmark.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
from typing import Callable, List, Optional, Sequence, Tuple


class RunOnce:
    """Stand-in for the pytest-benchmark fixture: runs the function once.

    Supports the two idioms the suite uses, and returns the function's
    result so the benches' shape assertions run against real output::

        result = benchmark(fn, *args)
        result = benchmark.pedantic(fn, args=..., kwargs=...,
                                    rounds=1, iterations=1)
    """

    def __call__(self, function: Callable, *args, **kwargs):
        return function(*args, **kwargs)

    def pedantic(self, function: Callable, args: tuple = (),
                 kwargs: Optional[dict] = None, **_timing):
        return function(*args, **(kwargs or {}))


def discover(bench_dir: str) -> List[str]:
    """Sorted ``bench_*`` module names found in ``bench_dir``."""
    if not os.path.isdir(bench_dir):
        raise FileNotFoundError(f"benchmark directory not found: {bench_dir}")
    return [
        entry[: -len(".py")]
        for entry in sorted(os.listdir(bench_dir))
        if entry.startswith("bench_") and entry.endswith(".py")
    ]


def select_benches(bench_dir: str, only: Sequence[str] = ()) -> List[str]:
    """Module names to run: all, or those containing one of ``only``."""
    names = discover(bench_dir)
    if not only:
        return names
    picked = [name for name in names if any(token in name for token in only)]
    if not picked:
        raise ValueError(
            f"no benchmark matches {list(only)} in {bench_dir} "
            f"(available: {', '.join(names)})"
        )
    return picked


def _benchmark_functions(module) -> List[Tuple[str, Callable]]:
    """Benchmark entry points: ``test_*``/``bench_*`` callables whose
    only parameter is the ``benchmark`` fixture."""
    found = []
    for name in sorted(vars(module)):
        if not (name.startswith("test_") or name.startswith("bench_")):
            continue
        function = getattr(module, name)
        if not inspect.isfunction(function):
            continue
        if list(inspect.signature(function).parameters) == ["benchmark"]:
            found.append((name, function))
    return found


def run_bench(module_name: str, bench_dir: str) -> List[Tuple[str, str]]:
    """Import one bench module and run each benchmark function once.

    Returns ``(function name, error)`` for every function, with an
    empty error for one that passed.
    """
    parent = os.path.dirname(os.path.abspath(bench_dir))
    if parent not in sys.path:
        sys.path.insert(0, parent)
    package = os.path.basename(os.path.abspath(bench_dir))
    module = importlib.import_module(f"{package}.{module_name}")
    outcomes = []
    for name, function in _benchmark_functions(module):
        try:
            function(RunOnce())
        except Exception as error:  # keep the run going; report the failure
            outcomes.append((name, f"{type(error).__name__}: {error}"))
        else:
            outcomes.append((name, ""))
    return outcomes
