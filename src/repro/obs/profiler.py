"""Simulator self-profiling: wall-time attribution per callback site.

The event kernel runs millions of closures per simulated millisecond;
when a full-report regeneration is slow, the question is *which
module's callbacks* burn the host CPU.  :class:`SimProfiler` attaches
to :class:`repro.sim.kernel.Simulator` (via ``attach_profiler``) and
aggregates per-callback wall time and invocation counts keyed by the
callback's ``module.qualname`` — lambdas and local closures keep their
enclosing function's qualified name, which is exactly the attribution
granularity a hot-path hunt needs (e.g.
``repro.nic.throughput.ThroughputSimulator._mac_tx_pump.<locals>.<lambda>``).

Bound-method callbacks additionally carry a stable instance tag when
the instance exposes one (``profile_tag``, ``name``, ``label`` or
``index`` — e.g. ``...NicEndpoint.start[nic1]``), so two NICs in a
fabric no longer collapse into one row.  Tags never include memory
addresses: the same run always produces the same labels.

Beyond flat per-site attribution, the profiler rolls sites up into
*phases* — the enclosing function family, with ``<locals>`` closures
and instance tags folded into their definition site — which is the
per-event-type view the performance observatory consumes
(``repro run --profile-sim --json`` embeds :meth:`SimProfiler.to_dict`
in the result JSON; see docs/observability.md).

Profiling changes *host* timing only: the kernel's simulated event
order and timestamps are untouched, so a profiled run produces the
same results as an unprofiled one, just slower.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional, Tuple

#: Attributes consulted (in order) for a stable instance tag on bound
#: method callbacks.  Only plain strings/ints qualify — anything whose
#: repr could embed a memory address is rejected, keeping labels
#: identical across runs.
_TAG_ATTRIBUTES = ("profile_tag", "name", "label", "index")


def _instance_tag(owner: object) -> str:
    """A stable, human-meaningful identity for a callback's instance."""
    if isinstance(owner, type):
        # classmethod: the class name is already in the qualname.
        return ""
    for attribute in _TAG_ATTRIBUTES:
        try:
            value = getattr(owner, attribute, None)
        except Exception:  # a raising property must not break profiling
            continue
        if isinstance(value, str) and value:
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return str(value)
    return ""


def describe_callback(callback: Callable[[], None]) -> str:
    """A stable attribution key for a kernel callback.

    * ``functools.partial`` chains unwrap to the underlying function;
    * bound methods resolve to their function *and* keep a stable
      instance tag (``[name]``) when the instance has one, so distinct
      NIC/flow/clock instances get distinct rows;
    * callables without ``__qualname__`` (functor objects) fall back to
      their type name instead of ``repr`` (which would embed an
      address and make every run's labels unique noise).
    """
    target = callback
    # Unwrap functools.partial chains to the underlying function.
    while isinstance(target, functools.partial):
        target = target.func
    owner = getattr(target, "__self__", None)
    func = getattr(target, "__func__", target)  # bound method -> function
    module = getattr(func, "__module__", None) or "<unknown>"
    qualname = getattr(func, "__qualname__", None)
    if qualname is None:
        qualname = type(target).__name__
    label = f"{module}.{qualname}"
    if owner is not None:
        tag = _instance_tag(owner)
        if tag:
            label = f"{label}[{tag}]"
    return label


def phase_of(key: str) -> str:
    """Collapse an attribution key to its *phase*: the callback family.

    The phase is the enclosing top-level function or method — local
    closures (``...<locals>.<lambda>``) fold into the function
    that defined them, and instance tags (``[nic1]``) fold away, so
    every event a kernel-callback family schedules lands in one phase
    row however many closures or instances fan it out.
    """
    base = key.split("[", 1)[0]
    head, sep, _rest = base.partition(".<locals>.")
    return head if sep else base


class SimProfiler:
    """Aggregates kernel-callback wall time by attribution key."""

    def __init__(self) -> None:
        # key -> [invocations, total wall seconds]
        self._stats: Dict[str, List[float]] = {}
        self.total_callbacks = 0
        self.total_wall_s = 0.0

    def record(self, callback: Callable[[], None], wall_s: float) -> None:
        """Called by the kernel after each profiled callback."""
        key = describe_callback(callback)
        entry = self._stats.get(key)
        if entry is None:
            self._stats[key] = [1, wall_s]
        else:
            entry[0] += 1
            entry[1] += wall_s
        self.total_callbacks += 1
        self.total_wall_s += wall_s

    # -- views -------------------------------------------------------------
    def top(self, n: int = 10) -> List[Tuple[str, int, float]]:
        """The ``n`` costliest callback sites: (key, count, wall seconds)."""
        ranked = sorted(
            ((key, int(count), wall) for key, (count, wall) in self._stats.items()),
            key=lambda item: item[2],
            reverse=True,
        )
        return ranked[:n]

    def by_phase(self) -> Dict[str, Tuple[int, float]]:
        """Per-event-type phase counters: callback family ->
        (invocations, wall seconds), families per :func:`phase_of`."""
        phases: Dict[str, List[float]] = {}
        for key, (count, wall) in self._stats.items():
            entry = phases.setdefault(phase_of(key), [0, 0.0])
            entry[0] += count
            entry[1] += wall
        return {name: (int(c), w) for name, (c, w) in phases.items()}

    def by_module(self) -> Dict[str, Tuple[int, float]]:
        """Collapse attribution keys to their defining module."""
        modules: Dict[str, List[float]] = {}
        for key, (count, wall) in self._stats.items():
            # key is "package.module.Qual.Name"; the module part is the
            # prefix up to the first segment that starts uppercase (a
            # class) or the final callable name.
            parts = key.split("[", 1)[0].split(".")
            module_parts = []
            for part in parts[:-1]:
                if part and (part[0].isupper() or part == "<locals>"):
                    break
                module_parts.append(part)
            module = ".".join(module_parts) if module_parts else key
            entry = modules.setdefault(module, [0, 0.0])
            entry[0] += count
            entry[1] += wall
        return {name: (int(c), w) for name, (c, w) in modules.items()}

    # -- machine-readable report -------------------------------------------
    def to_dict(self, top_n: Optional[int] = None) -> Dict[str, object]:
        """The full profile as JSON-safe data: totals, ranked callback
        sites, phase counters and module rollups — the report the
        performance observatory attributes hot-path wall time with."""
        total = self.total_wall_s or 1.0

        def ranked(table: Dict[str, Tuple[int, float]]) -> List[Dict[str, object]]:
            rows = [
                {
                    "key": key,
                    "calls": count,
                    "wall_s": wall,
                    "share": wall / total,
                }
                for key, (count, wall) in table.items()
            ]
            rows.sort(key=lambda row: row["wall_s"], reverse=True)
            return rows

        callbacks = ranked(
            {key: (int(c), w) for key, (c, w) in self._stats.items()}
        )
        if top_n is not None:
            callbacks = callbacks[:top_n]
        return {
            "total_callbacks": self.total_callbacks,
            "total_wall_s": self.total_wall_s,
            "callbacks": callbacks,
            "phases": ranked(self.by_phase()),
            "modules": ranked(self.by_module()),
        }

    def report(self, top_n: int = 12) -> str:
        """Human-readable top-N tables (callback sites, then phases)."""
        lines = [
            f"simulator profile: {self.total_callbacks} callbacks, "
            f"{self.total_wall_s:.3f} s wall",
            f"{'wall s':>9}  {'share':>6}  {'calls':>9}  callback",
        ]
        total = self.total_wall_s or 1.0
        for key, count, wall in self.top(top_n):
            lines.append(
                f"{wall:9.4f}  {wall / total:6.1%}  {count:9d}  {key}"
            )
        phases = sorted(
            self.by_phase().items(), key=lambda item: item[1][1], reverse=True
        )
        lines.append(f"{'wall s':>9}  {'share':>6}  {'calls':>9}  phase")
        for name, (count, wall) in phases[:top_n]:
            lines.append(
                f"{wall:9.4f}  {wall / total:6.1%}  {count:9d}  {name}"
            )
        return "\n".join(lines)
