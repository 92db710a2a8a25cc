"""Conformance and invariant-checking subsystem.

Three legs (see ``docs/validation.md``):

* **Runtime monitors** — :class:`InvariantMonitor` hooks threaded
  through the kernel, ordering boards, event queue, memories and the
  fabric wire (null-object by default, byte-identical when disabled).
* **Differential oracles** — paired runs diffed field-by-field
  (:mod:`repro.check.oracles`): software-vs-RMW ordering equivalence,
  fabric-loopback-vs-bare simulator, faulted-vs-clean accounting.
* **Seeded fuzzing with replay** — :mod:`repro.check.fuzz` samples
  random experiment points, runs them with monitors armed, shrinks
  failures and writes deterministic replay files
  (``repro check --fuzz N`` / ``--replay FILE``).

Only the null monitor is imported eagerly (it is dependency-free and
imported *by* the kernel); the armed monitor and the oracle/fuzz
machinery load on first use (:mod:`repro._lazy`), so ``import
repro.sim.kernel`` stays cheap and cycle-free.
"""

from repro._lazy import lazy_exports
from repro.check.nullmonitor import NULL_MONITOR, NullInvariantMonitor

_LAZY = {
    "InvariantMonitor": "repro.check.monitor",
    "InvariantViolation": "repro.check.monitor",
    "attach_monitor": "repro.check.verify",
    "verify_conservation": "repro.check.verify",
    "run_ordering_oracle": "repro.check.oracles",
    "run_loopback_oracle": "repro.check.oracles",
    "run_fault_oracle": "repro.check.oracles",
    "run_all_oracles": "repro.check.oracles",
    "OracleReport": "repro.check.oracles",
    "FuzzReport": "repro.check.fuzz",
    "replay": "repro.check.fuzz",
    "run_monitored": "repro.check.fuzz",
    "sample_point": "repro.check.fuzz",
    "golden_digest": "repro.check.golden",
    "golden_specs": "repro.check.golden",
}

__getattr__, __dir__ = lazy_exports(__name__, _LAZY)

__all__ = [
    "NULL_MONITOR",
    "NullInvariantMonitor",
    *sorted(_LAZY),
]
