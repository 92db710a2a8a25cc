"""repro — reproduction of "An Efficient Programmable 10 Gigabit
Ethernet Network Interface Card" (HPCA 2005).

Public API tour:

* :class:`repro.nic.NicConfig` / :class:`repro.nic.ThroughputSimulator`
  — configure and run full-system throughput experiments (Figures 7/8,
  Tables 3-6).
* :class:`repro.nic.MicroNic` — run real assembled MIPS firmware on the
  cycle-level multi-core model.
* :mod:`repro.isa` — the MIPS-subset ISA with the paper's ``setb`` /
  ``update`` atomic instructions: assembler, interpreter, traces.
* :mod:`repro.ilp` — the offline IPC-limit study (Table 2).
* :mod:`repro.mem` — scratchpad/crossbar, caches, SDRAM, and the MESI
  coherence simulator (Figure 3).
* :mod:`repro.firmware` — frame-level parallel firmware: event queue,
  ordering boards, assembly kernels.
* :mod:`repro.analysis` — one generator per paper table/figure.
"""

from repro._lazy import lazy_exports

# Eager on purpose: every run compiles the NIC core here, before a
# fabric, QoS or fault module imports ``hashlib``.  Compiling the large
# ``repro.nic.throughput`` after OpenSSL is mapped raises the peak RSS
# of a fabric set-up (docs/architecture.md, "What a run loads").
from repro.nic import (
    NicConfig,
    RMW_166MHZ,
    SOFTWARE_200MHZ,
    ThroughputResult,
    ThroughputSimulator,
)

__getattr__, __dir__ = lazy_exports(__name__, {"MicroNic": "repro.nic.controller"})

__version__ = "1.0.0"

__all__ = [
    "MicroNic",
    "NicConfig",
    "RMW_166MHZ",
    "SOFTWARE_200MHZ",
    "ThroughputResult",
    "ThroughputSimulator",
    "__version__",
]
