"""Top-level NIC controller models.

* :class:`~repro.nic.config.NicConfig` — every architectural parameter
  of Figure 6 in one place (cores, banks, frequencies, caches, SDRAM,
  rings, firmware variant).
* :class:`~repro.nic.throughput.ThroughputSimulator` — the event-driven
  full-system simulator behind Figures 7/8 and Tables 3/4/5/6.
* :mod:`repro.nic.controller` — the cycle-level micro tier that runs
  real assembled firmware kernels on the full memory system (loaded on
  first use of :class:`MicroNic`).
"""

from repro._lazy import lazy_exports
from repro.nic.config import NicConfig, SOFTWARE_200MHZ, RMW_166MHZ
from repro.nic.throughput import ThroughputResult, ThroughputSimulator

__getattr__, __dir__ = lazy_exports(__name__, {"MicroNic": "repro.nic.controller"})

__all__ = [
    "MicroNic",
    "NicConfig",
    "RMW_166MHZ",
    "SOFTWARE_200MHZ",
    "ThroughputResult",
    "ThroughputSimulator",
]
