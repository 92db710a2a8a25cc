"""Discrete-event simulation kernel with multiple clock domains.

This package plays the role of the Liberty Simulation Environment (LSE)
in the paper: it provides the scheduling substrate on which the NIC's
Spinach-like modules are composed.  Unlike LSE, which evaluates every
module every cycle, the kernel here is event driven — a module is only
activated when an event it scheduled (or a port it listens on) fires.
That choice is what makes sustained 10 Gb/s traffic tractable in Python
while preserving cycle-accurate ordering within each clock domain.
"""

from repro._lazy import lazy_exports
from repro.sim.kernel import ClockDomain, Simulator
from repro.sim.stats import Counter, Histogram, StatRegistry

# The port/module composition layer serves the cycle-level datapath
# model only; it loads on first use.
__getattr__, __dir__ = lazy_exports(__name__, {
    "Port": "repro.sim.module",
    "SimModule": "repro.sim.module",
})

__all__ = [
    "ClockDomain",
    "Counter",
    "Histogram",
    "Port",
    "SimModule",
    "Simulator",
    "StatRegistry",
]
